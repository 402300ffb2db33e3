"""Command-line front end.

`tclique run` parses a link stream, slices it into batches, runs the
incremental clique engine, and writes the final clique list plus an optional
per-cycle CSV report. `tclique oracle` runs the exhaustive reference
enumeration on small inputs. Exit codes: 0 success, 1 usage error, 2 data or
state error, 3 verification mismatch or a result that fails certification.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .cliques import format_clique, sort_cliques
from .errors import (
    ConfigError,
    OracleBoundsError,
    ParseError,
    PartitionError,
    StateError,
    VerificationError,
)
from .linkstream import FormatSpec, parse_links
from .oracle import brute_force_enumerate
from .partition import PartitionPlan
from .pipeline import (
    render_result,
    run_pipeline,
    stats_maximum_cliques,
    verify_against_oracle,
)

USAGE_ERROR = 1
DATA_ERROR = 2
VERIFY_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse onto exit code 1 for usage errors (default would be 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="link stream file")
    p.add_argument(
        "--format",
        choices=("tuv", "uvt"),
        default="tuv",
        help="column order of the input lines (default tuv)",
    )
    p.add_argument(
        "--delimiter",
        choices=("whitespace", "comma"),
        default="whitespace",
        help="field separator (default whitespace)",
    )
    p.add_argument(
        "--rebase",
        action="store_true",
        help="shift timestamps so the earliest becomes 0",
    )
    p.add_argument("--delta", type=int, required=True, help="window length")
    p.add_argument("--gamma", type=int, required=True, help="links per window")
    p.add_argument(
        "--t-start",
        type=int,
        default=None,
        help="observation start (default: earliest timestamp; applies after --rebase)",
    )
    p.add_argument(
        "--t-end",
        type=int,
        default=None,
        help="observation end (default: latest timestamp; applies after --rebase)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tclique",
        description="maximal clique enumeration over temporal link streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="incremental enumeration over batches")
    _add_input_flags(run)
    run.add_argument(
        "--scheme",
        choices=("ut", "ulc", "explicit"),
        default="ut",
        help="batch boundary scheme (default ut)",
    )
    run.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="batch count for ut/ulc schemes (default 1)",
    )
    run.add_argument(
        "--boundaries",
        default=None,
        help="comma-separated boundaries for --scheme explicit",
    )
    run.add_argument(
        "--mode",
        choices=("offline", "online"),
        default="offline",
        help="offline: all batches in process; online: state file per cycle",
    )
    run.add_argument("--state-dir", default=None, help="state directory (online)")
    run.add_argument("--out", default=None, help="write the final clique list here")
    run.add_argument("--report", default=None, help="write the per-cycle CSV here")
    run.add_argument(
        "--verify",
        action="store_true",
        help="check the result against exhaustive enumeration (small inputs)",
    )

    oracle = sub.add_parser("oracle", help="exhaustive reference enumeration")
    _add_input_flags(oracle)
    oracle.add_argument("--out", default=None, help="write the clique list here")
    return parser


def _load_stream(args: argparse.Namespace):
    spec = FormatSpec(
        column_order=args.format, delimiter=args.delimiter, rebase=args.rebase
    )
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_links(fh, spec, (args.t_start, args.t_end))


def _make_plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> PartitionPlan:
    if args.scheme == "explicit":
        if not args.boundaries:
            parser.error("--scheme explicit needs --boundaries")
        try:
            bounds = tuple(int(tok) for tok in args.boundaries.split(","))
        except ValueError:
            parser.error(f"bad --boundaries value {args.boundaries!r}")
        return PartitionPlan("explicit", boundaries=bounds)
    if args.boundaries:
        parser.error("--boundaries only applies to --scheme explicit")
    if args.partitions < 1:
        parser.error("--partitions must be at least 1")
    return PartitionPlan(args.scheme, partitions=args.partitions)


def _validate_common(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.delta <= 0:
        parser.error("--delta must be positive")
    if args.gamma <= 0:
        parser.error("--gamma must be positive")


def _print_maxima(cliques) -> None:
    if not cliques:
        print("no cliques found")
        return
    temporal, cardinal = stats_maximum_cliques(cliques)

    def _head(items):
        text = "; ".join(format_clique(c) for c in items[:5])
        if len(items) > 5:
            text += f" (+{len(items) - 5} more)"
        return text

    span = temporal[0].tb - temporal[0].ta
    size = len(cardinal[0].vertices)
    print(f"longest interval ({span}): {_head(temporal)}")
    print(f"largest vertex set ({size}): {_head(cardinal)}")


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _validate_common(args, parser)
    if args.mode == "online" and not args.state_dir:
        parser.error("--mode online needs --state-dir")
    if args.state_dir and args.mode != "online":
        parser.error("--state-dir only applies to --mode online")
    plan = _make_plan(args, parser)
    stream = _load_stream(args)
    dropped = stream.dropped_self_loops
    print(
        f"{stream.n_links} links, {stream.n_vertices} vertices, "
        f"{stream.n_static_edges} static edges, observation "
        f"[{stream.t_start},{stream.t_end}]"
        + (f", {dropped} self-loops dropped" if dropped else "")
    )
    report = run_pipeline(
        stream,
        args.delta,
        args.gamma,
        plan,
        mode=args.mode,
        state_dir=Path(args.state_dir) if args.state_dir else None,
        out_path=Path(args.out) if args.out else None,
        report_path=Path(args.report) if args.report else None,
        log=print,
    )
    _print_maxima(report.final)
    if args.out:
        print(f"result written to {args.out}")
    if args.report:
        print(f"report written to {args.report}")
    if args.verify:
        n = verify_against_oracle(stream, args.delta, args.gamma, report.final)
        print(f"verification passed ({n} cliques)")
    return 0


def _cmd_oracle(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _validate_common(args, parser)
    stream = _load_stream(args)
    cliques = sort_cliques(brute_force_enumerate(stream, args.delta, args.gamma))
    print(f"{len(cliques)} maximal cliques")
    if args.out:
        Path(args.out).write_text(render_result(cliques))
        print(f"result written to {args.out}")
    else:
        for clique in cliques:
            print(format_clique(clique))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args, parser)
        return _cmd_oracle(args, parser)
    except SystemExit as exc:  # argparse --help (0) or usage error (1)
        return int(exc.code or 0)
    except (ParseError, PartitionError, StateError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OracleBoundsError as exc:
        print(f"error: instance too large for exhaustive checking: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
