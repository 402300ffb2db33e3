"""Command-line front end.

`tclique run` parses a link stream, slices it into batches, runs the
incremental clique engine, and writes the final clique list plus an optional
per-cycle CSV report. `tclique oracle` runs the exhaustive reference
enumeration on small inputs. `tclique sweep` runs the engine over a grid of
(delta, gamma) values and tabulates result sizes and runtimes in a CSV. The
three read their input through the same flags and reader. Exit codes: 0
success, 1 usage error, 2 data or state error, 3 verification mismatch or a
result that fails certification.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .cliques import Clique, format_clique, sort_cliques
from .errors import OracleBoundsError, TcliqueError, VerificationError
from .linkstream import FormatSpec, LinkStream, parse_links
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


def _positive(text: str) -> int:
    """argparse type of counts (delta, gamma, partitions): a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return value


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


def _add_batch_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scheme",
        choices=("ut", "ulc", "explicit"),
        default="ut",
        help="batch boundary scheme (default ut)",
    )
    p.add_argument(
        "--partitions",
        type=_positive,
        default=1,
        help="batch count for ut/ulc schemes (default 1)",
    )
    p.add_argument(
        "--boundaries",
        default=None,
        help="comma-separated boundaries for --scheme explicit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tclique",
        description="maximal clique enumeration over temporal link streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="incremental enumeration over batches")
    oracle = sub.add_parser("oracle", help="exhaustive reference enumeration")
    for p in (run, oracle):
        _add_input_flags(p)
        p.add_argument("--delta", type=_positive, required=True, help="window length")
        p.add_argument("--gamma", type=_positive, required=True, help="links per window")
    _add_batch_flags(run)
    run.add_argument(
        "--state-dir",
        default=None,
        help="run online: keep the state here, written after the last cycle and "
        "once per second of cycle work, and resume from it",
    )
    run.add_argument("--out", default=None, help="write the final clique list here")
    run.add_argument("--report", default=None, help="write the per-cycle CSV here")
    run.add_argument(
        "--verify",
        action="store_true",
        help="check the result against exhaustive enumeration (small inputs)",
    )
    oracle.add_argument("--out", default=None, help="write the clique list here")

    sweep = sub.add_parser("sweep", help="result sizes and runtimes over a (delta, gamma) grid")
    _add_input_flags(sweep)
    _add_batch_flags(sweep)
    sweep.add_argument(
        "--deltas", type=_positive, nargs="+", default=[2, 4, 8],
        help="window lengths (default 2 4 8)",
    )
    sweep.add_argument(
        "--gammas", type=_positive, nargs="+", default=[1, 2, 3],
        help="links per window (default 1 2 3)",
    )
    sweep.add_argument(
        "--out", default="sweep.csv", help="write the CSV here (default sweep.csv)"
    )
    return parser


def _load_stream(args: argparse.Namespace) -> LinkStream:
    spec = FormatSpec(
        column_order=args.format, delimiter=args.delimiter, rebase=args.rebase
    )
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_links(fh, spec, (args.t_start, args.t_end))


def _print_input_summary(stream: LinkStream) -> None:
    dropped = stream.dropped_self_loops
    print(
        f"{stream.n_links} links, {stream.n_vertices} vertices, "
        f"{stream.n_static_edges} static edges, observation "
        f"[{stream.t_start},{stream.t_end}]"
        + (f", {dropped} self-loops dropped" if dropped else "")
    )


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
    return PartitionPlan(args.scheme, partitions=args.partitions)


def _maxima(cliques: Sequence[Clique]) -> tuple[int, list[Clique], int, list[Clique]]:
    """The longest span with the cliques that have it, and the largest vertex
    set size with the cliques that have it; 0 and no cliques for no cliques."""
    if not cliques:
        return 0, [], 0, []
    temporal, cardinal = stats_maximum_cliques(cliques)
    return temporal[0].tb - temporal[0].ta, temporal, len(cardinal[0].vertices), cardinal


def _print_maxima(cliques: Sequence[Clique]) -> None:
    if not cliques:
        print("no cliques found")
        return
    span, temporal, size, cardinal = _maxima(cliques)

    def _head(items):
        text = "; ".join(format_clique(c) for c in items[:5])
        if len(items) > 5:
            text += f" (+{len(items) - 5} more)"
        return text

    print(f"longest interval ({span}): {_head(temporal)}")
    print(f"largest vertex set ({size}): {_head(cardinal)}")


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    plan = _make_plan(args, parser)
    stream = _load_stream(args)
    _print_input_summary(stream)
    report = run_pipeline(
        stream,
        args.delta,
        args.gamma,
        plan,
        mode="online" if args.state_dir else "offline",
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


SWEEP_COLUMNS = (
    "delta", "gamma", "n_maximal", "longest_span", "largest_vertex_set", "cycles", "wall_seconds",
)


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    plan = _make_plan(args, parser)
    stream = _load_stream(args)
    _print_input_summary(stream)
    rows = []
    for delta in args.deltas:
        for gamma in args.gammas:
            begin = time.perf_counter()
            report = run_pipeline(stream, delta, gamma, plan)
            wall = time.perf_counter() - begin
            final = report.final
            longest, _, largest, _ = _maxima(final)
            rows.append((
                delta, gamma, len(final), longest, largest, len(report.rows), f"{wall:.4f}",
            ))
            print(f"delta={delta:4d} gamma={gamma:2d}  "
                  f"maximal={len(final):6d}  span<= {longest:5d}  "
                  f"|Z|<= {largest:2d}  {wall:8.3f}s")
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_COMMANDS = {"run": _cmd_run, "oracle": _cmd_oracle, "sweep": _cmd_sweep}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:  # argparse --help (0) or usage error (1)
        return int(exc.code or 0)
    except VerificationError as exc:  # before TcliqueError, its base
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except OracleBoundsError as exc:
        print(f"error: instance too large for exhaustive checking: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (TcliqueError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
