"""End-to-end runs: batch loop, state files, result/report writers, stats.

Offline mode feeds every batch of the plan through the update cycle in
process, keeping each cycle's closed cliques in a list; online mode, after
the last cycle and once per second of cycle work, appends them to closed.txt
and then replaces the one checksummed state file, state_latest.txt, and can
resume a run from that state, after the plan's batch that ends at the
state's boundary, with the closed cliques it counts.
Both finish by finalizing the closed cliques and the last frontier against
the bounded observation window, so their results are identical by
construction.
"""

from __future__ import annotations

import csv
import os
import resource
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TextIO

from .cliques import Clique, format_clique, parse_clique, sort_cliques
from .errors import ConfigError, StateError, VerificationError
from .linkstream import Link, LinkStream
from .oracle import brute_force_enumerate
from .partition import PartitionPlan, partition_links
from .update import (
    EMPTY_DIGEST,
    BatchState,
    CycleStats,
    chain_closed_digest,
    chain_input_digest,
    finalize,
    initial_state,
    load_state,
    require_written_back,
    save_state,
    update_batch,
)

_CLOSED_FILE = "closed.txt"
_STATE_FILE = "state_latest.txt"
# Seconds of cycle work between two online checkpoints: a process that dies
# redoes about this much work when it is run again.
_CHECKPOINT_S = 1.0

REPORT_COLUMNS = (
    "cycle",
    *(f.name for f in fields(CycleStats)),
    "wall_seconds",
    "peak_rss_kb",
)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass(frozen=True)
class CycleRow:
    """One report line: the cycle stats plus wall-clock and memory."""

    cycle: int
    stats: CycleStats
    wall_seconds: float
    peak_rss_kb: int

    def as_record(self) -> dict[str, object]:
        return {
            "cycle": self.cycle,
            **asdict(self.stats),
            "wall_seconds": round(self.wall_seconds, 6),
            "peak_rss_kb": self.peak_rss_kb,
        }


@dataclass
class RunReport:
    """Everything a run produced: per-cycle rows, the final clique list, and
    the closing state. `completed` is always True: a run that returns has
    consumed every batch of its plan."""

    rows: list[CycleRow]
    completed: bool
    final: list[Clique]
    state: BatchState


def run_pipeline(
    stream: LinkStream,
    delta: int,
    gamma: int,
    plan: PartitionPlan,
    mode: str = "offline",
    state_dir: Optional[Path] = None,
    out_path: Optional[Path] = None,
    report_path: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> RunReport:
    """Run the batch loop over `stream` per `plan` and finalize.

    Online mode writes a checkpoint after the last cycle and once per second
    of cycle work: after any cycle that brings the summed cycle wall times
    since the previous checkpoint to _CHECKPOINT_S. A checkpoint appends the
    closed cliques of each cycle since the previous one to
    state_dir/closed.txt, cycle by cycle, then atomically replaces
    state_dir/state_latest.txt, so the directory holds those two files
    only. A later invocation resumes from that state (a run that died redoes
    the cycles after it) after the plan's batch whose boundary is the
    state's (its parameters and the input digest of the batches up to there
    must match), reading back the closed cliques it counts. A run is online
    exactly when it has a state directory; `mode` must agree (ConfigError),
    as offline writes no state a later run could resume from.
    """
    say = log or (lambda _msg: None)
    if mode not in ("offline", "online"):
        raise ConfigError(f"unknown mode {mode!r}")
    if (mode == "online") != (state_dir is not None):
        raise ConfigError("a run is online exactly when it has a state directory")

    batches = partition_links(stream, plan)
    state = initial_state(delta, gamma, stream.t_start)
    closed: list[Clique] = []
    start_idx = 0
    if mode == "online":
        state_dir = Path(state_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
        path = state_dir / _STATE_FILE
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                state = load_state(fh)
            start_idx = _check_resume(state, delta, gamma, stream.t_start, batches, plan)
            say(f"resuming after cycle {start_idx} (boundary {state.t_boundary})")
        closed = _resume_closed(state_dir / _CLOSED_FILE, state)

    rows: list[CycleRow] = []
    unsaved: list[list[Clique]] = []  # each cycle's closed cliques since the last checkpoint
    unsaved_s = 0.0
    for i in range(start_idx, len(batches)):
        boundary, chunk = batches[i]
        begin = time.perf_counter()
        state, cycle_closed, stats = update_batch(state, chunk, boundary)
        wall = time.perf_counter() - begin
        rows.append(CycleRow(i + 1, stats, wall, _peak_rss_kb()))
        say(
            f"cycle {i + 1}/{len(batches)}: boundary {boundary}, "
            f"{stats.batch_links} links, {stats.maximal} maximal, "
            f"{stats.frontier} frontier, {wall:.3f}s"
        )
        closed.extend(cycle_closed)
        if mode == "online":
            unsaved.append(cycle_closed)
            unsaved_s += wall
            if unsaved_s >= _CHECKPOINT_S or i == len(batches) - 1:
                with open(state_dir / _CLOSED_FILE, "a", encoding="utf-8") as fh:
                    fh.write("".join(map(render_result, unsaved)))
                _write_state_file(state, state_dir)
                unsaved, unsaved_s = [], 0.0

    begin = time.perf_counter()
    final = finalize(state, closed, stream)
    finalize_seconds = time.perf_counter() - begin
    say(f"final: {len(final)} maximal cliques ({finalize_seconds:.3f}s)")
    if out_path is not None:
        Path(out_path).write_text(render_result(final))
    if report_path is not None:
        _write_report(Path(report_path), rows, final, stream, finalize_seconds)
    return RunReport(rows, True, final, state)


def _check_resume(
    loaded: BatchState,
    delta: int,
    gamma: int,
    t_start: int,
    batches: Sequence[tuple[int, tuple[Link, ...]]],
    plan: PartitionPlan,
) -> int:
    """The number of batches `loaded` has consumed: the position of its
    boundary among the plan's. ConfigError if its parameters differ, its
    boundary is not one of the plan's, or the links of those batches are
    not the ones it was built from."""
    if (loaded.delta, loaded.gamma) != (delta, gamma):
        raise ConfigError(
            f"state was built with delta={loaded.delta} gamma={loaded.gamma}, "
            f"run asks for delta={delta} gamma={gamma}"
        )
    if loaded.t_start != t_start:
        raise ConfigError(
            f"state starts at {loaded.t_start}, stream at {t_start}"
        )
    boundaries = [boundary for boundary, _ in batches]
    if loaded.t_boundary not in boundaries:
        raise ConfigError(
            f"state boundary {loaded.t_boundary} is not a boundary of the "
            f"partition plan {plan}"
        )
    idx = boundaries.index(loaded.t_boundary) + 1
    digest = EMPTY_DIGEST
    for _, chunk in batches[:idx]:
        digest = chain_input_digest(digest, chunk)
    if digest != loaded.input_digest:
        raise ConfigError(
            f"the links of the first {idx} batches differ from those the "
            f"state was built from"
        )
    return idx


def _resume_closed(path: Path, state: BatchState) -> list[Clique]:
    """The closed cliques `state` counts, read from the first `state.closed`
    lines of `path`, which is cut after them: later lines come from a cycle
    whose state was never written, or are torn, and that cycle runs again.
    StateError if a counted line is missing, not canonical or changed."""
    data = path.read_bytes() if path.exists() else b""
    if data.count(b"\n") < state.closed:
        raise StateError(f"{path.name} has fewer than the {state.closed} counted lines")
    lines = data.split(b"\n")[: state.closed]
    cliques = []
    for at, line in enumerate(lines, start=1):
        try:
            cliques.append(parse_clique(line.decode("ascii")))
        except ValueError as exc:
            raise StateError(f"{path.name} line {at}: {exc}") from exc
    digest = chain_closed_digest(EMPTY_DIGEST, map(format_clique, cliques))
    if digest != state.closed_digest:
        raise StateError(f"{path.name} does not match the state's closed digest")
    with open(path, "ab") as fh:
        fh.truncate(sum(len(line) + 1 for line in lines))
    return cliques


def _write_state_file(state: BatchState, state_dir: Path) -> None:
    """Write state_latest.tmp and replace state_latest.txt with it, so the
    directory holds the previous checkpoint's state or this one, whole, at
    every moment. Called after the last cycle and once per second of cycle
    work."""
    path = state_dir / _STATE_FILE
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        save_state(state, fh)
    os.replace(tmp, path)


def enumerate_maximal_cliques(
    stream: LinkStream, delta: int, gamma: int
) -> list[Clique]:
    """All maximal cliques of a bounded stream in one pass (single batch)."""
    state = initial_state(delta, gamma, stream.t_start)
    state, closed, _ = update_batch(state, stream.links, stream.t_end)
    return finalize(state, closed, stream)


# -- outputs -----------------------------------------------------------------------


def render_result(cliques: Iterable[Clique]) -> str:
    """Canonical result text: one clique per line, sorted."""
    return "".join(format_clique(c) + "\n" for c in sort_cliques(cliques))


def load_result(source: TextIO) -> list[Clique]:
    """Parse a result file back into cliques. The text is accepted only if
    `render_result` writes the distinct cliques back byte for byte, else
    ValueError naming the first line that differs or does not parse."""
    text = source.read()
    cliques = []
    for at, line in enumerate(text.splitlines(), start=1):
        try:
            cliques.append(parse_clique(line))
        except ValueError as exc:
            raise ValueError(f"result line {at}: {exc}") from exc
    require_written_back(
        text, render_result(set(cliques)), "result", "render_result", ValueError
    )
    return cliques


def _write_report(
    path: Path,
    rows: Sequence[CycleRow],
    final: Sequence[Clique],
    stream: LinkStream,
    finalize_seconds: float,
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_record())
        writer.writerow(
            {
                "cycle": "final",
                "t_boundary": stream.t_end,
                "maximal": len(final),
                "wall_seconds": round(finalize_seconds, 6),
                "peak_rss_kb": _peak_rss_kb(),
            }
        )


# -- summary statistics -------------------------------------------------------------


def stats_maximum_cliques(
    cliques: Sequence[Clique],
) -> tuple[list[Clique], list[Clique]]:
    """The longest-interval cliques and the most-vertices cliques (all ties)."""
    if not cliques:
        raise ValueError("no cliques to summarize")
    best_span = max(c.tb - c.ta for c in cliques)
    best_size = max(len(c.vertices) for c in cliques)
    temporal = sort_cliques(c for c in cliques if c.tb - c.ta == best_span)
    cardinal = sort_cliques(c for c in cliques if len(c.vertices) == best_size)
    return temporal, cardinal


# -- verification --------------------------------------------------------------------


def verify_against_oracle(
    stream: LinkStream,
    delta: int,
    gamma: int,
    final: Sequence[Clique],
) -> int:
    """Compare a final clique list against exhaustive enumeration; raises
    VerificationError on any difference, returns the clique count when equal.
    OracleBoundsError propagates when the instance is too large to check."""
    expected = brute_force_enumerate(stream, delta, gamma)
    got, want = set(final), set(expected)
    if got != want:
        missing = sort_cliques(want - got)
        extra = sort_cliques(got - want)
        parts = []
        if missing:
            parts.append("missing: " + "; ".join(map(format_clique, missing)))
        if extra:
            parts.append("spurious: " + "; ".join(map(format_clique, extra)))
        raise VerificationError("result differs from exhaustive check — " + " | ".join(parts))
    return len(want)
