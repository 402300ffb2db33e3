"""End-to-end runs: batch loop, state files, result/report writers, stats.

Offline mode feeds every batch of the plan through the update cycle in
process; online mode additionally persists a checksummed state file after
each cycle, keeping only the newest one, and can resume a run by loading the
newest state found in the state directory. Both finish by finalizing the
collection against the bounded observation window, so their results are
identical by construction.
"""

from __future__ import annotations

import csv
import os
import re
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

from .cliques import Clique, format_clique, parse_clique, sort_cliques
from .errors import ConfigError, VerificationError
from .linkstream import LinkStream
from .oracle import OracleConfig, brute_force_enumerate
from .partition import PartitionPlan, partition_links
from .update import (
    BatchState,
    CycleStats,
    finalize,
    initial_state,
    load_state,
    save_state,
    update_batch,
)

_STATE_FILE = re.compile(r"state_(\d{4})\.txt$")

REPORT_COLUMNS = (
    "cycle",
    "t_boundary",
    "batch_links",
    "maximal",
    "frontier",
    "new_cliques",
    "checked",
    "peak_live",
    "pair_checks",
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
        s = self.stats
        return {
            "cycle": self.cycle,
            "t_boundary": s.t_boundary,
            "batch_links": s.batch_links,
            "maximal": s.n_maximal,
            "frontier": s.n_frontier,
            "new_cliques": s.n_new,
            "checked": s.n_checked,
            "peak_live": s.peak_live,
            "pair_checks": s.n_pair_checks,
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
    finalize_seconds: float = 0.0

    @property
    def final_count(self) -> int:
        return len(self.final)


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

    Online mode writes state_NNNN.txt into state_dir after each cycle and then
    deletes the older state files, so only the newest state is kept. A later
    invocation resumes after the newest state found there (its parameters and
    boundary must match the plan).
    """
    say = log or (lambda _msg: None)
    if mode not in ("offline", "online"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "online" and state_dir is None:
        raise ConfigError("online mode needs a state directory")

    batches = partition_links(stream, plan)
    state = initial_state(delta, gamma, stream.t_start)
    start_idx = 0
    if mode == "online":
        state_dir = Path(state_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
        resumed = _load_latest_state(state_dir)
        if resumed is not None:
            idx, loaded = resumed
            _check_resume(loaded, delta, gamma, stream.t_start, batches, idx)
            state = loaded
            start_idx = idx
            say(f"resuming after cycle {idx} (boundary {loaded.t_boundary})")

    rows: list[CycleRow] = []
    for i in range(start_idx, len(batches)):
        boundary, chunk = batches[i]
        begin = time.perf_counter()
        state, stats = update_batch(state, chunk, boundary)
        wall = time.perf_counter() - begin
        rows.append(CycleRow(i + 1, stats, wall, _peak_rss_kb()))
        say(
            f"cycle {i + 1}/{len(batches)}: boundary {boundary}, "
            f"{stats.batch_links} links, {stats.n_maximal} maximal, "
            f"{stats.n_frontier} frontier, {wall:.3f}s"
        )
        if mode == "online":
            _write_state_file(state, state_dir, i + 1)

    begin = time.perf_counter()
    final = finalize(state, stream)
    finalize_seconds = time.perf_counter() - begin
    say(f"final: {len(final)} maximal cliques ({finalize_seconds:.3f}s)")
    if out_path is not None:
        Path(out_path).write_text(render_result(final))
    if report_path is not None:
        _write_report(Path(report_path), rows, final, stream, finalize_seconds)
    return RunReport(rows, True, final, state, finalize_seconds)


def _state_files(state_dir: Path) -> Iterator[tuple[int, Path]]:
    """(cycle, path) of every state_NNNN.txt in the directory."""
    for entry in state_dir.iterdir():
        m = _STATE_FILE.fullmatch(entry.name)
        if m:
            yield int(m.group(1)), entry


def _load_latest_state(state_dir: Path) -> Optional[tuple[int, BatchState]]:
    best = max(_state_files(state_dir), default=None)
    if best is None:
        return None
    with open(best[1], "r", encoding="utf-8") as fh:
        return best[0], load_state(fh)


def _check_resume(
    loaded: BatchState,
    delta: int,
    gamma: int,
    t_start: int,
    batches: Sequence[tuple[int, list]],
    idx: int,
) -> None:
    if (loaded.delta, loaded.gamma) != (delta, gamma):
        raise ConfigError(
            f"state was built with delta={loaded.delta} gamma={loaded.gamma}, "
            f"run asks for delta={delta} gamma={gamma}"
        )
    if loaded.t_start != t_start:
        raise ConfigError(
            f"state starts at {loaded.t_start}, stream at {t_start}"
        )
    if idx > len(batches) or batches[idx - 1][0] != loaded.t_boundary:
        raise ConfigError(
            f"state boundary {loaded.t_boundary} (cycle {idx}) does not match "
            f"the partition plan"
        )


def _write_state_file(state: BatchState, state_dir: Path, cycle: int) -> None:
    """Atomically write state_{cycle}.txt, then delete the older state files
    (the previous one survives until the replace has succeeded)."""
    path = state_dir / f"state_{cycle:04d}.txt"
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        save_state(state, fh)
    os.replace(tmp, path)
    for older, entry in _state_files(state_dir):
        if older < cycle:
            entry.unlink()


def enumerate_maximal_cliques(
    stream: LinkStream, delta: int, gamma: int
) -> list[Clique]:
    """All maximal cliques of a bounded stream in one pass (single batch)."""
    state = initial_state(delta, gamma, stream.t_start)
    state, _ = update_batch(state, list(stream.links), stream.t_end)
    return finalize(state, stream)


# -- outputs -----------------------------------------------------------------------


def render_result(cliques: Iterable[Clique]) -> str:
    """Canonical result text: one clique per line, sorted."""
    return "".join(format_clique(c) + "\n" for c in sort_cliques(cliques))


def load_result(source: TextIO) -> list[Clique]:
    """Parse a result file back into cliques."""
    out = []
    for raw in source:
        line = raw.strip()
        if line:
            out.append(parse_clique(line))
    return out


def _write_report(
    path: Path,
    rows: Sequence[CycleRow],
    final: Sequence[Clique],
    stream: LinkStream,
    finalize_seconds: float,
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_record())
        writer.writerow(
            {
                "cycle": "final",
                "t_boundary": stream.t_end,
                "batch_links": "",
                "maximal": len(final),
                "frontier": "",
                "new_cliques": "",
                "checked": "",
                "peak_live": "",
                "pair_checks": "",
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
    best_span = max(c.span.length for c in cliques)
    best_size = max(len(c.vertices) for c in cliques)
    temporal = sort_cliques(c for c in cliques if c.span.length == best_span)
    cardinal = sort_cliques(c for c in cliques if len(c.vertices) == best_size)
    return temporal, cardinal


# -- verification --------------------------------------------------------------------


def verify_against_oracle(
    stream: LinkStream,
    delta: int,
    gamma: int,
    final: Sequence[Clique],
    config: Optional[OracleConfig] = None,
) -> int:
    """Compare a final clique list against exhaustive enumeration; raises
    VerificationError on any difference, returns the clique count when equal.
    OracleBoundsError propagates when the instance is too large to check."""
    expected = brute_force_enumerate(
        stream, delta, gamma, config or OracleConfig()
    )
    got_keys = {c.key() for c in final}
    want_keys = {c.key() for c in expected}
    if got_keys != want_keys:
        missing = sort_cliques(c for c in expected if c.key() not in got_keys)
        extra = sort_cliques(c for c in final if c.key() not in want_keys)
        parts = []
        if missing:
            parts.append("missing: " + "; ".join(map(format_clique, missing)))
        if extra:
            parts.append("spurious: " + "; ".join(map(format_clique, extra)))
        raise VerificationError("result differs from exhaustive check — " + " | ".join(parts))
    return len(want_keys)
