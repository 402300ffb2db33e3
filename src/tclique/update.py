"""Incremental maintenance of the maximal clique set across link batches.

Each call to `update_batch` consumes one batch of links up to a new time
boundary and reworks the clique collection in two phases: carried-over
frontier cliques are re-extended to the right over the refreshed stream, then
fresh pair seeds from the window around the previous boundary are expanded in
full. Cliques made non-maximal by the new links are swept out afterwards, and
the state keeps only the link tail still able to interact with future
batches. `finalize` turns the running state into the definitive clique set of
a bounded observation window and certifies it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, TextIO

from .cliques import (
    Clique,
    CliqueKey,
    Interval,
    contains,
    format_clique,
    is_delta_gamma_clique,
    parse_clique,
)
from .errors import ConfigError, StateError, TcliqueError
from .expand import WorkItem, WorkSets, drain, seed_cliques
from .linkstream import LinkStream, TemporalLink

STATE_MAGIC = "tclique-state"
STATE_VERSION = 1


@dataclass(frozen=True)
class BatchState:
    """Resumable snapshot between two update cycles.

    t_boundary is None before the first cycle has run. maximal holds every
    clique confirmed maximal for links up to the boundary; frontier holds the
    cliques whose right end reached the boundary (re-examined next cycle),
    among them every maximal clique that reaches it;
    link_tail holds the links within delta of the boundary — all the history
    a future batch can still interact with.
    """

    delta: int
    gamma: int
    t_start: int
    t_boundary: Optional[int]
    maximal: dict[CliqueKey, Clique]
    frontier: dict[CliqueKey, Clique]
    link_tail: tuple[TemporalLink, ...]

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if self.t_boundary is None:
            if self.maximal or self.frontier or self.link_tail:
                raise ConfigError("fresh state must be empty")
        else:
            for clique in self.frontier.values():
                if clique.tb < self.t_boundary:
                    raise ConfigError(
                        f"frontier clique {clique} ends before boundary "
                        f"{self.t_boundary}"
                    )
            for key, clique in self.maximal.items():
                if clique.tb >= self.t_boundary and key not in self.frontier:
                    raise ConfigError(
                        f"maximal clique {clique} reaches boundary "
                        f"{self.t_boundary} but is not in the frontier"
                    )
            for link in self.link_tail:
                if not (self.t_boundary - self.delta <= link.t <= self.t_boundary):
                    raise ConfigError(
                        f"tail link {link} outside ({self.t_boundary - self.delta},"
                        f" {self.t_boundary}]"
                    )


def initial_state(delta: int, gamma: int, t_start: int) -> BatchState:
    return BatchState(delta, gamma, t_start, None, {}, {}, ())


@dataclass(frozen=True)
class CycleStats:
    """Per-cycle accounting for reports."""

    t_boundary: int
    batch_links: int
    n_maximal: int
    n_frontier: int
    n_new: int
    n_checked: int
    peak_live: int
    n_pair_checks: int


# -- one update cycle -------------------------------------------------------------


def update_batch(
    state: BatchState, batch: Sequence[TemporalLink], t_next: int
) -> tuple[BatchState, CycleStats]:
    """Advance the state across one batch of links ending at boundary t_next.

    The batch must contain exactly the links with timestamps in
    (previous boundary, t_next] — and not before t_start on the first cycle.
    The cycle grows the carried frontier cliques to the right, seeds and
    expands the window around the previous boundary, sweeps the cycle's
    results for absorbed cliques with `remove_sub_cliques`, and merges the
    survivors with the carried cliques that no longer reach the boundary.
    """
    t_prev = state.t_boundary
    floor = state.t_start - 1 if t_prev is None else t_prev
    if t_next <= floor:
        raise ConfigError(f"boundary {t_next} does not advance past {floor}")
    for link in batch:
        if not (floor < link.t <= t_next):
            raise ConfigError(
                f"batch link {link} outside ({floor}, {t_next}]"
            )

    working = LinkStream(
        tuple(state.link_tail) + tuple(batch),
        observation=(state.t_start, t_next),
    )
    worksets = WorkSets(working, state.delta, state.gamma)
    worksets.seen.update(state.frontier)

    # Phase A: carried frontier cliques grow right over the refreshed stream.
    for key in sorted(state.frontier):
        clique = state.frontier[key]
        worksets.pending.append(
            WorkItem(replace(clique, candidates=None), right_only=True)
        )
    worksets._note_peak()
    drain(worksets, state.t_start, t_next)

    # Phase B: fresh seeds from the window straddling the previous boundary.
    window_lo = state.t_start if t_prev is None else t_prev - state.delta
    for seed in seed_cliques(
        working, state.delta, state.gamma, (window_lo, t_next), state.t_start
    ):
        worksets.push_seed(seed)
    drain(worksets, state.t_start, t_next)

    new_cliques = dict(worksets.new_maximal)
    carried = {
        key: clique
        for key, clique in state.maximal.items()
        if key not in state.frontier
    }
    n_checked = remove_sub_cliques(new_cliques, t_prev)
    merged = {**carried, **new_cliques}

    tail = tuple(working.links_in((t_next - state.delta, t_next)))
    next_state = BatchState(
        state.delta,
        state.gamma,
        state.t_start,
        t_next,
        merged,
        dict(worksets.next_frontier),
        tail,
    )
    stats = CycleStats(
        t_boundary=t_next,
        batch_links=len(batch),
        n_maximal=len(merged),
        n_frontier=len(next_state.frontier),
        n_new=len(new_cliques),
        n_checked=n_checked,
        peak_live=worksets.peak_live,
        n_pair_checks=worksets.pair_checks,
    )
    return next_state, stats


def remove_sub_cliques(
    new_cliques: dict[CliqueKey, Clique], t_prev: Optional[int]
) -> int:
    """Drop cycle results contained in another cycle result; returns how many
    were checked.

    Only cliques starting at or before the previous boundary can have been
    reported maximal by an earlier cycle and later absorbed, so only those are
    checked, each against the cycle's results through `contained_cliques`.
    No-op before the first boundary exists.
    """
    if t_prev is None:
        return 0
    checked = [c for c in new_cliques.values() if c.ta <= t_prev]
    for clique in contained_cliques(checked, new_cliques.values()):
        del new_cliques[clique.key()]
    return len(checked)


def contained_cliques(
    inner: Iterable[Clique], collection: Iterable[Clique]
) -> list[Clique]:
    """The cliques of `inner` that some clique of `collection` contains.

    A posting index maps each vertex to the collection cliques holding it.
    A container holds every vertex of the inner clique, so it sits in every
    one of their posting lists; `contains` runs only against the shortest.
    """
    postings: dict[int, list[Clique]] = {}
    for outer in collection:
        for vertex in outer.vertices:
            postings.setdefault(vertex, []).append(outer)
    found = []
    for clique in inner:
        shortest = min((postings.get(v, ()) for v in clique.vertices), key=len)
        if any(contains(outer, clique) for outer in shortest):
            found.append(clique)
    return found


# -- finalization ------------------------------------------------------------------


def normalize_final(
    cliques: Iterable[Clique], t_end: int
) -> dict[CliqueKey, Clique]:
    """Clamp right ends to the observation end, dedup, and drop contained
    cliques — the bounded-window view of an online collection."""
    clamped: dict[CliqueKey, Clique] = {}
    for clique in cliques:
        bounded = Clique(clique.vertices, Interval(clique.ta, min(clique.tb, t_end)))
        clamped[bounded.key()] = bounded
    for clique in contained_cliques(clamped.values(), clamped.values()):
        del clamped[clique.key()]
    return clamped


def finalize(state: BatchState, stream: LinkStream) -> list[Clique]:
    """Definitive maximal cliques of `stream` from a state that has consumed
    all of its links; every result is re-certified maximal."""
    t_start, t_end = stream.observation
    if t_start != state.t_start:
        raise ConfigError(
            f"state starts at {state.t_start}, stream at {t_start}"
        )
    final = normalize_final(state.maximal.values(), t_end)
    result = [final[key] for key in sorted(final)]
    for clique in result:
        if not _certify_maximal(clique, stream, state.delta, state.gamma):
            raise TcliqueError(f"internal error: {clique} failed certification")
    return result


def _certify_maximal(
    clique: Clique, stream: LinkStream, delta: int, gamma: int
) -> bool:
    """Independent maximality check of one clique over a bounded stream."""
    ta, tb = clique.ta, clique.tb
    t_start, t_end = stream.observation
    if not is_delta_gamma_clique(clique.vertices, (ta, tb), stream, delta, gamma):
        return False
    if ta - 1 >= t_start and is_delta_gamma_clique(
        clique.vertices, (ta - 1, tb), stream, delta, gamma
    ):
        return False
    if tb + 1 <= t_end and is_delta_gamma_clique(
        clique.vertices, (ta, tb + 1), stream, delta, gamma
    ):
        return False
    members = set(clique.vertices)
    cands: Optional[set[int]] = None
    for z in clique.vertices:
        adj = {
            w
            for w in stream.neighbors_of(z)
            if w not in members
            and stream.count_in((min(z, w), max(z, w)), (ta, tb)) >= gamma
        }
        cands = adj if cands is None else cands & adj
        if not cands:
            break
    for w in sorted(cands or ()):
        verts = tuple(sorted(members | {w}))
        if is_delta_gamma_clique(verts, (ta, tb), stream, delta, gamma):
            return False
    return True


# -- state persistence -------------------------------------------------------------


def _clique_line(clique: Clique) -> str:
    line = format_clique(clique)
    if clique.candidates is None:
        return line
    if not clique.candidates:
        return line + " | -"
    return line + " | " + ",".join(str(v) for v in sorted(clique.candidates))


def _parse_clique_line(line: str, label: str) -> Clique:
    body, sep, cands = line.partition(" | ")
    try:
        clique = parse_clique(body)
    except ValueError as exc:
        raise StateError(f"bad {label} clique line {line!r}: {exc}") from exc
    if not sep:
        return clique
    if cands == "-":
        return replace(clique, candidates=frozenset())
    try:
        members = frozenset(int(tok) for tok in cands.split(","))
    except ValueError as exc:
        raise StateError(f"bad candidate list in {line!r}") from exc
    return replace(clique, candidates=members)


def dump_state(state: BatchState) -> str:
    """Serialize a state to its canonical checksummed text form."""
    lines = [
        f"{STATE_MAGIC} v{STATE_VERSION}",
        f"delta {state.delta}",
        f"gamma {state.gamma}",
        f"t_start {state.t_start}",
        f"t_boundary {'none' if state.t_boundary is None else state.t_boundary}",
        f"maximal {len(state.maximal)}",
    ]
    lines.extend(_clique_line(state.maximal[key]) for key in sorted(state.maximal))
    lines.append(f"frontier {len(state.frontier)}")
    lines.extend(_clique_line(state.frontier[key]) for key in sorted(state.frontier))
    lines.append(f"link_tail {len(state.link_tail)}")
    tail = sorted(state.link_tail, key=lambda l: (l.t, l.u, l.v))
    lines.extend(f"{l.u} {l.v} {l.t}" for l in tail)
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"checksum {digest}\n"


def save_state(state: BatchState, sink: TextIO) -> None:
    sink.write(dump_state(state))


def load_state(source: TextIO) -> BatchState:
    """Parse and verify a serialized state; StateError on any corruption."""
    text = source.read()
    lines = text.splitlines()
    if not lines:
        raise StateError("empty state file")
    if lines[-1].startswith("checksum "):
        body = "\n".join(lines[:-1]) + "\n"
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if lines[-1] != f"checksum {digest}":
            raise StateError("state checksum mismatch")
    else:
        raise StateError("state file missing checksum (truncated?)")
    if lines[0] != f"{STATE_MAGIC} v{STATE_VERSION}":
        raise StateError(f"unsupported state header {lines[0]!r}")

    def _int_field(idx: int, name: str) -> int:
        prefix = name + " "
        if idx >= len(lines) or not lines[idx].startswith(prefix):
            raise StateError(f"missing {name} field")
        try:
            return int(lines[idx][len(prefix):])
        except ValueError as exc:
            raise StateError(f"bad {name} field {lines[idx]!r}") from exc

    delta = _int_field(1, "delta")
    gamma = _int_field(2, "gamma")
    t_start = _int_field(3, "t_start")
    if not lines[4].startswith("t_boundary "):
        raise StateError("missing t_boundary field")
    raw_boundary = lines[4][len("t_boundary "):]
    try:
        t_boundary = None if raw_boundary == "none" else int(raw_boundary)
    except ValueError as exc:
        raise StateError(f"bad t_boundary field {lines[4]!r}") from exc

    pos = 5

    def _section(name: str) -> list[str]:
        nonlocal pos
        prefix = name + " "
        if pos >= len(lines) or not lines[pos].startswith(prefix):
            raise StateError(f"missing {name} section")
        try:
            count = int(lines[pos][len(prefix):])
        except ValueError as exc:
            raise StateError(f"bad {name} count {lines[pos]!r}") from exc
        start = pos + 1
        if start + count > len(lines) - 1:  # last line is the checksum
            raise StateError(f"truncated {name} section")
        pos = start + count
        return lines[start : start + count]

    maximal_lines = _section("maximal")
    frontier_lines = _section("frontier")
    tail_lines = _section("link_tail")
    if pos != len(lines) - 1:
        raise StateError("trailing garbage after link_tail section")

    maximal = {}
    for line in maximal_lines:
        clique = _parse_clique_line(line, "maximal")
        maximal[clique.key()] = clique
    frontier = {}
    for line in frontier_lines:
        clique = _parse_clique_line(line, "frontier")
        frontier[clique.key()] = clique
    tail = []
    for line in tail_lines:
        parts = line.split()
        if len(parts) != 3:
            raise StateError(f"bad link_tail line {line!r}")
        try:
            u, v, t = (int(p) for p in parts)
            tail.append(TemporalLink(u, v, t))
        except ValueError as exc:
            raise StateError(f"bad link_tail line {line!r}") from exc
    # a repeated line would silently drop an entry from a section
    for name, section_lines, distinct in (
        ("maximal", maximal_lines, maximal),
        ("frontier", frontier_lines, frontier),
        ("link_tail", tail_lines, set(tail)),
    ):
        if len(distinct) != len(section_lines):
            raise StateError(
                f"{name} section lists {len(section_lines)} entries but "
                f"only {len(distinct)} distinct ones"
            )
    try:
        return BatchState(
            delta, gamma, t_start, t_boundary, maximal, frontier, tuple(tail)
        )
    except ConfigError as exc:
        raise StateError(f"inconsistent state contents: {exc}") from exc
