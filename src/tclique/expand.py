"""Seed construction and the three clique-growth procedures.

Enumeration works a LIFO worklist of cliques. Every popped clique is offered
the three growth moves in one fixed sequence — add a vertex from its
candidate set, extend the interval right, extend the interval left — and
joins the maximal set of the cycle when none of the moves finds a strictly
larger valid clique. Cliques carried over from a previous batch are only ever
extended to the right (their flag for the other two moves is fixed), which
the worklist tracks per item.

Each move reads the stream, delta and gamma from the cycle's `WorkSets` and
returns True when the clique could NOT be grown that way (the "no extension"
flag); a clique is maximal within the cycle when all three return True.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cliques import Clique, CliqueKey, Interval, is_delta_gamma_clique
from .linkstream import LinkStream


@dataclass(frozen=True)
class WorkItem:
    clique: Clique
    right_only: bool = False


@dataclass
class WorkSets:
    """Working collections of one enumeration cycle.

    pending       LIFO worklist of cliques awaiting processing
    seen          key of every clique ever enqueued (dedup barrier)
    new_maximal   cliques found maximal within this cycle
    next_frontier popped cliques whose right end reaches the cycle boundary
    peak_live     max of |pending|+|seen|+|new_maximal|+|next_frontier|

    With debug=True every enqueued clique is checked against the validity
    predicate (slow; test use).
    """

    stream: LinkStream
    delta: int
    gamma: int
    debug: bool = False
    pending: list[WorkItem] = field(default_factory=list)
    seen: set[CliqueKey] = field(default_factory=set)
    new_maximal: dict[CliqueKey, Clique] = field(default_factory=dict)
    next_frontier: dict[CliqueKey, Clique] = field(default_factory=dict)
    peak_live: int = 0

    def _note_peak(self) -> None:
        live = (
            len(self.pending)
            + len(self.seen)
            + len(self.new_maximal)
            + len(self.next_frontier)
        )
        if live > self.peak_live:
            self.peak_live = live

    def _debug_check(self, clique: Clique) -> None:
        if self.debug:
            assert is_delta_gamma_clique(
                clique.vertices,
                (clique.ta, clique.tb),
                self.stream,
                self.delta,
                self.gamma,
            ), f"enqueued invalid clique {clique}"

    def offer(self, clique: Clique, right_only: bool = False) -> bool:
        """Enqueue unless the key was ever enqueued before."""
        key = clique.key()
        if key in self.seen:
            return False
        self._debug_check(clique)
        self.seen.add(key)
        self.pending.append(WorkItem(clique, right_only))
        self._note_peak()
        return True

    def push_seed(self, clique: Clique) -> None:
        """Enqueue unconditionally (seeds bypass the dedup barrier: a key that
        was carried over as frontier must still be re-expanded with its
        candidate set)."""
        self._debug_check(clique)
        self.seen.add(clique.key())
        self.pending.append(WorkItem(clique, right_only=False))
        self._note_peak()


# -- seeds ---------------------------------------------------------------------


def seed_cliques(
    stream: LinkStream,
    delta: int,
    gamma: int,
    window: tuple[int, int],
    t_start: Optional[int] = None,
) -> list[Clique]:
    """Pair seeds for one enumeration window.

    For each pair with occurrences s_1 < ... < s_k inside `window` and each run
    of gamma occurrences spanning at most delta, two anchor intervals are
    tried: [s_j, s_j+delta] and [s_(j+gamma-1)-delta, s_(j+gamma-1)], the
    latter clamped at the observation start. An interval becomes a seed only
    when it holds exactly gamma occurrences of the pair; each seed carries the
    vertices with at least gamma links to a seed endpoint inside its interval
    as candidates. Duplicates collapse; the list is deterministically ordered.
    """
    if t_start is None:
        t_start = stream.t_start
    seeds: dict[CliqueKey, Clique] = {}
    for pair in stream.static_edges:
        occ = stream.occurrences_in(pair, window)
        for j in range(len(occ) - gamma + 1):
            s_lo = occ[j]
            s_hi = occ[j + gamma - 1]
            if s_hi - s_lo > delta:
                continue
            for ta, tb in (
                (s_lo, s_lo + delta),
                (max(s_hi - delta, t_start), s_hi),
            ):
                if stream.count_in(pair, (ta, tb)) != gamma:
                    continue
                key = (pair, ta, tb)
                if key in seeds:
                    continue
                cands = stream.neighbors_min_count(pair, (ta, tb), gamma)
                seeds[key] = Clique(pair, Interval(ta, tb), cands)
    return [seeds[k] for k in sorted(seeds)]


# -- growth procedures ----------------------------------------------------------


def expand_vertex_set(clique: Clique, worksets: WorkSets) -> bool:
    """Try every candidate vertex; True iff none produced a valid clique.

    Valid growths are enqueued (dedup applies) inheriting the candidate set
    unchanged; the flag reflects validity, not whether the enqueue happened.
    """
    if clique.candidates is None:
        raise ValueError(f"clique {clique} has no candidate set")
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    members = set(clique.vertices)
    span = (clique.ta, clique.tb)
    grew = False
    for w in sorted(clique.candidates - members):
        verts = tuple(sorted(members | {w}))
        if is_delta_gamma_clique(verts, span, stream, delta, gamma):
            grew = True
            worksets.offer(
                Clique(verts, clique.span, clique.candidates), right_only=False
            )
    return not grew


def extend_right(
    clique: Clique, worksets: WorkSets, right_only: bool = False
) -> bool:
    """Extend the interval right as far as every pair allows.

    The new right end is delta past the smallest over pairs of the gamma-th
    largest occurrence in [ta, tb+1]; a pair without gamma occurrences there
    blocks the move. The end is never clamped at the observation end: that is
    what feeds the next frontier, and finalize clamps it. The grown clique
    inherits `right_only`. True iff the interval could not grow.
    """
    stream, gamma = worksets.stream, worksets.gamma
    anchor: Optional[int] = None
    window = (clique.ta, clique.tb + 1)
    for pair in clique.pairs():
        last = stream.last_gamma_occurrence(pair, gamma, window)
        if last is None:
            return True
        anchor = last if anchor is None else min(anchor, last)
    new_tb = anchor + worksets.delta
    if new_tb <= clique.tb:
        return True
    worksets.offer(
        Clique(clique.vertices, Interval(clique.ta, new_tb), clique.candidates),
        right_only=right_only,
    )
    return False


def extend_left(clique: Clique, worksets: WorkSets, t_start: int) -> bool:
    """Extend the interval left as far as every pair allows.

    The new left end is delta before the largest over pairs of the gamma-th
    smallest occurrence in [ta-1, tb], clamped at the observation start; the
    move counts only when the clamped start strictly precedes the current one
    (a clique already at the boundary cannot grow). True iff no growth.
    """
    stream, gamma = worksets.stream, worksets.gamma
    anchor: Optional[int] = None
    window = (clique.ta - 1, clique.tb)
    for pair in clique.pairs():
        first = stream.first_gamma_occurrence(pair, gamma, window)
        if first is None:
            return True
        anchor = first if anchor is None else max(anchor, first)
    new_ta = max(anchor - worksets.delta, t_start)
    if new_ta >= clique.ta:
        return True
    worksets.offer(
        Clique(clique.vertices, Interval(new_ta, clique.tb), clique.candidates),
        right_only=False,
    )
    return False


# -- worklist fixed point --------------------------------------------------------


def drain(
    worksets: WorkSets, t_start: int, frontier_threshold: Optional[int]
) -> None:
    """Run the worklist to exhaustion.

    Right-only items (carried frontier cliques) receive just the right
    extension; the other two moves are treated as exhausted for them. Every
    other item gets all three moves, in the fixed sequence vertex, right,
    left; each move runs even when an earlier one grew the clique, because
    each enqueues its own growths. Fully processed cliques with no possible
    growth join `new_maximal`; every popped clique whose right end reaches
    `frontier_threshold` joins `next_frontier` regardless of its flags.
    """
    while worksets.pending:
        item = worksets.pending.pop()
        clique = item.clique
        if item.right_only:
            no_growth = extend_right(clique, worksets, right_only=True)
        else:
            no_vertex = expand_vertex_set(clique, worksets)
            no_right = extend_right(clique, worksets)
            no_left = extend_left(clique, worksets, t_start)
            no_growth = no_vertex and no_right and no_left
        if no_growth:
            worksets.new_maximal[clique.key()] = clique
        if frontier_threshold is not None and clique.tb >= frontier_threshold:
            worksets.next_frontier[clique.key()] = clique
        worksets._note_peak()
