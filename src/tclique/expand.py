"""Seed construction and the three clique-growth procedures.

Enumeration works a LIFO worklist of cliques. Every popped clique is offered
the three growth moves in one fixed sequence — add a vertex from its
candidate set, extend the interval right, extend the interval left — and
joins the maximal set of the cycle when none of the moves finds a strictly
larger valid clique. The candidate set is working data of the enumeration:
it rides on the worklist item, never on the clique, and every growth inherits
it. Cliques carried over from a previous batch have none, and are only ever
extended to the right.

Each move reads the stream, delta and gamma from the cycle's `WorkSets`, and
every bound from the stream: it is the cycle's window, observed over
[t_start, boundary]. A move returns True when the clique could NOT be grown
that way (the "no extension" flag); a clique is maximal within the cycle when
all three return True.

Every enqueued clique is valid, so the vertex move checks only the pairs a
growth adds. A clique without a pool (a seed, or a clique made by an interval
move) tests each candidate w against all of its members. The vertex move
enqueues each valid growth Z+{w} with a same-span pool: the sorted tuple of
all valid growths of Z at that span, shared by the siblings, and w as the
newest vertex. Popped, such a child tests only the pair (w', w) for each w'
of the pool: at a fixed span, w' extends Z+{w} iff it extends Z and pairs
validly with w (the candidate narrowing of Bron-Kerbosch, restricted to one
span). The growths found, and so the traversal, are those of a full check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .cliques import Clique, _pair_valid_fast
from .linkstream import LinkStream


@dataclass(frozen=True, slots=True)
class WorkItem:
    """A queued clique with the vertices that may still join it; `candidates`
    is None for a carried frontier clique, which may only move right.
    `pool` and `newest` are set on vertex growths only: the valid growths of
    the parent at this span, and the vertex added."""

    clique: Clique
    candidates: Optional[frozenset[int]]
    pool: Optional[tuple[int, ...]] = None
    newest: Optional[int] = None


@dataclass
class WorkSets:
    """Working collections of one enumeration cycle.

    pending       LIFO worklist of cliques awaiting processing
    seen          every clique ever enqueued (dedup barrier)
    new_maximal   cliques found maximal within this cycle
    next_frontier popped cliques whose right end reaches the cycle boundary
    peak_live     max of |pending|+|seen|+|new_maximal|+|next_frontier|
    pair_checks   pair validity checks made by the vertex move
    seeds         seeds pushed
    """

    stream: LinkStream
    delta: int
    gamma: int
    pending: list[WorkItem] = field(default_factory=list)
    seen: set[Clique] = field(default_factory=set)
    new_maximal: set[Clique] = field(default_factory=set)
    next_frontier: set[Clique] = field(default_factory=set)
    peak_live: int = 0
    pair_checks: int = 0
    seeds: int = 0

    def _note_peak(self) -> None:
        live = (
            len(self.pending)
            + len(self.seen)
            + len(self.new_maximal)
            + len(self.next_frontier)
        )
        if live > self.peak_live:
            self.peak_live = live

    def offer(
        self,
        clique: Clique,
        candidates: Optional[frozenset[int]],
        pool: Optional[tuple[int, ...]] = None,
        newest: Optional[int] = None,
    ) -> bool:
        """Enqueue unless the clique was ever enqueued before."""
        if clique in self.seen:
            return False
        self.seen.add(clique)
        self.pending.append(WorkItem(clique, candidates, pool, newest))
        self._note_peak()
        return True

    def push_seed(self, clique: Clique, candidates: frozenset[int]) -> None:
        """Enqueue unconditionally (seeds bypass the dedup barrier: a clique
        that was carried over as frontier must still be re-expanded with its
        candidate set)."""
        self.seeds += 1
        self.seen.add(clique)
        self.pending.append(WorkItem(clique, candidates))
        self._note_peak()


# -- seeds ---------------------------------------------------------------------


def seed_cliques(
    stream: LinkStream, delta: int, gamma: int, t_prev: int
) -> list[tuple[Clique, frozenset[int]]]:
    """Pair seeds of one cycle's working stream that reach past `t_prev`.

    For each pair with occurrences s_1 < ... < s_k in the stream and each run
    of gamma occurrences spanning at most delta, two anchor intervals are
    tried: [s_j, s_j+delta] and [s_(j+gamma-1)-delta, s_(j+gamma-1)], the
    latter clamped at the observation start. An interval becomes a seed only
    when it holds exactly gamma occurrences of the pair and ends after the
    previous boundary t_prev; it comes paired with its candidates, the
    vertices with at least gamma links to a seed endpoint inside its
    interval. Duplicates collapse; the pairs are sorted by clique.

    On the first cycle t_prev is t_start - 1 and every seed is kept. Later,
    a seed [ta, tb] with tb <= t_prev is skipped before its candidates are
    computed. It reads only links up to t_prev, its gamma occurrences sit in
    [t_prev - delta, t_prev], inside the previous cycle's stream, so that
    cycle tried the same interval over the same links, or over more where
    [ta, tb] reaches back before the link tail. Expanding it again can gain
    only what a new link (t > t_prev) makes possible, and only a clique whose
    interval reaches t_prev can read one:
    - a right move carrying a clique across t_prev reads links up to
      tb + 1 <= t_prev, so the previous cycle made the same move and filed
      the result in its frontier, which phase A carries right;
    - a vertex growth a new link makes valid needs a pair with an occurrence
      after t_prev, whose gamma-run ending there yields a kept seed.
    Everything else the expansion reaches ends before t_prev, reads only old
    links, and the previous cycle already reported it.
    """
    seeds: dict[Clique, frozenset[int]] = {}
    for pair in stream.static_edges:
        occ = stream.occurrences(pair)
        for j in range(len(occ) - gamma + 1):
            s_lo = occ[j]
            s_hi = occ[j + gamma - 1]
            if s_hi - s_lo > delta:
                continue
            for ta, tb in (
                (s_lo, s_lo + delta),
                (max(s_hi - delta, stream.t_start), s_hi),
            ):
                if tb <= t_prev or stream.count_in(pair, (ta, tb)) != gamma:
                    continue
                seed = Clique(pair, ta, tb)
                if seed in seeds:
                    continue
                u, v = pair
                seeds[seed] = (
                    stream.partners(u, (ta, tb), gamma)
                    | stream.partners(v, (ta, tb), gamma)
                ) - {u, v}
    return sorted(seeds.items())


# -- growth procedures ----------------------------------------------------------


def expand_vertex_set(item: WorkItem, worksets: WorkSets) -> bool:
    """Try every candidate vertex; True iff none produced a valid clique.

    Without a pool each candidate outside the clique is tested against every
    member; with one, only the pool vertices outside the clique are tried,
    each against the item's newest vertex alone (see the module docstring).
    Valid growths are enqueued (dedup applies) inheriting the candidate set
    unchanged, with the tuple of all of them as their pool; the flag reflects
    validity, not whether the enqueue happened.
    """
    clique, candidates = item.clique, item.candidates
    if candidates is None:
        raise ValueError(f"clique {clique} has no candidate set")
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    members, ta, tb = clique
    if item.pool is None:
        tried, partners = sorted(candidates), members
    else:
        tried, partners = item.pool, (item.newest,)
    checks = 0
    ok = []
    for w in tried:
        if w in members:
            continue
        for z in partners:
            checks += 1
            pair = (w, z) if w < z else (z, w)
            if not _pair_valid_fast(stream, pair, ta, tb, delta, gamma):
                break
        else:
            ok.append(w)
    worksets.pair_checks += checks
    growths = tuple(ok)
    for w in growths:
        at = bisect_left(members, w)
        verts = members[:at] + (w,) + members[at:]
        worksets.offer(Clique(verts, ta, tb), candidates, growths, w)
    return not growths


def extend_right(item: WorkItem, worksets: WorkSets) -> bool:
    """Extend the interval right as far as every pair allows.

    The new right end is delta past the smallest over pairs of the gamma-th
    largest occurrence in [ta, tb+1]; a pair without gamma occurrences there
    blocks the move. The end is never clamped at the observation end: that is
    what feeds the next frontier, and finalize clamps it. The grown clique
    inherits the item's candidates, so a carried clique's growth stays
    right-only. True iff the interval could not grow.
    """
    stream, gamma = worksets.stream, worksets.gamma
    vertices, ta, tb = item.clique
    anchor: Optional[int] = None
    window = (ta, tb + 1)
    for pair in combinations(vertices, 2):
        last = stream.last_gamma_occurrence(pair, gamma, window)
        if last is None:
            return True
        anchor = last if anchor is None else min(anchor, last)
    new_tb = anchor + worksets.delta
    if new_tb <= tb:
        return True
    worksets.offer(Clique(vertices, ta, new_tb), item.candidates)
    return False


def extend_left(item: WorkItem, worksets: WorkSets) -> bool:
    """Extend the interval left as far as every pair allows.

    The new left end is delta before the largest over pairs of the gamma-th
    smallest occurrence in [ta-1, tb], clamped at the observation start; the
    move counts only when the clamped start strictly precedes the current one
    (a clique already at the boundary cannot grow). The grown clique inherits
    the item's candidates. True iff no growth.
    """
    stream, gamma = worksets.stream, worksets.gamma
    vertices, ta, tb = item.clique
    anchor: Optional[int] = None
    window = (ta - 1, tb)
    for pair in combinations(vertices, 2):
        first = stream.first_gamma_occurrence(pair, gamma, window)
        if first is None:
            return True
        anchor = first if anchor is None else max(anchor, first)
    new_ta = max(anchor - worksets.delta, worksets.stream.t_start)
    if new_ta >= ta:
        return True
    worksets.offer(Clique(vertices, new_ta, tb), item.candidates)
    return False


# -- worklist fixed point --------------------------------------------------------


def drain(worksets: WorkSets) -> None:
    """Run the worklist to exhaustion.

    Items without candidates (carried frontier cliques) receive just the
    right extension; the other two moves are treated as exhausted for them.
    Every other item gets all three moves, in the fixed sequence vertex,
    right, left; each move runs even when an earlier one grew the clique,
    because each enqueues its own growths; a vertex growth hands its
    same-span pool to its own vertex move. Fully processed cliques with no
    possible growth join `new_maximal`; every popped clique whose right end
    reaches the working stream's observation end (the cycle boundary) joins
    `next_frontier` regardless of its flags.
    """
    boundary = worksets.stream.t_end
    while worksets.pending:
        item = worksets.pending.pop()
        if item.candidates is None:
            no_growth = extend_right(item, worksets)
        else:
            no_vertex = expand_vertex_set(item, worksets)
            no_right = extend_right(item, worksets)
            no_left = extend_left(item, worksets)
            no_growth = no_vertex and no_right and no_left
        clique = item.clique
        if no_growth:
            worksets.new_maximal.add(clique)
        if clique.tb >= boundary:
            worksets.next_frontier.add(clique)
        worksets._note_peak()
