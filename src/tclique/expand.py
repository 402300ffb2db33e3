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
no move grew it. Both interval moves are made by `extend_interval` from the
ends that one pass over the pairs, `interval_reach`, finds.

Every enqueued clique is valid, so the vertex move checks only the pairs a
growth adds. A clique without a pool (a seed, or a clique made by an interval
move) tests each candidate w against all of its members. The vertex move
enqueues each valid growth Z+{w} with a same-span pool: the sorted tuple of
all valid growths of Z at that span, shared by the siblings, and w as the
newest vertex. Popped, such a child tests only the pair (w', w) for each w'
of the pool: at a fixed span, w' extends Z+{w} iff it extends Z and pairs
validly with w (the candidate narrowing of Bron-Kerbosch, restricted to one
span). The growths found, and so the traversal, are those of a full check.

A vertex growth keeps its parent's span, so a root (a clique without a pool)
and the vertex growths below it form a family whose cliques all share one
span [ta, tb]. Every pair fact the moves read (is the pair valid on
[ta, tb], its gamma-th largest occurrence in [ta, tb+1], its gamma-th
smallest in [ta-1, tb]) depends only on the pair, that span and the cycle's
stream, so it has one answer within a family, and the family shares the
answers:
- reach: the pairs of Z+{w} are those of Z and the pairs (z, w), and an
  interval end is a min or max over pairs, so a growth starts from its
  parent's reach and folds in only the pairs with its newest vertex;
- validity: the root's vertex move creates a pair -> bool table that every
  growth of the family carries by reference, like its pool; a pooled vertex
  move looks (w', w) up there and runs the validity kernel only on a miss.
A table lives while a member of its family is on the worklist. The answers,
so the traversal and every counter, are those of working out each fact
afresh; `pair_checks` counts every pair test asked, the table's too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Optional

from .cliques import Clique, pair_valid
from .linkstream import LinkStream


class WorkItem(NamedTuple):
    """A queued clique with the vertices that may still join it; `candidates`
    is None for a carried frontier clique, which may only move right.
    The other fields are set on vertex growths only, the members of a
    same-span family: the valid growths of the parent at this span (`pool`),
    the vertex added (`newest`), the parent's interval reach, and the
    family's pair validity table."""

    clique: Clique
    candidates: Optional[frozenset[int]]
    pool: Optional[tuple[int, ...]] = None
    newest: Optional[int] = None
    reach: Optional[tuple[int, int]] = None
    table: Optional[dict[tuple[int, int], bool]] = None


@dataclass
class WorkSets:
    """Working collections of one enumeration cycle.

    pending       LIFO worklist of cliques awaiting processing
    seen          every clique ever enqueued (dedup barrier)
    new_maximal   cliques found maximal within this cycle
    next_frontier popped cliques whose right end reaches the cycle boundary
    peak_live     max of |pending|+|seen|+|new_maximal|+|next_frontier|
    pair_checks   pair validity tests the vertex move asked, the ones its
                  family's table answered included
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
        reach: Optional[tuple[int, int]] = None,
        table: Optional[dict[tuple[int, int], bool]] = None,
    ) -> bool:
        """Enqueue unless the clique was ever enqueued before."""
        if clique in self.seen:
            return False
        self.seen.add(clique)
        self.pending.append(
            WorkItem(clique, candidates, pool, newest, reach, table)
        )
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


def interval_reach(item: WorkItem, worksets: WorkSets) -> tuple[int, int]:
    """The ends the interval moves can reach from the item's span [ta, tb]:
    (right, left), delta past the two anchors, in one pass over the pairs.

    The right anchor is the smallest over pairs of the gamma-th largest
    occurrence in [ta, tb+1]; the left anchor is the largest over pairs of
    the gamma-th smallest occurrence in [ta-1, tb]. A pair without gamma
    occurrences in a window pins that end at the span's own end, where the
    move cannot grow. A vertex growth starts from its parent's reach and folds
    in only the pairs with its newest vertex (see the module docstring). A
    carried item (no candidates) moves right only, so its left end is not
    worked out and stays at the widest value.
    """
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    occurrences = stream.pair_occurrences
    vertices, ta, tb = item.clique
    right_only = item.candidates is None
    if item.reach is None:
        # the widest ends any occurrence in the windows allows
        right, left = tb + 1 + delta, ta - 1 - delta
        pairs = combinations(vertices, 2)
    else:
        right, left = item.reach
        newest = item.newest
        pairs = (
            (z, newest) if z < newest else (newest, z)
            for z in vertices
            if z != newest
        )
    for pair in pairs:
        occ = occurrences.get(pair, ())
        i = bisect_right(occ, tb + 1) - gamma
        end = occ[i] + delta if i >= 0 and occ[i] >= ta else tb
        if end < right:
            right = end
        if right_only:
            continue
        j = bisect_left(occ, ta - 1) + gamma - 1
        end = occ[j] - delta if j < len(occ) and occ[j] <= tb else ta
        if end > left:
            left = end
    return right, left


def expand_vertex_set(
    item: WorkItem, worksets: WorkSets, reach: tuple[int, int]
) -> bool:
    """Try every candidate vertex; True iff none produced a valid clique.

    Without a pool each candidate outside the clique is tested against every
    member; with one, only the pool vertices outside the clique are tried,
    each against the item's newest vertex alone, and the family's table
    answers a pair it already holds (see the module docstring). Valid
    growths are enqueued (dedup applies) inheriting the candidate set
    unchanged, with the tuple of all of them as their pool, `reach` (the
    item's interval reach) and the family's table; the flag reflects
    validity, not whether the enqueue happened.
    """
    clique, candidates = item.clique, item.candidates
    if candidates is None:
        raise ValueError(f"clique {clique} has no candidate set")
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    occurrences = stream.pair_occurrences
    members, ta, tb = clique
    checks = 0
    ok = []
    if item.pool is None:
        for w in sorted(candidates):
            if w in members:
                continue
            for z in members:
                checks += 1
                pair = (w, z) if w < z else (z, w)
                if not pair_valid(occurrences.get(pair, ()), ta, tb, delta, gamma):
                    break
            else:
                ok.append(w)
        table: dict[tuple[int, int], bool] = {}
    else:
        newest, table = item.newest, item.table
        for w in item.pool:
            if w in members:
                continue
            checks += 1
            pair = (w, newest) if w < newest else (newest, w)
            valid = table.get(pair)
            if valid is None:
                valid = table[pair] = pair_valid(
                    occurrences.get(pair, ()), ta, tb, delta, gamma
                )
            if valid:
                ok.append(w)
    worksets.pair_checks += checks
    growths = tuple(ok)
    for w in growths:
        at = bisect_left(members, w)
        verts = members[:at] + (w,) + members[at:]
        worksets.offer(Clique(verts, ta, tb), candidates, growths, w, reach, table)
    return not growths


def extend_interval(
    item: WorkItem, worksets: WorkSets, reach: tuple[int, int]
) -> bool:
    """Extend the interval right, then left, as far as `reach` allows; a
    carried clique (no candidates) moves right only. True iff neither grew.

    The right end is never clamped at the observation end: that is what
    feeds the next frontier, and finalize clamps it. The left end is clamped
    at the observation start, and the move counts only when the clamped start
    strictly precedes the current one (a clique already at the boundary
    cannot grow). Each growth inherits the item's candidates, so a carried
    clique's growth stays right-only.
    """
    vertices, ta, tb = item.clique
    right, left = reach
    grew = False
    if right > tb:
        worksets.offer(Clique(vertices, ta, right), item.candidates)
        grew = True
    if item.candidates is not None:
        new_ta = max(left, worksets.stream.t_start)
        if new_ta < ta:
            worksets.offer(Clique(vertices, new_ta, tb), item.candidates)
            grew = True
    return not grew


# -- worklist fixed point --------------------------------------------------------


def drain(worksets: WorkSets) -> None:
    """Run the worklist to exhaustion.

    Every popped item first gets its interval reach, in one pass over its
    pairs. Items without candidates (carried frontier cliques) receive just
    the right extension; the other two moves are treated as exhausted for
    them. Every other item gets all three moves, in the fixed sequence
    vertex, right, left; each move runs even when an earlier one grew the
    clique, because each enqueues its own growths; a vertex growth hands its
    family's pool, reach and validity table to its own moves. Fully
    processed cliques with no possible growth join `new_maximal`; every
    popped clique whose right end reaches the working stream's observation
    end (the cycle boundary) joins `next_frontier` regardless of its flags.
    """
    boundary = worksets.stream.t_end
    while worksets.pending:
        item = worksets.pending.pop()
        reach = interval_reach(item, worksets)
        no_vertex = item.candidates is None or expand_vertex_set(
            item, worksets, reach
        )
        no_interval = extend_interval(item, worksets, reach)
        clique = item.clique
        if no_vertex and no_interval:
            worksets.new_maximal.add(clique)
        if clique.tb >= boundary:
            worksets.next_frontier.add(clique)
        worksets._note_peak()
