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
- ends: the pairs with the newest vertex recur across the family (a growth
  Z+{w}+{w'} folds the pairs (z, w'), z in Z, that Z+{w'} folded before),
  so the root's vertex move creates a pair -> (right end, left end)
  table that every growth carries by reference, like its pool, and a
  growth's reach works a pair's ends out only on a miss;
- validity: next to it, a pair -> bool table; a pooled vertex move looks
  (w', w) up there and runs the validity kernel only on a miss.
The tables live while a member of their family is on the worklist. The
answers, so the traversal and every counter, are those of working out each
fact afresh; `pair_checks` counts every pair test asked, the table's too.
The kernel reads the working stream's gap index (`LinkStream.gap_index`),
which the cycle's vertex moves share and which goes with the stream.

`drain` notes the peak of the live collections on entry and once after each
pop: within a pop they only grow (the pop itself is the one removal), so the
largest value a pop reaches is the one it ends with.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, NamedTuple, Optional

from .cliques import Clique, pair_valid, sort_cliques
from .linkstream import LinkStream


class WorkItem(NamedTuple):
    """A queued clique with the vertices that may still join it; `candidates`
    is None for a carried frontier clique, which may only move right.
    The other fields are set on vertex growths only, the members of a
    same-span family: the valid growths of the parent at this span (`pool`),
    the vertex added (`newest`), the parent's interval reach, and the
    family's pair validity and pair interval-end tables."""

    clique: Clique
    candidates: Optional[frozenset[int]]
    pool: Optional[tuple[int, ...]] = None
    newest: Optional[int] = None
    reach: Optional[tuple[int, int]] = None
    table: Optional[dict[tuple[int, int], bool]] = None
    ends: Optional[dict[tuple[int, int], tuple[int, int]]] = None


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
    gaps          the stream's gap index at (delta, gamma)
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
    gaps: Mapping[tuple[int, int], tuple[int, ...]] = field(init=False)

    def __post_init__(self) -> None:
        self.gaps = self.stream.gap_index(self.delta, self.gamma)

    def offer(
        self,
        clique: Clique,
        candidates: Optional[frozenset[int]],
        pool: Optional[tuple[int, ...]] = None,
        newest: Optional[int] = None,
        reach: Optional[tuple[int, int]] = None,
        table: Optional[dict[tuple[int, int], bool]] = None,
        ends: Optional[dict[tuple[int, int], tuple[int, int]]] = None,
    ) -> bool:
        """Enqueue unless the clique was ever enqueued before."""
        if clique in self.seen:
            return False
        self.seen.add(clique)
        self.pending.append(
            WorkItem(clique, candidates, pool, newest, reach, table, ends)
        )
        return True

    def push_seed(self, clique: Clique, candidates: frozenset[int]) -> None:
        """Enqueue unconditionally (seeds bypass the dedup barrier: a clique
        that was carried over as frontier must still be re-expanded with its
        candidate set)."""
        self.seeds += 1
        self.seen.add(clique)
        self.pending.append(WorkItem(clique, candidates))


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

    Pairs sharing an endpoint often share anchor intervals (a meeting at
    time s gives its pairs the same anchors), so the seeds are taken
    interval by interval and the partners of a vertex are asked of the
    stream once per interval; only one interval's answers are held at a
    time.
    """
    found: set[Clique] = set()
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
                if tb > t_prev and stream.count_in(pair, (ta, tb)) == gamma:
                    found.add(Clique(pair, ta, tb))
    seeds: list[tuple[Clique, frozenset[int]]] = []
    span = None
    known: dict[int, frozenset[int]] = {}
    for seed in sort_cliques(found):  # by interval first
        (u, v), ta, tb = seed
        if span != (ta, tb):
            span, known = (ta, tb), {}
        for x in (u, v):
            if x not in known:
                known[x] = stream.partners(x, span, gamma)
        seeds.append((seed, (known[u] | known[v]) - {u, v}))
    seeds.sort()
    return seeds


# -- growth procedures ----------------------------------------------------------


def interval_reach(item: WorkItem, worksets: WorkSets) -> tuple[int, int]:
    """The ends the interval moves can reach from the item's span [ta, tb]:
    (right, left), delta past the two anchors, in one pass over the pairs.

    The right anchor is the smallest over pairs of the gamma-th largest
    occurrence in [ta, tb+1]; the left anchor is the largest over pairs of
    the gamma-th smallest occurrence in [ta-1, tb]. A pair without gamma
    occurrences in a window pins that end at the span's own end, where the
    move cannot grow. A vertex growth starts from its parent's reach and folds
    in only the pairs with its newest vertex, taking a pair's two ends from
    the family's table when a member worked them out before (see the module
    docstring). A carried item (no candidates) moves right only, so its left
    end is not worked out and stays at the widest value.
    """
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    occurrences = stream.pair_occurrences
    vertices, ta, tb = item.clique
    if item.reach is None:
        # the widest ends any occurrence in the windows allows
        right, left = tb + 1 + delta, ta - 1 - delta
        right_only = item.candidates is None
        for pair in combinations(vertices, 2):
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
    right, left = item.reach
    newest, known = item.newest, item.ends
    for z in vertices:
        if z == newest:
            continue
        pair = (z, newest) if z < newest else (newest, z)
        ends = known.get(pair)
        if ends is None:
            occ = occurrences.get(pair, ())
            i = bisect_right(occ, tb + 1) - gamma
            j = bisect_left(occ, ta - 1) + gamma - 1
            ends = known[pair] = (
                occ[i] + delta if i >= 0 and occ[i] >= ta else tb,
                occ[j] - delta if j < len(occ) and occ[j] <= tb else ta,
            )
        end_right, end_left = ends
        if end_right < right:
            right = end_right
        if end_left > left:
            left = end_left
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
    item's interval reach) and the family's two tables, created here for a
    clique without a pool; the flag reflects validity, not whether the
    enqueue happened.
    """
    clique, candidates = item.clique, item.candidates
    if candidates is None:
        raise ValueError(f"clique {clique} has no candidate set")
    delta, gamma, gaps = worksets.delta, worksets.gamma, worksets.gaps
    occurrences = worksets.stream.pair_occurrences
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
                if not pair_valid(
                    occurrences.get(pair, ()), gaps[pair], ta, tb, delta, gamma
                ):
                    break
            else:
                ok.append(w)
        table: dict[tuple[int, int], bool] = {}
        ends: dict[tuple[int, int], tuple[int, int]] = {}
    else:
        newest, table, ends = item.newest, item.table, item.ends
        for w in item.pool:
            if w in members:
                continue
            checks += 1
            pair = (w, newest) if w < newest else (newest, w)
            valid = table.get(pair)
            if valid is None:
                valid = table[pair] = pair_valid(
                    occurrences.get(pair, ()), gaps[pair], ta, tb, delta, gamma
                )
            if valid:
                ok.append(w)
    worksets.pair_checks += checks
    growths = tuple(ok)
    offer = worksets.offer
    for w in growths:
        at = bisect_left(members, w)
        verts = members[:at] + (w,) + members[at:]
        offer(Clique(verts, ta, tb), candidates, growths, w, reach, table, ends)
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
    family's pool, reach and tables to its own moves. Fully processed
    cliques with no possible growth join `new_maximal`; every popped clique
    whose right end reaches the working stream's observation end (the cycle
    boundary) joins `next_frontier` regardless of its flags. `peak_live` is
    noted on entry and after every pop (see the module docstring).
    """
    boundary = worksets.stream.t_end
    pending, seen = worksets.pending, worksets.seen
    new_maximal, next_frontier = worksets.new_maximal, worksets.next_frontier
    pop, add_maximal, add_frontier = pending.pop, new_maximal.add, next_frontier.add
    peak = max(
        worksets.peak_live,
        len(pending) + len(seen) + len(new_maximal) + len(next_frontier),
    )
    while pending:
        item = pop()
        reach = interval_reach(item, worksets)
        no_vertex = item.candidates is None or expand_vertex_set(
            item, worksets, reach
        )
        no_interval = extend_interval(item, worksets, reach)
        clique = item.clique
        if no_vertex and no_interval:
            add_maximal(clique)
        if clique.tb >= boundary:
            add_frontier(clique)
        live = len(pending) + len(seen) + len(new_maximal) + len(next_frontier)
        if live > peak:
            peak = live
    worksets.peak_live = peak
