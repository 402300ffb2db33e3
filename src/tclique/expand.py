"""Seed construction, the two clique-growth moves, and the worklist.

Enumeration works a LIFO worklist of cliques. Every popped clique is offered
two growth moves in one fixed sequence — add a vertex from its candidate set,
then move the interval to the clique's closure — and joins the maximal set of
the cycle when neither finds a strictly larger valid clique. The candidate
set is working data of the enumeration: it rides on the worklist item, never
on the clique, and every growth inherits it. Cliques carried over from a
previous batch have none, and are only ever extended to the right.

Each move reads the stream, delta and gamma from the cycle's `WorkSets`, and
every bound from the stream: it is the cycle's window, observed over
[t_start, boundary].

The closure of a clique K at its span s is the largest interval containing
s on which K is valid: the intersection of its pairs' closures
(`pair_closure`, see the cliques module). Every span between s and the
closure is valid too, so the interval move jumps there in one step: it
offers (K, closure) once, when the closure differs from s, where stepwise
moves right and left would reach it over several pops. A carried clique
moves right only, to where the stepwise right move stops: a step from end x
anchors on the gamma-th largest occurrence in [ta, x+1] and goes delta past
it, and it advances the anchor until the anchor is a bad position (no step
passes a bad position, whose next gamma occurrences come too late). So a
pair's end is the first bad time at or after its anchor from [ta, tb+1],
plus delta, and the clique's end is the smallest over its pairs; a pair
without gamma occurrences there, or whose first step does not pass tb, pins
the end at tb. A carried clique need not be valid on the working stream,
whose links start delta before the previous boundary, so it is not read
through `pair_closure`.

Every enqueued clique with candidates is valid, so the vertex move checks
only the pairs a growth adds. A clique without a pool (a seed, or a clique
made by an interval move) tests each candidate w against all of its
members. The vertex move enqueues each valid growth K+{w} with a same-span
pool: the sorted tuple of all valid growths of K at that span, each with its
closure, shared by the siblings, and w as the newest vertex. Popped, such a
child tests only the pair (w', w) for each w' of the pool: at a fixed span,
w' extends K+{w} iff it extends K and pairs validly with w (the candidate
narrowing of Bron-Kerbosch, restricted to one span). The growths found, and
so the traversal, are those of a full check.

A vertex growth keeps its parent's span, so a root (a clique without a pool)
and the vertex growths below it form a family whose cliques all share one
span. A pair's closure at that span has one answer within the family, so:
- closures: a growth's closure is its parent's intersected with the
  closures of the pairs with its newest vertex, so each item carries its
  own and each pool entry its growth's; a child's growth K+{w'} then has the
  closure closure(P+w') ∩ closure(K) ∩ closure of (newest, w'), with no pass
  over its pairs (P is the parent, K = P+{newest});
- the pairs (w', newest) recur across the family (a growth P+{w}+{w'}
  tests the pairs (w'', w') that P+{w'} tested before), so the root's vertex
  move creates a pair -> closure-or-None table that every growth carries by
  reference, like its pool, and the kernel runs only on a miss.
The table lives while a member of its family is on the worklist.
`pair_checks` counts every pair test the vertex move asked, the table's too.
The kernel reads the working stream's gap index (`LinkStream.gap_index`),
which the cycle's moves share and which goes with the stream.

Dominance. The popped clique (K, s) skips its interval move when some
vertex growth K+{w} keeps its closure (closure(K+w) == closure(K)) and that
closure ends before the working stream's end, the cycle boundary. Then
(K, closure) lies strictly inside (K+{w}, closure), which the growth offers
itself, or its own dominating growth does. The move is also skipped when
its target is already a result of the cycle: a result of phase A is not in
`seen`, and phase B would expand it again. Completeness, for a popped
(K, s) and a result (J, c) of the cycle with K ⊆ J, s inside c, J valid at
s and J's other vertices among K's candidates:
- A result has c as the closure of J and J vertex-maximal at c. If K = J,
  no growth keeps c (it would make J+{w} valid on c), so dominance never
  skips the interval move to c: J's closure at s is c, since c contains s
  and cannot grow. The move is made unless (J, c) is a result already.
- If K ⊂ J, every set between K and J is valid at s (validity is pairwise),
  so K+{w} for w in J is a vertex growth at s, and by induction on |J - K|
  the traversal reaches (J, c). The route is vertex growths at s and one
  interval move at its end, so no result needs the moves of an interval
  move's target.
- Every result (J, [a, b]) that ends after the previous boundary has such a
  start: a seed, the right anchor of a pair (`seed_cliques`). The end b is
  delta past a pair's first bad time b - delta >= a, and that pair has
  exactly gamma occurrences in [b-delta, b]: at least gamma because it is a
  window of [a, b], at most because the position is bad. So the pair's
  right anchor [b-delta, b] is a window of [a, b] on which J is valid, and
  every vertex of J has gamma links to both seed vertices there, so it is
  among the seed's candidates.
- The dedup barrier loses nothing. `seen` holds every clique enqueued with
  candidates, and drops a second offer of one. Such an item holds its
  root's pair, and its span contains the root's, a seed spanning exactly
  delta. So for every J that contains the item's clique and is valid on a
  span containing the item's, the root's span is a window of J's span, and
  every vertex of J has gamma links to the root's pair there: whichever
  route enqueued the clique first, J's other vertices are among its
  candidates (and in its pool, every valid growth of its parent at the
  span). A carried clique has no candidates to pass on, so frontier entries
  and the interval moves of carried items stay out of `seen`: one there
  would block every route of phase B through it, and the results behind it.
- The guard keeps completeness across cycles. A closure that ends before
  the boundary is decided by an occurrence at or before the boundary (its
  first bad time is b - delta, and the position's badness only reads links
  up to b + 1 <= boundary), so no later link moves it and (K, closure) can
  never outgrow (K+{w}, closure). A closure that reaches the boundary may
  still move right with the next batch while K+{w}'s does not; phase A of
  the next cycle then needs K's own frontier entry, so the move is made.

`drain` notes the peak of the live collections on entry and once after each
pop: within a pop they only grow (the pop itself is the one removal), so the
largest value a pop reaches is the one it ends with.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, NamedTuple, Optional

from .cliques import Clique, pair_closure, sort_cliques
from .linkstream import LinkStream

Span = tuple[int, int]


class WorkItem(NamedTuple):
    """A queued clique with the vertices that may still join it; `candidates`
    is None for a carried frontier clique, which may only move right.
    `closure` is the clique's closure when known (a vertex growth's, found by
    its parent, or an interval move's target), else None. The other fields
    are set on vertex growths only, the members of a same-span family: the
    valid growths of the parent at this span, each with its closure
    (`pool`), the vertex added (`newest`), and the family's pair -> closure
    table."""

    clique: Clique
    candidates: Optional[frozenset[int]]
    pool: Optional[tuple[tuple[int, Span], ...]] = None
    newest: Optional[int] = None
    closure: Optional[Span] = None
    table: Optional[dict[tuple[int, int], Optional[Span]]] = None


@dataclass
class WorkSets:
    """Working collections of one enumeration cycle.

    pending       LIFO worklist of cliques awaiting processing
    seen          every clique ever enqueued with candidates (the dedup
                  barrier; see the module docstring)
    new_maximal   cliques found maximal within this cycle
    next_frontier popped cliques whose right end reaches the cycle boundary
    peak_live     max of |pending|+|seen|+|new_maximal|+|next_frontier|
    pair_checks   pair tests the vertex move asked, the ones its family's
                  table answered included
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
    gaps: Mapping[tuple[int, int], tuple[int, ...]] = field(init=False)

    def __post_init__(self) -> None:
        self.gaps = self.stream.gap_index(self.delta, self.gamma)

    def offer(
        self,
        clique: Clique,
        candidates: Optional[frozenset[int]],
        pool: Optional[tuple[tuple[int, Span], ...]] = None,
        newest: Optional[int] = None,
        closure: Optional[Span] = None,
        table: Optional[dict[tuple[int, int], Optional[Span]]] = None,
    ) -> bool:
        """Enqueue the clique; one with candidates only if it was never
        enqueued with candidates before. A carried clique (no candidates)
        never enters `seen`, so it blocks no route."""
        if candidates is not None:
            if clique in self.seen:
                return False
            self.seen.add(clique)
        self.pending.append(WorkItem(clique, candidates, pool, newest, closure, table))
        return True


# -- seeds ---------------------------------------------------------------------


def seed_cliques(
    stream: LinkStream, delta: int, gamma: int, t_prev: int
) -> list[tuple[Clique, frozenset[int]]]:
    """Pair seeds of one cycle's working stream that reach past `t_prev`.

    For each pair with occurrences s_1 < ... < s_k in the stream, the right
    anchor [s_j, s_j+delta] of each occurrence becomes a seed when it holds
    exactly gamma occurrences of the pair and ends after the previous
    boundary t_prev; it comes paired with its candidates, the vertices with
    at least gamma links to a seed endpoint inside its interval. The pairs
    are sorted by clique.

    This is the one seed the completeness argument (module docstring) asks
    of a result (J, [a, b]): the right anchor [b-delta, b] of the pair whose
    first bad time is b - delta. Every seed spans exactly delta and none is
    clamped: s_j lies inside the observation, and the right end may pass
    its end. The occurrence times of a pair are distinct, so the count needs
    no bisection: the anchor holds at least gamma iff
    s_(j+gamma-1) <= s_j + delta, and at most gamma iff the run is the last
    or s_(j+gamma) > s_j + delta.

    On the first cycle t_prev is t_start - 1 and every seed is kept. Later,
    a seed [ta, tb] with tb <= t_prev is skipped before its candidates are
    computed. The working stream's links start at t_prev - delta, so the
    seed is [t_prev - delta, t_prev]: its count and its candidates read only
    links in that window, which the previous cycle's stream held too, and
    the links after t_prev lie past its end. So that cycle had the same seed
    with the same candidates. Expanding it again can gain only what a new
    link (t > t_prev) makes possible, and only a clique whose interval
    reaches t_prev can read one:
    - an interval move carrying a clique across t_prev: a closure that ends
      before t_prev reads links only up to its end + 1, so over the previous
      cycle's links the closure reached t_prev as well; that cycle made the
      move (the dominance guard never skips a closure that reaches the
      boundary) and filed the result in its frontier, which phase A carries
      right;
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
    found: list[Clique] = []
    for pair, occ in stream.pair_occurrences.items():
        k = len(occ)
        for j in range(k - gamma + 1):
            tb = occ[j] + delta
            if tb > t_prev and occ[j + gamma - 1] <= tb and (
                j + gamma == k or occ[j + gamma] > tb
            ):
                found.append(Clique(pair, occ[j], tb))
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


def clique_closure(item: WorkItem, worksets: WorkSets) -> Span:
    """The span the item's interval move jumps to: the clique's closure, or
    for a carried item (no candidates) the fixed point of the stepwise right
    move, with the left end kept (see the module docstring). An item that
    knows its closure returns it without reading a pair."""
    if item.closure is not None:
        return item.closure
    stream, delta, gamma, gaps = (
        worksets.stream, worksets.delta, worksets.gamma, worksets.gaps
    )
    occurrences = stream.pair_occurrences
    vertices, ta, tb = item.clique
    pairs = combinations(vertices, 2)
    if item.candidates is not None:
        t_start = stream.t_start
        ends = [
            pair_closure(occurrences.get(pair, ()), gaps[pair], ta, tb, delta, gamma, t_start)
            for pair in pairs
        ]
        return max(lo for lo, _ in ends), min(hi for _, hi in ends)
    right = None
    for pair in pairs:
        occ = occurrences.get(pair, ())
        i = bisect_right(occ, tb + 1) - gamma
        if i < 0 or occ[i] < ta or occ[i] + delta <= tb:
            return ta, tb
        bad = gaps[pair]
        end = bad[bisect_left(bad, occ[i])] + delta
        if right is None or end < right:
            right = end
    return ta, right


def expand_vertex_set(
    item: WorkItem, worksets: WorkSets, closure: Span
) -> tuple[tuple[int, Span], ...]:
    """Try every candidate vertex; return the valid growths, each vertex with
    the growth's closure, in vertex order (empty when none is valid).

    Without a pool each candidate outside the clique is tested against every
    member; with one, only the pool vertices outside the clique are tried,
    each against the item's newest vertex alone, and the family's table
    answers a pair it already holds (see the module docstring). `closure` is
    the item's own. Valid growths are enqueued (dedup applies) inheriting the
    candidate set unchanged, with the tuple of all of them as their pool,
    their closure and the family's table, created here for a clique without
    a pool; the result reflects validity, not whether the enqueue happened.
    """
    clique, candidates = item.clique, item.candidates
    if candidates is None:
        raise ValueError(f"clique {clique} has no candidate set")
    delta, gamma, gaps = worksets.delta, worksets.gamma, worksets.gaps
    occurrences = worksets.stream.pair_occurrences
    t_start = worksets.stream.t_start
    members, ta, tb = clique
    lo, hi = closure
    checks = 0
    ok = []
    if item.pool is None:
        for w in sorted(candidates):
            if w in members:
                continue
            w_lo, w_hi = lo, hi
            for z in members:
                checks += 1
                pair = (w, z) if w < z else (z, w)
                ends = pair_closure(
                    occurrences.get(pair, ()), gaps[pair], ta, tb, delta, gamma, t_start
                )
                if ends is None:
                    break
                if ends[0] > w_lo:
                    w_lo = ends[0]
                if ends[1] < w_hi:
                    w_hi = ends[1]
            else:
                ok.append((w, (w_lo, w_hi)))
        table: dict[tuple[int, int], Optional[Span]] = {}
    else:
        newest, table = item.newest, item.table
        for w, (w_lo, w_hi) in item.pool:
            if w in members:
                continue
            checks += 1
            pair = (w, newest) if w < newest else (newest, w)
            ends = table.get(pair, False)
            if ends is False:
                ends = table[pair] = pair_closure(
                    occurrences.get(pair, ()), gaps[pair], ta, tb, delta, gamma, t_start
                )
            if ends is None:
                continue
            ok.append((w, (max(w_lo, lo, ends[0]), min(w_hi, hi, ends[1]))))
    worksets.pair_checks += checks
    growths = tuple(ok)
    offer = worksets.offer
    for w, ends in growths:
        at = bisect_left(members, w)
        verts = members[:at] + (w,) + members[at:]
        offer(Clique(verts, ta, tb), candidates, growths, w, ends, table)
    return growths


# -- worklist fixed point --------------------------------------------------------


def drain(worksets: WorkSets) -> None:
    """Run the worklist to exhaustion.

    Every popped item gets its closure (`clique_closure`). An item with
    candidates then gets the vertex move, which hands its family's pool and
    table to the growths. The interval move follows: when the closure
    differs from the span, the item offers (clique, closure), carrying its
    candidates and the closure, unless a vertex growth keeps that closure and
    it ends before the working stream's observation end, the cycle boundary
    (dominance, see the module docstring), or (clique, closure) is in
    `new_maximal` already. A clique whose closure is its span and that has
    no vertex growth joins `new_maximal`; every popped clique whose right end
    reaches the cycle boundary joins `next_frontier` regardless. `peak_live`
    is noted on entry and after every pop (see the module docstring).
    """
    boundary = worksets.stream.t_end
    pending, seen = worksets.pending, worksets.seen
    new_maximal, next_frontier = worksets.new_maximal, worksets.next_frontier
    pop, offer = pending.pop, worksets.offer
    add_maximal, add_frontier = new_maximal.add, next_frontier.add
    peak = max(
        worksets.peak_live,
        len(pending) + len(seen) + len(new_maximal) + len(next_frontier),
    )
    while pending:
        item = pop()
        clique = item.clique
        vertices, ta, tb = clique
        closure = clique_closure(item, worksets)
        if item.candidates is None:
            growths = ()
        else:
            growths = expand_vertex_set(item, worksets, closure)
        if closure[0] != ta or closure[1] != tb:
            if closure[1] >= boundary or all(ends != closure for _, ends in growths):
                target = Clique(vertices, *closure)
                if target not in new_maximal:
                    offer(target, item.candidates, closure=closure)
        elif not growths:
            add_maximal(clique)
        if tb >= boundary:
            add_frontier(clique)
        live = len(pending) + len(seen) + len(new_maximal) + len(next_frontier)
        if live > peak:
            peak = live
    worksets.peak_live = peak
