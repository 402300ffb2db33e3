"""Seed construction, the two clique-growth moves, and the drain of the roots.

Enumeration works a list of roots, last first, and each root's family on a
local stack (see below). Every clique it works is tried with two growth
moves in one fixed sequence — add a vertex from its candidate set, then move
the interval to the clique's closure — and joins the maximal set of the
cycle when neither finds a strictly larger valid clique. The candidate set
is working data of the enumeration: it rides on the root's `WorkItem`, never
on the clique, and every growth inherits it. Cliques carried over from a
previous batch have none, and are only ever extended to the right.

Each move reads the stream, delta and gamma from the cycle's `WorkSets`, and
every bound from the stream: it is the cycle's window, observed over
[t_start, boundary].

The closure of a clique K at its span s is the largest interval containing
s on which K is valid: the intersection of its pairs' closures
(`pair_closure`, see the cliques module). Every span between s and the
closure is valid too, so the interval move jumps there in one step, to
(K, closure), when the closure differs from s, where stepwise moves right
and left would reach it over several steps; the target is settled where it
is made (below), never worked. A carried clique moves right only, to
where the stepwise right move stops: a step from end x
anchors on the gamma-th largest occurrence in [ta, x+1] and goes delta past
it, and it advances the anchor until the anchor is a bad position (no step
passes a bad position, whose next gamma occurrences come too late). So a
pair's end is the first bad time at or after its anchor from [ta, tb+1],
plus delta, and the clique's end is the smallest over its pairs; a pair
without gamma occurrences there, or whose first step does not pass tb, pins
the end at tb. A carried clique need not be valid on the working stream,
whose links start delta before the previous boundary, so it is not read
through `pair_closure`.

A root is a clique `drain` is given: a seed or a carried clique.
Every clique worked with candidates is valid, so the vertex move checks
only the pairs a growth adds. A vertex growth keeps its parent's span, so
the root and the cliques its growths reach at that span form its family,
which `drain` works on a local stack, the root first, before it takes the
next root. Each clique of the family narrows a pool of possible growths,
each with a closure to cut, by some of its vertices. The root's pool is its
candidates outside it, each with the root's closure, and it narrows them
by each of its vertices in turn. A member K = P+{n}, n the vertex it added
to its parent P, narrows P's growths (the pool of P's children) by n
alone: at a fixed span, w extends K iff it extends P and pairs validly
with n (the candidate narrowing of Bron-Kerbosch, restricted to one span).
So each member finds every growth a full check would. Its growth's closure
comes the same way, closure(P+w) ∩ closure(K) ∩ closure of (n, w), with
no pass over its pairs. The pair (w, n) recurs in the family (P+{w} tests
it too), so the root owns a pair -> closure-or-None table, and the kernel
runs only on a miss; the root's own pairs pass through it as well, though
none recurs (members narrow by candidates only). `pair_checks` counts
every pair test, the table's too. The kernel reads the working stream's
gap index (`gap_index`), which `WorkSets` builds once a cycle for the moves
to share.

Canonical order. A member pushes only its growths past n (the root pushes
all of its growths), the smallest on top, so the family reaches each
subset of the root's growths that is a clique exactly once: along the path
that adds its vertices in increasing order. A member asks `seen` when it
comes off the stack: one that entered `seen` before (in another family) is
skipped with its subtree, any other enters it. Nothing is lost.
Every member that enters `seen` is worked at once. Say X was worked,
a root or a member, and Y ⊋ X is a clique at X's span (its other vertices
are among X's candidates, see the dedup barrier below); then Y enters
`seen` too, by induction on |Y - X| and then on the time X was worked. If
X is a root, or Y - X holds a vertex w past X's newest, X pushed X+{w},
which enters `seen` when it comes off the stack or had before. Otherwise
take t in Y - X: X's path from the root passes the member Z that holds
just the path's vertices below t (the root, if there are none). Z pushed
Z+{t}, which came off the stack before the branch that holds X, so it had
entered `seen` before X was worked, and |Y - (Z+{t})| <= |Y - X|.

Settlement. Take a worked clique (K, s) whose closure C differs from s.
Every span `drain` works with candidates spans at least delta (a seed
spans exactly delta, and a vertex growth keeps its parent's span), and on
such spans validity is monotone: a delta-window of s is one of C, so a
clique valid on C is valid on s. So a candidate w extends K at C iff
K+{w} is valid at s with closure C (valid on C, its closure holds C, and
it lies inside closure(K) = C): the growths of (K, C) are exactly the
growths of (K, s) that keep C, which `drain` already holds, with no pair
read. C is its own closure,
so (K, C) has no interval move either. The target is therefore filed where
it is made: in `new_maximal` when no growth keeps C, in `next_frontier`
when C reaches the boundary, and nowhere when it is dominated (below). Its
family is not lost: a clique (K+W, C) is the target of (K+W, s), which
the family of (K, s) reaches in canonical order or which was worked before
(`seen`), and which settles its own target. A carried clique has no
growths, and its right-move target is settled the same way. So no target
enters `seen`, which holds the family members only.

Dominance. A worked clique (K, s) skips its interval move when some
vertex growth K+{w} keeps its closure (closure(K+w) == closure(K)) and that
closure ends before the working stream's end, the cycle boundary. Then
(K, closure) lies strictly inside (K+{w}, closure), which the growth
settles itself, or its own dominating growth does. Completeness, for a
worked (K, s) and a result (J, c) of the cycle with K ⊆ J, s inside c, J
valid at s and J's other vertices among K's candidates:
- A result has c as the closure of J and J vertex-maximal at c. If K = J,
  no growth keeps c (it would make J+{w} valid on c), so the settlement
  files (J, c): J's closure at s is c, since c contains s and cannot grow.
- If K ⊂ J, every set between K and J is valid at s (validity is pairwise),
  so (J, s) is worked too (canonical order, above), and by the first point
  it settles (J, c). The route is vertex growths at s and one interval
  move at its end, so no result needs a move of an interval move's
  target.
- Every result (J, [a, b]) that ends after the previous boundary has such a
  start: a seed, the right anchor of a pair (`seed_cliques`). The end b is
  delta past a pair's first bad time b - delta >= a, and that pair has
  exactly gamma occurrences in [b-delta, b]: at least gamma because it is a
  window of [a, b], at most because the position is bad. So the pair's
  right anchor [b-delta, b] is a window of [a, b] on which J is valid, and
  every vertex of J has gamma links to both seed vertices there, so it is
  among the seed's candidates.
- `seed_cliques` skips a seed when no pair of its family (its pair and its
  candidates) links in (t_prev, b]. The previous cycle had that seed with
  the same family, and its frontier holds a cover of every clique the
  family files. Phase A moves the cover to a result that starts by t_prev
  and equals or contains each of them, so the sweep drops what the seed
  would add to the results, and the prune what it would add to the
  frontier (the proof is in `seed_cliques`).
- The dedup barrier loses nothing. `seen` holds every family member
  worked in the cycle, and drops a second route to one. Such a member
  holds the pair of the seed its route started from, and its span
  contains the seed's, which spans exactly delta. So for every J that
  contains the member and is valid on a span containing its span, the
  seed's span is a window of J's span, and every vertex of J has gamma
  links to the seed's pair there: whichever route worked the member first,
  J's other vertices are among its candidates. Roots need no barrier.
  `seed_cliques` yields each (pair, occurrence) anchor once, so no seed is
  worked twice, and every family member has at least one vertex more than
  its 2-vertex seed root, so no member is a seed. A carried clique never
  enters `seen`: with no candidates to pass on, one there would block
  every route of phase B through it, and the results behind it.
- The guard keeps completeness across cycles. A closure that ends before
  the boundary is decided by an occurrence at or before the boundary (its
  first bad time is b - delta, and the position's badness only reads links
  up to b + 1 <= boundary), so no later link moves it and (K, closure) can
  never outgrow (K+{w}, closure). A closure that reaches the boundary may
  still move right with the next batch while K+{w}'s does not; phase A of
  the next cycle then needs K's own frontier entry, so (K, closure) joins
  the next frontier.

`drain` notes the peak of the live collections on entry and once after each
root's family: while a family is worked they only grow (taking the root off
the roots not yet worked is the one removal: `drain` pops it off the list it
is given), so the largest value it reaches is the one it ends with. The
family stack is not among them; it is empty at every note.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, NamedTuple, Optional

from .cliques import Clique, gap_index, pair_closure, sort_cliques
from .linkstream import LinkStream

Span = tuple[int, int]
Growths = list[tuple[int, Span]]  # (vertex, closure of the growth), by vertex


class WorkItem(NamedTuple):
    """A root of `drain`, a seed or a carried frontier clique, with the
    vertices that may still join it, sorted; `candidates` is None for a
    carried clique, which may only move right."""

    clique: Clique
    candidates: Optional[tuple[int, ...]]


@dataclass
class WorkSets:
    """Working collections of one enumeration cycle.

    seen          every family member worked in the cycle, the dedup
                  barrier (see the module docstring); no root enters it
    new_maximal   cliques found maximal within this cycle
    next_frontier worked cliques whose right end reaches the cycle boundary
    peak_live     max of roots not yet worked + |seen| + |new_maximal| +
                  |next_frontier|, noted between roots, so a family stack
                  is not counted
    pair_checks   pair tests the vertex move asked, the ones a root's table
                  answered included
    gaps          the stream's gap index at (delta, gamma), built with the
                  work sets
    """

    stream: LinkStream
    delta: int
    gamma: int
    seen: set[Clique] = field(default_factory=set)
    new_maximal: set[Clique] = field(default_factory=set)
    next_frontier: set[Clique] = field(default_factory=set)
    peak_live: int = 0
    pair_checks: int = 0
    gaps: Mapping[tuple[int, int], tuple[int, ...]] = field(init=False)

    def __post_init__(self) -> None:
        self.gaps = gap_index(self.stream, self.delta, self.gamma)


# -- seeds ---------------------------------------------------------------------


def seed_cliques(
    stream: LinkStream, delta: int, gamma: int, t_prev: int
) -> list[WorkItem]:
    """Pair seeds of one cycle's working stream whose family reads a link
    after `t_prev`.

    For each pair with occurrences s_1 < ... < s_k in the stream, the right
    anchor [s_j, s_j+delta] of each occurrence is a seed when it holds
    exactly gamma occurrences of the pair; it comes as a `WorkItem` with its
    candidates, the vertices with at least gamma links to both seed
    endpoints inside its interval, as a sorted tuple (a tuple of a few ints
    holds a fraction of a frozenset's memory, and every seed is live until
    `drain` reaches it). The seed's family is its pair and its candidates,
    and the seed is returned only if some pair of its family has an
    occurrence in (t_prev, tb], tb its right end. The items are sorted by
    clique.

    This is the one seed the completeness argument (module docstring) asks
    of a result (J, [a, b]): the right anchor [b-delta, b] of the pair whose
    first bad time is b - delta. Every seed spans exactly delta and none is
    clamped: s_j lies inside the observation, and the right end may pass
    its end. The occurrence times of a pair are distinct, so the count needs
    no bisection: the anchor holds at least gamma iff
    s_(j+gamma-1) <= s_j + delta, and at most gamma iff the run is the last
    or s_(j+gamma) > s_j + delta.

    On the first cycle t_prev is t_start - 1: every anchor starts after it,
    so the seed's own pair links after t_prev and every seed is kept with no
    further test. Later, a seed with tb <= t_prev has an empty interval and
    is skipped before its candidates are computed; one whose anchor starts
    after t_prev is kept at once; any other asks each pair of its sorted
    family for a link in (t_prev, tb]. A skipped seed (u, v, [s, tb]) with
    tb > t_prev adds nothing the cycle lacks, by induction over the cycles
    on this claim: for every seed of a cycle that ends past the cycle's
    boundary, and every K between the seed's pair and its family that is
    valid on its span, the pruned frontier after the cycle holds (K, D) with
    D containing K's closure at that span, read on the cycle's stream.
    - The skipped seed was a seed of the previous cycle, with the same
      candidates and family. Its anchor and every family pair read only
      links at or before t_prev inside [s, tb], and both working streams
      hold those, since s = tb - delta > t_prev - delta. A candidate's two
      pairs with the seed are family pairs, so the candidate sets agree, and
      validity on [s, tb] reads the same links: K is valid there in both
      cycles.
    - If the previous cycle worked that seed, (K, [s, tb]) was worked on
      some route (the dedup barrier of the module docstring), and it and its
      target went to `next_frontier`: both end at tb or later, past that
      cycle's boundary t_prev. If it skipped the seed, the claim gives such
      entries. `prune_frontier` kept a cover (K, [a', b']) of the closure.
    - Phase A moves that cover right, to (K, [a', b'']). Call K's closure
      in this cycle [lo, hi]. K is valid on [lo, tb] here, and so on the
      previous stream: that holds every link of this one up to t_prev,
      reaches further left, and lacks only links after t_prev, of which no
      family pair has one in [s, tb]; a window's count only grows with more
      links. So the previous closure, and a', start by lo.
    - b'' >= hi. Each pair of K has gamma links in [s, tb], inside
      [a', b' + 1] (a' <= s, b' >= tb), so the move's anchor, the gamma-th
      largest occurrence there, is at or after s, and the pair's end, the
      first bad time from that anchor plus delta, is at or past its closure's
      end from s. The move pins the end at b' only for a pair with fewer
      than gamma links in [b' + 1 - delta, b' + 1], a window of every span
      from s past b', so then hi <= b'.
    - So each result the skipped seed's family would file equals, or lies
      strictly inside, the phase A result (K, [a', b'']). Both start by
      t_prev (a' <= lo <= s <= t_prev), so `remove_sub_cliques` compares
      them and drops the inner one. Each frontier entry it would file is
      covered by that result, which reaches the boundary when the entry
      does, and `prune_frontier` drops it. What either would have dropped
      as contained in the skipped clique lies inside the phase A one too.
      The claim holds for the cycle, as b'' >= hi >= tb. A member the skipped
      seed shares with a kept seed's family is worked there with the same
      growths (the dedup barrier again), so no other route changes.

    The candidates come from one sliding count over the stream's links
    (`LinkStream.window_partners`): every seed spans exactly delta, so the
    seeds, taken by interval, ask it for non-decreasing starts, and each
    seed intersects its endpoints' partners in its own interval. Only the
    current interval's counts are held at a time.
    """
    occurrences = stream.pair_occurrences
    found: list[Clique] = []
    for pair, occ in occurrences.items():
        k = len(occ)
        for j in range(k - gamma + 1):
            tb = occ[j] + delta
            if tb > t_prev and occ[j + gamma - 1] <= tb and (
                j + gamma == k or occ[j + gamma] > tb
            ):
                found.append(Clique(pair, occ[j], tb))
    seeds: list[WorkItem] = []
    found = sort_cliques(found)  # by interval first
    windows = stream.window_partners([seed.ta for seed in found], delta, gamma)
    for seed, partners in zip(found, windows):
        (u, v), ta, tb = seed
        # neither endpoint is its own partner, so neither is a candidate
        candidates = tuple(sorted(partners[u] & partners[v]))
        if ta <= t_prev:  # else the anchor itself is a link past t_prev
            for pair in combinations(sorted((u, v, *candidates)), 2):
                occ = occurrences.get(pair, ())
                i = bisect_right(occ, t_prev)
                if i < len(occ) and occ[i] <= tb:
                    break
            else:
                continue
        seeds.append(WorkItem(seed, candidates))
    seeds.sort()
    return seeds


# -- growth procedures ----------------------------------------------------------


def clique_closure(item: WorkItem, worksets: WorkSets) -> Span:
    """The span the item's interval move jumps to: the clique's closure, or
    for a carried item (no candidates) the fixed point of the stepwise right
    move, with the left end kept (see the module docstring)."""
    stream, delta, gamma, gaps = (
        worksets.stream, worksets.delta, worksets.gamma, worksets.gaps
    )
    occurrences = stream.pair_occurrences
    vertices, ta, tb = item.clique
    pairs = combinations(vertices, 2)
    if item.candidates is not None:
        t_start = stream.t_start
        lo, hi = t_start, None  # every pair's left end is clamped at t_start
        for pair in pairs:
            p_lo, p_hi = pair_closure(
                occurrences.get(pair, ()), gaps.get(pair, ()), ta, tb, delta, gamma, t_start
            )
            if p_lo > lo:
                lo = p_lo
            if hi is None or p_hi < hi:
                hi = p_hi
        return lo, hi
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


# -- the roots' families --------------------------------------------------------


def drain(worksets: WorkSets, roots: list[WorkItem]) -> None:
    """Work the given roots, the last first, each with its family.

    Each root is popped off `roots` as its family starts, so the list is
    empty on return, and a worked root, with its candidates, is freed while
    the others wait. Every root gets its closure (`clique_closure`) and
    enters its family's local stack first; the family is worked in
    canonical order (see the module docstring). A root narrows its
    candidates by each of its vertices, a member its parent's growths by
    its newest vertex, both through the root's pair table, for the
    clique's growths and their closures; a carried root, or one without
    candidates, has no growths. A member that entered `seen` before is
    skipped; any other enters it.

    Every worked clique then takes the interval move: when the closure
    differs from the span, (clique, closure) is settled in place (see the
    module docstring), never queued. It joins `new_maximal` when no vertex
    growth keeps the closure, and `next_frontier` when the closure reaches
    the working stream's observation end, the cycle boundary; otherwise it
    is dominated and dropped. A clique whose closure is its span and that
    has no vertex growth joins `new_maximal`; every worked clique whose
    right end reaches the cycle boundary joins `next_frontier` regardless.
    `peak_live` is noted on entry and after every root's family (see the
    module docstring); `update_batch` calls `drain` twice a cycle, with the
    carried cliques (phase A) and with the seeds (phase B).
    """
    stream, delta, gamma, gaps = worksets.stream, worksets.delta, worksets.gamma, worksets.gaps
    occurrences, t_start, boundary = stream.pair_occurrences, stream.t_start, stream.t_end
    seen, new_maximal, next_frontier = worksets.seen, worksets.new_maximal, worksets.next_frontier
    add_seen, add_maximal, add_frontier = seen.add, new_maximal.add, next_frontier.add
    # family entries (clique, closure, pool, narrow): the pool is what may
    # grow the clique, and narrow the vertices it is tested against (the
    # root's own, or a member's newest); what passes is the clique's growths
    family: list[tuple[Clique, Span, Growths, tuple[int, ...]]] = []
    peak, checks = worksets.peak_live, 0
    while True:
        live = len(roots) + len(seen) + len(new_maximal) + len(next_frontier)
        if live > peak:
            peak = live
        if not roots:
            break
        root = roots.pop()
        first, candidates = root
        closure = clique_closure(root, worksets)
        if candidates:
            members = first.vertices
            pool = [(w, closure) for w in candidates if w not in members]
            family.append((first, closure, pool, members))
            table = {}
        else:
            family.append((first, closure, [], ()))
        while family:
            clique, closure, growths, narrow = family.pop()
            if clique is not first:
                if clique in seen:
                    continue
                add_seen(clique)
            vertices, ta, tb = clique
            lo, hi = closure
            past = 0
            for v in narrow:
                pool, growths = growths, []
                checks += len(pool)
                for w, (w_lo, w_hi) in pool:
                    if w == v:
                        past = len(growths)
                        checks -= 1
                        continue
                    pair = (w, v) if w < v else (v, w)
                    ends = table.get(pair, False)
                    if ends is False:
                        occ = occurrences.get(pair, ())
                        ends = table[pair] = pair_closure(
                            occ, gaps.get(pair, ()), ta, tb, delta, gamma, t_start
                        )
                    if ends is not None:  # conditionals outpace max() and min() here
                        e_lo, e_hi = ends
                        e_lo = e_lo if e_lo > w_lo else w_lo
                        e_hi = e_hi if e_hi < w_hi else w_hi
                        growths.append((w, (e_lo if e_lo > lo else lo, e_hi if e_hi < hi else hi)))
            if closure[0] != ta or closure[1] != tb:
                for _, ends in growths:
                    if ends == closure:
                        break
                else:
                    add_maximal(Clique(vertices, *closure))
                if closure[1] >= boundary:
                    add_frontier(Clique(vertices, *closure))
            elif not growths:
                add_maximal(clique)
            if tb >= boundary:
                add_frontier(clique)
            for i in range(len(growths) - 1, past - 1, -1):
                w, ends = growths[i]
                at = bisect_left(vertices, w)
                verts = vertices[:at] + (w,) + vertices[at:]
                family.append((Clique(verts, ta, tb), ends, growths, (w,)))
    worksets.pair_checks += checks
    worksets.peak_live = peak
