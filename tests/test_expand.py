"""Seeds, growth procedures, and the drain of the roots."""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import pytest
import tclique.expand
import tclique.update
from hypothesis import example, given, settings, strategies as st

from tclique import (
    Clique,
    LinkStream,
    PartitionPlan,
    enumerate_maximal_cliques,
    finalize,
    initial_state,
    is_delta_gamma_clique,
    make_clique,
    partition_links,
    seed_cliques,
    update_batch,
)
from tclique.expand import (
    WorkItem,
    WorkSets,
    clique_closure,
    drain,
)
from helpers import (
    CheckingSet,
    CheckingWorkSets,
    checked_drain,
    cycle_outcomes,
    drain_snapshots,
    group_contact_stream,
    links_from_pairs,
    random_stream,
    reference_drain,
    reference_seed_anchors,
    rooted_reference_drain,
    run_batches,
    static_scan_candidates,
    stepwise_reference_drain,
)


def fresh_ws(stream, delta, gamma, checking=True):
    """A WorkSets for driving the moves; the checking one asserts that every
    family member is a valid (delta,gamma)-clique."""
    cls = CheckingWorkSets if checking else WorkSets
    return cls(stream, delta, gamma)


def item(vertices, ta, tb, candidates=()):
    """A root; candidates=None makes a carried, right-only one."""
    cands = None if candidates is None else tuple(sorted(candidates))
    return WorkItem(make_clique(vertices, ta, tb), cands)


class AskedSet(CheckingSet):
    """A `CheckingSet` that also appends every clique it is asked about to
    `asked`."""

    def __init__(self, check, asked) -> None:
        super().__init__(check)
        self.asked = asked

    def __contains__(self, clique):
        self.asked.append(clique)
        return super().__contains__(clique)


@dataclass
class OneFamily(CheckingWorkSets):
    """A checking WorkSets whose `asked` lists the family members `drain`
    asks `seen` about, in order. Given one root, `drain` works its family
    alone: the interval moves' targets are settled, never worked."""

    asked: list = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.seen = AskedSet(self._check, self.asked)


def work_family(stream, delta, gamma, root, seen=()):
    """Drain `root` alone in a `OneFamily`, with `seen` entered beforehand."""
    ws = OneFamily(stream, delta, gamma)
    ws.seen.update(seen)
    drain(ws, [root])
    return ws


def kernel_reads(stream, monkeypatch):
    """Record the pair of every `pair_closure` call the expand module makes."""
    pairs = {id(occ): pair for pair, occ in stream.pair_occurrences.items()}
    reads = []
    kernel = tclique.expand.pair_closure

    def recording(occ, *args):
        reads.append(pairs.get(id(occ)))
        return kernel(occ, *args)

    monkeypatch.setattr(tclique.expand, "pair_closure", recording)
    return reads


# -- seeds ---------------------------------------------------------------------


def test_f1_seed_examples(f1_stream):
    seeds = [seed for seed, _ in seed_cliques(f1_stream, 3, 2, f1_stream.t_start - 1)]
    assert seeds == sorted(seeds)
    by_pair = {}
    for s in seeds:
        by_pair.setdefault(s.vertices, []).append((s.ta, s.tb))
    # (1,2) links at 1, 2, 4 and 5: [1,4] and [2,5] hold three of them
    assert by_pair[(1, 2)] == [(4, 7)]
    assert set(seeds) == {((1, 2), 4, 7), ((1, 3), 2, 5), ((2, 3), 2, 5)}
    # every seed is a right anchor [s, s+delta] of a pair occurrence s
    for s in seeds:
        assert s.tb - s.ta == 3 and s.ta in f1_stream.occurrences(s.vertices)


def test_seeds_hold_exactly_gamma_occurrences_and_are_valid():
    for seed_idx in range(8):
        stream = random_stream(seed_idx)
        for delta, gamma in ((2, 1), (4, 2), (5, 3)):
            for s, cands in seed_cliques(stream, delta, gamma, stream.t_start - 1):
                assert stream.count_in(s.vertices, (s.ta, s.tb)) == gamma
                assert is_delta_gamma_clique(
                    s.vertices, (s.ta, s.tb), stream, delta, gamma
                )
                assert isinstance(cands, tuple)
                assert list(cands) == sorted(set(cands))
                assert not set(s.vertices) & set(cands)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 3))
def test_seeds_past_t_prev_are_the_first_cycle_seeds_whose_family_links_after_it(
    index, delta, gamma
):
    # a seed is filtered on its family's links in (t_prev, tb] alone: the
    # rest, candidate sets included, is what the first cycle
    # (t_prev = t_start - 1) returns, and there every seed is kept
    stream = random_stream(index)
    every = seed_cliques(stream, delta, gamma, stream.t_start - 1)
    for t_prev in range(stream.t_start, stream.t_end + 1):
        expected = [
            (seed, cands)
            for seed, cands in every
            if any(
                stream.count_in(pair, (t_prev + 1, seed.tb)) > 0
                for pair in combinations(sorted({*seed.vertices, *cands}), 2)
            )
        ]
        assert seed_cliques(stream, delta, gamma, t_prev) == expected, t_prev


@st.composite
def pair_streams(draw):
    """Up to four pairs with distinct link times in [0, 20], observed from up
    to three ticks before the first link."""
    pair_times = draw(
        st.dictionaries(
            st.sampled_from([(1, 2), (1, 3), (2, 3), (3, 4)]),
            st.lists(st.integers(0, 20), min_size=1, max_size=10, unique=True),
            min_size=1,
        )
    )
    stream = links_from_pairs(pair_times)
    lead = draw(st.integers(0, 3))
    return LinkStream(stream.links, observation=(stream.t_start - lead, stream.t_end))


@settings(max_examples=300, deadline=None)
@given(pair_streams(), st.integers(1, 6), st.integers(1, 3))
# a second link exactly at s + delta: [0, 2] holds two links, so it is no
# seed, while [2, 4] is
@example(links_from_pairs({(1, 2): [0, 2]}), 2, 1)
# the gamma-th link one past s + delta: [1, 4] holds one link only
@example(links_from_pairs({(1, 2): [1, 5]}, observation=(0, 5)), 3, 2)
# (1,2) [0, 4] has no link of its own pair after 0, but its candidate 3
# links with 1 at 3: kept at t_prev = 2, skipped at t_prev = 3
@example(links_from_pairs({(1, 2): [0], (1, 3): [1, 3], (2, 3): [1]}), 4, 1)
def test_seed_anchors_match_the_count_in_reference(stream, delta, gamma):
    # the index arithmetic keeps exactly the anchors that count_in finds
    # holding gamma occurrences and whose family count_in finds linking in
    # (t_prev, tb], for every previous boundary
    for t_prev in range(stream.t_start - 1, stream.t_end + delta + 1):
        seeds = {seed for seed, _ in seed_cliques(stream, delta, gamma, t_prev)}
        assert seeds == reference_seed_anchors(stream, delta, gamma, t_prev), t_prev


def test_seed_candidates_follow_window_frequency(f1_stream):
    seeds = dict(seed_cliques(f1_stream, 3, 2, f1_stream.t_start - 1))
    # in [2, 5], (1,2) links three times and (2,3) twice, so 2 joins (1,3);
    # (1,2) and (1,3) link there twice or more, so 1 joins (2,3)
    assert seeds[((1, 3), 2, 5)] == (2,)
    assert seeds[((2, 3), 2, 5)] == (1,)
    # in [4, 7], 3 links once with 1 and once with 2
    assert seeds[((1, 2), 4, 7)] == ()


def test_seed_candidates_match_the_static_scan(corpus):
    # the candidates read from the contact timelines are the vertices the
    # static-neighbour scan finds with gamma links to both endpoints
    n_candidates = 0
    for stream, delta, gamma in corpus:
        for seed, cands in seed_cliques(stream, delta, gamma, stream.t_start - 1):
            assert cands == tuple(sorted(static_scan_candidates(seed, stream, gamma))), seed
            n_candidates += len(cands)
    assert n_candidates > 0


def test_seeds_never_clamp_right():
    stream = links_from_pairs({(1, 2): [8, 9]})  # observation ends at 9
    seeds = seed_cliques(stream, 3, 2, stream.t_start - 1)
    assert ((1, 2), 8, 11) in {s for s, _ in seeds}


def uncovered_results(stream, delta, gamma, results):
    """The results (J, [a, b]) with b before the observation end that have no
    right-anchor seed: a seed of a pair inside J, with the span [b-delta, b],
    whose pair and candidates hold J. Read from `seed_cliques` alone."""
    by_span = {}
    for seed, cands in seed_cliques(stream, delta, gamma, stream.t_start - 1):
        by_span.setdefault((seed.ta, seed.tb), []).append((set(seed.vertices), set(cands)))
    return [
        (verts, ta, tb)
        for verts, ta, tb in results
        if tb < stream.t_end
        and not any(
            pair <= set(verts) <= pair | cands
            for pair, cands in by_span.get((tb - delta, tb), ())
        )
    ]


def test_every_result_has_its_right_anchor_seed(corpus, corpus_oracles):
    # the completeness argument in one pass, without the traversal: a
    # result's end is delta past a pair's first bad time, and that pair's
    # anchor [b-delta, b] is a seed whose candidates hold the whole result
    n_results = 0
    for idx, ((stream, delta, gamma), oracle) in enumerate(zip(corpus, corpus_oracles)):
        assert uncovered_results(stream, delta, gamma, oracle) == [], idx
        n_results += sum(c.tb < stream.t_end for c in oracle)
    assert n_results > 1_000
    stream = group_contact_stream(seed=7, n_meetings=110)
    results = enumerate_maximal_cliques(stream, 360, 2)
    assert uncovered_results(stream, 360, 2, results) == []
    assert sum(c.tb < stream.t_end for c in results) > 500
    assert sum(len(verts) >= 4 for verts, _, _ in results) > 100


# -- interval moves ----------------------------------------------------------------
# The interval move settles (clique, closure) when the closure differs from the
# span; a carried item's closure is the fixed point of the stepwise right move.


def test_extend_right_example(f1_stream):
    # the stepwise right move steps 4 -> 7 and stops there; so does the jump
    ws = fresh_ws(f1_stream, 3, 2)
    assert clique_closure(item([1, 2], 1, 4, candidates=None), ws) == (1, 7)


def test_extend_right_blocked(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    # anchor: last two occurrences of (1,2) within [1,8] start at 4 -> 4+3=7
    assert clique_closure(item([1, 2], 1, 7, candidates=None), ws) == (1, 7)


def test_extend_right_past_observation_end(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2, checking=False)
    assert clique_closure(item([1, 2], 4, 5, candidates=None), ws) == (4, 7)
    # a valid clique's closure is not clamped at the observation end either
    assert clique_closure(item([1, 2], 4, 5), ws) == (1, 7)


def test_extend_right_missing_pair_blocks():
    # (1,3) has one occurrence, short of gamma in either window, so it pins a
    # carried clique's end, while the pair (1,2) alone grows both ways
    stream = links_from_pairs({(1, 2): [-1, 0, 1], (1, 3): [0], (2, 3): [-1, 0, 1]})
    ws = fresh_ws(stream, 2, 2, checking=False)
    assert clique_closure(item([1, 2], 0, 1), ws) == (-1, 2)
    assert clique_closure(item([1, 2], 0, 1, candidates=None), ws) == (0, 2)
    assert clique_closure(item([1, 2, 3], 0, 1, candidates=None), ws) == (0, 1)


def test_extend_left_example(f1_stream):
    # the stepwise moves reach (2,7) and (1,5); the closure is their union
    ws = fresh_ws(f1_stream, 3, 2)
    assert clique_closure(item([1, 2], 2, 5), ws) == (1, 7)


def test_extend_left_clamped_start_counts_as_blocked(f1_stream):
    # the left anchor 2 - 3 falls before the observation start 1 and is
    # clamped there: the closure starts at the span's own start
    ws = fresh_ws(f1_stream, 3, 2)
    assert clique_closure(item([1, 2], 1, 2), ws) == (1, 7)


def test_extend_left_partial_clamp():
    # the anchor 3 - 4 is clamped at the observation start; the right end is
    # delta past the first bad time 2 (the third occurrence comes late)
    for start in (2, 0):
        stream = links_from_pairs({(1, 2): [2, 3, 9]}, observation=(start, 9))
        ws = fresh_ws(stream, 4, 2)
        assert clique_closure(item([1, 2], 2, 6), ws) == (start, 6)


def test_interval_targets_are_settled_in_place(f1_stream, monkeypatch):
    # the interval move's target is filed where it is made, a result since
    # no growth keeps its closure, and never worked: one closure is taken,
    # the root's, and `seen` stays empty, whether the root is a seed or a
    # carried clique
    closures = []
    closure = tclique.expand.clique_closure

    def recording(item, worksets):
        closures.append(item.clique)
        return closure(item, worksets)

    monkeypatch.setattr(tclique.expand, "clique_closure", recording)
    for candidates, target in ((frozenset(), ((1, 2), 1, 7)), (None, ((1, 2), 2, 7))):
        closures.clear()
        ws = fresh_ws(f1_stream, 3, 2)
        root = WorkItem(make_clique([1, 2], 2, 5), candidates)
        checked_drain(ws, [root])
        assert closures == [root.clique]
        assert ws.seen == set()
        assert ws.new_maximal == {target}


# -- vertex expansion --------------------------------------------------------------


def test_expand_vertex_example(f1_stream):
    # {1,2} [2,5] grows by 3, its one family member
    ws = work_family(f1_stream, 3, 2, item([1, 2], 2, 5, candidates={3}))
    assert ws.asked == [((1, 2, 3), 2, 5)]
    assert ((1, 2), 2, 5) not in ws.new_maximal  # the root has a growth


def test_expand_vertex_requires_candidates(f1_stream):
    # a carried root has no candidates, so no vertex move and no family;
    # its right-move target is settled a result and, like the root, reaches
    # the observation end 5
    ws = work_family(f1_stream, 3, 2, item([1, 2], 2, 5, candidates=None))
    assert ws.asked == [] and ws.pair_checks == 0
    assert ws.new_maximal == {((1, 2), 2, 7)}
    assert ws.next_frontier == {((1, 2), 2, 5), ((1, 2), 2, 7)}


def test_expand_vertex_empty_candidates_is_exhausted(f1_stream):
    ws = work_family(f1_stream, 3, 2, item([1, 2], 1, 2, candidates=()))
    assert ws.asked == [] and ws.pair_checks == 0


def test_flags_independent_of_seen_suppression(f1_stream):
    # {1,2,3} [2,5] was worked before: the family does not work it again,
    # but the root still has the growth, so it is no result, and the
    # growth's closure [2,5] does not keep the root's [1,7], so the root's
    # target is settled a result
    grown = make_clique([1, 2, 3], 2, 5)
    ws = work_family(f1_stream, 3, 2, item([1, 2], 2, 5, candidates={3}), seen={grown})
    assert ws.asked == [grown]
    assert ws.new_maximal == {((1, 2), 1, 7)}


def linked_at_zero(*pairs):
    """Each listed pair in contact once, at t=0 (valid at gamma=1 on [0,0])."""
    return links_from_pairs({pair: [0] for pair in pairs})


def test_expand_vertex_never_tries_a_vertex_outside_the_pool():
    # the pool of {1,2}'s children is its growths; 4 is not one (it misses
    # 1), so the member {1,2,3} tries nothing, though (3,4) would pass
    stream = linked_at_zero((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    ws = work_family(stream, 2, 1, item([1, 2], 0, 0, candidates={3, 4}))
    assert ws.asked == [((1, 2, 3), 0, 0)]
    assert ws.pair_checks == 2 + 1  # 3 against 1 and 2; 4 fails on (1, 4)


def test_expand_vertex_drops_a_pool_vertex_that_fails_with_the_newest():
    # 5 pairs with 1 and 2 but not with 3 or 4: each member of {1,2} tests
    # the pool (3, 4, 5) against its newest vertex alone
    stream = linked_at_zero((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5))
    ws = work_family(stream, 2, 1, item([1, 2], 0, 0, candidates={3, 4, 5}))
    assert ws.asked == [
        ((1, 2, 3), 0, 0),
        ((1, 2, 3, 4), 0, 0),
        ((1, 2, 4), 0, 0),
        ((1, 2, 5), 0, 0),
    ]
    # the root: 3 x 2 checks; {1,2,3}, {1,2,4} and {1,2,5}: 2 each; {1,2,3,4}
    # has the pool (4,) of {1,2,3} and nothing to test
    assert ws.pair_checks == 6 + 2 + 2 + 2


def test_expand_vertex_without_pool_checks_every_member():
    # 5 pairs with 2 and 3 but not with the oldest member 1
    stream = linked_at_zero((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (2, 5), (3, 5))
    ws = work_family(stream, 2, 1, item([1, 2, 3], 0, 0, candidates={4, 5}))
    assert ws.asked == [((1, 2, 3, 4), 0, 0)]
    assert ws.pair_checks == 3 + 1  # 4 against all three; 5 fails on (1, 5)
    # the member's closure is the root's cut by the pairs with 4; it keeps
    # the root's [0,2], so the root's target is no result, but it reaches
    # the boundary 0 and joins the frontier
    assert ws.new_maximal == {((1, 2, 3, 4), 0, 2)}
    assert ws.next_frontier == {
        ((1, 2, 3), 0, 0), ((1, 2, 3, 4), 0, 0), ((1, 2, 3), 0, 2), ((1, 2, 3, 4), 0, 2)
    }


def test_expand_vertex_siblings_share_one_pool():
    # each growth's closure is the root's cut by the pairs with its vertex:
    # (1,4) and (2,4) link again at 3, so 4 keeps the root's closure; both
    # siblings test the same pool, one pair each
    stream = links_from_pairs(
        {(1, 2): [0, 3], (1, 3): [0], (2, 3): [0], (1, 4): [0, 3], (2, 4): [0, 3]}
    )
    root = item([1, 2], 0, 0, candidates={3, 4})
    ws = work_family(stream, 2, 1, root)
    assert clique_closure(root, ws) == (0, 5)
    assert ws.asked == [((1, 2, 3), 0, 0), ((1, 2, 4), 0, 0)]
    assert ws.pair_checks == 4 + 1 + 1
    # {1,2,4} keeps the root's [0,5], which reaches the boundary 3: the
    # root's target joins the frontier only
    assert ws.new_maximal == {((1, 2, 3), 0, 2), ((1, 2, 4), 0, 5)}
    assert ws.next_frontier == {((1, 2), 0, 5), ((1, 2, 4), 0, 5)}


def test_expand_vertex_answers_a_pair_from_the_family_table(monkeypatch):
    # {1,2,3} and {1,2,4} both test the pair (3, 4): the root's table
    # answers the second, which still counts as a check; the root narrows
    # its candidates by 1, then by 2
    stream = linked_at_zero((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    reads = kernel_reads(stream, monkeypatch)
    ws = work_family(stream, 2, 1, item([1, 2], 0, 0, candidates={3, 4}))
    assert ws.asked == [((1, 2, 3), 0, 0), ((1, 2, 3, 4), 0, 0), ((1, 2, 4), 0, 0)]
    assert ws.pair_checks == 4 + 1 + 0 + 1
    assert reads == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_a_family_enters_each_of_its_cliques_once():
    # n mutually valid candidates give the root 2^n family cliques; each but
    # the root, which never enters `seen`, is asked of `seen` once, where an
    # offer per route asked most of them several times
    class CountingSet(set):
        def __init__(self):
            super().__init__()
            self.asked = Counter()

        def __contains__(self, clique):
            self.asked[clique] += 1
            return super().__contains__(clique)

    n = 5
    vertices = range(1, n + 3)
    stream = linked_at_zero(*((u, v) for u in vertices for v in vertices if u < v))
    ws = fresh_ws(stream, 2, 1)
    ws.seen = CountingSet()
    drain(ws, [item([1, 2], 0, 0, candidates=vertices)])
    family = Counter({c: k for c, k in ws.seen.asked.items() if (c.ta, c.tb) == (0, 0)})
    assert len(family) == 2**n - 1
    assert set(family.values()) == {1}


# -- drain ---------------------------------------------------------------------


def test_right_only_items_skip_other_moves(f1_stream):
    # {1,2} [2,5] could take vertex 3 and extend left, but a carried frontier
    # clique (one without candidates) is only ever grown rightward
    # (every clique popped reaches the observation end 5, so the next
    # frontier lists them all)
    ws = fresh_ws(f1_stream, 3, 2)
    checked_drain(ws, [item([1, 2], 2, 5, candidates=None)])
    assert ws.next_frontier == {((1, 2), 2, 5), ((1, 2), 2, 7)}  # no vertex or left move
    assert ws.new_maximal == {((1, 2), 2, 7)}
    assert ws.seen == set()  # no carried clique blocks a route


def test_drain_takes_the_frontier_threshold_from_the_stream_end(f1_stream):
    # the same links observed up to 5 and up to 7: only cliques reaching the
    # observation end (the cycle boundary) join the next frontier
    for end, frontier in ((5, {((1, 2), 2, 5), ((1, 2), 2, 7)}), (7, {((1, 2), 2, 7)})):
        ws = fresh_ws(LinkStream(f1_stream.links, observation=(1, end)), 3, 2)
        checked_drain(ws, [item([1, 2], 2, 5, candidates=None)])
        assert ws.next_frontier == frontier, end


def test_every_move_runs_after_an_earlier_one_grows(f1_stream):
    # {1,2} [2,5] grows by vertex 3 and to its closure [1,7]; the interval
    # growth is only reachable from this clique, so it is settled only if
    # drain runs the interval move after the vertex move grew
    ws = fresh_ws(f1_stream, 3, 2)
    checked_drain(ws, [item([1, 2], 2, 5, candidates={3})])
    assert ws.seen == {((1, 2, 3), 2, 5)}
    assert ws.new_maximal == {((1, 2), 1, 7), ((1, 2, 3), 2, 5)}


def test_debug_mode_rejects_invalid_enqueue(f1_stream):
    # the checking WorkSets and drain of the tests: a valid family member or
    # root passes, an invalid or malformed one fails its assertion (`seen`
    # checks each clique it is asked about, as `drain` asks of a member)
    ws = fresh_ws(f1_stream, 3, 2)
    assert make_clique([1, 2], 1, 5) not in ws.seen
    ws.seen.add(make_clique([1, 2], 1, 5))
    checked_drain(ws, [item([1, 2], 2, 5)])
    with pytest.raises(AssertionError, match="invalid"):
        assert make_clique([2, 3], 1, 5) not in ws.seen
    with pytest.raises(AssertionError, match="invalid"):
        checked_drain(ws, [item([2, 3], 1, 5)])
    for malformed in (((1,), 1, 5), ((2, 1), 1, 5), ((1, 1), 1, 5), ((1, 2), 5, 1)):
        with pytest.raises(AssertionError):
            assert Clique(*malformed) not in ws.seen
        for candidates in (frozenset(), None):
            with pytest.raises(AssertionError):
                checked_drain(ws, [WorkItem(Clique(*malformed), candidates)])
    assert ws.seen == {((1, 2), 1, 5)}


def test_peak_live_tracks_collections(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    seeds = seed_cliques(f1_stream, 3, 2, f1_stream.t_start - 1)
    checked_drain(ws, list(seeds))  # drain pops the roots off the list
    # the first note counts every root, the last is taken with all worked
    assert ws.peak_live >= len(seeds)
    assert ws.peak_live >= len(ws.seen) + len(ws.new_maximal) + len(ws.next_frontier)
    # neither the seeds nor their interval targets, results, enter `seen`
    assert not ws.seen.intersection(seed.clique for seed in seeds)
    assert ws.new_maximal - ws.seen
    assert all(c.tb >= 5 for c in ws.next_frontier)


def test_seen_holds_family_members_only(corpus, monkeypatch):
    # no root needs the dedup barrier: every cycle's seeds are distinct, and
    # no seed, nor any other clique of two vertices, enters `seen`, which
    # holds family members only, each a vertex more than its seed
    drains = []

    def recording_drain(worksets, roots):
        drains.append((worksets, list(roots)))  # drain pops the roots
        drain(worksets, roots)

    runs = [(stream, delta, gamma, k) for stream, delta, gamma in corpus for k in (1, 3)]
    runs.append((group_contact_stream(seed=7, n_meetings=110), 360, 2, 8))
    members = 0
    with monkeypatch.context() as patch:
        patch.setattr(tclique.update, "drain", recording_drain)
        for stream, delta, gamma, k in runs:
            state = initial_state(delta, gamma, stream.t_start)
            for boundary, chunk in partition_links(stream, PartitionPlan("ut", k)):
                drains.clear()
                state, _, _ = update_batch(state, chunk, boundary)
                (ws, _), (same, seeds) = drains  # phase A, then phase B
                assert same is ws
                assert len({seed.clique for seed in seeds}) == len(seeds)
                assert all(len(clique.vertices) >= 3 for clique in ws.seen)
                assert not ws.seen.intersection(seed.clique for seed in seeds)
                members += len(ws.seen)
    assert members > 1_000


def test_drain_matches_reference_drain_on_the_corpus(corpus, monkeypatch):
    # a same-span family (pool, inherited closures, pair table) finds exactly
    # the growths, closures and dominating growths of plain checks over all
    # pairs, so the traversal is the same: seen (without the reference's
    # seeds), results and frontier after every drain
    for idx, (stream, delta, gamma) in enumerate(corpus):
        for k in (1, 3):
            plan = PartitionPlan("ut", k)
            engine = drain_snapshots(stream, delta, gamma, plan, drain, monkeypatch)
            reference = drain_snapshots(
                stream, delta, gamma, plan, reference_drain, monkeypatch
            )
            assert engine == reference, f"stream {idx}, k={k}"


def test_drain_matches_reference_drain_on_a_group_contact_stream(monkeypatch):
    # about 4k links in 8 batches; meetings of up to 6 vertices give deep pools
    stream = group_contact_stream(seed=7, n_meetings=110)
    plan = PartitionPlan("ut", 8)
    engine = drain_snapshots(stream, 360, 2, plan, drain, monkeypatch)
    reference = drain_snapshots(stream, 360, 2, plan, reference_drain, monkeypatch)
    assert engine == reference
    assert max(len(verts) for seen, _, _ in engine for verts, _, _ in seen) >= 4


def test_triangle_roots_match_reference_drain_on_the_corpus(corpus):
    # seeds have two vertices, so only here does a root narrow its candidates
    # by three: every valid triangle at every delta-long span that starts in
    # the observation, with the static scan's candidates, drained at once
    n_roots = n_members = 0
    for idx, (stream, delta, gamma) in enumerate(corpus):
        roots = []
        for triangle in combinations(stream.vertices, 3):
            for ta in range(stream.t_start, stream.t_end + 1):
                root = Clique(triangle, ta, ta + delta)
                if is_delta_gamma_clique(triangle, (ta, ta + delta), stream, delta, gamma):
                    candidates = static_scan_candidates(root, stream, gamma)
                    roots.append(WorkItem(root, tuple(sorted(candidates))))
        engine, reference = fresh_ws(stream, delta, gamma), WorkSets(stream, delta, gamma)
        checked_drain(engine, list(roots))
        reference_drain(reference, roots)
        assert engine.seen == reference.seen - {root.clique for root in roots}, idx
        assert engine.new_maximal == reference.new_maximal, idx
        assert engine.next_frontier == reference.next_frontier, idx
        n_roots += len(roots)
        n_members += len(engine.seen)
    assert n_roots > 4_000 and n_members > 1_500


def outcomes(snapshots):
    """The results and frontier of every drain snapshot, without `seen`."""
    return [(maximal, frontier) for _, maximal, frontier in snapshots]


def test_drain_matches_rooted_reference_drain_on_the_corpus(corpus, monkeypatch):
    # settling an interval target in place loses nothing against working it
    # as a root with its own family: the same results and frontier after
    # every drain
    for idx, (stream, delta, gamma) in enumerate(corpus):
        for k in (1, 3):
            plan = PartitionPlan("ut", k)
            engine = drain_snapshots(stream, delta, gamma, plan, drain, monkeypatch)
            rooted = drain_snapshots(
                stream, delta, gamma, plan, rooted_reference_drain, monkeypatch
            )
            assert outcomes(engine) == outcomes(rooted), f"stream {idx}, k={k}"


def test_drain_matches_rooted_reference_drain_on_a_group_contact_stream(monkeypatch):
    stream = group_contact_stream(seed=7, n_meetings=110)
    plan = PartitionPlan("ut", 8)
    engine = drain_snapshots(stream, 360, 2, plan, drain, monkeypatch)
    rooted = drain_snapshots(stream, 360, 2, plan, rooted_reference_drain, monkeypatch)
    assert outcomes(engine) == outcomes(rooted)
    # the rooted drain works targets the engine settles, and lets them and
    # their families into `seen`
    assert all(e <= r for (e, _, _), (r, _, _) in zip(engine, rooted))
    assert sum(len(r - e) for (e, _, _), (r, _, _) in zip(engine, rooted)) > 100


def test_drain_matches_stepwise_reference_drain_on_the_corpus(corpus, monkeypatch):
    # the jumping interval move and the dominance rule pop fewer cliques than
    # the stepwise moves, but every cycle closes the same cliques, keeps the
    # same pruned frontier and counts the same results after the sweep
    for idx, (stream, delta, gamma) in enumerate(corpus):
        for k in (1, 3):
            plan = PartitionPlan("ut", k)
            engine = cycle_outcomes(stream, delta, gamma, plan, drain, monkeypatch)
            stepwise = cycle_outcomes(
                stream, delta, gamma, plan, stepwise_reference_drain, monkeypatch
            )
            assert engine == stepwise, f"stream {idx}, k={k}"


def test_drain_matches_stepwise_reference_drain_on_a_group_contact_stream(monkeypatch):
    stream = group_contact_stream(seed=7, n_meetings=110)
    plan = PartitionPlan("ut", 8)
    engine = cycle_outcomes(stream, 360, 2, plan, drain, monkeypatch)
    stepwise = cycle_outcomes(stream, 360, 2, plan, stepwise_reference_drain, monkeypatch)
    assert engine == stepwise
    assert sum(len(closed) for closed, _, _ in engine) > 500


def offers_checked_on_the_full_stream(stream, delta, gamma, plan, monkeypatch):
    """Run update_batch over `plan` checking each root a drain is given,
    each family member it reaches and each result it files, that ends
    before the cycle boundary, against the full input stream; returns how
    many it checked."""
    checked = []

    class FullStreamCheck(CheckingWorkSets):
        reference = stream

        def _check(self, clique):
            super()._check(clique)
            checked.append(clique.tb < self.stream.t_end)

    def checking_drain(worksets, roots):
        before = set(worksets.new_maximal)
        checked_drain(worksets, roots)
        for clique in worksets.new_maximal - before:
            worksets._check(clique)

    boundaries = tuple(boundary for boundary, _ in partition_links(stream, plan))
    with monkeypatch.context() as patch:
        patch.setattr(tclique.update, "WorkSets", FullStreamCheck)
        patch.setattr(tclique.update, "drain", checking_drain)
        run_batches(stream, delta, gamma, boundaries)
    return sum(checked)


def test_every_offer_ending_before_the_boundary_is_valid_on_the_full_stream(
    corpus, monkeypatch
):
    # the working stream lacks the links older than the tail, so the full
    # stream judges: a closure found on it, or a carried clique's right jump,
    # must never make a root or member, nor settle as a result, an invalid
    # clique; the corpus runs in three partitions and the group stream has
    # 220 meetings, so both volume floors have room
    runs = [(stream, delta, gamma, k) for stream, delta, gamma in corpus for k in (1, 3, 8)]
    group = group_contact_stream(seed=7, n_meetings=220)
    runs += [(group, 360, 2, k) for k in (1, 8)]
    checked = [
        offers_checked_on_the_full_stream(
            stream, delta, gamma, PartitionPlan("ut", k), monkeypatch
        )
        for stream, delta, gamma, k in runs
    ]
    assert sum(checked[:-2]) > 10_000 and min(checked[-2:]) > 5_000


def test_a_closure_reaching_the_boundary_is_not_skipped(monkeypatch):
    # {1,2,3} has the closure [0,12] of {1,2} at every span of the first
    # cycle, so {1,2} is dominated there; but [0,12] reaches the boundary 10,
    # and the second batch's links of (1,2) carry {1,2} on to [0,22]: only
    # the frontier entry {1,2} [0,12] reaches back to 0
    pair_times = {(1, 2): list(range(0, 21)), (1, 3): list(range(0, 11)), (2, 3): list(range(0, 11))}
    stream = links_from_pairs(pair_times, observation=(0, 20))
    state, closed = run_batches(stream, 2, 1, (10, 20))
    final = finalize(state, closed, stream)
    assert final == sorted(enumerate_maximal_cliques(stream, 2, 1))
    assert final == [((1, 2), 0, 20), ((1, 2, 3), 0, 12)]
