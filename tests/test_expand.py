"""Seeds, growth procedures, and the worklist."""

import pytest

from tclique import (
    LinkStream,
    PartitionPlan,
    TemporalLink,
    is_delta_gamma_clique,
    make_clique,
    seed_cliques,
)
from tclique.expand import (
    WorkItem,
    WorkSets,
    drain,
    expand_vertex_set,
    extend_left,
    extend_right,
)
from tclique.linkstream import links_from_pairs
from helpers import drain_snapshots, group_contact_stream, random_stream, reference_drain


def fresh_ws(stream, delta, gamma, debug=True):
    return WorkSets(stream, delta, gamma, debug=debug)


def enqueued(ws):
    return [item.clique for item in ws.pending]


# -- seeds ---------------------------------------------------------------------


def test_f1_seed_examples(f1_stream):
    seeds = seed_cliques(f1_stream, 3, 2, (1, 5))
    by_pair = {}
    for s in seeds:
        by_pair.setdefault(s.vertices, []).append((s.ta, s.tb))
    assert by_pair[(1, 2)] == [(1, 2), (4, 7)]
    assert {s.key() for s in seeds} == {
        ((1, 2), 1, 2),
        ((1, 2), 4, 7),
        ((1, 3), 1, 4),
        ((1, 3), 2, 5),
        ((2, 3), 2, 5),
    }


def test_seeds_hold_exactly_gamma_occurrences_and_are_valid():
    for seed_idx in range(8):
        stream = random_stream(seed_idx)
        for delta, gamma in ((2, 1), (4, 2), (5, 3)):
            for s in seed_cliques(stream, delta, gamma, stream.observation):
                assert stream.count_in(s.vertices, (s.ta, s.tb)) == gamma
                assert is_delta_gamma_clique(
                    s.vertices, (s.ta, s.tb), stream, delta, gamma
                )
                assert s.candidates is not None
                assert not set(s.vertices) & s.candidates


def test_seed_candidates_follow_window_frequency(f1_stream):
    seeds = {s.key(): s for s in seed_cliques(f1_stream, 3, 2, (1, 5))}
    assert seeds[((1, 3), 2, 5)].candidates == frozenset({2})
    assert seeds[((1, 2), 1, 2)].candidates == frozenset()


def test_seed_left_clamp_respects_observation_start():
    # occurrences early in the window would push the anchor before t_start
    stream = links_from_pairs({(1, 2): [1, 3]})
    seeds = seed_cliques(stream, 4, 2, (1, 3))
    assert {(s.ta, s.tb) for s in seeds} == {(1, 5), (1, 3)}


def test_seeds_never_clamp_right():
    stream = links_from_pairs({(1, 2): [8, 9]})  # observation ends at 9
    seeds = seed_cliques(stream, 3, 2, (8, 9))
    assert ((1, 2), 8, 11) in {s.key() for s in seeds}


# -- extend right ----------------------------------------------------------------


def test_extend_right_example(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    flag = extend_right(make_clique([1, 2], 1, 4), ws)
    assert flag is False
    assert [c.key() for c in enqueued(ws)] == [((1, 2), 1, 7)]


def test_extend_right_blocked(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    # anchor: last two occurrences of (1,2) within [1,8] start at 4 -> 4+3=7
    flag = extend_right(make_clique([1, 2], 1, 7), ws)
    assert flag is True and not ws.pending


def test_extend_right_past_observation_end(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2, debug=False)
    flag = extend_right(make_clique([1, 2], 4, 5), ws)
    assert flag is False
    assert [c.key() for c in enqueued(ws)] == [((1, 2), 4, 7)]


def test_extend_right_missing_pair_blocks():
    stream = links_from_pairs({(1, 2): [0, 1], (1, 3): [0], (2, 3): [0, 1]})
    ws = fresh_ws(stream, 2, 2, debug=False)
    assert extend_right(make_clique([1, 2, 3], 0, 0), ws) is True


# -- extend left -----------------------------------------------------------------


def test_extend_left_example(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    flag = extend_left(make_clique([1, 2], 2, 5), ws, t_start=1)
    assert flag is False
    assert [c.key() for c in enqueued(ws)] == [((1, 2), 1, 5)]


def test_extend_left_clamped_start_counts_as_blocked(f1_stream):
    # anchor would fall before the observation start; after clamping there is
    # no strict growth, so the move reports exhaustion
    ws = fresh_ws(f1_stream, 3, 2)
    flag = extend_left(make_clique([1, 2], 1, 2), ws, t_start=1)
    assert flag is True and not ws.pending


def test_extend_left_partial_clamp():
    stream = links_from_pairs({(1, 2): [2, 3, 9]})
    ws = fresh_ws(stream, 4, 2, debug=False)
    flag = extend_left(make_clique([1, 2], 3, 6), ws, t_start=2)
    assert flag is False
    assert [c.key() for c in enqueued(ws)] == [((1, 2), 2, 6)]


# -- vertex expansion --------------------------------------------------------------


def test_expand_vertex_example(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    clique = make_clique([1, 2], 2, 5, candidates={3})
    flag = expand_vertex_set(clique, ws)
    assert flag is False
    grown = enqueued(ws)[0]
    assert grown.key() == ((1, 2, 3), 2, 5)
    assert grown.candidates == frozenset({3})  # inherited unchanged


def test_expand_vertex_requires_candidates(f1_stream):
    with pytest.raises(ValueError):
        expand_vertex_set(make_clique([1, 2], 2, 5), fresh_ws(f1_stream, 3, 2))


def test_expand_vertex_empty_candidates_is_exhausted(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    clique = make_clique([1, 2], 1, 2, candidates=())
    assert expand_vertex_set(clique, ws) is True


def test_flags_independent_of_seen_suppression(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    clique = make_clique([1, 2], 2, 5, candidates={3})
    assert expand_vertex_set(clique, ws) is False
    assert len(ws.pending) == 1
    # second call: growth still exists, enqueue suppressed by the seen set
    assert expand_vertex_set(clique, ws) is False
    assert len(ws.pending) == 1


def linked_at_zero(*pairs):
    """Each listed pair in contact once, at t=0 (valid at gamma=1 on [0,0])."""
    return links_from_pairs({pair: [0] for pair in pairs})


def test_expand_vertex_never_tries_a_vertex_outside_the_pool():
    # {1,2,4} would be valid, but 4 is not a growth of the parent
    stream = linked_at_zero((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    ws = fresh_ws(stream, 2, 1)
    clique = make_clique([1, 2], 0, 0, candidates={3, 4})
    assert expand_vertex_set(clique, ws, pool=(2, 3), newest=2) is False
    assert [c.key() for c in enqueued(ws)] == [((1, 2, 3), 0, 0)]
    assert ws.pair_checks == 1  # (3, 2) only


def test_expand_vertex_drops_a_pool_vertex_that_fails_with_the_newest():
    # 5 pairs with 1 and 2 but not with the newest vertex 3
    stream = linked_at_zero((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5))
    ws = fresh_ws(stream, 2, 1)
    clique = make_clique([1, 2, 3], 0, 0, candidates={3, 4, 5})
    assert expand_vertex_set(clique, ws, pool=(3, 4, 5), newest=3) is False
    assert [c.key() for c in enqueued(ws)] == [((1, 2, 3, 4), 0, 0)]
    assert ws.pair_checks == 2
    (child,) = ws.pending
    assert (child.pool, child.newest) == ((4,), 4)


def test_expand_vertex_without_pool_checks_every_member():
    # 5 pairs with 2 and 3 but not with the oldest member 1
    stream = linked_at_zero((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (2, 5), (3, 5))
    ws = fresh_ws(stream, 2, 1)
    clique = make_clique([1, 2, 3], 0, 0, candidates={4, 5})
    assert expand_vertex_set(clique, ws) is False
    assert [c.key() for c in enqueued(ws)] == [((1, 2, 3, 4), 0, 0)]
    assert ws.pair_checks == 3 + 1  # 4 against all three; 5 fails on (1, 5)
    (child,) = ws.pending
    assert (child.pool, child.newest) == ((4,), 4)


def test_expand_vertex_siblings_share_one_pool():
    stream = linked_at_zero((1, 2), (1, 3), (2, 3), (1, 4), (2, 4))
    ws = fresh_ws(stream, 2, 1)
    expand_vertex_set(make_clique([1, 2], 0, 0, candidates={3, 4}), ws)
    first, second = ws.pending
    assert first.pool is second.pool == (3, 4)
    assert (first.newest, second.newest) == (3, 4)


# -- worklist -----------------------------------------------------------------------


def test_right_only_items_skip_other_moves(f1_stream):
    # {1,2} [2,5] could take vertex 3 and extend left, but a carried frontier
    # clique is only ever grown rightward
    ws = fresh_ws(f1_stream, 3, 2)
    ws.seen.add(((1, 2), 2, 5))
    ws.pending.append(WorkItem(make_clique([1, 2], 2, 5), right_only=True))
    drain(ws, t_start=1, frontier_threshold=None)
    assert all(len(key[0]) == 2 for key in ws.seen)
    assert ((1, 2), 1, 5) not in ws.seen  # no left move happened


def test_every_move_runs_after_an_earlier_one_grows(f1_stream):
    # {1,2} [2,5] grows by vertex 3, to the right and to the left; the right
    # and left growths are only reachable from this clique, so they are
    # enqueued only if drain runs the later moves after the vertex move grew
    ws = fresh_ws(f1_stream, 3, 2)
    start = make_clique([1, 2], 2, 5, candidates={3})
    ws.seen.add(start.key())
    ws.pending.append(WorkItem(start))
    drain(ws, t_start=1, frontier_threshold=None)
    assert {((1, 2, 3), 2, 5), ((1, 2), 2, 7), ((1, 2), 1, 5)} <= ws.seen
    assert set(ws.new_maximal) == {((1, 2), 1, 7), ((1, 2, 3), 2, 5)}


def test_debug_mode_rejects_invalid_enqueue(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2, debug=True)
    with pytest.raises(AssertionError):
        ws.offer(make_clique([1, 2], 1, 5, candidates=frozenset()))
        ws.offer(make_clique([2, 3], 1, 5, candidates=frozenset()))


def test_peak_live_tracks_collections(f1_stream):
    ws = fresh_ws(f1_stream, 3, 2)
    for seed in seed_cliques(f1_stream, 3, 2, (1, 5)):
        ws.push_seed(seed)
    drain(ws, t_start=1, frontier_threshold=5)
    assert ws.peak_live >= len(ws.seen)
    assert set(ws.new_maximal) <= ws.seen
    assert all(c.tb >= 5 for c in ws.next_frontier.values())


def test_drain_matches_reference_drain_on_the_corpus(corpus, monkeypatch):
    # the same-span pool finds exactly the growths of a full validity check,
    # so the traversal is the same: seen, results and frontier after every drain
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
