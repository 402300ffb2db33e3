"""Batch update cycles, sub-clique removal, finalization, state files."""

import hashlib
import io
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from tclique import (
    BatchState,
    Clique,
    ConfigError,
    LinkStream,
    PartitionPlan,
    StateError,
    VerificationError,
    brute_force_enumerate,
    contains,
    dump_state,
    enumerate_maximal_cliques,
    format_clique,
    finalize,
    initial_state,
    is_delta_gamma_clique_direct,
    load_state,
    make_clique,
    normalize_final,
    partition_links,
    run_pipeline,
    save_state,
    seed_cliques,
    sort_cliques,
    update_batch,
)
from tclique.cliques import gap_index
from tclique.linkstream import format_link
import tclique.expand
import tclique.update
from tclique.update import (
    EMPTY_DIGEST,
    _certify_maximal,
    chain_closed_digest,
    chain_input_digest,
    contained_cliques,
    prune_frontier,
    remove_sub_cliques,
)
from helpers import (
    as_v1_state,
    as_v2_state,
    group_contact_stream,
    links_from_pairs,
    offline_keys,
    random_boundaries,
    random_state,
    random_stream,
    REFUSALS,
    reference_refusal,
    run_batches,
    signed,
    staged_cycles,
    traced_peak,
)


def keys(cliques):
    return set(cliques)


# -- update_batch --------------------------------------------------------------------


def test_single_batch_equals_reference(f1_stream):
    state = initial_state(3, 2, 1)
    state, closed, stats = update_batch(state, list(f1_stream.links), 5)
    final = finalize(state, closed, f1_stream)
    assert keys(final) == keys(brute_force_enumerate(f1_stream, 3, 2))
    assert stats.batch_links == 8
    assert state.closed == len(closed)
    assert stats.maximal == stats.new_cliques  # nothing was closed before
    # a first cycle's results all start after t_prev: the sweep checks none
    assert stats.new_cliques >= 1 and stats.checked == 0


def test_cycle_counters_of_a_group_contact_stream():
    # per cycle (peak_live, pair_checks, seeds, frontier, new_cliques,
    # checked) over eight batches; an engine change that keeps the cliques
    # visited keeps the last four (peak_live and pair_checks follow the
    # route to each clique: its parent and the order of the roots), and
    # `checked`, the results that start by the previous boundary, is 0 on
    # the first cycle. After it, a seed whose family has no link past the
    # previous boundary is skipped, so the later cycles have fewer seeds and
    # fewer swept results than seeds ending past that boundary would give
    stream = group_contact_stream(seed=7, n_meetings=110)
    state = initial_state(360, 2, stream.t_start)
    counters = []
    for boundary, chunk in partition_links(stream, PartitionPlan("ut", 8)):
        state, _, s = update_batch(state, chunk, boundary)
        counters.append(
            (s.peak_live, s.pair_checks, s.seeds, s.frontier, s.new_cliques, s.checked)
        )
    assert counters == [
        (392, 579, 87, 56, 107, 0),
        (439, 558, 107, 26, 162, 91),
        (729, 868, 125, 119, 195, 52),
        (522, 515, 78, 61, 149, 177),
        (251, 325, 79, 9, 90, 75),
        (280, 228, 68, 53, 90, 23),
        (473, 567, 89, 82, 118, 56),
        (342, 278, 70, 40, 109, 105),
    ]


def test_two_batches_on_handoff_fixture(handoff_stream):
    state, closed = run_batches(handoff_stream, 4, 2, (11, 20))
    final = finalize(state, closed, handoff_stream)
    assert keys(final) == keys(brute_force_enumerate(handoff_stream, 4, 2))


def test_carried_cliques_block_no_growth_route():
    # one batch per tick, delta 8, gamma 1: when the cycle ending at 8
    # begins, the frontier holds 2,3,5 [0,8] and 3,4,5 [0,8], the two
    # growths on the routes from the seed 3,5 [0,8] to 2,3,4,5 [0,8]; a
    # carried clique in `seen` would block its route and lose the result
    stream = random_stream(50_142)
    t_min, t_max, _ = stream.time_bounds()
    plan = PartitionPlan("explicit", boundaries=tuple(range(t_min, t_max + 1)))
    state, closed = initial_state(8, 1, stream.t_start), []
    for boundary, chunk in partition_links(stream, plan):
        if boundary == 8:
            assert {((2, 3, 5), 0, 8), ((3, 4, 5), 0, 8)} <= state.frontier
        state, cycle_closed, _ = update_batch(state, chunk, boundary)
        closed.extend(cycle_closed)
    assert ((2, 3, 4, 5), 0, 8) in closed
    assert finalize(state, closed, stream) == sorted(brute_force_enumerate(stream, 8, 1))


def test_batch_links_must_fit_window(f1_stream):
    state = initial_state(3, 2, 1)
    with pytest.raises(ConfigError, match="outside"):
        update_batch(state, [(9, 1, 2)], 5)
    state, _, _ = update_batch(state, [l for l in f1_stream.links if l[0] <= 3], 3)
    with pytest.raises(ConfigError, match="outside"):
        update_batch(state, [(2, 1, 2)], 5)  # belongs to the past


def test_batch_links_must_be_canonical():
    # a link is (t, u, v) with u < v; the working stream refuses the rest
    for link in ((4, 2, 1), (4, 2, 2)):
        with pytest.raises(ValueError, match="not canonical"):
            update_batch(initial_state(3, 2, 1), [link], 5)


def test_boundary_must_advance(f1_stream):
    state = initial_state(3, 2, 1)
    state, _, _ = update_batch(state, [l for l in f1_stream.links if l[0] <= 3], 3)
    with pytest.raises(ConfigError, match="advance"):
        update_batch(state, [], 3)


def test_empty_batches_are_harmless(f1_stream):
    state = initial_state(3, 2, 1)
    state, first, _ = update_batch(state, list(f1_stream.links), 5)
    state, second, stats = update_batch(state, [], 9)
    stream9 = LinkStream(f1_stream.links, observation=(1, 9))
    assert keys(finalize(state, first + second, stream9)) == offline_keys(stream9, 3, 2)
    assert stats.batch_links == 0


def mid_stream_state(handoff_stream):
    state = initial_state(4, 2, handoff_stream.t_start)
    batch = [l for l in handoff_stream.links if l[0] <= 11]
    state, _, _ = update_batch(state, batch, 11)
    return state


def test_link_tail_is_the_trailing_window(handoff_stream):
    state = mid_stream_state(handoff_stream)
    expected = [l for l in handoff_stream.links if 11 - 4 <= l[0] <= 11]
    assert sorted(state.link_tail) == sorted(expected)


def test_frontier_members_reach_the_boundary(handoff_stream):
    state = mid_stream_state(handoff_stream)
    assert state.frontier, "fixture is built to leave a frontier"
    assert all(c.tb >= 11 for c in state.frontier)


NO_INPUT = EMPTY_DIGEST


def test_fresh_state_must_be_empty():
    # before the first cycle the boundary is t_start - 1, never lower
    assert initial_state(3, 2, 0).t_boundary == -1
    frontier = {make_clique([1, 2], 0, 3)}
    tail = ((-1, 1, 2),)
    consumed = chain_input_digest(NO_INPUT, [(1, 1, 2)])
    closed = chain_closed_digest(NO_INPUT, ["1,2 [0,3]"])
    for fields in (
        (NO_INPUT, 0, NO_INPUT, set(), tail),
        (NO_INPUT, 0, NO_INPUT, frontier, ()),
        (consumed, 0, NO_INPUT, set(), ()),
        (NO_INPUT, 1, NO_INPUT, set(), ()),
        (NO_INPUT, 0, closed, set(), ()),
    ):
        with pytest.raises(ConfigError, match="fresh"):
            BatchState(3, 2, 0, -1, *fields)
    with pytest.raises(ConfigError, match="delta"):
        BatchState(0, 2, 0, -1, NO_INPUT, 0, NO_INPUT, set(), ())
    with pytest.raises(ConfigError, match="before t_start - 1"):
        BatchState(3, 2, 0, -2, NO_INPUT, 0, NO_INPUT, set(), ())
    with pytest.raises(ConfigError, match="input_digest"):
        BatchState(3, 2, 0, 5, "abc", 0, NO_INPUT, set(), ())
    with pytest.raises(ConfigError, match="closed_digest"):
        BatchState(3, 2, 0, 5, NO_INPUT, 0, "abc", set(), ())
    with pytest.raises(ConfigError, match="negative closed count"):
        BatchState(3, 2, 0, 5, NO_INPUT, -1, NO_INPUT, set(), ())


def test_frontier_invariant_is_validated():
    lagging = make_clique([1, 2], 0, 3)
    with pytest.raises(ConfigError, match="boundary"):
        BatchState(3, 2, 0, 5, NO_INPUT, 0, NO_INPUT, {lagging}, ())


def test_tail_links_must_be_canonical():
    # dump_state would write '2 1 4', which load_state refuses
    BatchState(3, 2, 0, 5, NO_INPUT, 0, NO_INPUT, set(), ((4, 1, 2),))
    for link in ((4, 2, 1), (4, 2, 2)):
        with pytest.raises(ConfigError, match="not canonical"):
            BatchState(3, 2, 0, 5, NO_INPUT, 0, NO_INPUT, set(), (link,))


def test_tail_links_must_lie_in_the_closed_delta_window():
    # the tail is the links of [boundary - delta, boundary], both ends in
    BatchState(4, 2, 0, 10, NO_INPUT, 0, NO_INPUT, set(), ((6, 1, 2), (10, 1, 2)))
    for t in (5, 11):
        with pytest.raises(ConfigError, match=re.escape(f"tail link ({t}, 1, 2) outside [6, 10]")):
            BatchState(4, 2, 0, 10, NO_INPUT, 0, NO_INPUT, set(), ((t, 1, 2),))


def test_input_digest_chains_the_batches_consumed(handoff_stream):
    links = handoff_stream.links
    state, _ = run_batches(handoff_stream, 4, 2, (11, 20))
    first = [l for l in links if l[0] <= 11]
    second = [l for l in links if 11 < l[0] <= 20]
    expected = chain_input_digest(chain_input_digest(NO_INPUT, first), second)
    assert state.input_digest == expected
    # the digest depends on the links, not on the order a batch lists them in
    state, _, _ = update_batch(initial_state(4, 2, 1), first[::-1], 11)
    assert state.input_digest == chain_input_digest(NO_INPUT, first)
    assert chain_input_digest(NO_INPUT, first[1:]) != state.input_digest


def one_shot_input_digest(previous, links):
    """`chain_input_digest` as defined: sha256 of the previous digest, a
    newline, then every `format_link` line with its newline, joined whole."""
    body = previous + "\n" + "".join(format_link(l) + "\n" for l in links)
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def digest_links(n):
    """n distinct canonical links (t, u, v), sorted by time."""
    rng = random.Random(n)
    lows = rng.choices(range(10**5), k=n)
    return [(t, u, u + rng.randint(1, 999)) for t, u in enumerate(lows)]


def test_input_digest_is_its_one_shot_definition():
    # the lines are hashed a chunk at a time: every cut of the chunks, an
    # empty batch and an iterator give the digest of the batch's whole text
    chunk = tclique.update._DIGEST_CHUNK
    previous = chain_input_digest(NO_INPUT, [(1, 1, 2)])
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 50_000):
        links = digest_links(n)
        expected = one_shot_input_digest(previous, links)
        assert chain_input_digest(previous, links) == expected, n
        assert chain_input_digest(previous, (link for link in links)) == expected, n
    assert chain_input_digest(previous, []) != chain_input_digest(NO_INPUT, [])


def test_input_digest_holds_one_chunk_of_text():
    # 100k links never trace more than twice what the one-shot join of one
    # chunk's links traces; the one-shot join of all of them traces far more
    chunk = tclique.update._DIGEST_CHUNK
    links = digest_links(100_000)
    one_chunk = traced_peak(one_shot_input_digest, NO_INPUT, links[:chunk])
    assert traced_peak(chain_input_digest, NO_INPUT, links) <= 2 * one_chunk
    assert traced_peak(one_shot_input_digest, NO_INPUT, links) > 10 * one_chunk


def test_closed_count_and_digest_chain_the_closed_cliques(handoff_stream):
    state, closed = run_batches(handoff_stream, 4, 2, (5, 11, 16))
    assert state.closed == len(closed) > 0
    lines = [format_clique(c) for c in closed]
    assert state.closed_digest == chain_closed_digest(NO_INPUT, lines)
    # folded line by line: the digest does not depend on the cycles' split
    head = chain_closed_digest(NO_INPUT, lines[:2])
    assert chain_closed_digest(head, lines[2:]) == state.closed_digest
    assert chain_closed_digest(NO_INPUT, lines[::-1]) != state.closed_digest


def test_closed_cliques_end_between_the_boundaries(corpus, corpus_oracles):
    """Each cycle's closed cliques end in [t_prev, t_next), so no two cycles
    close the same clique, and none is still in the frontier; every one is
    final: together they are exactly the exhaustive search's cliques that end
    before the last boundary. On the corpus in one batch, in ut batches of
    one tick and in random explicit batches."""
    n_closed = 0
    for idx, ((stream, delta, gamma), oracle) in enumerate(zip(corpus, corpus_oracles)):
        rng = random.Random(45_000 + idx)
        t_min, t_max, _ = stream.time_bounds()
        plans = (
            (t_max,),
            tuple(range(t_min, t_max + 1)),
            random_boundaries(stream, rng, 8),
        )
        for boundaries in plans:
            state = initial_state(delta, gamma, stream.t_start)
            all_closed = []
            plan = PartitionPlan("explicit", boundaries=boundaries)
            for boundary, chunk in partition_links(stream, plan):
                t_prev = state.t_boundary
                state, closed, _ = update_batch(state, chunk, boundary)
                assert all(t_prev <= c.tb < boundary for c in closed), (idx, boundary)
                assert sort_cliques(closed) == closed
                assert len(set(closed)) == len(closed)
                all_closed.extend(closed)
            expected = sort_cliques(c for c in oracle if c.tb < boundaries[-1])
            assert sort_cliques(all_closed) == expected, (idx, boundaries)
            n_closed += len(all_closed)
    assert n_closed > 0


@pytest.mark.slow
def test_result_after_every_arrival_matches_a_recompute_on_a_group_contact_stream():
    """`finalize` on each cycle's state and the cliques closed so far equals
    a from-scratch run on the links up to the boundary, observed over
    [t_start, boundary]: the result after every arrival, at about 4.6k links
    in 8 ut batches. The from-scratch run finalizes too, so the result must
    also hold every clique closed so far."""
    stream = group_contact_stream(seed=2024, n_meetings=110)
    delta, gamma = 360, 2
    state = initial_state(delta, gamma, stream.t_start)
    closed = []
    for boundary, chunk in partition_links(stream, PartitionPlan("ut", 8)):
        state, cycle_closed, _ = update_batch(state, chunk, boundary)
        closed.extend(cycle_closed)
        prefix = LinkStream(
            [l for l in stream.links if l[0] <= boundary],
            observation=(stream.t_start, boundary),
        )
        result = finalize(state, closed, prefix)
        assert result == sorted(enumerate_maximal_cliques(prefix, delta, gamma)), boundary
        assert set(closed) <= set(result), boundary
    assert state.t_boundary == stream.t_end and len(closed) > 500


def test_staging_observer_sees_both_snapshots(handoff_stream, monkeypatch):
    # pre-sweep (closed before, the cycle's results and the frontier) and
    # post-sweep (closed so far and the frontier) per cycle
    cycles = staged_cycles(handoff_stream, 4, 2, (11, 20), monkeypatch)
    assert [c.boundary for c in cycles] == [11, 20]
    assert cycles[0].pre == cycles[0].post  # a first cycle drops nothing
    assert cycles[1].pre >= cycles[1].post
    state, closed = run_batches(handoff_stream, 4, 2, (11, 20))
    assert cycles[-1].post == set(closed) | state.frontier
    assert (cycles[-1].state, cycles[-1].closed) == (state, closed)


# -- the seeding rule ------------------------------------------------------------------


def seeds_ending_after(stream, delta, gamma, t_prev):
    """Every seed of the stream that ends after t_prev, with its candidates:
    the seeding rule before the family test, a first cycle's seeds filtered
    on their right end alone."""
    every = tclique.expand.seed_cliques(stream, delta, gamma, stream.t_start - 1)
    return [item for item in every if item.clique.tb > t_prev]


def cycle_record(stream, delta, gamma, boundaries):
    """Per cycle, the state `dump_state` writes, the closed cliques and the
    `maximal`, `frontier` and `new_cliques` columns, then the `finalize`
    result; and the seeds of every cycle summed."""
    state = initial_state(delta, gamma, stream.t_start)
    record, closed, seeds = [], [], 0
    plan = PartitionPlan("explicit", boundaries=tuple(boundaries))
    for boundary, chunk in partition_links(stream, plan):
        state, cycle_closed, stats = update_batch(state, chunk, boundary)
        closed.extend(cycle_closed)
        seeds += stats.seeds
        record.append(
            (dump_state(state), cycle_closed, stats.maximal, stats.frontier, stats.new_cliques)
        )
    record.append(finalize(state, closed, stream))
    return record, seeds


def seeds_skipped(stream, delta, gamma, boundaries, monkeypatch) -> int:
    """Run the plan with `seed_cliques` and again with `seeds_ending_after`
    in its place: every cycle's state, closed cliques and result columns,
    and the final result, must be the same. Returns the seeds the family
    test skipped."""
    ours, kept = cycle_record(stream, delta, gamma, boundaries)
    with monkeypatch.context() as patch:
        patch.setattr(tclique.update, "seed_cliques", seeds_ending_after)
        theirs, every = cycle_record(stream, delta, gamma, boundaries)
    assert ours == theirs, boundaries
    return every - kept


def test_skipped_seeds_change_no_cycle_on_the_corpus(corpus, monkeypatch):
    # the corpus in one batch, one batch per tick and a random plan
    skipped = 0
    for idx, (stream, delta, gamma) in enumerate(corpus):
        rng = random.Random(65_000 + idx)
        t_min, t_max, _ = stream.time_bounds()
        plans = ((t_max,), tuple(range(t_min, t_max + 1)), random_boundaries(stream, rng, 8))
        for boundaries in plans:
            skipped += seeds_skipped(stream, delta, gamma, boundaries, monkeypatch)
    assert skipped > 1_000


def test_a_candidate_that_joins_through_batch_links_keeps_its_seed(monkeypatch):
    # delta 10, gamma 2, batches ending at 10 and 20. The seed (2,3) [5,15]
    # has no link of its own pair after 10. In the first cycle 1 is no
    # candidate of it ((1,2) links once in [5, 10]); the batch link (1,2) at
    # 12 makes it one, and 1,2,3 [2,15] has no other right anchor. The
    # family (2,3) + {1} is asked about (1,2) and (1,3) too, so the seed is
    # kept, and only through the sorted family: (2,1) and (3,1) are no keys
    stream = links_from_pairs(
        {(2, 3): [5, 8], (1, 3): [6, 7], (1, 2): [6, 12]}, observation=(0, 20)
    )
    assert seeds_skipped(stream, 10, 2, (10, 20), monkeypatch) == 1  # (1,3) [6,16]
    seeds = dict(seed_cliques(stream, 10, 2, 10))  # the second cycle's stream
    assert seeds[((2, 3), 5, 15)] == (1,)
    assert ((1, 3), 6, 16) not in seeds  # nothing of 1,3 + {} links after 10
    state, closed = run_batches(stream, 10, 2, (10, 20))
    assert ((1, 2, 3), 2, 15) in closed
    assert finalize(state, closed, stream) == sorted(brute_force_enumerate(stream, 10, 2))


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 2024, 3])
def test_skipped_seeds_change_no_cycle_on_group_contact_streams(seed, monkeypatch):
    stream = group_contact_stream(seed=seed, n_meetings=110)
    skipped = 0
    for batches in (2, 8, 32, 300):
        plan = PartitionPlan("ut", batches)
        boundaries = tuple(b for b, _ in partition_links(stream, plan))
        skipped += seeds_skipped(stream, 360, 2, boundaries, monkeypatch)
    assert skipped > 1_000


# -- removal ---------------------------------------------------------------------------


def test_remove_sub_cliques_mechanics():
    # previous boundary 6: the five start by it and are swept against each
    # other; f starts after it and is not checked
    a = make_clique([1, 2], 0, 9)
    b = make_clique([1, 2], 2, 5)  # same vertices, strictly inside
    c = make_clique([1, 2, 3], 4, 6)
    d = make_clique([1, 3], 4, 6)  # strict vertex subset of c, same span
    e = make_clique([1, 2], 6, 14)  # overlaps a, inside neither
    f = make_clique([4, 5], 7, 12)
    collection = {a, b, c, d, e, f}
    assert remove_sub_cliques(collection, 6) == 5
    assert collection == {a, c, e, f}


def test_remove_sub_cliques_sweeps_only_results_by_the_previous_boundary():
    # a clique starting after the previous boundary is not checked, though
    # a result contains it; an early contained one is dropped; on a first
    # cycle (t_prev = t_start - 1) nothing is checked
    a = make_clique([1, 2, 3], 10, 20)
    b = make_clique([2, 3], 15, 18)
    c = make_clique([1, 3], 10, 19)
    collection = {a, b, c}
    assert remove_sub_cliques(collection, 12) == 2
    assert collection == {a, b}
    collection = {a, b, c}
    assert remove_sub_cliques(collection, 9) == 0
    assert collection == {a, b, c}
    empty: set = set()
    assert remove_sub_cliques(empty, 12) == 0
    assert empty == set()


def sweeps_agree(stream, delta, gamma, boundaries, monkeypatch) -> int:
    """Run the plan; in every cycle the restricted sweep must drop what the
    full sweep, every result against every result, drops, and a first cycle
    nothing. Returns how many results the full sweep dropped."""
    dropped = []

    def compared_sweep(results, t_prev):
        full = set(contained_cliques(results))
        before = set(results)
        checked = remove_sub_cliques(results, t_prev)
        assert before - results == full, (boundaries, t_prev)
        assert checked == sum(c.ta <= t_prev for c in before)
        if t_prev == stream.t_start - 1:
            assert not full, boundaries
        dropped.append(len(full))
        return checked

    with monkeypatch.context() as patch:
        patch.setattr(tclique.update, "remove_sub_cliques", compared_sweep)
        run_batches(stream, delta, gamma, boundaries)
    return sum(dropped)


def test_restricted_sweep_drops_what_the_full_sweep_drops(corpus, monkeypatch):
    # the corpus in one batch, one batch per tick and two random plans
    n_dropped = 0
    for idx, (stream, delta, gamma) in enumerate(corpus):
        rng = random.Random(55_000 + idx)
        t_min, t_max, _ = stream.time_bounds()
        plans = (
            (t_max,),
            tuple(range(t_min, t_max + 1)),
            random_boundaries(stream, rng, 8),
            random_boundaries(stream, rng, 8),
        )
        for boundaries in plans:
            n_dropped += sweeps_agree(stream, delta, gamma, boundaries, monkeypatch)
    assert n_dropped > 0


@pytest.mark.parametrize("batches", [8, 32])
def test_restricted_sweep_drops_what_the_full_sweep_drops_on_a_group_contact_stream(
    batches, monkeypatch
):
    stream = group_contact_stream(seed=7, n_meetings=110)
    boundaries = tuple(b for b, _ in partition_links(stream, PartitionPlan("ut", batches)))
    assert sweeps_agree(stream, 360, 2, boundaries, monkeypatch) > 0


def small_cliques(top_vertex: int, max_ta: int = 4, max_length: int = 4):
    """Cliques over vertices 1..top_vertex with ta in [0, max_ta] and lengths
    in [0, max_length]. With the defaults, spans lie inside [0, 8]: few
    enough values that equal vertex sets with nested spans are common."""
    return st.builds(
        lambda verts, ta, length: make_clique(verts, ta, ta + length),
        st.sets(st.integers(1, top_vertex), min_size=2, max_size=4),
        st.integers(0, max_ta),
        st.integers(0, max_length),
    )


@settings(max_examples=300, deadline=None)
@given(
    # vertices up to 7 over spans in [0, 8], where equal vertex sets with
    # nested spans are common, or spread over [0, 60], where most spans miss
    # each other
    st.one_of(
        st.lists(small_cliques(7), max_size=12),
        st.lists(small_cliques(7, 40, 20), max_size=24),
    ),
)
# equal vertex sets, nested spans (both ways round)
@example([make_clique([1, 2], 0, 8), make_clique([1, 2], 2, 5)])
@example([make_clique([1, 2], 2, 5), make_clique([1, 2], 0, 8)])
# identical cliques do not contain each other: a repeated container, and
# the clique inside it
@example(
    [make_clique([1, 2, 3], 0, 4), make_clique([1, 2], 1, 3), make_clique([1, 2, 3], 0, 4)]
)
# spans that touch at the edges: a container ending exactly at the inner
# clique's tb (and the longest of the list), and one starting exactly at
# its ta
@example([make_clique([1, 2, 3], 0, 10), make_clique([1, 2], 3, 10)])
@example(
    [make_clique([1, 2, 3], 2, 6), make_clique([4, 5], 0, 30), make_clique([1, 2], 2, 4)]
)
# a clique whose span covers every other span, on the posting lists of
# neither vertex 1 nor vertex 2
@example(
    [
        make_clique([3, 4], 0, 30),
        make_clique([1, 2, 3], 10, 14),
        make_clique([1, 2], 11, 13),
        make_clique([1, 2], 9, 13),
    ]
)
def test_contained_cliques_matches_brute_force(cliques):
    expected = [c for c in cliques if any(contains(o, c) for o in cliques)]
    assert contained_cliques(cliques) == expected


# -- frontier pruning -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(small_cliques(4), max_size=14))
# nested spans, both ways round
@example([make_clique([1, 2], 0, 8), make_clique([1, 2], 2, 5)])
@example([make_clique([1, 2], 2, 5), make_clique([1, 2], 0, 8)])
# equal ta, different tb; equal tb, different ta
@example([make_clique([1, 2], 3, 4), make_clique([1, 2], 3, 7)])
@example([make_clique([1, 2], 1, 7), make_clique([1, 2], 3, 7)])
# overlapping spans, neither covering the other
@example([make_clique([1, 2], 0, 5), make_clique([1, 2], 2, 8)])
# disjoint vertex sets, and a vertex subset: only equal sets prune
@example([make_clique([1, 2], 0, 8), make_clique([3, 4], 2, 5)])
@example([make_clique([1, 2, 3], 0, 8), make_clique([1, 2], 2, 5)])
def test_prune_frontier_matches_brute_force(frontier):
    frontier = set(frontier)
    expected = {
        c
        for c in frontier
        if not any(
            o != c and o.vertices == c.vertices and o.ta <= c.ta and c.tb <= o.tb
            for o in frontier
        )
    }
    assert prune_frontier(frontier) == expected


def test_pruned_cliques_never_reach_the_maximal_set(corpus, monkeypatch):
    """After every cycle, on the corpus in ut and random explicit batches:
    no clique the prune dropped is among the cycle's results, each has a
    cover in the kept frontier, and every result reaching the boundary is in
    it. The cycle's results are the set `remove_sub_cliques` sweeps."""
    dropped, results = [], []

    def recording_prune(frontier):
        kept = prune_frontier(frontier)
        dropped.append(set(frontier) - kept)
        return kept

    def recording_sweep(new_cliques, t_prev):
        results.append(new_cliques)  # swept in place
        return remove_sub_cliques(new_cliques, t_prev)

    monkeypatch.setattr(tclique.update, "prune_frontier", recording_prune)
    monkeypatch.setattr(tclique.update, "remove_sub_cliques", recording_sweep)
    n_dropped = 0
    for idx, (stream, delta, gamma) in enumerate(corpus):
        rng = random.Random(40_000 + idx)
        t_min, t_max, _ = stream.time_bounds()
        plans = (tuple(range(t_min, t_max + 1)), random_boundaries(stream, rng, 8))
        for boundaries in plans:
            state = initial_state(delta, gamma, stream.t_start)
            plan = PartitionPlan("explicit", boundaries=boundaries)
            for boundary, chunk in partition_links(stream, plan):
                state, _, _ = update_batch(state, chunk, boundary)
                (gone,), (found,) = dropped, results
                dropped.clear()
                results.clear()
                n_dropped += len(gone)
                assert gone.isdisjoint(found), (idx, boundary)
                for c in gone:
                    assert any(contains(o, c) for o in state.frontier), (idx, c)
                for c in found:
                    if c.tb >= boundary:
                        assert c in state.frontier, (idx, boundary, c)
    assert n_dropped > 0


# -- finalize ----------------------------------------------------------------------------


def test_normalize_clamps_dedups_and_prunes():
    raw = [
        make_clique([1, 2], 12, 22),
        make_clique([1, 2], 12, 21),  # duplicate after clamping
        make_clique([1, 2], 13, 20),  # contained once clamped
    ]
    final = normalize_final(raw, t_end=21)
    assert final == {((1, 2), 12, 21)}


def test_finalize_checks_observation_start(f1_stream):
    state = initial_state(3, 2, 0)  # stream starts at 1
    with pytest.raises(ConfigError):
        finalize(state, [], f1_stream)


def test_finalize_raises_verification_error_on_a_failing_clique(f1_stream):
    state, closed, _ = update_batch(initial_state(3, 2, 1), list(f1_stream.links), 5)
    assert finalize(state, closed, f1_stream)
    bogus = make_clique([1, 9], 1, 2)  # vertex 9 never links: not a clique
    with pytest.raises(VerificationError, match=r"1,9 \[1,2\] failed certification"):
        finalize(state, closed + [bogus], f1_stream)


def test_certification_pool_holds_every_vertex_that_extends(
    corpus, corpus_oracles, monkeypatch
):
    # the pool `finalize` hands the certificate holds every vertex w outside
    # a clique K for which K+{w} is valid on K's span, checked by the
    # definition over every vertex of the stream: on every result of the
    # corpus and every clique one vertex short of it. The pool is read from
    # K's first delta-window only, so it may miss a vertex with gamma links
    # to every member over the whole span; such a vertex extends nothing,
    # and the verdict tests below are the gate that the verdicts agree.
    pools = {}

    def recording_certify(clique, stream, delta, gamma, gaps, pool):
        pools[clique] = set(pool)  # the window count moves on after the call
        return True

    monkeypatch.setattr(tclique.update, "_certify_maximal", recording_certify)
    n_candidates = n_results = 0
    for (stream, delta, gamma), results in zip(corpus, corpus_oracles):
        smaller = [
            Clique(verts[:i] + verts[i + 1 :], ta, tb)
            for verts, ta, tb in results
            for i in range(len(verts))
            if len(verts) > 2
        ]
        pools.clear()
        state = initial_state(delta, gamma, stream.t_start)
        finalize(state, [*results, *smaller], stream)
        assert set(pools) == {*results, *smaller}
        n_results += len(results)
        for clique, pool in pools.items():
            verts, ta, tb = clique
            expected = {
                w
                for w in stream.vertices
                if w not in verts
                and is_delta_gamma_clique_direct((*verts, w), (ta, tb), stream, delta, gamma)
            }
            assert pool >= expected, clique
            n_candidates += len(expected)
    assert n_results > 0 and n_candidates > 0


def certify(clique: Clique, stream: LinkStream, delta: int, gamma: int, gaps) -> bool:
    """`_certify_maximal` with the pool `finalize` gives it: the first
    member's partners in the delta-window from the clique's start."""
    partners = next(stream.window_partners([clique.ta], delta, gamma))
    pool = partners.get(clique.vertices[0], ())
    return _certify_maximal(clique, stream, delta, gamma, gaps, pool)


def certificate_probes(
    clique: Clique, stream: LinkStream, rng: random.Random, n_random: int = 2
) -> list[Clique]:
    """The clique, each clique one vertex short of it, its span shrunk or
    widened by one at either end, and `n_random` random cliques of the
    stream's vertices with spans inside its observation."""
    verts, ta, tb = clique
    probes = [clique, Clique(verts, ta - 1, tb), Clique(verts, ta, tb + 1)]
    if ta < tb:
        probes += [Clique(verts, ta + 1, tb), Clique(verts, ta, tb - 1)]
    if len(verts) > 2:
        probes += [Clique(verts[:i] + verts[i + 1 :], ta, tb) for i in range(len(verts))]
    t_start, t_end = stream.observation
    vertices = stream.vertices
    for _ in range(n_random):
        size = rng.randint(2, min(4, len(vertices)))
        a, b = sorted(rng.randint(t_start, t_end) for _ in range(2))
        probes.append(Clique(tuple(sorted(rng.sample(vertices, size))), a, b))
    return probes


def assert_certificates_agree(
    stream: LinkStream, delta: int, gamma: int, results, rng: random.Random
) -> Counter:
    """Hold the certificate's verdict to the reference's on every probe of
    every result; returns how many probes the reference found maximal (under
    None) and how many each of its steps refused first (`REFUSALS`)."""
    gaps = gap_index(stream, delta, gamma)
    outcomes = Counter()
    for result in results:
        for probe in certificate_probes(result, stream, rng):
            refusal = reference_refusal(probe, stream, delta, gamma)
            assert certify(probe, stream, delta, gamma, gaps) == (refusal is None), probe
            outcomes[refusal] += 1
    return outcomes


def test_certificate_verdicts_match_the_reference(corpus, corpus_oracles):
    # every corpus result is certified, and so is nothing the reference
    # refuses among its perturbations and random cliques; every step of the
    # certificate refuses some probe first, so a certificate that skips one
    # disagrees somewhere
    n_results = 0
    outcomes = Counter()
    for idx, ((stream, delta, gamma), results) in enumerate(zip(corpus, corpus_oracles)):
        gaps = gap_index(stream, delta, gamma)
        assert all(certify(c, stream, delta, gamma, gaps) for c in results)
        rng = random.Random(50_000 + idx)
        outcomes += assert_certificates_agree(stream, delta, gamma, results, rng)
        n_results += len(results)
    assert n_results > 100 and outcomes[None] > n_results
    assert all(outcomes[step] > 0 for step in REFUSALS), outcomes


@pytest.mark.slow
def test_certificate_verdicts_match_the_reference_on_a_group_contact_stream():
    """The same agreement on every result of a 16k-link group-contact
    stream, with its perturbations and random cliques."""
    stream = group_contact_stream(seed=2026, n_meetings=400)
    assert 14_000 <= stream.n_links <= 18_000
    delta, gamma = 360, 2
    results = run_pipeline(stream, delta, gamma, PartitionPlan("ut", 1)).final
    assert len(results) > 1_000
    gaps = gap_index(stream, delta, gamma)
    assert all(certify(c, stream, delta, gamma, gaps) for c in results)
    assert_certificates_agree(stream, delta, gamma, results, random.Random(7))


# -- state files ---------------------------------------------------------------------------


def test_state_round_trip_is_identity():
    for seed in range(25):
        state = random_state(seed)
        text = dump_state(state)
        again = load_state(io.StringIO(text))
        assert again == state
        assert dump_state(again) == text  # byte-stable


def test_real_state_round_trips(handoff_stream):
    state = run_batches(handoff_stream, 4, 2, (11,))[0]
    buf = io.StringIO()
    save_state(state, buf)
    text = buf.getvalue()
    assert " | " not in text  # clique lines carry no candidate lists
    assert load_state(io.StringIO(text)) == state


def test_state_corruption_is_detected(handoff_stream):
    state = run_batches(handoff_stream, 4, 2, (11,))[0]
    text = dump_state(state)
    with pytest.raises(StateError, match="checksum"):
        load_state(io.StringIO(text.replace("delta 4", "delta 5", 1)))
    truncated = "".join(text.splitlines(keepends=True)[:-3])
    with pytest.raises(StateError):
        load_state(io.StringIO(truncated))
    # a well-formed file (valid checksum) from an unknown format version
    body = text[: text.rindex("checksum ")].replace("v3", "v9", 1)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with pytest.raises(StateError, match="header|version"):
        load_state(io.StringIO(body + f"checksum {digest}\n"))
    with pytest.raises(StateError):
        load_state(io.StringIO(""))


def test_load_state_refuses_a_v1_state(handoff_stream):
    text = dump_state(run_batches(handoff_stream, 4, 2, (11,))[0])
    v1 = as_v1_state(text)
    assert "1,2 [12,22] | 3,5" in v1.splitlines()
    with pytest.raises(StateError, match="v1.*start the run again"):
        load_state(io.StringIO(v1))


def test_load_state_refuses_a_v2_state(handoff_stream):
    text = dump_state(run_batches(handoff_stream, 4, 2, (11,))[0])
    v2 = as_v2_state(text)
    assert "maximal 0" in v2.splitlines()
    with pytest.raises(StateError, match="v2.*only v3 states are read.*start the run again"):
        load_state(io.StringIO(v2))


def test_load_state_checks_the_input_digest_line(handoff_stream):
    lines = dump_state(run_batches(handoff_stream, 4, 2, (11,))[0]).splitlines()[:-1]
    assert lines[5].startswith("input_digest ") and len(lines[5].split()[1]) == 64
    for bad in ("input_digest x", "input_digest " + "A" * 64, "input_digest "):
        with pytest.raises(StateError, match="digest"):
            load_state(io.StringIO(signed(lines[:5] + [bad] + lines[6:])))
    with pytest.raises(StateError, match="input_digest"):
        load_state(io.StringIO(signed(lines[:5] + lines[6:])))


def test_load_state_checks_the_closed_lines(handoff_stream):
    lines = dump_state(run_batches(handoff_stream, 4, 2, (11,))[0]).splitlines()[:-1]
    assert lines[6].startswith("closed ") and lines[7].startswith("closed_digest ")
    for at, bad, message in (
        (6, "closed -1", "negative closed count"),
        (6, "closed x", "bad closed line"),
        (6, "closed_digest " + "0" * 64, "missing closed line"),
        (7, "closed_digest x", "closed_digest"),
        (7, "closed_digest " + "A" * 64, "closed_digest"),
        (7, "closed 3", "missing closed_digest line"),
    ):
        with pytest.raises(StateError, match=message):
            load_state(io.StringIO(signed(lines[:at] + [bad] + lines[at + 1 :])))


def test_load_state_wraps_bad_values_in_state_error(handoff_stream):
    lines = dump_state(run_batches(handoff_stream, 4, 2, (11,))[0]).splitlines()[:-1]
    assert lines[4].startswith("t_boundary ")
    for bad in ("t_boundary x", "t_boundary none"):
        with pytest.raises(StateError, match="t_boundary"):
            load_state(io.StringIO(signed(lines[:4] + [bad] + lines[5:])))
    # a tail line with u > v is not a canonical link
    assert lines[-1].count(" ") == 2
    with pytest.raises(StateError, match="link_tail"):
        load_state(io.StringIO(signed(lines[:-1] + ["2 1 5"])))


def test_load_state_rejects_non_canonical_clique_lines(handoff_stream):
    lines = dump_state(run_batches(handoff_stream, 4, 2, (11,))[0]).splitlines()[:-1]
    idx = lines.index("1,2 [12,22]")
    for bad in ("1,2 [12,2_2]", "+1,02 [ 12,22]", "1,2 [12,22] "):
        with pytest.raises(StateError, match="bad frontier line"):
            load_state(io.StringIO(signed(lines[:idx] + [bad] + lines[idx + 1 :])))


def test_load_state_rejects_repeated_section_lines(handoff_stream):
    state = initial_state(4, 1, handoff_stream.t_start)
    state, _, _ = update_batch(state, [l for l in handoff_stream.links if l[0] <= 11], 11)
    lines = dump_state(state).splitlines()[:-1]
    for section in ("frontier", "link_tail"):
        head = next(i for i, line in enumerate(lines) if line.startswith(section + " "))
        count = int(lines[head].split()[1])
        assert count >= 2
        # the first entry is listed twice and counted twice; dump_state
        # writes it once, so the section's own count line differs
        repeated = (
            lines[:head] + [f"{section} {count + 1}"] + [lines[head + 1]]
            + lines[head + 1 :]
        )
        with pytest.raises(StateError, match=f"line {head + 1} .*: '{section} "):
            load_state(io.StringIO(signed(repeated)))
        # the second entry repeats the first and the count stays, so one
        # entry is lost and the count line again differs
        lost = lines[: head + 2] + [lines[head + 1]] + lines[head + 3 :]
        with pytest.raises(StateError, match=f"line {head + 1} .*: '{section} "):
            load_state(io.StringIO(signed(lost)))


def test_load_state_accepts_only_what_dump_state_writes(handoff_stream):
    """Each text is refused because dump_state would not write it back: a
    non-canonical number, unsorted sections, or no final newline. A link
    tail line is refused already by parse_link."""
    lines = dump_state(run_batches(handoff_stream, 4, 2, (11,))[0]).splitlines()[:-1]
    assert load_state(io.StringIO(signed(lines))).delta == 4
    assert lines[1] == "delta 4" and lines[4] == "t_boundary 20"
    assert lines[-1] == "2 3 20"
    head = next(i for i, line in enumerate(lines) if line.startswith("frontier "))
    assert int(lines[head].split()[1]) >= 2
    swapped = lines[: head + 1] + [lines[head + 2], lines[head + 1]] + lines[head + 3 :]
    for at, changed in (
        (2, lines[:1] + ["delta 0_4"] + lines[2:]),
        (5, lines[:4] + ["t_boundary 020"] + lines[5:]),
        (head + 2, swapped),
    ):
        with pytest.raises(StateError, match=f"state line {at} is not what dump_state"):
            load_state(io.StringIO(signed(changed)))
    with pytest.raises(StateError, match="bad link_tail line '2 3 \\+20'"):
        load_state(io.StringIO(signed(lines[:-1] + ["2 3 +20"])))
    unterminated = signed(lines)[:-1]
    with pytest.raises(StateError, match=f"state line {len(lines) + 1} "):
        load_state(io.StringIO(unterminated))


STATE_TOKENS = st.sampled_from(
    ["x", "none", "-", "", "-1", "0", "7", "2 1 5", "1 1 3", "1,2", "1,1 [0,1]",
     "2,1 [0,1]", "1,2 [5,1]", "1 [0,1]", "1,2 [0,1] | x", "1,2 [0,1] | -",
     "1,2 [0,1] |", "1,2 [0,1] | 3,5", "maximal 99", "maximal 0", "frontier -1",
     "link_tail x", "t_boundary x", "tclique-state v1", "tclique-state v2",
     "tclique-state v3", "input_digest x", "closed 99", "closed -1", "closed 01",
     "closed x", "closed_digest x", "closed_digest " + "0" * 64,
     "closed_digest " + "e" * 65,
     "input_digest " + "0" * 64, "input_digest " + "f" * 63, "1,2 [0,1_0]",
     "+1,02 [ 0,1]", "01,2 [0,1]", "1,2 [-0,1]", "1_0"]
)
STATE_TEXT = st.text(alphabet="0123456789abcdef ,-|[]xnoe", max_size=24)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 1_000),
    st.booleans(),
    st.one_of(STATE_TOKENS, STATE_TEXT),
)
def test_mutated_state_raises_only_state_error(seed, line, whole_line, new):
    """Change one line of a v3 state file (digest and count lines included),
    re-sign it so the parser is reached, and load it: it either raises
    StateError, nothing else, or loads a state that dumps back to the exact
    text."""
    lines = dump_state(random_state(seed)).splitlines()[:-1]
    idx = line % len(lines)
    if whole_line:
        lines[idx] = new
    else:  # replace one space-separated token of the line
        tokens = lines[idx].split(" ")
        tokens[line % len(tokens)] = new
        lines[idx] = " ".join(tokens)
    text = signed(lines)
    try:
        state = load_state(io.StringIO(text))
    except StateError:
        return
    assert dump_state(state) == text


def test_loaded_state_resumes_identically(handoff_stream):
    direct, direct_closed = run_batches(handoff_stream, 4, 2, (11, 20))
    half, first, _ = update_batch(
        initial_state(4, 2, handoff_stream.t_start),
        [l for l in handoff_stream.links if l[0] <= 11],
        11,
    )
    revived = load_state(io.StringIO(dump_state(half)))
    tail_links = [l for l in handoff_stream.links if l[0] > 11]
    resumed, second, _ = update_batch(revived, tail_links, 20)
    assert resumed == direct
    assert first + second == direct_closed
    assert finalize(resumed, first + second, handoff_stream) == finalize(
        direct, direct_closed, handoff_stream
    )
