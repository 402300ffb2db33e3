"""Clique values, the validity predicate, and containment."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tclique import (
    Clique,
    contains,
    format_clique,
    is_delta_gamma_clique,
    is_delta_gamma_clique_direct,
    make_clique,
    parse_clique,
    sort_cliques,
)
from tclique.cliques import _pair_valid_direct, gap_index, pair_closure, pair_valid
from tclique.expand import WorkItem, WorkSets, clique_closure
from helpers import corpus_entry, links_from_pairs, plain_closure


def test_interval_basics():
    # the interval of a clique is its closed span [ta, tb]
    iv = make_clique([1, 2], 2, 7)
    assert iv.tb - iv.ta == 5
    assert contains(iv, make_clique([1, 2], 3, 6))
    assert not contains(iv, make_clique([1, 2], 1, 6))
    assert str(iv).endswith(" [2,7]")
    assert make_clique([1, 2], 4, 4).tb - make_clique([1, 2], 4, 4).ta == 0
    with pytest.raises(ValueError):
        make_clique([1, 2], 5, 4)


def test_clique_invariants():
    # a repeated vertex, unsorted vertices, a single vertex, an empty interval
    for text in ("1,1 [2,3]", "2,1 [2,3]", "1 [2,3]", "1,2 [5,3]", "1,2,2 [0,5]"):
        with pytest.raises(ValueError):
            parse_clique(text)
        head, span = text.split(" ")
        ta, tb = (int(t) for t in span[1:-1].split(","))
        with pytest.raises(ValueError):
            make_clique([int(v) for v in head.split(",")], ta, tb)
    # numbers int() reads but format_clique never writes
    for text in ("1,2 [0,1_0]", "+1,02 [ 0,1]", "01,2 [0,1]", "1,2 [+0,1]",
                 "1,2 [-0,1]", " 1,2 [0,1]", "1,2 [0,1] ", "1,2  [0,1]"):
        with pytest.raises(ValueError):
            parse_clique(text)
    # a negative time is canonical
    assert parse_clique("1,2 [-3,-1]") == make_clique([1, 2], -3, -1)


def test_canonical_key_examples():
    # a clique is the plain value (vertices, ta, tb): equal values are one key
    a = make_clique([1, 2], 3, 6)
    assert a == Clique((1, 2), 3, 6) == ((1, 2), 3, 6)
    assert hash(a) == hash(((1, 2), 3, 6))
    assert len({a, make_clique((1, 2), 3, 6), parse_clique("1,2 [3,6]")}) == 1
    assert a != make_clique([1, 2], 3, 7)
    assert (a.vertices, a.ta, a.tb) == ((1, 2), 3, 6)
    assert str(a) == "1,2 [3,6]"


def test_text_form_round_trip():
    c = make_clique([1, 2, 3], 2, 5)
    assert format_clique(c) == "1,2,3 [2,5]"
    assert parse_clique("1,2,3 [2,5]") == c
    with pytest.raises(ValueError):
        parse_clique("1 [2,5]")
    with pytest.raises(ValueError):
        parse_clique("1,2 (2,5)")


def test_sort_cliques_order():
    cliques = [
        make_clique([1, 3], 2, 5),
        make_clique([1, 2], 1, 9),
        make_clique([1, 2], 2, 5),
    ]
    assert [format_clique(c) for c in sort_cliques(cliques)] == [
        "1,2 [1,9]",
        "1,2 [2,5]",
        "1,3 [2,5]",
    ]


def test_validity_examples(f1_stream):
    assert is_delta_gamma_clique((1, 2), (1, 5), f1_stream, 3, 2)
    assert not is_delta_gamma_clique((1, 2), (1, 5), f1_stream, 1, 2)
    # window [3,4] holds a single occurrence at delta=1
    assert is_delta_gamma_clique_direct((1, 2), (1, 5), f1_stream, 3, 2)
    assert not is_delta_gamma_clique_direct((1, 2), (1, 5), f1_stream, 1, 2)


def test_validity_zero_length_span():
    stream = links_from_pairs({(1, 2): [4, 4], (1, 3): [4], (2, 3): [4]})
    assert is_delta_gamma_clique((1, 2, 3), (4, 4), stream, 3, 1)
    assert not is_delta_gamma_clique((1, 2, 3), (4, 4), stream, 3, 2)


def test_validity_requires_two_vertices(f1_stream):
    with pytest.raises(ValueError):
        is_delta_gamma_clique((1,), (1, 5), f1_stream, 3, 1)


def test_contains_examples():
    assert contains(make_clique([1, 2], 2, 7), make_clique([1, 2], 3, 6))
    assert contains(make_clique([1, 2, 3], 3, 6), make_clique([1, 2], 3, 6))
    assert not contains(make_clique([1, 2], 3, 6), make_clique([1, 2], 3, 6))
    # reversed roles never hold
    assert not contains(make_clique([1, 2], 3, 6), make_clique([1, 2], 2, 7))
    assert not contains(make_clique([1, 2], 3, 6), make_clique([1, 2, 3], 3, 6))
    # disjoint spans / unrelated vertex sets
    assert not contains(make_clique([1, 2], 0, 3), make_clique([1, 3], 1, 2))


def test_short_subspans_may_lose_validity():
    # validity does not shrink to arbitrary sub-spans: with a sparse pair the
    # full interval is fine while a short slice between occurrences is not
    stream = links_from_pairs({(1, 2): [0, 2, 4]})
    assert is_delta_gamma_clique((1, 2), (0, 4), stream, 2, 1)
    assert not is_delta_gamma_clique((1, 2), (3, 3), stream, 2, 1)


cliques_strategy = st.builds(
    lambda verts, a, length: make_clique(verts, a, a + length),
    st.sets(st.integers(1, 6), min_size=2, max_size=4),
    st.integers(0, 10),
    st.integers(0, 10),
)


@given(cliques_strategy, cliques_strategy, cliques_strategy)
def test_contains_is_a_strict_partial_order(a, b, c):
    assert not contains(a, a)
    if contains(a, b):
        assert not contains(b, a)
    if contains(a, b) and contains(b, c):
        assert contains(a, c)


streams_strategy = st.dictionaries(
    st.tuples(st.integers(1, 4), st.integers(1, 4))
    .filter(lambda p: p[0] != p[1])
    .map(lambda p: (min(p), max(p))),
    st.sets(st.integers(0, 14), min_size=1, max_size=10),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    streams_strategy,
    st.integers(0, 14),
    st.integers(0, 6),
    st.integers(1, 5),
    st.integers(1, 3),
)
def test_fast_checker_agrees_with_direct_definition(pairs, ta, span, delta, gamma):
    stream = links_from_pairs(pairs)
    tb = ta + span
    verts = sorted({v for pair in pairs for v in pair})
    if len(verts) < 2:
        return
    fast = is_delta_gamma_clique(tuple(verts), (ta, tb), stream, delta, gamma)
    direct = is_delta_gamma_clique_direct(tuple(verts), (ta, tb), stream, delta, gamma)
    assert fast == direct


@settings(max_examples=150, deadline=None)
@given(streams_strategy, st.integers(0, 14), st.integers(0, 8), st.integers(1, 4))
def test_monotone_on_long_subspans_and_vertex_subsets(pairs, ta, span, delta):
    stream = links_from_pairs(pairs)
    tb = ta + span
    verts = tuple(sorted({v for pair in pairs for v in pair}))
    if len(verts) < 2:
        return
    if not is_delta_gamma_clique(verts, (ta, tb), stream, delta, 1):
        return
    # every sub-span at least delta long stays valid
    for a in range(ta, tb + 1):
        for b in range(a, tb + 1):
            if b - a >= delta:
                assert is_delta_gamma_clique(verts, (a, b), stream, delta, 1)
    # every vertex subset of size >= 2 stays valid
    if len(verts) > 2:
        sub = verts[:-1]
        assert is_delta_gamma_clique(sub, (ta, tb), stream, delta, 1)


def test_gamma_one_matches_plain_delta_window_check():
    # separately coded delta-clique pair predicate: a link in every window
    def plain_pair_ok(occ, ta, tb, delta):
        for tau in range(ta, max(tb - delta, ta) + 1):
            hi = min(tau + delta, tb)
            if not any(tau <= t <= hi for t in occ):
                return False
        return True

    rng = random.Random(7)
    for _ in range(300):
        occ = sorted(rng.sample(range(0, 15), rng.randint(1, 6)))
        stream = links_from_pairs({(1, 2): occ})
        ta = rng.randint(0, 14)
        tb = rng.randint(ta, 14)
        delta = rng.randint(1, 5)
        assert is_delta_gamma_clique(
            (1, 2), (ta, tb), stream, delta, 1
        ) == plain_pair_ok(occ, ta, tb, delta)


def bad_times_by_count(stream, pair, delta, gamma):
    """The pair's occurrences s whose next delta + 1 ticks, [s+1, s+1+delta],
    hold fewer than gamma occurrences, counted by `count_in`."""
    return tuple(
        s
        for s in stream.occurrences(pair)
        if stream.count_in(pair, (s + 1, s + 1 + delta)) < gamma
    )


def index_valid(stream, pair, ta, tb, delta, gamma):
    """`pair_valid` reading a gap index of the stream, as the engine does."""
    gaps = gap_index(stream, delta, gamma)
    return pair_valid(stream.occurrences(pair), gaps.get(pair, ()), ta, tb, delta, gamma)


def test_shared_gap_index_answers_like_the_definition():
    # one index per (delta, gamma), built whole, then queried in random order
    # with the two interleaved: every linked pair's entry is its bad times
    # counted with `count_in`, a never-linked pair has none, and every query
    # answers as the definition does
    rng = random.Random(11)
    pair_times = {}
    for u in range(1, 6):
        for v in range(u + 1, 6):
            density = rng.uniform(0.1, 0.6)
            pair_times[(u, v)] = [t for t in range(41) if rng.random() < density]
    pair_times = {p: ts for p, ts in pair_times.items() if ts}
    stream = links_from_pairs(pair_times, observation=(0, 40))
    pairs = sorted(pair_times) + [(1, 6)]  # (1, 6) never links
    params = ((3, 2), (5, 1))
    indexes = {(delta, gamma): gap_index(stream, delta, gamma) for delta, gamma in params}
    for (delta, gamma), gaps in indexes.items():
        assert gaps == {
            pair: bad_times_by_count(stream, pair, delta, gamma) for pair in pair_times
        }
        assert (1, 6) not in gaps
    for _ in range(800):
        delta, gamma = params[rng.random() < 0.4]
        pair = rng.choice(pairs)
        ta = rng.randint(-2, 42)
        tb = ta + rng.randint(0, 20)
        bad = indexes[delta, gamma].get(pair, ())
        got = pair_valid(stream.occurrences(pair), bad, ta, tb, delta, gamma)
        assert got == _pair_valid_direct(stream, pair, ta, tb, delta, gamma), (
            pair, ta, tb, delta, gamma,
        )


def test_gap_index_edge_cases():
    stream = links_from_pairs({(1, 2): [0, 2, 6, 8], (1, 3): [0, 2, 4], (2, 3): [5, 9]})

    def check(pair, ta, tb, delta, gamma, expected):
        assert _pair_valid_direct(stream, pair, ta, tb, delta, gamma) is expected
        assert index_valid(stream, pair, ta, tb, delta, gamma) is expected
        assert (
            is_delta_gamma_clique(pair, (ta, tb), stream, delta, gamma) is expected
        )

    # a never-linked pair
    check((1, 4), 0, 1, 2, 1, False)
    check((1, 4), 0, 9, 2, 1, False)
    assert (1, 4) not in gap_index(stream, 2, 1)
    # spans no longer than delta: the count decides
    check((2, 3), 4, 6, 2, 1, True)
    check((2, 3), 6, 8, 2, 1, False)
    check((2, 3), 5, 9, 4, 2, True)
    # gamma above the pair's count
    check((2, 3), 0, 9, 9, 3, False)
    check((1, 3), 0, 4, 5, 4, False)
    # the bad gap 2 -> 6 of (1, 2): an occurrence exactly at tb - delta - 1
    # is tested, one just past it is not
    check((1, 2), 0, 5, 2, 1, False)
    check((1, 2), 0, 4, 2, 1, True)
    # the last occurrence is always bad: 4 at tb - delta - 1 has no
    # successor, so the window [5, 7] is empty
    check((1, 3), 0, 7, 2, 1, False)
    check((1, 3), 0, 6, 2, 1, True)
    # bad times: the last gamma positions are bad, and so is 2 -> 6; when
    # all are, the entry is the occurrence tuple, also for gamma above the
    # pair's count
    assert gap_index(stream, 2, 1)[(1, 2)] == (2, 8)
    assert gap_index(stream, 5, 2)[(1, 2)] == (6, 8)
    assert gap_index(stream, 4, 2)[(1, 2)] is stream.occurrences((1, 2))
    assert gap_index(stream, 2, 3)[(2, 3)] is stream.occurrences((2, 3))
    for delta, gamma in ((1, 1), (2, 1), (3, 2), (5, 2), (9, 3), (2, 5)):
        assert gap_index(stream, delta, gamma) == {
            pair: bad_times_by_count(stream, pair, delta, gamma)
            for pair in stream.static_edges
        }


def closure_by_index(stream, pair, ta, tb, delta, gamma):
    """`pair_closure` reading a gap index of the stream, as the engine does."""
    gaps = gap_index(stream, delta, gamma)
    return pair_closure(
        stream.occurrences(pair), gaps.get(pair, ()), ta, tb, delta, gamma, stream.t_start
    )


def first_bad_time(stream, pair, ta, delta, gamma):
    """The first occurrence from ta on after which the next delta + 1 ticks
    hold fewer than gamma occurrences, counted by `count_in`."""
    return next(s for s in bad_times_by_count(stream, pair, delta, gamma) if s >= ta)


def check_closure_against_the_definition(stream, pair, ta, tb, delta, gamma):
    """`pair_closure` is None iff the definition fails on [ta, tb]; otherwise
    the widest valid span around [ta, tb] that starts in the observation."""
    t_start, t_end = stream.observation
    got = closure_by_index(stream, pair, ta, tb, delta, gamma)
    if not _pair_valid_direct(stream, pair, ta, tb, delta, gamma):
        assert got is None, (pair, ta, tb, delta, gamma)
        return None
    lo, hi = got
    assert t_start <= lo <= ta and tb <= hi
    assert _pair_valid_direct(stream, pair, lo, hi, delta, gamma)
    if lo > t_start:
        assert not _pair_valid_direct(stream, pair, lo - 1, hi, delta, gamma)
    if hi + 1 <= t_end:
        assert not _pair_valid_direct(stream, pair, lo, hi + 1, delta, gamma)
    else:
        assert hi == first_bad_time(stream, pair, ta, delta, gamma) + delta
    for a in range(t_start, ta + 1):
        for b in range(tb, t_end + 1):
            if _pair_valid_direct(stream, pair, a, b, delta, gamma):
                assert lo <= a and b <= hi, (pair, ta, tb, a, b)
    return got


def test_pair_closure_is_the_widest_valid_span_of_the_definition():
    rng = random.Random(29)
    closures = 0
    for index in range(60):
        stream, delta, gamma = corpus_entry(index)
        t_start, t_end = stream.observation
        pairs = list(stream.static_edges) + [(1, 99)]  # (1, 99) never links
        for _ in range(40):
            pair = rng.choice(pairs)
            ta = rng.randint(t_start, t_end)
            tb = rng.randint(ta, t_end)
            closures += check_closure_against_the_definition(
                stream, pair, ta, tb, delta, gamma
            ) is not None
    assert closures > 200


def test_pair_closure_edge_cases():
    stream = links_from_pairs(
        {(1, 2): [0, 2, 6, 8], (1, 3): [0, 2, 4], (2, 3): [5, 9]}, observation=(0, 12)
    )

    def check(pair, ta, tb, delta, gamma, expected):
        assert check_closure_against_the_definition(stream, pair, ta, tb, delta, gamma) == expected

    # a never-linked pair, and gamma above the pair's count
    check((1, 4), 0, 1, 2, 1, None)
    check((2, 3), 0, 9, 9, 3, None)
    check((1, 3), 0, 4, 5, 4, None)
    # spans no longer than delta: the count decides; the closure of [4, 6]
    # reaches back to the window that still holds 5
    check((2, 3), 4, 6, 2, 1, (3, 7))
    check((2, 3), 6, 8, 2, 1, None)
    check((2, 3), 5, 9, 4, 2, (5, 9))
    # clamped at the observation start: the left anchor 2 - 3 is before 0
    check((1, 3), 2, 4, 3, 2, (0, 5))
    # an occurrence exactly at tb - delta - 1: the bad gap 2 -> 6 of (1, 2)
    # is tested on [0, 5] but not on [0, 4], whose closure it ends
    check((1, 2), 0, 5, 2, 1, None)
    check((1, 2), 0, 4, 2, 1, (0, 4))
    # a bad time before ta bounds the left end: [2, 8] would hold the gap
    # 2 -> 6, so the closure of [6, 8] starts at 6 - delta
    check((1, 2), 6, 8, 2, 1, (4, 10))
    # past the observation end the right end is the first bad time + delta
    check((2, 3), 5, 9, 4, 1, (1, 13))


def test_clique_closure_is_the_fixed_point_of_the_stepwise_moves():
    # the intersection of the pair closures is where the stepwise right and
    # left moves of earlier versions stop, iterated from a valid span, and
    # `clique_closure` of an item with candidates finds it
    rng = random.Random(31)
    compared = 0
    for index in range(120):
        stream, delta, gamma = corpus_entry(index)
        worksets = WorkSets(stream, delta, gamma)
        t_start, t_end = stream.observation
        vertices = stream.vertices
        for _ in range(15):
            members = tuple(sorted(rng.sample(vertices, rng.randint(2, min(4, len(vertices))))))
            if len(members) < 2:
                continue
            ta = rng.randint(t_start, t_end)
            tb = rng.randint(ta, min(ta + 2 * delta, t_end))
            if not is_delta_gamma_clique(members, (ta, tb), stream, delta, gamma):
                continue
            ends = [
                closure_by_index(stream, pair, ta, tb, delta, gamma)
                for pair in combinations(members, 2)
            ]
            intersection = (max(lo for lo, _ in ends), min(hi for _, hi in ends))
            closure = plain_closure(stream, members, (ta, tb), delta, gamma)
            assert intersection == closure
            item = WorkItem(Clique(members, ta, tb), ())
            assert clique_closure(item, worksets) == closure
            compared += 1
    assert compared > 100
