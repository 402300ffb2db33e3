"""Link stream parsing, indexing, and window queries."""

import io
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from tclique import (
    Clique,
    FormatSpec,
    LinkStream,
    ParseError,
    is_delta_gamma_clique,
    parse_links,
)
from tclique.cliques import pair_closure
from tclique.expand import WorkItem, WorkSets, clique_closure, expand_vertex_set
from tclique.linkstream import format_link, parse_link
from conftest import load_fixture
from helpers import links_from_pairs, plain_closure, random_stream


def test_f1_basic_counts(f1_stream):
    assert f1_stream.n_links == 8  # one duplicate collapses
    assert f1_stream.n_vertices == 3
    assert f1_stream.n_static_edges == 3
    assert f1_stream.time_bounds() == (1, 5, 4)
    # timestamps 2: (1,2),(1,3),(2,3); 4: (1,2),(1,3)
    assert len(f1_stream.links_in((2, 4))) == 5
    assert f1_stream.observation == (1, 5)


def test_f1_window_queries(f1_stream):
    s = f1_stream
    assert s.occurrences((1, 2)) == (1, 2, 4, 5)
    assert s.pair_occurrences[(1, 2)] == (1, 2, 4, 5)
    # the pair closures at delta = 3: None on an invalid span; the right end
    # delta past the first bad time from ta on, the left end clamped at the
    # observation start
    assert closure(s, (1, 2), (2, 5), 2) == (1, 7)
    assert closure(s, (1, 2), (2, 5), 5) is None
    assert closure(s, (2, 3), (3, 5), 2) is None
    assert closure(s, (2, 3), (2, 5), 2) == (2, 5)
    assert closure(s, (1, 2), (1, 4), 4) is None
    assert closure(s, (1, 3), (1, 9), 2) is None
    assert closure(s, (1, 3), (2, 4), 2) == (1, 5)
    # the seed (1,2)'s candidates: partners of either endpoint, less both
    assert s.partners(1, (2, 5), 2) == frozenset({2, 3})
    assert s.partners(2, (2, 5), 2) == frozenset({1, 3})
    assert (s.partners(1, (2, 5), 2) | s.partners(2, (2, 5), 2)) - {1, 2} == {3}
    assert s.partners(1, (1, 2), 2) == frozenset({2})
    assert (s.partners(1, (1, 2), 2) | s.partners(2, (1, 2), 2)) - {1, 2} == set()
    assert s.partners(9, (1, 5), 1) == frozenset()


def test_links_normalize_endpoints():
    # a link (t, u, v) needs u < v; reversed input is normalized by the parser
    with pytest.raises(ValueError, match="not canonical"):
        LinkStream([(5, 2, 1)])
    with pytest.raises(ValueError, match="not canonical"):
        LinkStream([(1, 3, 3)])  # a self-loop
    with pytest.raises(ValueError, match="not canonical"):
        LinkStream([(4, 1, 2), (5, 2, 1)], observation=(0, 9))


def test_parse_swaps_and_dedups():
    text = "2 1 5\n1 2 5\n"
    stream = parse_links(io.StringIO(text), FormatSpec(column_order="uvt"))
    assert stream.links == ((5, 1, 2),)


def test_shuffled_input_with_repeats_builds_the_same_stream():
    # shuffled, with repeats: the same links, sorted with repeats collapsed,
    # and the same pair index, vertices and contact timelines
    for index in range(60):
        stream = random_stream(index)
        rng = random.Random(25_000 + index)
        links = list(stream.links)
        noisy = links + rng.choices(links, k=rng.randint(1, len(links)))
        rng.shuffle(noisy)
        built = LinkStream(noisy, observation=stream.observation)
        assert built.links == tuple(sorted(set(noisy))) == stream.links
        occurrences = {}
        for t, u, v in sorted(set(noisy)):
            occurrences.setdefault((u, v), []).append(t)
        assert built.pair_occurrences == {p: tuple(ts) for p, ts in occurrences.items()}
        assert built.vertices == stream.vertices
        for _ in range(20):
            vertex = rng.choice(stream.vertices)
            lo = rng.randint(stream.t_start, stream.t_end)
            window, gamma = (lo, lo + rng.randint(0, 8)), rng.randint(1, 3)
            expected = brute_force_partners(stream, vertex, window, gamma)
            assert built.partners(vertex, window, gamma) == expected


def test_parse_drops_self_loops_and_counts():
    text = "1 1 3\n1 2 4\n"
    stream = parse_links(io.StringIO(text), FormatSpec(column_order="uvt"))
    assert stream.n_links == 1
    assert stream.dropped_self_loops == 1


def test_parse_formats_and_rebase():
    tuv = parse_links(io.StringIO("7 1 2\n9 1 3\n"), FormatSpec(column_order="tuv"))
    assert tuv.links == ((7, 1, 2), (9, 1, 3))
    comma = parse_links(
        io.StringIO("1,2,7\n1,3,9\n"),
        FormatSpec(column_order="uvt", delimiter="comma"),
    )
    assert comma.links == tuv.links
    rebased = parse_links(
        io.StringIO("7 1 2\n9 1 3\n"), FormatSpec(column_order="tuv", rebase=True)
    )
    assert [l[0] for l in rebased.links] == [0, 2]


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n1 2 3\n"
    stream = parse_links(io.StringIO(text), FormatSpec(column_order="uvt"))
    assert stream.n_links == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_links(io.StringIO("1 2 3\n1 2\n"), FormatSpec(column_order="uvt"))
    with pytest.raises(ParseError, match="line 1"):
        parse_links(io.StringIO("a b c\n"), FormatSpec(column_order="uvt"))
    with pytest.raises(ParseError, match="no links"):
        parse_links(io.StringIO("# empty\n"), FormatSpec(column_order="uvt"))


def test_format_spec_validation():
    with pytest.raises(ValueError):
        FormatSpec(column_order="vut")
    with pytest.raises(ValueError):
        FormatSpec(delimiter="tab")


def test_observation_rules():
    links = [(5, 1, 2)]
    with pytest.raises(ValueError):
        LinkStream(links, observation=(6, 9))  # does not cover the link
    with pytest.raises(ValueError):
        LinkStream([])  # empty stream needs explicit window
    empty = LinkStream([], observation=(0, 4))
    assert empty.n_links == 0 and empty.observation == (0, 4)
    assert empty.vertices == () and empty.partners(1, (0, 4), 1) == frozenset()
    with pytest.raises(ValueError):
        empty.time_bounds()


def test_occurrences_requires_ordered_pair(f1_stream):
    with pytest.raises(AssertionError):
        f1_stream.occurrences((2, 1))


@given(st.integers(0, 60).map(random_stream), st.integers(-5, 30), st.integers(-5, 30))
@example(load_fixture("f1.txt"), 2, 4)
def test_links_in_window(stream, lo, hi):
    """The bisected slice equals the filter over every link, also for
    windows past either end of the observation and inverted ones (lo > hi)."""
    inside = stream.links_in((lo, hi))
    assert inside == tuple(l for l in stream.links if lo <= l[0] <= hi)


occurrence_sets = st.dictionaries(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda p: (min(p), max(p) + (1 if p[0] == p[1] else 0))
    ),
    st.sets(st.integers(0, 20), min_size=1, max_size=8),
    min_size=1,
    max_size=4,
)


@given(occurrence_sets)
def test_roundtrip_through_canonical_text(pairs):
    stream = links_from_pairs(pairs)
    spec = FormatSpec(column_order="uvt")
    text = "".join(format_link(l) + "\n" for l in stream.links)
    assert parse_links(io.StringIO(text), spec).links == stream.links
    assert tuple(map(parse_link, text.splitlines())) == stream.links


def test_parse_link_reads_only_canonical_text():
    assert parse_link("2 3 20") == (20, 2, 3)
    bad_texts = ("2 3 +20", "02 3 20", "2 3 2_0", "2  3 20", "2 3 20 ", "3 2 20", "3 3 20")
    for bad in bad_texts:
        with pytest.raises(ValueError):
            parse_link(bad)


@given(
    occurrence_sets,
    st.integers(0, 20),
    st.integers(0, 20),
    st.integers(1, 4),
    st.integers(1, 6),
)
def test_gamma_occurrence_queries_agree_with_slicing(pairs, a, b, gamma, delta):
    # the interval kernels against list slicing: a carried clique's right
    # jump, each pair alone and then every vertex pair of the stream at once
    # (unlinked ones pin the end), against the iterated list-sliced right
    # move; on a valid span the closure against the iterated stepwise moves,
    # and each vertex as the one growth of a root made of the rest, whose
    # closure the root's vertex move finds; the spans start inside the
    # observation, as the engine's do
    stream = links_from_pairs(pairs, observation=(0, 20))
    ta, tb = min(a, b), max(a, b)
    ws = WorkSets(stream, delta, gamma)
    vertices = stream.vertices
    for pair in combinations(vertices, 2):
        carried = WorkItem(Clique(pair, ta, tb), None)
        assert clique_closure(carried, ws) == plain_closure(
            stream, pair, (ta, tb), delta, gamma, right_only=True
        )
        inside = [t for t in stream.occurrences(pair) if ta <= t <= tb]
        assert stream.count_in(pair, (ta, tb)) == len(inside)
    whole = Clique(vertices, ta, tb)
    assert clique_closure(WorkItem(whole, None), ws) == plain_closure(
        stream, vertices, (ta, tb), delta, gamma, right_only=True
    )
    if not is_delta_gamma_clique(vertices, (ta, tb), stream, delta, gamma):
        return
    expected = plain_closure(stream, vertices, (ta, tb), delta, gamma)
    assert clique_closure(WorkItem(whole, frozenset()), ws) == expected
    if len(vertices) < 3:
        return
    for w in vertices:
        root = WorkItem(Clique(tuple(v for v in vertices if v != w), ta, tb), frozenset({w}))
        growths = expand_vertex_set(root, WorkSets(stream, delta, gamma), clique_closure(root, ws))
        assert growths == ((w, expected),)


def closure(stream, pair, span, gamma, delta=3):
    """`pair_closure` over the stream's own gap index."""
    gaps = stream.gap_index(delta, gamma)
    return pair_closure(
        stream.occurrences(pair), gaps[pair], *span, delta, gamma, stream.t_start
    )


def brute_force_partners(stream, vertex, window, gamma):
    lo, hi = window
    counts = Counter(
        v if u == vertex else u
        for t, u, v in stream.links
        if vertex in (u, v) and lo <= t <= hi
    )
    return frozenset(w for w, n in counts.items() if n >= gamma)


def test_partners_match_a_brute_force_count():
    # random windows (some past either end of the stream, some inverted, so
    # empty), vertices (0, 7 and 8 never appear) and gamma
    for index in range(60):
        stream = random_stream(index)
        ends = {x for _, u, v in stream.links for x in (u, v)}
        assert stream.vertices == tuple(sorted(ends))
        assert stream.n_vertices == len(stream.vertices)
        rng = random.Random(20_000 + index)
        for _ in range(40):
            vertex = rng.randint(0, 8)
            lo = rng.randint(stream.t_start - 4, stream.t_end + 4)
            window = (lo, lo + rng.randint(-2, 12))
            gamma = rng.randint(1, 4)
            expected = brute_force_partners(stream, vertex, window, gamma)
            got = stream.partners(vertex, window, gamma)
            assert got == expected, (index, vertex, window, gamma)
