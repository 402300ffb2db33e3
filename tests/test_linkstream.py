"""Link stream parsing, indexing, and window queries."""

import io
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
import tclique
from hypothesis import example, given, strategies as st

from tclique import (
    Clique,
    FormatSpec,
    LinkStream,
    ParseError,
    is_delta_gamma_clique,
    parse_links,
)
from tclique.cliques import gap_index, pair_closure
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
    # the seed (1,2)'s candidates: partners of both endpoints in the
    # delta-window from the seed's start
    partners = next(s.window_partners([2], 3, 2))
    assert partners[1] == {2, 3} and partners[2] == {1, 3}
    assert partners[1] & partners[2] == {3}
    partners = next(s.window_partners([1], 1, 2))
    assert partners[1] == {2} and partners[1] & partners[2] == set()
    assert next(s.window_partners([1], 4, 1)).get(9, set()) == set()


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
    # and the same pair index, vertices and window counts
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
        for _ in range(5):
            starts = sorted(rng.sample(range(stream.t_start, stream.t_end + 1), 3))
            delta, gamma = rng.randint(0, 8), rng.randint(1, 3)
            got = window_answers(built, starts, delta, gamma)
            assert got == brute_force_windows(stream, starts, delta, gamma)


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
    assert empty.vertices == () and window_answers(empty, [0, 2], 4, 1) == [{}, {}]
    with pytest.raises(ValueError):
        empty.time_bounds()


def test_an_open_observation_end_is_the_links_bound():
    links = [(3, 1, 2), (7, 2, 3)]
    text = ["3 1 2\n", "7 2 3\n"]
    for window, expected in (
        ((None, 9), (3, 9)),
        ((1, None), (1, 7)),
        ((None, None), (3, 7)),
        (None, (3, 7)),
    ):
        assert LinkStream(links, observation=window).observation == expected
        assert parse_links(text, observation=window).observation == expected
    # the links' bound is read after the rebase
    assert parse_links(text, FormatSpec(rebase=True), (None, 9)).observation == (0, 9)
    with pytest.raises(ValueError, match="does not cover"):
        LinkStream(links, observation=(None, 5))
    for window in ((None, 5), (0, None)):
        with pytest.raises(ValueError, match="explicit observation window"):
            LinkStream([], observation=window)


def test_occurrences_requires_ordered_pair(f1_stream):
    for pair in ((2, 1), (1, 1)):
        with pytest.raises(ValueError, match="not canonical"):
            f1_stream.occurrences(pair)
        with pytest.raises(ValueError, match="not canonical"):
            f1_stream.count_in(pair, (0, 9))
    assert f1_stream.occurrences((1, 9)) == ()  # canonical, never linked


def test_occurrences_refuses_a_reversed_pair_under_python_O():
    # the check is no assert, so `python -O` keeps it; (2, 1) would else
    # miss the key (1, 2) and read () without a word
    probe = (
        "from tclique import LinkStream\n"
        "assert False, 'asserts are on'\n"
        "LinkStream([(0, 1, 2)]).occurrences((2, 1))\n"
    )
    src = str(Path(tclique.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert "ValueError: pair (2, 1) is not canonical" in run.stderr, run.stderr


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
        # the window as drawn, inverted (so empty) when a > b
        inside = [t for t in stream.occurrences(pair) if a <= t <= b]
        assert stream.count_in(pair, (a, b)) == len(inside)
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
    """`pair_closure` over a gap index of the stream."""
    gaps = gap_index(stream, delta, gamma)
    return pair_closure(
        stream.occurrences(pair), gaps.get(pair, ()), *span, delta, gamma, stream.t_start
    )


def brute_force_partners(stream, vertex, window, gamma):
    lo, hi = window
    counts = Counter(
        v if u == vertex else u
        for t, u, v in stream.links
        if vertex in (u, v) and lo <= t <= hi
    )
    return frozenset(w for w, n in counts.items() if n >= gamma)


def brute_force_windows(stream, starts, delta, gamma):
    """Per start s, every vertex with partners in [s, s + delta] mapped to
    them, each counted over every link."""
    found = []
    for s in starts:
        partners = {
            x: brute_force_partners(stream, x, (s, s + delta), gamma)
            for x in stream.vertices
        }
        found.append({x: p for x, p in partners.items() if p})
    return found


def window_answers(stream, starts, delta, gamma):
    """`window_partners` per start, copied before the next start moves it,
    with the vertices that have no partners left out."""
    return [
        {x: frozenset(p) for x, p in partners.items() if p}
        for partners in stream.window_partners(starts, delta, gamma)
    ]


def test_window_partners_match_a_brute_force_count():
    # runs of starts from before the first link to past the last, some
    # repeated, some further apart than delta (every link leaves between
    # them), and single mid-stream starts (the bisected entry), at gamma 1
    # to 4
    for index in range(60):
        stream = random_stream(index)
        ends = {x for _, u, v in stream.links for x in (u, v)}
        assert stream.vertices == tuple(sorted(ends))
        assert stream.n_vertices == len(stream.vertices)
        t_min, t_max, _ = stream.time_bounds()
        rng = random.Random(20_000 + index)
        for gamma in range(1, 5):
            delta = rng.randint(0, 6)
            starts = sorted(
                rng.choice([t_min - 9, t_max + 9, rng.randint(t_min - 4, t_max + 4)])
                for _ in range(rng.randint(1, 12))
            )
            sparse = list(range(t_min - 3, t_max + 4, delta + 2))
            middle = [rng.randint(t_min + 1, max(t_min + 1, t_max - 1))]
            for run in (starts, sparse, middle):
                expected = brute_force_windows(stream, run, delta, gamma)
                got = window_answers(stream, run, delta, gamma)
                assert got == expected, (index, run, delta, gamma)
