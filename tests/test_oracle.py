"""Exhaustive reference enumeration."""

import pytest

from tclique import (
    LinkStream,
    OracleBoundsError,
    brute_force_enumerate,
    check_maximality,
    contains,
    make_clique,
)
from helpers import random_stream


def test_f1_reference_set(f1_stream):
    got = set(brute_force_enumerate(f1_stream, 3, 2))
    assert got == {
        ((1, 2), 1, 5),
        ((1, 3), 1, 5),
        ((1, 2, 3), 2, 5),
    }


def test_outputs_are_maximal_and_containment_free():
    for seed in range(6):
        stream = random_stream(seed)
        delta, gamma = 3, 1
        result = list(brute_force_enumerate(stream, delta, gamma))
        for clique in result:
            assert check_maximality(clique, stream, delta, gamma)
        for a in result:
            for b in result:
                assert not contains(a, b)


def test_dropping_a_vertex_keeps_it_addable(f1_stream):
    # for any output of size >= 3, the same span minus one vertex fails the
    # maximality check because the dropped vertex can come back
    result = brute_force_enumerate(f1_stream, 3, 2)
    big = [c for c in result if len(c.vertices) >= 3]
    assert big, "fixture should produce a size-3 clique"
    for clique in big:
        for drop in clique.vertices:
            rest = [v for v in clique.vertices if v != drop]
            smaller = make_clique(rest, clique.ta, clique.tb)
            assert not check_maximality(smaller, f1_stream, 3, 2)


def test_bounds_refusal():
    links = [(0, u, u + 1) for u in range(1, 9)]  # 9 vertices
    stream = LinkStream(links)
    with pytest.raises(OracleBoundsError):
        brute_force_enumerate(stream, 2, 1)
    wide = LinkStream([(0, 1, 2), (100, 1, 2)])
    with pytest.raises(OracleBoundsError):
        brute_force_enumerate(wide, 2, 1)


def test_empty_result_on_sparse_stream():
    stream = LinkStream([(0, 1, 2), (9, 3, 4)])
    assert brute_force_enumerate(stream, 1, 2) == set()


def test_determinism():
    stream = random_stream(11)
    a = set(brute_force_enumerate(stream, 4, 2))
    b = set(brute_force_enumerate(stream, 4, 2))
    assert a == b
