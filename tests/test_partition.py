"""Batch boundary schemes."""

import random

import pytest
from hypothesis import given, strategies as st

from tclique import LinkStream, PartitionPlan, partition_links, plan_boundaries
from tclique.errors import PartitionError
from helpers import random_stream


def counted_stream(counts: dict[int, int]) -> LinkStream:
    links = []
    for t, c in counts.items():
        for i in range(c):
            links.append((t, 2 * i + 1, 2 * i + 2))
    return LinkStream(links)


def test_uniform_time_f1(f1_stream):
    assert plan_boundaries(f1_stream, PartitionPlan("ut", 2)) == [3, 5]
    assert plan_boundaries(f1_stream, PartitionPlan("ut", 1)) == [5]


def test_uniform_time_collapses_duplicate_boundaries(f1_stream):
    assert plan_boundaries(f1_stream, PartitionPlan("ut", 10)) == [1, 2, 3, 4, 5]


def test_uniform_link_count_balances():
    skewed = counted_stream({1: 30, 2: 40, 3: 30})
    assert plan_boundaries(skewed, PartitionPlan("ulc", 2)) == [2, 3]
    heavy_head = counted_stream({1: 97, 2: 1, 3: 1, 4: 1})
    assert plan_boundaries(heavy_head, PartitionPlan("ulc", 4)) == [1, 2, 3, 4]
    assert plan_boundaries(heavy_head, PartitionPlan("ulc", 3)) == [1, 3, 4]


def test_uniform_link_count_near_even_split():
    rng = random.Random(5)
    counts = {t: rng.randint(1, 9) for t in range(1, 30)}
    stream = counted_stream(counts)
    (b1, first), (_, second) = partition_links(stream, PartitionPlan("ulc", 2))
    total = stream.n_links
    # the first batch reaches half and overshoots by at most one timestamp
    assert len(first) >= total / 2
    assert len(first) - counts[b1] < total / 2
    assert len(first) + len(second) == total


def test_uniform_link_count_needs_enough_timestamps():
    stream = counted_stream({1: 5, 2: 5})
    with pytest.raises(PartitionError, match="distinct"):
        plan_boundaries(stream, PartitionPlan("ulc", 3))


def test_explicit_boundaries(f1_stream):
    plan = PartitionPlan("explicit", boundaries=(3,))
    assert plan_boundaries(f1_stream, plan) == [3, 5]  # final boundary appended
    plan_full = PartitionPlan("explicit", boundaries=(2, 5))
    assert plan_boundaries(f1_stream, plan_full) == [2, 5]
    with pytest.raises(PartitionError, match="increasing"):
        PartitionPlan("explicit", boundaries=(4, 2))
    with pytest.raises(PartitionError, match="outside"):
        plan_boundaries(f1_stream, PartitionPlan("explicit", boundaries=(9,)))
    with pytest.raises(PartitionError):
        PartitionPlan("explicit")


def test_plan_validation():
    with pytest.raises(PartitionError):
        PartitionPlan("ut", 0)
    with pytest.raises(PartitionError):
        PartitionPlan("diagonal")


def test_empty_stream_cannot_be_partitioned():
    empty = LinkStream([], observation=(0, 5))
    with pytest.raises(PartitionError):
        plan_boundaries(empty, PartitionPlan("ut", 2))


def test_batches_cover_each_link_once(f1_stream):
    for k in (1, 2, 3, 4):
        batches = partition_links(f1_stream, PartitionPlan("ut", k))
        flat = [l for _, chunk in batches for l in chunk]
        assert sorted(flat) == sorted(f1_stream.links)
        prev = None
        for boundary, chunk in batches:
            assert prev is None or boundary > prev
            for l in chunk:
                assert (prev is None or l[0] > prev) and l[0] <= boundary
            prev = boundary


@given(st.integers(0, 60), st.sampled_from(["ut", "ulc"]), st.integers(1, 5))
def test_partitions_cover_random_streams(seed, scheme, k):
    stream = random_stream(seed)
    distinct = len({l[0] for l in stream.links})
    if scheme == "ulc" and k > distinct:
        with pytest.raises(PartitionError):
            partition_links(stream, PartitionPlan(scheme, k))
        return
    batches = partition_links(stream, PartitionPlan(scheme, k))
    flat = [l for _, chunk in batches for l in chunk]
    assert sorted(flat) == sorted(stream.links)
    bounds = [b for b, _ in batches]
    assert bounds == sorted(set(bounds))
    assert bounds[-1] == stream.time_bounds()[1]
