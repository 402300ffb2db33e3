"""Splitting a link stream into consecutive batches for incremental runs.

A partition is described by its interior-and-final boundaries T_1 < ... < T_k
with T_k = the last link timestamp; batch i holds the links with timestamps in
(T_{i-1}, T_i]. Three schemes produce the boundaries: uniform-time slices,
link-count balancing over distinct timestamps, and explicit user boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PartitionError
from .linkstream import Link, LinkStream

SCHEMES = ("ut", "ulc", "explicit")


@dataclass(frozen=True)
class PartitionPlan:
    """How to slice a stream: scheme "ut" (uniform time) and "ulc" (uniform
    link count) use `partitions`; scheme "explicit" uses `boundaries`."""

    scheme: str = "ut"
    partitions: int = 1
    boundaries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise PartitionError(f"unknown partition scheme {self.scheme!r}")
        if self.scheme == "explicit":
            if not self.boundaries:
                raise PartitionError("explicit scheme needs boundaries")
            if list(self.boundaries) != sorted(set(self.boundaries)):
                raise PartitionError(
                    f"boundaries must be strictly increasing, got {self.boundaries}"
                )
        elif self.partitions < 1:
            raise PartitionError(f"need at least one partition, got {self.partitions}")


def plan_boundaries(stream: LinkStream, plan: PartitionPlan) -> list[int]:
    """Resolve a plan to concrete boundaries for this stream."""
    if stream.n_links == 0:
        raise PartitionError("cannot partition an empty stream")
    t_min, t_max, _ = stream.time_bounds()
    if plan.scheme == "ut":
        k = plan.partitions
        bounds = sorted({t_min + (i * (t_max - t_min)) // k for i in range(1, k + 1)})
        return bounds
    if plan.scheme == "ulc":
        return _balanced_count_boundaries(stream, plan.partitions)
    # explicit
    for b in plan.boundaries:
        if not (t_min <= b <= stream.t_end):
            raise PartitionError(
                f"boundary {b} outside data range [{t_min}, {stream.t_end}]"
            )
    bounds = list(plan.boundaries)
    if bounds[-1] < t_max:
        bounds.append(t_max)
    return bounds


def _balanced_count_boundaries(stream: LinkStream, k: int) -> list[int]:
    """Greedy link-count balancing over distinct timestamps: each batch takes
    whole timestamps until it reaches the even share of the remaining links,
    always leaving one timestamp per remaining batch."""
    counts: dict[int, int] = {}
    for t, _, _ in stream.links:
        counts[t] = counts.get(t, 0) + 1
    stamps = sorted(counts)
    if k > len(stamps):
        raise PartitionError(
            f"{k} partitions but only {len(stamps)} distinct timestamps"
        )
    bounds: list[int] = []
    idx = 0
    links_left = stream.n_links
    for remaining in range(k, 0, -1):
        if remaining == 1:
            bounds.append(stamps[-1])
            break
        target = links_left / remaining
        taken = 0
        last_idx = len(stamps) - (remaining - 1)  # leave one stamp per later batch
        while idx < last_idx and (taken < target or taken == 0):
            taken += counts[stamps[idx]]
            idx += 1
        bounds.append(stamps[idx - 1])
        links_left -= taken
    return bounds


def partition_links(
    stream: LinkStream, plan: PartitionPlan
) -> list[tuple[int, tuple[Link, ...]]]:
    """Split the stream per plan into (boundary, links) batches covering every
    link exactly once.

    Each batch is `stream.links_in((previous boundary + 1, boundary))`, a
    tuple slice of the stream's own sorted links, so a single batch over the
    whole stream is `stream.links` itself.
    """
    bounds = plan_boundaries(stream, plan)
    starts = [stream.t_start, *(b + 1 for b in bounds)]
    batches = [(b, stream.links_in((lo, b))) for lo, b in zip(starts, bounds)]
    assigned = sum(len(chunk) for _, chunk in batches)
    if assigned != stream.n_links:
        raise PartitionError(
            f"partition covers {assigned} of {stream.n_links} links"
        )
    return batches
