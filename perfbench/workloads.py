"""Seeded input streams and the three benchmark workloads.

Both stream families are group-contact models: groups of vertices meet for a
number of 20 s ticks, and during a meeting each pair of the group is in
contact with a fixed probability per tick. The benchmark hands the program
only the link text these generators write (`t u v` lines).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

TICK_S = 20


@dataclass(frozen=True)
class GroupModel:
    """Parameters of one group-contact stream family."""

    n_vertices: int
    size_range: tuple[int, int]  # group size, inclusive
    ticks_range: tuple[int, int]  # meeting length in ticks, inclusive
    p_contact: float  # per pair and tick
    gap_ticks: tuple[int, int]  # ticks between two group starts, inclusive


CONTACT = GroupModel(120, (2, 5), (1, 15), 0.7, (4, 12))
GROUPS = GroupModel(40, (4, 8), (5, 30), 0.8, (32, 48))


# The meeting timetable (start, size, length) of every stream comes from
# this fixed seed; the run's --seed draws who meets and which contacts
# happen. With the timetable drawn per seed, where the batch boundaries fall
# relative to large meetings moved the cost of a pass by up to 40% from seed
# to seed (see README), which no run length can average out. For the same
# reason the stream ends with the timetable instead of at an exact count.
TIMETABLE_SEED = 0


class Deck:
    """Draws every value of a range once, in a shuffled order, then reshuffles,
    so that the mix of sizes and lengths is the same in every stretch."""

    def __init__(self, bounds: tuple[int, int], rng: random.Random) -> None:
        self._values = list(range(bounds[0], bounds[1] + 1))
        self._rng = rng
        self._left: list[int] = []

    def draw(self) -> int:
        if not self._left:
            self._left = self._values[:]
            self._rng.shuffle(self._left)
        return self._left.pop()


def generate_links(model: GroupModel, n_links: int, seed: int) -> list[tuple[int, int, int]]:
    """About `n_links` distinct links (t, u, v) with u < v, sorted by time.

    Meetings are added to the timetable until their expected link count
    reaches `n_links`; the drawn count differs from it by about its square
    root. Consecutive meetings start a uniform draw from `gap_ticks` apart.
    """
    timetable = random.Random(TIMETABLE_SEED)
    sizes = Deck(model.size_range, timetable)
    lengths = Deck(model.ticks_range, timetable)
    rng = random.Random(seed)
    links: set[tuple[int, int, int]] = set()
    vertices = range(1, model.n_vertices + 1)
    start = 0
    expected = 0.0
    while expected < n_links:
        start += timetable.randint(*model.gap_ticks)
        size, ticks = sizes.draw(), lengths.draw()
        expected += comb(size, 2) * ticks * model.p_contact
        group = sorted(rng.sample(vertices, size))
        for tick in range(start, start + ticks):
            for u, v in combinations(group, 2):
                if rng.random() < model.p_contact:
                    links.add((tick * TICK_S, u, v))
    return sorted(links)


def render_links(links: list[tuple[int, int, int]]) -> str:
    return "".join(f"{t} {u} {v}\n" for t, u, v in links)


@dataclass(frozen=True)
class Workload:
    name: str
    model: GroupModel
    n_links: int
    batches: int  # uniform-time ("ut") partitions
    mode: str  # "offline" | "online"
    delta: int = 360
    gamma: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("contact20k-k1", CONTACT, 20_000, 1, "offline"),
        Workload("contact5k-online300", CONTACT, 5_000, 300, "online"),
        Workload("groups16k-k8", GROUPS, 16_000, 8, "offline"),
    )
}
