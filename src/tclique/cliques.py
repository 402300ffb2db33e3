"""Clique value type and the (delta,gamma)-clique validity predicate.

A (delta,gamma)-clique is a vertex set Z (|Z| >= 2) together with a closed
interval [ta, tb] such that every unordered pair of Z has at least gamma
links in every window of length delta inside the interval; formally, for
every integer tau in [ta, max(tb-delta, ta)] the pair has >= gamma
occurrences in [tau, min(tau+delta, tb)].

Two checkers are provided. `is_delta_gamma_clique_direct` evaluates the
definition literally and is the single source of truth; the reference
enumerator uses it. `is_delta_gamma_clique` is an O(occurrences) gap-based
equivalent used by the enumeration engine; the test suite holds the two
equal on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .linkstream import LinkStream

CliqueKey = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True, order=True)
class Interval:
    """Closed integer interval [ta, tb]."""

    ta: int
    tb: int

    def __post_init__(self) -> None:
        if self.ta > self.tb:
            raise ValueError(f"interval [{self.ta},{self.tb}] is empty")

    @property
    def length(self) -> int:
        return self.tb - self.ta

    def covers(self, other: "Interval") -> bool:
        return self.ta <= other.ta and other.tb <= self.tb

    def __str__(self) -> str:
        return f"[{self.ta},{self.tb}]"


@dataclass(frozen=True)
class Clique:
    """A vertex set with its time interval.

    `candidates` is the optional set of vertices that may still be added to
    descendants of this clique; it is attached when a seed is created,
    propagated unchanged, and excluded from equality and hashing (two cliques
    differing only in candidates are the same clique).
    """

    vertices: tuple[int, ...]
    span: Interval
    candidates: Optional[frozenset[int]] = field(
        default=None, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("a clique needs at least two vertices")
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertices must be strictly sorted")

    @property
    def ta(self) -> int:
        return self.span.ta

    @property
    def tb(self) -> int:
        return self.span.tb

    def pairs(self) -> Iterable[tuple[int, int]]:
        return combinations(self.vertices, 2)

    def key(self) -> CliqueKey:
        return (self.vertices, self.span.ta, self.span.tb)

    def __str__(self) -> str:
        return format_clique(self)


def make_clique(
    vertices: Iterable[int],
    ta: int,
    tb: int,
    candidates: Optional[Iterable[int]] = None,
) -> Clique:
    """Normalizing constructor: sorts vertices, builds the interval."""
    return Clique(
        tuple(sorted(set(vertices))),
        Interval(ta, tb),
        None if candidates is None else frozenset(candidates),
    )


# -- validity -----------------------------------------------------------------


def _pair_valid_direct(
    stream: LinkStream, pair: tuple[int, int], ta: int, tb: int, delta: int, gamma: int
) -> bool:
    """Literal definition for one pair: every window has >= gamma links."""
    for tau in range(ta, max(tb - delta, ta) + 1):
        if stream.count_in(pair, (tau, min(tau + delta, tb))) < gamma:
            return False
    return True


def is_delta_gamma_clique_direct(
    vertices: Iterable[int],
    span: tuple[int, int],
    stream: LinkStream,
    delta: int,
    gamma: int,
) -> bool:
    """Definition-literal validity check (reference implementation)."""
    verts = sorted(set(vertices))
    if len(verts) < 2:
        raise ValueError("a clique needs at least two vertices")
    ta, tb = span
    return all(
        _pair_valid_direct(stream, pair, ta, tb, delta, gamma)
        for pair in combinations(verts, 2)
    )


def _pair_valid_fast(
    stream: LinkStream, pair: tuple[int, int], ta: int, tb: int, delta: int, gamma: int
) -> bool:
    """Gap-based equivalent of `_pair_valid_direct`.

    For spans no longer than delta a single window remains and the count
    decides. Otherwise the windows of the definition are all satisfied iff
    (a) the gamma-th occurrence arrives by ta+delta, and (b) after any
    occurrence s_i with s_i + 1 <= tb - delta, the gamma-th occurrence
    after s_i arrives by s_i + 1 + delta (a missing one fails, which also
    rejects trailing windows past the last occurrence).
    """
    occ = stream.occurrences_in(pair, (ta, tb))
    k = len(occ)
    if k < gamma:
        return False
    if tb - ta <= delta:
        return True
    if occ[gamma - 1] > ta + delta:
        return False
    for i, s in enumerate(occ):
        if s + 1 > tb - delta:
            break
        if i + gamma >= k or occ[i + gamma] > s + 1 + delta:
            return False
    return True


def is_delta_gamma_clique(
    vertices: Iterable[int],
    span: tuple[int, int],
    stream: LinkStream,
    delta: int,
    gamma: int,
) -> bool:
    """Engine validity check; agrees with the direct definition everywhere."""
    verts = sorted(set(vertices))
    if len(verts) < 2:
        raise ValueError("a clique needs at least two vertices")
    ta, tb = span
    return all(
        _pair_valid_fast(stream, pair, ta, tb, delta, gamma)
        for pair in combinations(verts, 2)
    )


# -- containment / canonical text form ----------------------------------------


def contains(outer: Clique, inner: Clique) -> bool:
    """True iff `inner` sits strictly inside `outer`:

    same vertex set with a strictly smaller interval, or a strict vertex
    subset with an interval covered by the outer one. Identical cliques do
    not contain each other.
    """
    outer_verts = set(outer.vertices)
    inner_verts = set(inner.vertices)
    if inner_verts == outer_verts:
        return outer.span.covers(inner.span) and inner.span != outer.span
    return inner_verts < outer_verts and outer.span.covers(inner.span)


def format_clique(clique: Clique) -> str:
    """Canonical text form: 'v1,v2,...,vk [ta,tb]'."""
    verts = ",".join(str(v) for v in clique.vertices)
    return f"{verts} [{clique.ta},{clique.tb}]"


def parse_clique(text: str) -> Clique:
    """Inverse of `format_clique` (candidates are not part of the text form)."""
    head, _, span_part = text.strip().partition(" ")
    if not span_part.startswith("[") or not span_part.endswith("]"):
        raise ValueError(f"bad clique text {text!r}")
    ta_text, _, tb_text = span_part[1:-1].partition(",")
    vertices = tuple(int(v) for v in head.split(","))
    return Clique(vertices, Interval(int(ta_text), int(tb_text)))


def sort_cliques(cliques: Iterable[Clique]) -> list[Clique]:
    """Stable output order for result files: by (ta, tb, vertices)."""
    return sorted(cliques, key=lambda c: (c.ta, c.tb, c.vertices))
