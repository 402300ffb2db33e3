"""Brute-force reference enumerator and maximality certifier.

Ground truth for desk-scale instances: enumerate every vertex subset and
every integer interval inside the observation window, keep the valid
(delta,gamma)-cliques, and retain those that no single-step growth (vertex
addition, one step left, one step right — steps bounded by the observation
window) keeps valid. Deliberately exhaustive and definition-literal; pair
validity is memoized per call but always computed by the direct checker.
"""

from __future__ import annotations

from itertools import combinations

from .cliques import Clique, _pair_valid_direct, make_clique
from .errors import OracleBoundsError
from .linkstream import LinkStream


# refusal bounds of the exhaustive enumeration
MAX_VERTICES = 8
MAX_SPAN = 40


class _PairValidity:
    """Memoized direct-definition validity of single pairs over intervals."""

    def __init__(self, stream: LinkStream, delta: int, gamma: int) -> None:
        self.stream = stream
        self.delta = delta
        self.gamma = gamma
        self._cache: dict[tuple[tuple[int, int], int, int], bool] = {}

    def valid(self, pair: tuple[int, int], ta: int, tb: int) -> bool:
        key = (pair, ta, tb)
        hit = self._cache.get(key)
        if hit is None:
            hit = _pair_valid_direct(
                self.stream, pair, ta, tb, self.delta, self.gamma
            )
            self._cache[key] = hit
        return hit

    def clique_valid(self, verts: tuple[int, ...], ta: int, tb: int) -> bool:
        return all(self.valid(pair, ta, tb) for pair in combinations(verts, 2))


def brute_force_enumerate(stream: LinkStream, delta: int, gamma: int) -> set[Clique]:
    """All maximal (delta,gamma)-cliques of the stream, by exhaustion;
    OracleBoundsError beyond MAX_VERTICES vertices or a MAX_SPAN span."""
    t_start, t_end = stream.observation
    if stream.n_vertices > MAX_VERTICES:
        raise OracleBoundsError(
            f"{stream.n_vertices} vertices exceed the bound {MAX_VERTICES}"
        )
    if t_end - t_start > MAX_SPAN:
        raise OracleBoundsError(f"span {t_end - t_start} exceeds the bound {MAX_SPAN}")
    vertices = stream.vertices
    pv = _PairValidity(stream, delta, gamma)

    valid: set[tuple[tuple[int, ...], int, int]] = set()
    for size in range(2, len(vertices) + 1):
        for verts in combinations(vertices, size):
            for ta in range(t_start, t_end + 1):
                for tb in range(ta, t_end + 1):
                    if pv.clique_valid(verts, ta, tb):
                        valid.add((verts, ta, tb))

    maximal: set[Clique] = set()
    for verts, ta, tb in valid:
        member_set = set(verts)
        if any(
            (tuple(sorted(member_set | {w})), ta, tb) in valid
            for w in vertices
            if w not in member_set
        ):
            continue
        if ta - 1 >= t_start and (verts, ta - 1, tb) in valid:
            continue
        if tb + 1 <= t_end and (verts, ta, tb + 1) in valid:
            continue
        maximal.add(make_clique(verts, ta, tb))
    return maximal


def check_maximality(
    clique: Clique, stream: LinkStream, delta: int, gamma: int
) -> bool:
    """True iff the clique is valid and no single growth step stays valid.

    Growth steps: any vertex of the stream added with the span unchanged;
    the span widened one unit left (only if ta-1 is inside the observation
    window); one unit right (only if tb+1 is inside).
    """
    t_start, t_end = stream.observation
    pv = _PairValidity(stream, delta, gamma)
    ta, tb = clique.ta, clique.tb
    if not pv.clique_valid(clique.vertices, ta, tb):
        return False
    members = set(clique.vertices)
    for w in stream.vertices:
        if w in members:
            continue
        grown = tuple(sorted(members | {w}))
        if pv.clique_valid(grown, ta, tb):
            return False
    if ta - 1 >= t_start and pv.clique_valid(clique.vertices, ta - 1, tb):
        return False
    if tb + 1 <= t_end and pv.clique_valid(clique.vertices, ta, tb + 1):
        return False
    return True
