"""Clique value type and the (delta,gamma)-clique validity predicate.

A (delta,gamma)-clique is a vertex set Z (|Z| >= 2) together with a closed
interval [ta, tb] such that every unordered pair of Z has at least gamma
links in every window of length delta inside the interval; formally, for
every integer tau in [ta, max(tb-delta, ta)] the pair has >= gamma
occurrences in [tau, min(tau+delta, tb)].

Two checkers are provided. `is_delta_gamma_clique_direct` evaluates the
definition literally and is the single source of truth; the reference
enumerator uses it. `is_delta_gamma_clique` is a gap-based equivalent over
the one-pair kernel `pair_valid`. The test suite holds the two checkers
equal on randomized inputs. A second kernel, `pair_closure`, serves the
engine's moves: besides validity it returns the pair's closure, the largest
interval around the span on which the pair stays valid.

The kernel costs two bisections: one of the pair's occurrences, and one of
its bad times, its entry in the gap index (`gap_index`, built whole for one
stream at one (delta, gamma) by each reader that needs it). With
occurrences s_0 < ... < s_(k-1), call position i bad when i + gamma >= k or
s_(i+gamma) > s_i + 1 + delta: whether i is bad depends on neither ta nor
tb. On a span longer than delta, the windows hold once the first gamma
occurrences from ta arrive by ta + delta and, after every s_i in [ta, tb]
with s_i <= tb - delta - 1, the gamma-th next one arrives by s_i + 1 + delta
and inside the span. For such an i both tests fail together: if
s_(i+gamma) lies past tb, it lies past s_i + 1 + delta <= tb as well. So
the span is valid iff no bad position i has ta <= s_i <= tb - delta - 1,
that is, iff the first bad time from ta on is at least tb - delta; the last
position is bad, so that time exists whenever an occurrence lies in [ta, tb].

The closure of a valid span [ta, tb] reads the same two entries. Write b for
the first bad time from ta on and p for the last bad time before ta.
- Right end: b + delta. The window [b+1, b+1+delta] misses gamma
  occurrences, so no valid span from ta reaches past b + delta, and none
  from further left does either. The span [ta, b+delta] is valid: it has no
  bad time in [ta, b-1], and if b = ta its one window [ta, ta+delta] holds
  the gamma occurrences from ta (they arrive by ta + delta or by tb).
- Left end: no valid span containing [ta, tb] starts at or before p. Such a
  span [a, e] has p in [a, e-delta-1]: otherwise e <= p + delta, and [ta, tb]
  would lie in (p, p+delta], which holds fewer than gamma occurrences, so
  [ta, tb] would not be valid. Positions after p and before ta are good, so
  within (p, ta] only the first window can fail: with s_j the first
  occurrence after p, a start a qualifies iff a >= s_(j+gamma-1) - delta. The
  left end is the larger of p + 1 and that bound, clamped at the
  observation start.
Validity is pairwise, and a union of valid spans that all contain [ta, tb]
is valid (a window it adds either lies in one of them or contains a short
[ta, tb]), so the closure of a vertex set is the intersection of its pairs'
closures, and every span between [ta, tb] and the closure is valid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .linkstream import LinkStream


class Clique(NamedTuple):
    """A vertex set with its closed time interval [ta, tb]; the value is its
    own key.

    The fields are not checked here: the engine builds cliques it knows to be
    well formed. Cliques from outside come in through `make_clique` and
    `parse_clique`, which check them.
    """

    vertices: tuple[int, ...]
    ta: int
    tb: int

    def __str__(self) -> str:
        return format_clique(self)


def make_clique(vertices: Iterable[int], ta: int, tb: int) -> Clique:
    """Checked constructor: at least two strictly sorted vertices and
    ta <= tb, else ValueError."""
    verts = tuple(vertices)
    if len(verts) < 2:
        raise ValueError("a clique needs at least two vertices")
    if any(a >= b for a, b in zip(verts, verts[1:])):
        raise ValueError(f"vertices {verts} are not strictly sorted")
    if ta > tb:
        raise ValueError(f"interval [{ta},{tb}] is empty")
    return Clique(verts, ta, tb)


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


def _bad_times(occ: tuple[int, ...], delta: int, gamma: int) -> tuple[int, ...]:
    """The times of a pair's bad positions (see the module docstring), from
    `occ`, its occurrence times in increasing order; the last min(gamma, k)
    positions are always among them. When every position is bad it is
    `occ` itself."""
    reach = 1 + delta
    bad = [s for s, later in zip(occ, occ[gamma:]) if later > s + reach]
    return occ if len(bad) >= len(occ) - gamma else (*bad, *occ[-gamma:])


def gap_index(
    stream: LinkStream, delta: int, gamma: int
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Every linked pair of the stream mapped to its bad times at
    (delta, gamma); a pair that never links has no entry, so readers ask
    `.get(pair, ())`."""
    return {
        pair: _bad_times(occ, delta, gamma)
        for pair, occ in stream.pair_occurrences.items()
    }


def pair_valid(
    occ: Sequence[int],
    bad: Sequence[int],
    ta: int,
    tb: int,
    delta: int,
    gamma: int,
) -> bool:
    """Gap-based equivalent of `_pair_valid_direct`, over `occ`, the pair's
    occurrence times in increasing order (empty if it never links), and
    `bad`, its bad times at (delta, gamma) (`gap_index`).

    The span needs gamma occurrences from ta on. For spans no longer than
    delta a single window remains and that count decides. Otherwise (a) the
    gamma-th occurrence from ta arrives by ta + delta, and (b) no bad
    position lies in [ta, tb - delta - 1] (see the module docstring).
    """
    lo = bisect_left(occ, ta)
    last = lo + gamma - 1
    if last >= len(occ):
        return False
    if tb - ta <= delta:
        return occ[last] <= tb
    return occ[last] <= ta + delta and bad[bisect_left(bad, ta)] >= tb - delta


def pair_closure(
    occ: Sequence[int],
    bad: Sequence[int],
    ta: int,
    tb: int,
    delta: int,
    gamma: int,
    t_start: int,
) -> Optional[tuple[int, int]]:
    """None when the pair is not valid on [ta, tb] (as `pair_valid` decides);
    otherwise the largest interval containing [ta, tb] on which it is valid
    (see the module docstring). The right end is the first bad time from ta
    on plus delta, never clamped at the observation end; the left end is
    clamped at `t_start`.
    """
    lo = bisect_left(occ, ta)
    last = lo + gamma - 1
    if last >= len(occ):
        return None
    at = bisect_left(bad, ta)
    first_bad = bad[at]
    if tb - ta <= delta:
        if occ[last] > tb:
            return None
    elif occ[last] > ta + delta or first_bad < tb - delta:
        return None
    if at:
        before = bad[at - 1]
        after = bisect_right(occ, before, 0, lo)
        left = max(before + 1, occ[after + gamma - 1] - delta)
    else:
        left = occ[gamma - 1] - delta
    return max(left, t_start), first_bad + delta


def is_delta_gamma_clique(
    vertices: Iterable[int],
    span: tuple[int, int],
    stream: LinkStream,
    delta: int,
    gamma: int,
) -> bool:
    """Gap-based validity check for tests and library callers; agrees with the
    direct definition everywhere. It reads the bad times of its own pairs
    only, with no gap index. The engine does not call it: its moves read
    `pair_closure`, and certification calls `pair_valid` with finalize's gap
    index."""
    verts = sorted(set(vertices))
    if len(verts) < 2:
        raise ValueError("a clique needs at least two vertices")
    ta, tb = span
    occurrences = stream.pair_occurrences
    for pair in combinations(verts, 2):
        occ = occurrences.get(pair, ())
        if not pair_valid(occ, _bad_times(occ, delta, gamma), ta, tb, delta, gamma):
            return False
    return True


# -- containment / canonical text form ----------------------------------------


def contains(outer: Clique, inner: Clique) -> bool:
    """True iff `inner` sits strictly inside `outer`:

    same vertex set with a strictly smaller interval, or a strict vertex
    subset with an interval covered by the outer one. Identical cliques do
    not contain each other.
    """
    if not (outer.ta <= inner.ta and inner.tb <= outer.tb):
        return False
    if outer.vertices == inner.vertices:  # both strictly sorted
        return outer != inner
    if len(outer.vertices) <= len(inner.vertices):
        return False
    return set(outer.vertices).issuperset(inner.vertices)


def format_clique(clique: Clique) -> str:
    """Canonical text form: 'v1,v2,...,vk [ta,tb]'."""
    verts = ",".join(map(str, clique.vertices))
    return f"{verts} [{clique.ta},{clique.tb}]"


def parse_clique(text: str) -> Clique:
    """Inverse of `format_clique`, checked as `make_clique` checks; ValueError
    on bad text.

    Only the canonical form is read, the one `format_clique` writes back
    byte for byte: no plus sign, leading zero, underscore or extra space.
    """
    head, _, span_part = text.partition(" ")
    if not span_part.startswith("[") or not span_part.endswith("]"):
        raise ValueError(f"bad clique text {text!r}")
    ta_text, _, tb_text = span_part[1:-1].partition(",")
    vertices = (int(v) for v in head.split(","))
    clique = make_clique(vertices, int(ta_text), int(tb_text))
    if format_clique(clique) != text:
        raise ValueError(f"clique text {text!r} is not in canonical form")
    return clique


def sort_cliques(cliques: Iterable[Clique]) -> list[Clique]:
    """Stable output order for result files: by (ta, tb, vertices)."""
    return sorted(cliques, key=lambda c: (c.ta, c.tb, c.vertices))
