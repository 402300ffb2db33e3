"""Temporal link parsing and indexed occurrence queries.

A temporal network is a set of timestamped contacts between unordered
vertex pairs, observed during a closed interval [t_start, t_end]. A link is
the plain tuple (t, u, v) with u < v (`Link`), written 'u v t' as text.
`LinkStream` stores the links sorted, duplicates collapsed, and answers
the occurrence queries the clique procedures need: all occurrences of a
pair (one pair at a time, or the whole pair table for the growth moves,
which read many pairs per clique), their count inside a window, from each
vertex's contact timeline, the partners with at least gamma contacts of it
inside a window, and, per (delta, gamma), each pair's bad gaps, the index
the kernels `cliques.pair_valid` and `cliques.pair_closure` read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, TextIO

from .errors import ParseError


Link = tuple[int, int, int]
"""One undirected timestamped contact (t, u, v), with u < v: tuples order
by time first, so sorted links are in the canonical (t, u, v) order."""


@dataclass(frozen=True)
class FormatSpec:
    """Input column layout: 'tuv' or 'uvt', whitespace or comma separated."""

    column_order: str = "tuv"
    delimiter: str = "whitespace"  # "whitespace" | "comma"
    rebase: bool = False  # subtract t_min from all timestamps

    def __post_init__(self) -> None:
        if self.column_order not in ("tuv", "uvt"):
            raise ValueError(f"unknown column order {self.column_order!r}")
        if self.delimiter not in ("whitespace", "comma"):
            raise ValueError(f"unknown delimiter {self.delimiter!r}")


class LinkStream:
    """Immutable indexed collection of temporal links.

    Construction sorts and deduplicates, and refuses a link with u >= v
    (ValueError); afterwards the instance is treated as read-only and is
    safe to share across readers. `observation` is the closed interval
    [t_start, t_end] the network was watched over; it defaults to
    [t_min, t_max] and may be widened explicitly (boundary guards for
    interval extension use it).

    Each vertex keeps a contact timeline: two parallel lists, the times of
    its contacts in increasing order and the partner of each. A window query
    bisects the times once and reads the partners in that slice.

    The gap indexes (`gap_index`) are the one thing that changes after
    construction: a memo filled pair by pair on first read, which lives and
    is freed with the stream.
    """

    def __init__(
        self,
        links: Iterable[Link],
        observation: Optional[tuple[int, int]] = None,
        dropped_self_loops: int = 0,
    ) -> None:
        self._links: tuple[Link, ...] = _sorted_distinct(links)
        pair_index: dict[tuple[int, int], list[int]] = {}
        # the timelines stay lists: a tuple copy would double the peak memory
        # of construction
        times: dict[int, list[int]] = {}
        partners: dict[int, list[int]] = {}
        for t, u, v in self._links:
            if u >= v:
                raise ValueError(f"link {(t, u, v)} is not canonical (u < v)")
            pair_index.setdefault((u, v), []).append(t)
            # both ends written out: every cycle builds a working stream
            if u in times:
                times[u].append(t)
                partners[u].append(v)
            else:
                times[u], partners[u] = [t], [v]
            if v in times:
                times[v].append(t)
                partners[v].append(u)
            else:
                times[v], partners[v] = [t], [u]
        self._pair_index = {pair: tuple(ts) for pair, ts in pair_index.items()}
        self._times = times
        self._partners = partners
        self._gap_indexes: dict[tuple[int, int], GapIndex] = {}
        self._t_min = self._links[0][0] if self._links else None
        self._t_max = self._links[-1][0] if self._links else None
        self.dropped_self_loops = dropped_self_loops

        if observation is None:
            if not self._links:
                raise ValueError("empty stream needs an explicit observation window")
            observation = (self._t_min, self._t_max)
        lo, hi = observation
        if lo > hi:
            raise ValueError(f"observation window [{lo},{hi}] is empty")
        if self._links and (lo > self._t_min or hi < self._t_max):
            raise ValueError(
                f"observation [{lo},{hi}] does not cover links "
                f"[{self._t_min},{self._t_max}]"
            )
        self.observation: tuple[int, int] = (lo, hi)

    # -- basic shape -------------------------------------------------------

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    @property
    def n_links(self) -> int:
        return len(self._links)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._times))

    @property
    def n_vertices(self) -> int:
        return len(self._times)

    @property
    def static_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._pair_index))

    @property
    def n_static_edges(self) -> int:
        return len(self._pair_index)

    @property
    def t_start(self) -> int:
        return self.observation[0]

    @property
    def t_end(self) -> int:
        return self.observation[1]

    def time_bounds(self) -> tuple[int, int, int]:
        """(t_min, t_max, lifetime); error on an empty stream."""
        if not self._links:
            raise ValueError("empty stream has no time bounds")
        return (self._t_min, self._t_max, self._t_max - self._t_min)

    def __repr__(self) -> str:
        return (
            f"LinkStream({self.n_links} links, {self.n_vertices} vertices, "
            f"observation={self.observation})"
        )

    # -- occurrence queries --------------------------------------------------

    def occurrences(self, pair: tuple[int, int]) -> tuple[int, ...]:
        """All timestamps of a canonical pair (empty if never linked)."""
        assert pair[0] < pair[1], "pair must be canonical (u < v)"
        return self._pair_index.get(pair, ())

    @property
    def pair_occurrences(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """Every linked canonical pair's occurrence tuple, for callers that
        read many pairs: `.get(pair, ())` is `occurrences(pair)` without the
        call. Read-only, like the stream."""
        return self._pair_index

    def count_in(self, pair: tuple[int, int], window: tuple[int, int]) -> int:
        ts = self.occurrences(pair)
        lo, hi = window
        return bisect_right(ts, hi) - bisect_left(ts, lo)

    def partners(
        self, vertex: int, window: tuple[int, int], gamma: int
    ) -> frozenset[int]:
        """The vertices with at least gamma contacts of `vertex` inside the
        closed window: one bisection of its timeline, then a count of the
        partners in the slice."""
        times = self._times.get(vertex)
        if times is None:
            return frozenset()
        counts: dict[int, int] = {}
        lo, hi = bisect_left(times, window[0]), bisect_right(times, window[1])
        for w in self._partners[vertex][lo:hi]:
            counts[w] = counts.get(w, 0) + 1
        return frozenset([w for w, n in counts.items() if n >= gamma])

    def gap_index(self, delta: int, gamma: int) -> "GapIndex":
        """The stream's gap index at (delta, gamma), created on the first
        call and kept with the stream, so every later caller with the same
        parameters reads the entries earlier ones built."""
        index = self._gap_indexes.get((delta, gamma))
        if index is None:
            index = self._gap_indexes[delta, gamma] = GapIndex(
                self._pair_index, delta, gamma
            )
        return index

    # -- slicing -------------------------------------------------------------

    def links_in(self, window: tuple[int, int]) -> tuple[Link, ...]:
        """Links with timestamp inside the closed window, in canonical order:
        the slice between two bisections of the sorted links, since (lo,)
        sorts before every link at lo and (hi + 1,) after every link at hi."""
        lo, hi = window
        links = self._links
        return links[bisect_left(links, (lo,)) : bisect_left(links, (hi + 1,))]


def _sorted_distinct(links: Iterable[Link]) -> tuple[Link, ...]:
    """The links sorted, each once. Sorted first: sorted input (a sorted
    file, a link tail plus its batch) sorts in one pass, and repeats are
    then adjacent, so neither a full sort nor a hash table of every link is
    needed."""
    kept: list[Link] = []
    last = None
    for link in sorted(links):
        if link != last:
            kept.append(link)
            last = link
    return tuple(kept)


class GapIndex(dict):
    """pair -> the times of its bad positions at one (delta, gamma); an entry
    is built on its first read.

    For a pair with occurrences s_0 < ... < s_(k-1), position i is bad when
    the gamma-th occurrence after s_i misses the window [s_i+1, s_i+1+delta]:
    i + gamma >= k, or s_(i+gamma) > s_i + 1 + delta. The entry holds the
    times s_i of the bad positions, in increasing order; the last min(gamma,
    k) positions are always among them. When every position is bad the
    entry is the occurrence tuple itself, and a never-linked pair maps to ().
    """

    __slots__ = ("_occurrences", "_delta", "_gamma")

    def __init__(
        self,
        occurrences: Mapping[tuple[int, int], tuple[int, ...]],
        delta: int,
        gamma: int,
    ) -> None:
        super().__init__()
        self._occurrences = occurrences
        self._delta = delta
        self._gamma = gamma

    def __missing__(self, pair: tuple[int, int]) -> tuple[int, ...]:
        occ = self._occurrences.get(pair, ())
        k, gamma, reach = len(occ), self._gamma, 1 + self._delta
        bad = [
            s
            for i, s in enumerate(occ)
            if i + gamma >= k or occ[i + gamma] > s + reach
        ]
        entry = self[pair] = occ if len(bad) == k else tuple(bad)
        return entry


def parse_links(
    source: TextIO | Iterable[str],
    spec: FormatSpec = FormatSpec(),
    observation: Optional[tuple[int, int]] = None,
) -> LinkStream:
    """Parse a three-column link file into a LinkStream.

    Lines starting with '#' and blank lines are ignored. Duplicate records and
    both orientations of a pair collapse to one undirected link. Self-loop
    records are dropped (counted on the result). Malformed lines raise
    ParseError with the 1-based line number; an input without a single usable
    link is an error as well.
    """
    links: list[Link] = []
    dropped = 0
    for lineno, line in enumerate(source, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split(",") if spec.delimiter == "comma" else text.split()
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            a, b, c = (int(f) for f in fields)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field in {text!r}") from None
        t, u, v = (a, b, c) if spec.column_order == "tuv" else (c, a, b)
        if u == v:
            dropped += 1
            continue
        links.append((t, u, v) if u < v else (t, v, u))
    if not links:
        raise ParseError("no links found in input")
    if spec.rebase:
        base = min(links)[0]
        links = [(t - base, u, v) for t, u, v in links]
    return LinkStream(links, observation=observation, dropped_self_loops=dropped)


def format_link(link: Link) -> str:
    """Canonical text form of one link: 'u v t'."""
    t, u, v = link
    return f"{u} {v} {t}"


def parse_link(text: str) -> Link:
    """Inverse of `format_link`; ValueError on bad text. Only the text that
    `format_link` writes back is read: u < v, and no plus sign, leading zero
    or '_'."""
    u, v, t = map(int, text.split(" "))
    if u >= v:
        raise ValueError(f"link text {text!r} is not canonical (u < v)")
    link = (t, u, v)
    if format_link(link) != text:
        raise ValueError(f"link text {text!r} is not in canonical form")
    return link

