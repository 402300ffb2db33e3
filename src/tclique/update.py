"""Incremental maintenance of the maximal clique set across link batches.

Each call to `update_batch` consumes one batch of links up to a new time
boundary. Its working stream, the state's link tail plus the batch observed
over [t_start, new boundary], is the cycle's window and gives every bound of
the cycle. Carried-over frontier cliques are re-extended to the right over
it, then its pair seeds whose family links after the previous boundary are
expanded in full. Every result contained in another result of the cycle is
swept out afterwards; only a result that starts by the previous boundary can
be (`remove_sub_cliques`). The results that end before the new boundary are
closed: final cliques that no later link changes, so they are handed to the
caller and leave the state, which keeps only the frontier and the link tail
still able to interact with future batches. `finalize` turns the closed
cliques and the last frontier into the definitive clique set of a bounded
observation window and certifies it.

The state also carries digests of every link consumed and of every clique
closed, so a resume can check its input and the file the cliques went to.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import combinations, islice, zip_longest
from typing import Callable, Collection, Iterable, Mapping, Sequence, TextIO

from .cliques import (
    Clique,
    contains,
    format_clique,
    gap_index,
    is_delta_gamma_clique,  # noqa: F401 (perfbench's layer tracer wraps it here)
    pair_valid,
    parse_clique,
    sort_cliques,
)
from .errors import ConfigError, StateError, VerificationError
from .expand import WorkItem, WorkSets, drain, seed_cliques
from .linkstream import Link, LinkStream, format_link, parse_link

STATE_MAGIC = "tclique-state"
STATE_VERSION = 3

EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()
_DIGEST = re.compile(r"[0-9a-f]{64}")
_DIGEST_CHUNK = 4096  # links hashed per update of `chain_input_digest`


def chain_input_digest(previous: str, batch: Iterable[Link]) -> str:
    """The input digest after one more batch: sha256 over the previous digest,
    a newline, and the batch's (t, u, v) links as `format_link` lines
    ('u v t', each with its newline), taken in the order given; callers pass
    them sorted with duplicates collapsed, as `LinkStream.links` keeps them.
    The lines are hashed `_DIGEST_CHUNK` links at a time, so the batch's
    whole text is never held."""
    digest = hashlib.sha256(f"{previous}\n".encode("ascii"))
    links = iter(batch)
    while text := "".join(format_link(l) + "\n" for l in islice(links, _DIGEST_CHUNK)):
        digest.update(text.encode("ascii"))
    return digest.hexdigest()


def chain_closed_digest(previous: str, lines: Iterable[str]) -> str:
    """The closed digest after more closed cliques: sha256 folded over their
    `format_clique` lines one by one, so the lines alone give it back."""
    for line in lines:
        previous = hashlib.sha256(f"{previous}\n{line}\n".encode("ascii")).hexdigest()
    return previous


@dataclass(frozen=True)
class BatchState:
    """Resumable snapshot between two update cycles: what can still change.

    t_boundary is t_start - 1, and the state empty, before the first cycle
    has run. input_digest chains `chain_input_digest` over every batch
    consumed; closed counts the cliques closed so far, and closed_digest
    chains `chain_closed_digest` over them in order. frontier holds the
    cliques whose right end reached the boundary (re-examined next cycle),
    except those whose span a frontier clique with the same vertex set
    covers; link_tail holds the links within delta of the boundary — all the
    history a future batch can still interact with.
    """

    delta: int
    gamma: int
    t_start: int
    t_boundary: int
    input_digest: str
    closed: int
    closed_digest: str
    frontier: set[Clique]
    link_tail: tuple[Link, ...]

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        for name in ("input_digest", "closed_digest"):
            if not _DIGEST.fullmatch(getattr(self, name)):
                raise ConfigError(f"bad {name} {getattr(self, name)!r}")
        if self.closed < 0:
            raise ConfigError(f"negative closed count {self.closed}")
        if self.t_boundary < self.t_start - 1:
            raise ConfigError(f"boundary {self.t_boundary} is before t_start - 1")
        held = (self.input_digest, self.closed, self.closed_digest)
        if self.t_boundary == self.t_start - 1 and (
            self.frontier or self.link_tail or held != (EMPTY_DIGEST, 0, EMPTY_DIGEST)
        ):
            raise ConfigError("fresh state must be empty")
        for clique in self.frontier:
            if clique.tb < self.t_boundary:
                raise ConfigError(
                    f"frontier clique {clique} ends before boundary "
                    f"{self.t_boundary}"
                )
        for t, u, v in self.link_tail:
            if u >= v:
                raise ConfigError(f"tail link {(t, u, v)} is not canonical (u < v)")
            if not (self.t_boundary - self.delta <= t <= self.t_boundary):
                raise ConfigError(
                    f"tail link {(t, u, v)} outside ({self.t_boundary - self.delta},"
                    f" {self.t_boundary}]"
                )


def initial_state(delta: int, gamma: int, t_start: int) -> BatchState:
    return BatchState(
        delta, gamma, t_start, t_start - 1, EMPTY_DIGEST, 0, EMPTY_DIGEST, set(), ()
    )


@dataclass(frozen=True)
class CycleStats:
    """Per-cycle accounting; the fields, in order, are the report's columns.
    `maximal` counts the cliques closed before the cycle and its results."""

    t_boundary: int
    batch_links: int
    maximal: int
    frontier: int
    new_cliques: int
    checked: int
    peak_live: int
    pair_checks: int
    seeds: int


# -- one update cycle -------------------------------------------------------------


def update_batch(
    state: BatchState, batch: Sequence[Link], t_next: int
) -> tuple[BatchState, list[Clique], CycleStats]:
    """Advance the state across one batch of links ending at boundary t_next.

    The batch must contain exactly the links with timestamps in
    (previous boundary, t_next]. The cycle grows the carried frontier
    cliques to the right, seeds and expands the working stream, and sweeps
    the cycle's results for absorbed cliques with `remove_sub_cliques`. The
    results that end before t_next, all in [previous boundary, t_next), are
    closed, final cliques no later link changes: returned in `sort_cliques`
    order and folded into the closed digest. Those that reach t_next are in
    the next frontier, what `prune_frontier` keeps of the worked cliques that
    reach t_next.
    """
    t_prev = state.t_boundary
    if t_next <= t_prev:
        raise ConfigError(f"boundary {t_next} does not advance past {t_prev}")
    for t, u, v in batch:
        if not (t_prev < t <= t_next):
            raise ConfigError(
                f"batch link {(t, u, v)} outside ({t_prev}, {t_next}]"
            )

    working = LinkStream(
        state.link_tail + tuple(batch),
        observation=(state.t_start, t_next),
    )
    input_digest = chain_input_digest(
        state.input_digest, working.links_in((t_prev + 1, t_next))
    )
    worksets = WorkSets(working, state.delta, state.gamma)

    # Phase A: carried frontier cliques grow right over the refreshed stream;
    # without candidates they take no other move.
    drain(worksets, [WorkItem(c, None) for c in sorted(state.frontier)])

    # Phase B: the working stream's seeds whose family (pair and candidates)
    # links in (t_prev, tb]. Any other seed was a seed of the previous cycle,
    # and its family adds nothing phase A's carried cliques do not hold.
    seeds = seed_cliques(working, state.delta, state.gamma, t_prev)
    n_seeds = len(seeds)  # drain pops each seed as it works it
    drain(worksets, seeds)

    results = worksets.new_maximal
    checked = remove_sub_cliques(results, t_prev)
    closed = sort_cliques(c for c in results if c.tb < t_next)

    tail = working.links_in((t_next - state.delta, t_next))
    next_state = BatchState(
        state.delta,
        state.gamma,
        state.t_start,
        t_next,
        input_digest,
        state.closed + len(closed),
        chain_closed_digest(state.closed_digest, map(format_clique, closed)),
        prune_frontier(worksets.next_frontier),
        tail,
    )
    stats = CycleStats(
        t_boundary=t_next,
        batch_links=len(batch),
        maximal=state.closed + len(results),
        frontier=len(next_state.frontier),
        new_cliques=len(results),
        checked=checked,
        peak_live=worksets.peak_live,
        pair_checks=worksets.pair_checks,
        seeds=n_seeds,
    )
    return next_state, closed, stats


def prune_frontier(frontier: Iterable[Clique]) -> set[Clique]:
    """The frontier without the cliques whose span another frontier clique
    with the same vertex set covers.

    Dropping a covered clique c = (X, [ta, tb]) keeps every result:
    - phase A only moves a frontier clique right;
    - each step of the right move anchors on the gamma-th largest
      occurrence in [ta, x+1] from the current end x; the cover's windows
      hold a superset of those occurrences, so its anchors are no earlier
      and the fixed point it jumps to is at least as far;
    - by induction, every clique grown from c lies within one grown from
      its cover;
    - c is never a result, since its cover contains it (a move of the cycle
      grew it, or the sweep dropped it), so every result that reaches the
      boundary is still in the frontier, to be found again next cycle or by
      `finalize`.
    """
    by_vertices: dict[tuple[int, ...], list[Clique]] = {}
    for clique in frontier:
        by_vertices.setdefault(clique.vertices, []).append(clique)
    kept = set()
    for group in by_vertices.values():
        # by ta, widest first: a clique is covered iff an earlier one
        # reaches at least as far right
        group.sort(key=lambda c: (c.ta, -c.tb))
        reach = None
        for clique in group:
            if reach is None or clique.tb > reach:
                kept.add(clique)
                reach = clique.tb
    return kept


def remove_sub_cliques(results: set[Clique], t_prev: int) -> int:
    """Drop the cycle results that another cycle result contains, sweeping
    only the results that start by the previous boundary t_prev, and only
    against each other; returns how many it checked. On a first cycle
    (t_prev = t_start - 1) that is none.

    A container starts no later than what it contains, so every container of
    a result with ta <= t_prev is among them, and the restricted sweep drops
    what a sweep of every result against every result drops, given this
    claim: a cycle result (K, C) with C.ta > t_prev lies inside no valid
    clique of the stream observed up to t_next, the cycle boundary. Proof,
    where the prefix stream holds every link up to t_next and the working
    stream those from t_prev - delta on (all of them on a first cycle):
    - It is a phase B result. A carried clique was worked on a stream that
      ended at t_prev, so it starts by then, and phase A only moves its
      right end.
    - C is K's true closure: no span strictly containing C is valid for K
      on the prefix stream. On a first cycle the two streams are one.
      Later C.ta - 1 >= t_prev >= t_start, so the left end was not clamped:
      K fails the window of length delta that starts at C.ta - 1 (C spans
      at least delta, as every span phase B works does). The right end
      likewise fails the one that ends at C.tb + 1. A span strictly
      containing C holds one of these two windows, and they and every
      window of C read only links after t_prev - delta, which the working
      stream holds.
    - K is vertex-maximal at C. (K, C) was filed from a worked (K, s) with s
      inside C, on a route from a seed whose span, exactly delta long, lies
      in s and so is a window of C; the route passes the seed's candidates
      on (the dedup barrier of the expand module). A vertex w with K+{w}
      valid on C has gamma links to both seed vertices there, so it is
      among them, and K+{w} is a growth of (K, s) that keeps C: (K, C)
      would not have been filed. By the previous step, validity on C reads
      the same links in both streams.
    - Every result is valid on its span in the prefix stream, so a container
      among the results is a valid clique. A window's count only grows with
      more links, so a span valid on the working stream is valid on the
      prefix stream: a left end read from the truncated stream can only be
      later than the true one. A carried clique was valid on the earlier
      prefix, and phase A's right move adds only windows that start after
      t_prev - delta, read from the working stream.
    So a valid (J, D) containing (K, C) has D = C by the second step and
    J = K by the third: (K, C) is maximal.

    What is left to drop comes mostly from phase A: a carried clique whose
    carried superset stops where it does. A seed whose family has no link
    after t_prev is not worked again (`seed_cliques`): working it would
    re-read its results' left ends from the truncated stream, too late, and
    file cliques inside their phase A copies for this sweep to drop.

    The same filter once lost results: seeds clamped at the observation
    start spanned less than delta, so the first route to a clique could
    carry too few candidates and the third step failed. First-cycle results
    then lay inside a result with one vertex more at the same span, and a
    sweep restricted to ta <= t_prev kept them (5 of 3,980 closed cliques
    on the test corpus). Every seed now spans exactly delta.
    """
    early = [c for c in results if c.ta <= t_prev]
    results.difference_update(contained_cliques(early))
    return len(early)


def contained_cliques(cliques: Collection[Clique]) -> list[Clique]:
    """The cliques that another of `cliques` contains, in iteration order.

    A posting index maps each vertex to the cliques holding it. A container
    holds every vertex of the clique it contains, so it sits in every one of
    their posting lists; only the shortest is read.
    """
    postings: dict[int, list[Clique]] = {}
    for outer in cliques:
        for vertex in outer.vertices:
            postings.setdefault(vertex, []).append(outer)
    found = []
    for clique in cliques:
        outers = min((postings.get(v, ()) for v in clique.vertices), key=len)
        if any(contains(outer, clique) for outer in outers):
            found.append(clique)
    return found


# -- finalization ------------------------------------------------------------------


def normalize_final(cliques: Iterable[Clique], t_end: int) -> set[Clique]:
    """Clamp right ends to the observation end, dedup, and drop contained
    cliques — the bounded-window view of an online collection."""
    clamped = {Clique(v, ta, min(tb, t_end)) for v, ta, tb in cliques}
    clamped.difference_update(contained_cliques(clamped))
    return clamped


def finalize(
    state: BatchState, closed: Iterable[Clique], stream: LinkStream
) -> list[Clique]:
    """Definitive maximal cliques of `stream` from a state that has consumed
    all of its links and the closed cliques every cycle returned; every
    result is certified maximal, else VerificationError. Called on a prefix
    of the links, observed up to the state's boundary, it gives the result
    after that arrival.

    The closed cliques pass as they are, and only the last frontier is
    clamped to the observation end and swept by `normalize_final`:
    - a closed clique was swept in its own cycle against every result of
      that cycle, so it is final;
    - no closed clique contains a clamped frontier clique: every closed tb
      is below the last boundary, and a clamped frontier clique ends at
      min(tb, t_end), at least that boundary;
    - a clamped frontier clique F contains a closed clique C only if the
      engine is wrong: if F is valid, C's vertex set is valid on F's span,
      so C can be widened or grown by one step and is not maximal; if F is
      not valid, it fails certification. Either way certification refuses
      the result rather than drop C silently.
    The last frontier is enough: a cycle's result is closed or reaches the
    boundary, and then is in the frontier the next cycle starts from
    (`prune_frontier`). A frontier clique that is no result was grown by a
    move or swept as contained in a result; that growth or container was
    worked too and reaches the boundary, so it is in the frontier or
    covered by a frontier clique. Such steps end at a result, so after
    clamping the non-result lies inside, or equals, a kept clique, and
    `normalize_final` drops it. The set union collapses a repeated closed
    line. Certification is the backstop. It runs in ta order, so one sliding
    count (`LinkStream.window_partners`) gives each clique its vertex pool.
    """
    t_start, t_end = stream.observation
    if t_start != state.t_start:
        raise ConfigError(
            f"state starts at {state.t_start}, stream at {t_start}"
        )
    result = sorted({*closed, *normalize_final(state.frontier, t_end)})
    delta, gamma = state.delta, state.gamma
    gaps = gap_index(stream, delta, gamma)
    by_start = sort_cliques(result)
    windows = stream.window_partners([c.ta for c in by_start], delta, gamma)
    for clique, partners in zip(by_start, windows):
        pool = partners.get(clique.vertices[0], ())
        if not _certify_maximal(clique, stream, delta, gamma, gaps, pool):
            raise VerificationError(f"{clique} failed certification")
    return result


def _certify_maximal(
    clique: Clique,
    stream: LinkStream,
    delta: int,
    gamma: int,
    gaps: Mapping[tuple[int, int], tuple[int, ...]],
    pool: Collection[int],
) -> bool:
    """Independent maximality check of one clique over a bounded stream.

    The clique must be valid on its span, and no strictly larger clique may
    be: not the span widened by one at either end, inside the observation,
    nor the clique with one vertex w more. Every test reads the clique's
    pairs with `pair_valid`, from one list of their occurrences and their
    entries in `gaps`, the stream's gap index at (delta, gamma): the pairs
    over [ta, tb], over [ta-1, tb] and over [ta, tb+1]. The clique being
    valid, a vertex w more needs only the pairs (w, z) for the members z at
    [ta, tb], and only the w in `pool`, the first member's partners with
    gamma links in [ta, ta+delta] (`LinkStream.window_partners` at ta). No
    other w can extend it: a pair valid on [ta, tb] has gamma links in its
    first window [ta, min(ta+delta, tb)], which lies inside [ta, ta+delta].
    The check reads the stream and its gap index only, never the engine's
    closures, so it stays a backstop to the traversal.
    """
    verts, ta, tb = clique
    t_start, t_end = stream.observation
    occurrences = stream.pair_occurrences
    pairs = [(occurrences.get(p, ()), gaps.get(p, ())) for p in combinations(verts, 2)]

    def valid_at(a: int, b: int) -> bool:
        return all(pair_valid(occ, bad, a, b, delta, gamma) for occ, bad in pairs)

    if not valid_at(ta, tb):
        return False
    if ta > t_start and valid_at(ta - 1, tb):
        return False
    if tb < t_end and valid_at(ta, tb + 1):
        return False
    for w in pool:
        if w not in verts and all(
            pair_valid(occurrences.get(p, ()), gaps.get(p, ()), ta, tb, delta, gamma)
            for p in ((w, z) if w < z else (z, w) for z in verts)
        ):
            return False
    return True


# -- state persistence -------------------------------------------------------------


def dump_state(state: BatchState) -> str:
    """Serialize a state to its canonical checksummed text form."""
    lines = [
        f"{STATE_MAGIC} v{STATE_VERSION}",
        f"delta {state.delta}",
        f"gamma {state.gamma}",
        f"t_start {state.t_start}",
        f"t_boundary {state.t_boundary}",
        f"input_digest {state.input_digest}",
        f"closed {state.closed}",
        f"closed_digest {state.closed_digest}",
        f"frontier {len(state.frontier)}",
        *map(format_clique, sorted(state.frontier)),
        f"link_tail {len(state.link_tail)}",
        *map(format_link, sorted(state.link_tail)),
    ]
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"checksum {digest}\n"


def save_state(state: BatchState, sink: TextIO) -> None:
    sink.write(dump_state(state))


def load_state(source: TextIO) -> BatchState:
    """Parse and verify a serialized state; StateError on any corruption.

    After the checksum and header checks the fields and sections are read in
    order, and the text is accepted only if `dump_state` writes the state it
    describes back byte for byte: sorted sections without repeats, canonical
    numbers, nothing after the link tail and a final newline.
    """
    text = source.read()
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("checksum "):
        raise StateError("state file missing checksum (truncated?)")
    body = "\n".join(lines[:-1]) + "\n"
    if lines[-1] != f"checksum {hashlib.sha256(body.encode('utf-8')).hexdigest()}":
        raise StateError("state checksum mismatch")
    if lines[0] != f"{STATE_MAGIC} v{STATE_VERSION}":
        raise StateError(
            f"unsupported state header {lines[0]!r}: only v{STATE_VERSION} "
            f"states are read; start the run again"
        )

    rows = iter(lines[1:-1])

    def field(name: str, parse: Callable[[str], object] = str):
        line = next(rows, "")
        if not line.startswith(name + " "):
            raise StateError(f"missing {name} line")
        try:
            return parse(line[len(name) + 1 :])
        except ValueError as exc:
            raise StateError(f"bad {name} line {line!r}") from exc

    def section(name: str, parse: Callable[[str], object]) -> list:
        """The section's distinct entries in file order: a repeat shrinks
        the count `dump_state` writes, so the final check refuses it."""
        entries = {}
        for _ in range(field(name, int)):
            line = next(rows, "")
            try:
                entries[parse(line)] = None
            except ValueError as exc:
                raise StateError(f"bad {name} line {line!r}: {exc}") from exc
        return list(entries)

    try:
        state = BatchState(  # keyword arguments evaluate in the file's order
            delta=field("delta", int),
            gamma=field("gamma", int),
            t_start=field("t_start", int),
            t_boundary=field("t_boundary", int),
            input_digest=field("input_digest"),
            closed=field("closed", int),
            closed_digest=field("closed_digest"),
            frontier=set(section("frontier", parse_clique)),
            link_tail=tuple(section("link_tail", parse_link)),
        )
    except ConfigError as exc:
        raise StateError(f"inconsistent state contents: {exc}") from exc
    require_written_back(text, dump_state(state), "state", "dump_state", StateError)
    return state


def require_written_back(
    text: str, written: str, kind: str, writer: str, error: type[Exception]
) -> None:
    """Raise `error` unless `text` equals `written`, what `writer` writes for
    the value read from it, naming the first line that differs (a line past
    either end reads '')."""
    pairs = zip_longest(
        text.splitlines(keepends=True), written.splitlines(keepends=True), fillvalue=""
    )
    for at, (theirs, ours) in enumerate(pairs, start=1):
        if theirs != ours:
            raise error(
                f"{kind} line {at} is not what {writer} writes: {theirs!r}, "
                f"expected {ours!r}"
            )
