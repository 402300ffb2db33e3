"""Shared test utilities.

Holds the deterministic random-stream corpus used by the acceptance tests,
a stream built from per-pair timestamps, functions that run `update_batch`
cycle by cycle (to look at the collection around the sub-clique sweep or
after every drain, or to leave a state directory as an interrupted online
run would), a `WorkSets` that checks every family member `drain` asks its
`seen` about and a `drain` that checks every root it is given, three worklist
fixed points with plain moves to hold the engine against (one with the
engine's jumping interval move, settled targets and dominance rule, one
that still works each target as a root, one with the stepwise interval
moves of earlier versions), the benchmark's contact stream, a line-by-line
link parser to hold `parse_links`'s block reading against, a
static-neighbour scan to hold the sliding window count's candidate sets
against, `count_in`-literal seed anchors and
a clique-by-clique maximality certificate to hold the engine's index
arithmetic and pair-by-pair certificate against, and an independently
written delta-clique enumerator (the gamma=1 special case) that
cross-checks the engine through a second code path.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import random
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import tclique.update
from tclique import (
    BatchState,
    Clique,
    FormatSpec,
    LinkStream,
    ParseError,
    PartitionPlan,
    enumerate_maximal_cliques,
    initial_state,
    is_delta_gamma_clique,
    make_clique,
    partition_links,
    render_result,
    run_pipeline,
    save_state,
    update_batch,
)
from tclique.expand import WorkItem, WorkSets, drain

CORPUS_SIZE = 200


def random_stream(seed: int) -> LinkStream:
    """Small dense-ish stream with an explicit observation window."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    horizon = rng.randint(8, 25)
    density = rng.uniform(0.08, 0.5)
    links = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            for t in range(horizon + 1):
                if rng.random() < density:
                    links.append((t, u, v))
    if not links:
        links.append((rng.randint(0, horizon), 1, 2))
    return LinkStream(links, observation=(0, horizon))


def corpus_entry(index: int) -> tuple[LinkStream, int, int]:
    rng = random.Random(10_000 + index)
    return random_stream(index), rng.randint(2, 6), rng.randint(1, 3)


def links_from_pairs(
    pair_times: dict[tuple[int, int], list[int]],
    observation: tuple[int, int] | None = None,
) -> LinkStream:
    """Build a stream from {(u,v): [timestamps]}."""
    links = [
        (t, min(u, v), max(u, v))
        for (u, v), ts in pair_times.items()
        for t in ts
    ]
    return LinkStream(links, observation=observation)


def static_scan_partners(
    stream: LinkStream, vertex: int, window: tuple[int, int], gamma: int
) -> set[int]:
    """Every static neighbour of `vertex` with at least gamma links to it in
    the closed window, each counted by `count_in`: the reference for
    `LinkStream.window_partners`."""
    neighbours = {
        u if v == vertex else v for u, v in stream.static_edges if vertex in (u, v)
    }
    return {
        w
        for w in neighbours
        if stream.count_in((min(vertex, w), max(vertex, w)), window) >= gamma
    }


def static_scan_candidates(clique: Clique, stream: LinkStream, gamma: int) -> set[int]:
    """The vertices outside the clique that the static scan finds with at
    least gamma links to every member inside its span."""
    members = set(clique.vertices)
    span = (clique.ta, clique.tb)
    found = None
    for z in clique.vertices:
        adj = static_scan_partners(stream, z, span, gamma) - members
        found = adj if found is None else found & adj
    return found


def reference_seed_anchors(
    stream: LinkStream, delta: int, gamma: int, t_prev: int
) -> set[Clique]:
    """The seed cliques of `seed_cliques` without their candidates: every
    right anchor [s, s+delta] of a pair occurrence s that holds exactly gamma
    occurrences, counted by `count_in`, pair by static edge, and whose family
    (the pair and its `static_scan_candidates`) has a pair with a link in
    (t_prev, s+delta], counted by `count_in` too: the reference for the
    engine's index arithmetic and its skip rule."""
    found = set()
    for pair in stream.static_edges:
        occ = stream.occurrences(pair)
        for j in range(len(occ) - gamma + 1):
            ta, tb = occ[j], occ[j] + delta
            if stream.count_in(pair, (ta, tb)) != gamma:
                continue
            seed = Clique(pair, ta, tb)
            family = sorted({*pair, *static_scan_candidates(seed, stream, gamma)})
            if any(
                stream.count_in(p, (t_prev + 1, tb)) > 0 for p in combinations(family, 2)
            ):
                found.add(seed)
    return found


def reference_certify_maximal(
    clique: Clique, stream: LinkStream, delta: int, gamma: int
) -> bool:
    """The maximality certificate checked clique by clique: the clique, the
    span widened by one at either end inside the observation, and the clique
    with each vertex w more that has gamma contacts of every member in the
    span (`static_scan_candidates`, counted by `count_in`), each through
    `is_delta_gamma_clique` over all of its pairs. The reference for the
    engine's certificate, which tests only the pairs an extension adds and
    takes its vertices from the sliding window count."""
    verts, ta, tb = clique
    t_start, t_end = stream.observation
    if not is_delta_gamma_clique(verts, (ta, tb), stream, delta, gamma):
        return False
    if ta - 1 >= t_start and is_delta_gamma_clique(verts, (ta - 1, tb), stream, delta, gamma):
        return False
    if tb + 1 <= t_end and is_delta_gamma_clique(verts, (ta, tb + 1), stream, delta, gamma):
        return False
    return not any(
        is_delta_gamma_clique(sorted({*verts, w}), (ta, tb), stream, delta, gamma)
        for w in sorted(static_scan_candidates(clique, stream, gamma))
    )


def offline_keys(stream: LinkStream, delta: int, gamma: int) -> frozenset[Clique]:
    return frozenset(enumerate_maximal_cliques(stream, delta, gamma))


def random_boundaries(stream: LinkStream, rng: random.Random, max_batches: int = 4) -> tuple[int, ...]:
    """Strictly increasing boundaries ending at t_max, 2..max_batches batches
    when the stream has room for them."""
    t_min, t_max, _ = stream.time_bounds()
    room = list(range(t_min, t_max))
    want = rng.randint(2, max_batches) - 1
    interior = sorted(rng.sample(room, min(want, len(room)))) if room else []
    return tuple(interior + [t_max])


def partitioned_keys(
    stream: LinkStream, delta: int, gamma: int, boundaries: tuple[int, ...]
) -> frozenset[Clique]:
    plan = PartitionPlan("explicit", boundaries=boundaries)
    report = run_pipeline(stream, delta, gamma, plan)
    return frozenset(report.final)


def run_batches(
    stream: LinkStream, delta: int, gamma: int, boundaries
) -> tuple[BatchState, list[Clique]]:
    """Drive update_batch directly over an explicit plan; returns the final
    state (not finalized) and the closed cliques of every cycle."""
    state = initial_state(delta, gamma, stream.t_start)
    closed: list[Clique] = []
    plan = PartitionPlan("explicit", boundaries=tuple(boundaries))
    for boundary, chunk in partition_links(stream, plan):
        state, cycle_closed, _ = update_batch(state, chunk, boundary)
        closed.extend(cycle_closed)
    return state, closed


class StagedCycle(NamedTuple):
    """One cycle of `staged_cycles`: its boundary, the pre- and post-sweep
    collections, the state after it and every clique closed so far."""

    boundary: int
    pre: set[Clique]
    post: set[Clique]
    state: BatchState
    closed: list[Clique]


def staged_cycles(
    stream: LinkStream, delta: int, gamma: int, boundaries, monkeypatch
) -> list[StagedCycle]:
    """Drive update_batch over an explicit plan and return a `StagedCycle`
    per cycle.

    The pre-sweep collection is the closed cliques of the earlier cycles,
    the cycle's results before `remove_sub_cliques` runs (captured by
    recording its argument) and the next frontier. The post-sweep collection
    is every closed clique so far and the next frontier: what `finalize`
    starts from at this boundary.
    """
    swept: list[set[Clique]] = []
    sweep = tclique.update.remove_sub_cliques

    def recording_sweep(new_cliques, t_prev):
        swept.append(set(new_cliques))
        return sweep(new_cliques, t_prev)

    cycles = []
    closed: list[Clique] = []
    state = initial_state(delta, gamma, stream.t_start)
    plan = PartitionPlan("explicit", boundaries=tuple(boundaries))
    with monkeypatch.context() as patch:
        patch.setattr(tclique.update, "remove_sub_cliques", recording_sweep)
        for boundary, chunk in partition_links(stream, plan):
            earlier = set(closed)
            state, cycle_closed, _ = update_batch(state, chunk, boundary)
            closed = closed + cycle_closed
            (results,) = swept
            swept.clear()
            cycles.append(
                StagedCycle(
                    boundary,
                    earlier | results | state.frontier,
                    {*closed, *state.frontier},
                    state,
                    closed,
                )
            )
    return cycles


class CheckingSet(set):
    """A `seen` set that passes every clique it is asked about to `check`
    first: `drain` asks it about each family member as the member comes off
    the family stack, before it enters it."""

    def __init__(self, check) -> None:
        super().__init__()
        self.check = check

    def __contains__(self, clique) -> bool:
        self.check(clique)
        return super().__contains__(clique)


class CheckingWorkSets(WorkSets):
    """`WorkSets` that asserts every family member (everything `drain` asks
    `seen`, a `CheckingSet` it installs) is well formed (at least two
    strictly sorted vertices, ta <= tb) and a valid (delta,gamma)-clique:
    the checks the engine's plain `Clique` gives up. `checked_drain` asks
    the same of the roots.

    Validity is checked on the working stream, or, when `reference` is set
    (in a subclass), on that stream for the cliques that end before the
    working stream's end: a carried frontier clique may reach back before
    the working stream's first link, so the full input stream judges it.
    """

    reference: LinkStream | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.seen = CheckingSet(self._check)

    def _check(self, clique: Clique) -> None:
        vertices, ta, tb = clique
        assert type(vertices) is tuple and len(vertices) >= 2, clique
        assert all(a < b for a, b in zip(vertices, vertices[1:])), clique
        assert ta <= tb, clique
        stream = self.stream if self.reference is None else self.reference
        if self.reference is not None and tb >= self.stream.t_end:
            return
        assert is_delta_gamma_clique(
            vertices, (ta, tb), stream, self.delta, self.gamma
        ), f"enqueued invalid clique {clique}"


def checked_drain(worksets: CheckingWorkSets, roots) -> None:
    """`drain` after checking every root it is given, seed or carried clique,
    as `CheckingWorkSets` checks every family member."""
    for root in roots:
        worksets._check(root.clique)
    drain(worksets, roots)


class Worklist(list):
    """The LIFO worklist the reference drains run to a fixed point, starting
    with the roots: `offer` queues a clique with candidates only if the
    cycle's `seen` never held it, and enters it there (the roots too, so a
    reference's `seen` holds its seeds), while a carried clique (no
    candidates) is always queued and never enters `seen`."""

    def __init__(self, worksets: WorkSets, roots) -> None:
        super().__init__()
        self.seen = worksets.seen
        for root in roots:
            self.offer(*root)

    def offer(self, clique: Clique, candidates) -> None:
        if candidates is not None:
            if clique in self.seen:
                return
            self.seen.add(clique)
        self.append(WorkItem(clique, candidates))


def plain_interval_ends(
    stream: LinkStream, vertices, ta: int, tb: int, delta: int, gamma: int
) -> tuple[int | None, int | None]:
    """The stepwise interval moves' ends written out plainly, each from all
    of the clique's pairs over list-filtered occurrences: (right, left), the
    right end delta past the smallest gamma-th largest occurrence in
    [ta, tb+1], the left end (clamped at the observation start) delta before
    the largest gamma-th smallest occurrence in [ta-1, tb]. An end is None
    when some pair lacks gamma occurrences in its window."""
    lasts, firsts = [], []
    for pair in combinations(vertices, 2):
        occ = stream.occurrences(pair)
        right = [t for t in occ if ta <= t <= tb + 1]
        left = [t for t in occ if ta - 1 <= t <= tb]
        lasts.append(right[-gamma] if len(right) >= gamma else None)
        firsts.append(left[gamma - 1] if len(left) >= gamma else None)
    right = None if None in lasts else min(lasts) + delta
    left = None if None in firsts else max(max(firsts) - delta, stream.t_start)
    return right, left


def plain_interval_moves(
    item: WorkItem, worksets: WorkSets, pending: Worklist
) -> bool:
    """The two stepwise interval moves, offered to `pending`: right, then
    left unless the item is carried. True iff neither grew."""
    vertices, ta, tb = item.clique
    right, left = plain_interval_ends(
        worksets.stream, vertices, ta, tb, worksets.delta, worksets.gamma
    )
    grew = False
    if right is not None and right > tb:
        pending.offer(Clique(vertices, ta, right), item.candidates)
        grew = True
    if item.candidates is not None and left is not None and left < ta:
        pending.offer(Clique(vertices, left, tb), item.candidates)
        grew = True
    return not grew


def plain_closure(
    stream: LinkStream, vertices, span, delta: int, gamma: int, right_only=False
) -> tuple[int, int]:
    """The fixed point of the stepwise interval moves from `span`: both ends
    moved together while either grows, or the right end alone for a carried
    clique."""
    ta, tb = span
    while True:
        right, left = plain_interval_ends(stream, vertices, ta, tb, delta, gamma)
        new_tb = right if right is not None and right > tb else tb
        new_ta = left if not right_only and left is not None and left < ta else ta
        if (new_ta, new_tb) == (ta, tb):
            return ta, tb
        ta, tb = new_ta, new_tb


def stepwise_reference_drain(worksets: WorkSets, roots) -> None:
    """A drain with the stepwise moves of earlier versions, written plainly:
    every candidate w is checked by `is_delta_gamma_clique` on
    members | {w}, each growth is a worklist item of its own, with no
    closure, the interval moves are `plain_interval_moves`, and a clique is
    maximal when no move grew it.
    It pops many more cliques than `drain`, but the cycle's results, after
    the sweep, are the same."""
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    pending = Worklist(worksets, roots)
    while pending:
        item = pending.pop()
        clique, candidates = item.clique, item.candidates
        if candidates is None:
            no_growth = plain_interval_moves(item, worksets, pending)
        else:
            no_vertex = True
            members = set(clique.vertices)
            for w in sorted(set(candidates) - members):
                verts = tuple(sorted(members | {w}))
                if is_delta_gamma_clique(verts, (clique.ta, clique.tb), stream, delta, gamma):
                    no_vertex = False
                    pending.offer(Clique(verts, clique.ta, clique.tb), candidates)
            no_interval = plain_interval_moves(item, worksets, pending)
            no_growth = no_vertex and no_interval
        if no_growth:
            worksets.new_maximal.add(clique)
        if clique.tb >= stream.t_end:
            worksets.next_frontier.add(clique)


def plain_growths(
    worksets: WorkSets, item: WorkItem, pending: Worklist
) -> tuple[tuple[int, int], list]:
    """The item's closure, `plain_closure` (the iterated stepwise moves), and
    its vertex growths, each candidate w checked by `is_delta_gamma_clique`
    on members | {w} and every growth offered to `pending` as a worklist
    item of its own: the work the two plain drains below share."""
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    vertices, ta, tb = item.clique
    closure = plain_closure(
        stream, vertices, (ta, tb), delta, gamma, right_only=item.candidates is None
    )
    growths = []
    if item.candidates is not None:
        members = set(vertices)
        for w in sorted(set(item.candidates) - members):
            verts = tuple(sorted(members | {w}))
            if is_delta_gamma_clique(verts, (ta, tb), stream, delta, gamma):
                growths.append(verts)
                pending.offer(Clique(verts, ta, tb), item.candidates)
    return closure, growths


def reference_drain(worksets: WorkSets, roots) -> None:
    """`drain` written out plainly: `plain_growths`, offered by every route
    to them, with no closure or pair table, and the interval move's target
    settled in place: a result when no growth is valid on the closure
    (`is_delta_gamma_clique`), a frontier entry when the closure reaches
    the boundary, dropped otherwise. Like `drain`, it takes the boundary
    from the stream's end."""
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    boundary = stream.t_end
    pending = Worklist(worksets, roots)
    while pending:
        item = pending.pop()
        closure, growths = plain_growths(worksets, item, pending)
        vertices, ta, tb = clique = item.clique
        if closure != (ta, tb):
            target = Clique(vertices, *closure)
            if not any(
                is_delta_gamma_clique(verts, closure, stream, delta, gamma)
                for verts in growths
            ):
                worksets.new_maximal.add(target)
            if closure[1] >= boundary:
                worksets.next_frontier.add(target)
        elif not growths:
            worksets.new_maximal.add(clique)
        if tb >= boundary:
            worksets.next_frontier.add(clique)


def rooted_reference_drain(worksets: WorkSets, roots) -> None:
    """`reference_drain` as `drain` was before interval targets were
    settled in place: the target (clique, closure) is offered, with the
    clique's candidates, unless a growth dominates it or it is a result
    already, and is worked as a root of its own. It works more cliques, but
    after every drain it holds the same results and frontier."""
    stream, delta, gamma = worksets.stream, worksets.delta, worksets.gamma
    boundary = stream.t_end
    pending = Worklist(worksets, roots)
    while pending:
        item = pending.pop()
        closure, growths = plain_growths(worksets, item, pending)
        vertices, ta, tb = clique = item.clique
        if closure != (ta, tb):
            dominated = closure[1] < boundary and any(
                is_delta_gamma_clique(verts, closure, stream, delta, gamma)
                for verts in growths
            )
            if not dominated and Clique(vertices, *closure) not in worksets.new_maximal:
                pending.offer(Clique(vertices, *closure), item.candidates)
        elif not growths:
            worksets.new_maximal.add(clique)
        if tb >= boundary:
            worksets.next_frontier.add(clique)


def traced_memory(run, *args) -> tuple[int, int]:
    """(held, peak): the bytes tracemalloc sees allocated once run(*args)
    has returned, its result still referenced, and the most it saw at once
    meanwhile. A full collection first empties the free lists, whose blocks
    tracemalloc would otherwise not see being reused, so both repeat
    exactly."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = run(*args)  # referenced until the memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def traced_peak(run, *args) -> int:
    """The tracemalloc peak, in bytes, of run(*args)."""
    return traced_memory(run, *args)[1]


def drain_snapshots(
    stream: LinkStream, delta: int, gamma: int, plan: PartitionPlan, drain_fn, monkeypatch
) -> list[tuple[frozenset, frozenset, frozenset]]:
    """Drive update_batch over `plan` with `drain_fn` in place of `drain`;
    returns the clique sets (seen, new_maximal, next_frontier) after every
    drain (two per cycle: the frontier phase and the seed phase). `seen`
    leaves the drain's roots out: a reference drain lets its seeds in, while
    `drain` lets in family members only. The roots are read before the
    drain, as `drain` pops them off the list."""
    snapshots = []

    def recording_drain(worksets, roots):
        root_cliques = [root.clique for root in roots]
        drain_fn(worksets, roots)
        snapshots.append(
            (
                frozenset(worksets.seen.difference(root_cliques)),
                frozenset(worksets.new_maximal),
                frozenset(worksets.next_frontier),
            )
        )

    state = initial_state(delta, gamma, stream.t_start)
    with monkeypatch.context() as patch:
        patch.setattr(tclique.update, "drain", recording_drain)
        for boundary, chunk in partition_links(stream, plan):
            state, _, _ = update_batch(state, chunk, boundary)
    return snapshots


def cycle_outcomes(
    stream: LinkStream, delta: int, gamma: int, plan: PartitionPlan, drain_fn, monkeypatch
) -> list[tuple[list[Clique], frozenset[Clique], int]]:
    """Drive update_batch over `plan` with `drain_fn` in place of `drain`;
    returns per cycle what does not depend on the traversal: the closed
    cliques, the pruned frontier and `new_cliques`."""
    outcomes = []
    state = initial_state(delta, gamma, stream.t_start)
    with monkeypatch.context() as patch:
        patch.setattr(tclique.update, "drain", drain_fn)
        for boundary, chunk in partition_links(stream, plan):
            state, closed, stats = update_batch(state, chunk, boundary)
            outcomes.append((closed, frozenset(state.frontier), stats.new_cliques))
    return outcomes


def prefill_state_dir(
    stream: LinkStream,
    delta: int,
    gamma: int,
    plan: PartitionPlan,
    state_dir: Path,
    n_batches: int,
) -> None:
    """Leave `state_dir` as an online run interrupted after `n_batches`
    cycles would: update_batch over the plan's first n_batches batches, their
    closed cliques appended to closed.txt cycle by cycle, and the state saved
    as state_latest.txt."""
    state = initial_state(delta, gamma, stream.t_start)
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    with open(state_dir / "closed.txt", "w", encoding="utf-8") as fh:
        for boundary, chunk in partition_links(stream, plan)[:n_batches]:
            state, closed, _ = update_batch(state, chunk, boundary)
            fh.write(render_result(closed))
    with open(state_dir / "state_latest.txt", "w", encoding="utf-8") as fh:
        save_state(state, fh)


def signed(body_lines: list[str]) -> str:
    """State text with a valid checksum over the given body lines."""
    body = "\n".join(body_lines) + "\n"
    return body + f"checksum {hashlib.sha256(body.encode('utf-8')).hexdigest()}\n"


def as_v2_state(text: str) -> str:
    """A state file rewritten in the retired v2 form: a `maximal` section
    (here empty) in place of the closed count and digest; signed so that
    only the format can refuse it."""
    lines = []
    for line in text.splitlines()[:-1]:
        if line.startswith("closed "):
            lines.append("maximal 0")
        elif not line.startswith("closed_digest "):
            lines.append(line)
    lines[0] = "tclique-state v2"
    return signed(lines)


def as_v1_state(text: str) -> str:
    """A state file rewritten in the retired v1 form: the v2 form without an
    input digest, and a candidate list after every clique line; signed so
    that only the format can refuse it."""
    v2 = as_v2_state(text).splitlines()[:-1]
    lines = [line for line in v2 if not line.startswith("input_digest ")]
    lines[0] = "tclique-state v1"
    return signed([line + " | 3,5" if line.endswith("]") else line for line in lines])


def state_files(state_dir: Path) -> list[str]:
    """Names of the files in a state directory, sorted."""
    return sorted(entry.name for entry in Path(state_dir).iterdir())


def reference_parse_links(
    lines, spec: FormatSpec = FormatSpec(), observation=None
) -> LinkStream:
    """`parse_links` one line at a time, as it read every input before it
    read plain lines in blocks: the same stream, self-loop count and
    ParseError message. A field is an optional sign and ASCII digits."""

    def decimal(field: str) -> bool:
        text = field.strip()
        digits = text[1:] if text[:1] in ("+", "-") else text
        return digits.isascii() and digits.isdigit()

    links = []
    dropped = 0
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split(",") if spec.delimiter == "comma" else text.split()
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        if not all(map(decimal, fields)):
            raise ParseError(f"line {lineno}: non-integer field in {text!r}")
        a, b, c = (int(f) for f in fields)
        t, u, v = (a, b, c) if spec.column_order == "tuv" else (c, a, b)
        if u == v:
            dropped += 1
        else:
            links.append((t, min(u, v), max(u, v)))
    if not links:
        raise ParseError("no links found in input")
    if spec.rebase:
        base = min(t for t, _, _ in links)
        links = [(t - base, u, v) for t, u, v in links]
    return LinkStream(links, observation=observation, dropped_self_loops=dropped)


def group_contact_stream(seed: int, n_meetings: int) -> LinkStream:
    """Seeded group-contact stream: `n_meetings` meetings, one starting every
    4-10 ticks of 20 s, of 2-6 vertices drawn from 30, lasting 1-15 ticks,
    with each pair of the group in contact with probability 0.7 per tick.
    With so few vertices, each sits in tens to hundreds of cliques."""
    rng = random.Random(seed)
    links = set()
    start = 0
    for _ in range(n_meetings):
        start += rng.randint(4, 10)
        group = sorted(rng.sample(range(1, 31), rng.randint(2, 6)))
        for tick in range(start, start + rng.randint(1, 15)):
            for u, v in combinations(group, 2):
                if rng.random() < 0.7:
                    links.add((tick * 20, u, v))
    return LinkStream(links)


def contact_stream(n_links: int, seed: int) -> LinkStream:
    """The benchmark's contact-model stream of about `n_links` links at
    `seed`, from perfbench/workloads.py, loaded once as a plain module."""
    name = "perfbench_workloads"
    workloads = sys.modules.get(name)
    if workloads is None:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        workloads = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return LinkStream(workloads.generate_links(workloads.CONTACT, n_links, seed))


# -- synthetic states for persistence tests -------------------------------------------


def random_state(seed: int) -> BatchState:
    """Structurally valid random BatchState (possibly fresh), with random
    digests and closed count."""
    rng = random.Random(seed)
    delta = rng.randint(1, 6)
    gamma = rng.randint(1, 3)
    t_start = rng.randint(-3, 3)
    if rng.random() < 0.1:
        return initial_state(delta, gamma, t_start)
    boundary = t_start + rng.randint(1, 30)

    def frontier_clique():
        verts = rng.sample(range(1, 9), rng.randint(2, 4))
        tb = boundary + rng.randint(0, 8)
        return make_clique(sorted(verts), max(t_start, tb - rng.randint(0, 12)), tb)

    frontier = {frontier_clique() for _ in range(rng.randint(0, 6))}
    tail = []
    for u in rng.sample(range(1, 20), rng.randint(0, 5)):
        v = u + rng.randint(1, 3)  # v before t: each seed keeps the state it drew
        tail.append((rng.randint(boundary - delta, boundary), u, v))
    digest = f"{rng.getrandbits(256):064x}"
    closed = rng.randint(0, 2_000)
    closed_digest = f"{rng.getrandbits(256):064x}"
    return BatchState(
        delta, gamma, t_start, boundary, digest, closed, closed_digest, frontier,
        tuple(sorted(tail)),
    )


# -- independent delta-clique enumeration (gamma = 1) --------------------------------


def _next_occurrence_table(stream: LinkStream, pair, horizon_end: int) -> dict[int, int]:
    """next_at[t] = earliest occurrence of the pair at or after t (or a
    sentinel beyond the horizon)."""
    sentinel = horizon_end + 1
    occ = set(stream.occurrences(pair))
    table = {}
    nxt = sentinel
    for t in range(horizon_end, stream.t_start - 1, -1):
        if t in occ:
            nxt = t
        table[t] = nxt
    return table


def delta_clique_keys(stream: LinkStream, delta: int) -> frozenset[tuple]:
    """All maximal delta-cliques (every pair interacts within every window of
    length delta inside the interval), enumerated from first principles."""
    t_lo, t_hi = stream.observation
    verts = sorted(stream.vertices)
    tables = {
        pair: _next_occurrence_table(stream, pair, t_hi)
        for pair in stream.static_edges
    }
    present = set(stream.static_edges)

    pair_memo: dict[tuple, bool] = {}

    def pair_ok(u: int, v: int, ta: int, tb: int) -> bool:
        pair = (u, v) if u < v else (v, u)
        if pair not in present:
            return False
        key = (pair, ta, tb)
        got = pair_memo.get(key)
        if got is not None:
            return got
        table = tables[pair]
        ok = True
        tau = ta
        last_tau = max(tb - delta, ta)
        while tau <= last_tau:
            if table[tau] > min(tau + delta, tb):
                ok = False
                break
            tau += 1
        pair_memo[key] = ok
        return ok

    memo: dict[tuple, bool] = {}

    def clique_ok(subset: tuple[int, ...], ta: int, tb: int) -> bool:
        key = (subset, ta, tb)
        got = memo.get(key)
        if got is None:
            got = all(pair_ok(u, v, ta, tb) for u, v in combinations(subset, 2))
            memo[key] = got
        return got

    keys = set()
    for size in range(2, len(verts) + 1):
        for subset in combinations(verts, size):
            for ta in range(t_lo, t_hi + 1):
                for tb in range(ta, t_hi + 1):
                    if not clique_ok(subset, ta, tb):
                        continue
                    if ta - 1 >= t_lo and clique_ok(subset, ta - 1, tb):
                        continue
                    if tb + 1 <= t_hi and clique_ok(subset, ta, tb + 1):
                        continue
                    bigger = False
                    for w in verts:
                        if w in subset:
                            continue
                        grown = tuple(sorted(subset + (w,)))
                        if clique_ok(grown, ta, tb):
                            bigger = True
                            break
                    if not bigger:
                        keys.add((subset, ta, tb))
    return frozenset(keys)
