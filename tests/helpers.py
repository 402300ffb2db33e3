"""Shared test utilities.

Holds the deterministic random-stream corpus used by the acceptance tests,
functions that run `update_batch` cycle by cycle (to look at the collection
around the sub-clique sweep, or to leave a state directory as an interrupted
online run would), and an independently written delta-clique enumerator (the
gamma=1 special case) that cross-checks the engine through a second code path.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import tclique.update
from tclique import (
    BatchState,
    Clique,
    CliqueKey,
    LinkStream,
    PartitionPlan,
    TemporalLink,
    enumerate_maximal_cliques,
    initial_state,
    partition_links,
    run_pipeline,
    save_state,
    update_batch,
)

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
                    links.append(TemporalLink(u, v, t))
    if not links:
        links.append(TemporalLink(1, 2, rng.randint(0, horizon)))
    return LinkStream(links, observation=(0, horizon))


def corpus_entry(index: int) -> tuple[LinkStream, int, int]:
    rng = random.Random(10_000 + index)
    return random_stream(index), rng.randint(2, 6), rng.randint(1, 3)


def offline_keys(stream: LinkStream, delta: int, gamma: int) -> frozenset[CliqueKey]:
    return frozenset(c.key() for c in enumerate_maximal_cliques(stream, delta, gamma))


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
) -> frozenset[CliqueKey]:
    plan = PartitionPlan("explicit", boundaries=boundaries)
    report = run_pipeline(stream, delta, gamma, plan)
    return frozenset(c.key() for c in report.final)


def run_batches(stream: LinkStream, delta: int, gamma: int, boundaries):
    """Drive update_batch directly over an explicit plan; returns the final
    state (not finalized)."""
    state = initial_state(delta, gamma, stream.t_start)
    plan = PartitionPlan("explicit", boundaries=tuple(boundaries))
    for boundary, chunk in partition_links(stream, plan):
        state, _ = update_batch(state, chunk, boundary)
    return state


def staged_cycles(
    stream: LinkStream, delta: int, gamma: int, boundaries, monkeypatch
) -> list[tuple[int, dict[CliqueKey, Clique], dict[CliqueKey, Clique]]]:
    """Drive update_batch over an explicit plan and return, per cycle,
    (boundary, pre-sweep collection, post-sweep collection).

    The pre-sweep collection is what the cycle holds before
    `remove_sub_cliques` runs: the carried cliques (the previous maximal set
    minus its frontier) plus the cycle's new results, captured by recording
    the argument of `remove_sub_cliques`. The post-sweep collection is the
    next state's maximal set.
    """
    swept: list[dict[CliqueKey, Clique]] = []
    sweep = tclique.update.remove_sub_cliques

    def recording_sweep(new_cliques, t_prev):
        swept.append(dict(new_cliques))
        return sweep(new_cliques, t_prev)

    cycles = []
    state = initial_state(delta, gamma, stream.t_start)
    plan = PartitionPlan("explicit", boundaries=tuple(boundaries))
    with monkeypatch.context() as patch:
        patch.setattr(tclique.update, "remove_sub_cliques", recording_sweep)
        for boundary, chunk in partition_links(stream, plan):
            carried = {
                key: clique
                for key, clique in state.maximal.items()
                if key not in state.frontier
            }
            state, _ = update_batch(state, chunk, boundary)
            (new_cliques,) = swept
            swept.clear()
            cycles.append((boundary, {**carried, **new_cliques}, dict(state.maximal)))
    return cycles


def prefill_state_dir(
    stream: LinkStream,
    delta: int,
    gamma: int,
    plan: PartitionPlan,
    state_dir: Path,
    n_batches: int,
) -> None:
    """Leave `state_dir` as an online run interrupted after `n_batches`
    cycles would: update_batch over the plan's first n_batches batches, the
    state saved as state_{n_batches:04d}.txt."""
    state = initial_state(delta, gamma, stream.t_start)
    for boundary, chunk in partition_links(stream, plan)[:n_batches]:
        state, _ = update_batch(state, chunk, boundary)
    Path(state_dir).mkdir(parents=True, exist_ok=True)
    with open(Path(state_dir) / f"state_{n_batches:04d}.txt", "w", encoding="utf-8") as fh:
        save_state(state, fh)


def state_files(state_dir: Path) -> list[str]:
    """Names of the files in a state directory, sorted."""
    return sorted(entry.name for entry in Path(state_dir).iterdir())


# -- synthetic states for persistence tests -------------------------------------------


def random_state(seed: int) -> BatchState:
    """Structurally valid random BatchState (possibly fresh, possibly with
    candidate sets in all three shapes: absent, empty, populated)."""
    from tclique import make_clique

    rng = random.Random(seed)
    delta = rng.randint(1, 6)
    gamma = rng.randint(1, 3)
    t_start = rng.randint(-3, 3)
    if rng.random() < 0.1:
        return initial_state(delta, gamma, t_start)
    boundary = t_start + rng.randint(1, 30)

    def rand_clique(right_of_boundary: bool):
        n = rng.randint(2, 4)
        verts = rng.sample(range(1, 9), n)
        if right_of_boundary:
            tb = boundary + rng.randint(0, 8)
        else:
            tb = t_start + rng.randint(0, max(boundary - t_start, 1))
        ta = max(t_start, tb - rng.randint(0, 12))
        tb = max(ta, tb)
        cands = rng.choice(
            [None, frozenset(), frozenset(rng.sample(range(10, 15), rng.randint(1, 3)))]
        )
        return make_clique(verts, ta, tb, candidates=cands)

    maximal = {}
    for _ in range(rng.randint(0, 6)):
        c = rand_clique(rng.random() < 0.4)
        maximal[c.key()] = c
    frontier = {}
    for _ in range(rng.randint(0, 4)):
        c = rand_clique(True)
        frontier[c.key()] = c
    tail = tuple(
        sorted(
            (
                TemporalLink(
                    u, u + rng.randint(1, 3), rng.randint(boundary - delta, boundary)
                )
                for u in rng.sample(range(1, 20), rng.randint(0, 5))
            ),
            key=lambda l: (l.t, l.u, l.v),
        )
    )
    return BatchState(delta, gamma, t_start, boundary, maximal, frontier, tail)


def candidate_maps(state) -> tuple[dict, dict]:
    return (
        {k: c.candidates for k, c in state.maximal.items()},
        {k: c.candidates for k, c in state.frontier.items()},
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


def delta_clique_keys(stream: LinkStream, delta: int) -> frozenset[CliqueKey]:
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
