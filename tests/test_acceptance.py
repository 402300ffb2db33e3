"""Acceptance suite: one test per acceptance criterion, exact comparisons.

Dataset-dependent checks look for files under $TCLIQUE_DATA_DIR or the
repository's data/ directory and skip with a pointer when absent; everything
else runs unconditionally.
"""

from __future__ import annotations

import io
import os
import random
from pathlib import Path

import pytest

from tclique import (
    FormatSpec,
    LinkStream,
    PartitionPlan,
    brute_force_enumerate,
    dump_state,
    finalize,
    load_state,
    normalize_final,
    parse_links,
    run_pipeline,
)
from helpers import (
    CORPUS_SIZE,
    delta_clique_keys,
    offline_keys,
    partitioned_keys,
    prefill_state_dir,
    random_boundaries,
    random_state,
    staged_cycles,
    state_files,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def dataset(name: str) -> LinkStream | None:
    roots = []
    env = os.environ.get("TCLIQUE_DATA_DIR")
    if env:
        roots.append(Path(env))
    roots.append(REPO_ROOT / "data")
    for root in roots:
        path = root / name
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                return parse_links(fh, FormatSpec(column_order="tuv"))
    return None


def need_dataset(name: str) -> LinkStream:
    stream = dataset(name)
    if stream is None:
        pytest.skip(
            f"dataset {name} not present (place it in data/ or $TCLIQUE_DATA_DIR)"
        )
    return stream


def keyset(cliques) -> frozenset:
    return frozenset(cliques)


# -- 1: the engine agrees with exhaustive enumeration everywhere ---------------------


def test_acceptance_offline_matches_exhaustive_enumeration(corpus, corpus_oracles):
    failures = []
    for idx, (stream, delta, gamma) in enumerate(corpus):
        if offline_keys(stream, delta, gamma) != corpus_oracles[idx]:
            failures.append(idx)
    assert not failures, f"engine diverges from exhaustive check on {failures}"
    print(f"\nACCEPTANCE offline==exhaustive: PASS on {len(corpus)} random streams")


# -- 2: incremental batches reproduce the offline result -----------------------------


def test_acceptance_incremental_matches_offline(corpus, f1_stream):
    checked = 0
    for idx, (stream, delta, gamma) in enumerate(corpus):
        reference = offline_keys(stream, delta, gamma)
        rng = random.Random(20_000 + idx)
        for _ in range(2):
            bounds = random_boundaries(stream, rng)
            assert partitioned_keys(stream, delta, gamma, bounds) == reference, (
                f"stream {idx}, boundaries {bounds}"
            )
            checked += 1
    f1_reference = offline_keys(f1_stream, 3, 2)
    t_lo, t_hi, _ = f1_stream.time_bounds()
    interior = range(t_lo, t_hi)
    from itertools import combinations

    f1_plans = 0
    for n_interior in (1, 2, 3):
        for cut in combinations(interior, n_interior):
            bounds = tuple(cut) + (t_hi,)
            assert partitioned_keys(f1_stream, 3, 2, bounds) == f1_reference, bounds
            f1_plans += 1
    print(
        f"\nACCEPTANCE incremental==offline: PASS on {checked} random partitions "
        f"and all {f1_plans} small-fixture partitions"
    )


# -- 3: at gamma=1 the engine is a plain delta-clique enumerator ----------------------


def test_acceptance_gamma_one_reduces_to_delta_cliques(corpus):
    for idx, (stream, delta, _gamma) in enumerate(corpus):
        independent = delta_clique_keys(stream, delta)
        engine = offline_keys(stream, delta, 1)
        assert engine == independent, f"stream {idx} at delta={delta}"
    print(f"\nACCEPTANCE gamma=1 reduction: PASS on {len(corpus)} streams")


# -- 4: staging around the sweep brackets the true set --------------------------------


def test_acceptance_staging_supersets_then_exact(corpus, monkeypatch):
    """At every boundary the staged collections bracket the truth on the
    prefix stream, and `finalize` on the cycle's state and the cliques
    closed so far is that truth: the result after every arrival."""
    checked_cycles = 0
    for idx, (stream, delta, gamma) in enumerate(corpus):
        rng = random.Random(30_000 + idx)
        bounds = random_boundaries(stream, rng, max_batches=3)
        cycles = staged_cycles(stream, delta, gamma, bounds, monkeypatch)
        boundaries = sorted({*bounds, stream.time_bounds()[1]})
        assert [c.boundary for c in cycles] == boundaries
        for cycle, (boundary, pre, post, state, closed) in enumerate(cycles):
            prefix = LinkStream(
                [l for l in stream.links if l[0] <= boundary],
                observation=(stream.t_start, boundary),
            )
            truth = keyset(brute_force_enumerate(prefix, delta, gamma))
            assert frozenset(normalize_final(pre, boundary)) >= truth, (
                f"stream {idx} cycle {cycle}: staged set lost a maximal clique"
            )
            assert frozenset(normalize_final(post, boundary)) == truth, (
                f"stream {idx} cycle {cycle}: swept set differs from the truth"
            )
            assert keyset(finalize(state, closed, prefix)) == truth, (
                f"stream {idx} cycle {cycle}: result after the arrival differs"
            )
            checked_cycles += 1
    print(f"\nACCEPTANCE staging brackets truth: PASS on {checked_cycles} cycles")


# -- 5: two-window decomposition on the handoff fixture -------------------------------

BLUE = frozenset(
    {((3, 4), 1, 9), ((1, 2), 2, 11), ((2, 3), 4, 13)}
)  # first-cycle maximal set
GREEN = frozenset(
    {((1, 3), 11, 20), ((1, 2, 3), 12, 20), ((1, 2), 12, 21)}
)  # cliques of the second window only
RED = frozenset({((3, 4), 8, 16)})  # straddles the window boundary


def test_acceptance_two_window_decomposition(handoff_stream, monkeypatch):
    delta, gamma, boundary = 4, 2, 11
    plan = PartitionPlan("explicit", boundaries=(boundary,))
    cycles = staged_cycles(handoff_stream, delta, gamma, (boundary,), monkeypatch)
    # post-sweep, cycle 1: the closed cliques and the frontier, without the
    # frontier cliques that a kept clique contains
    first_cycle_maximal = frozenset(normalize_final(cycles[0].post, handoff_stream.t_end))
    assert first_cycle_maximal == BLUE
    report = run_pipeline(handoff_stream, delta, gamma, plan)
    final = keyset(report.final)
    assert final == BLUE | GREEN | RED
    assert BLUE.isdisjoint(GREEN) and BLUE.isdisjoint(RED) and GREEN.isdisjoint(RED)
    # the straddling clique lives inside [T1 - delta, T1 + delta] around the
    # second window's opening timestamp T1 = 12
    (red_key,) = RED
    assert red_key[1] >= 12 - delta and red_key[2] <= 12 + delta
    assert final == keyset(brute_force_enumerate(handoff_stream, delta, gamma))
    print("\nACCEPTANCE two-window decomposition: PASS (3 blue, 3 green, 1 red)")


# -- 6: published reference counts on the contact dataset -----------------------------


def test_acceptance_dataset_reference_counts():
    stream = need_dataset("infectious.txt")
    plan = PartitionPlan("ut", 2)
    low = run_pipeline(stream, 360, 2, plan)
    assert len(low.final) == 4199
    high = run_pipeline(stream, 360, 8, plan)
    assert len(high.final) == 569
    print("\nACCEPTANCE dataset reference counts: PASS (4199 and 569)")


# -- 7a: qualitative count trends on the contact datasets -----------------------------


def test_acceptance_dataset_count_trends():
    plan = PartitionPlan("ut", 2)
    for name in ("infectious.txt", "hypertext.txt"):
        stream = need_dataset(name)
        finals = [
            len(run_pipeline(stream, 360, gamma, plan).final)
            for gamma in (2, 4, 8)
        ]
        assert finals == sorted(finals, reverse=True), (name, finals)
        frontiers = []
        for delta in (180, 360, 720):
            report = run_pipeline(stream, delta, 3, plan)
            frontiers.append(report.rows[0].stats.frontier)
        assert frontiers == sorted(frontiers), (name, frontiers)
    print("\nACCEPTANCE dataset count trends: PASS")


# -- 7b: partitioning never raises the peak live-clique count (fixture scale) ---------


def test_acceptance_partitioned_peak_live_bounded(f1_stream, handoff_stream):
    def peak(stream, delta, gamma, k):
        report = run_pipeline(stream, delta, gamma, PartitionPlan("ut", k))
        return max(row.stats.peak_live for row in report.rows)

    cases = [("f1", f1_stream, 3, 2, (2,)), ("handoff", handoff_stream, 4, 2, (2, 3, 4))]
    for name, stream, delta, gamma, ks in cases:
        offline_peak = peak(stream, delta, gamma, 1)
        for k in ks:
            partitioned_peak = peak(stream, delta, gamma, k)
            assert partitioned_peak <= offline_peak, (name, k)
    print("\nACCEPTANCE partitioned peak live cliques bounded by offline: PASS")


# -- 8: state persistence round-trips and survives interruption -----------------------


def test_acceptance_state_round_trip_and_resume(handoff_stream, tmp_path):
    for seed in range(100):
        state = random_state(1_000 + seed)
        text = dump_state(state)
        revived = load_state(io.StringIO(text))
        assert revived == state
        assert dump_state(revived) == text

    plan = PartitionPlan("explicit", boundaries=(5, 11, 16))
    straight = tmp_path / "straight.txt"
    run_pipeline(handoff_stream, 4, 2, plan, out_path=straight)
    state_dir = tmp_path / "states"
    prefill_state_dir(handoff_stream, 4, 2, plan, state_dir, 1)  # interrupted
    resumed_out = tmp_path / "resumed.txt"
    resumed = run_pipeline(
        handoff_stream, 4, 2, plan, mode="online", state_dir=state_dir,
        out_path=resumed_out,
    )
    assert [row.cycle for row in resumed.rows] == [2, 3, 4]
    assert resumed_out.read_bytes() == straight.read_bytes()
    assert state_files(state_dir) == ["closed.txt", "state_latest.txt"]
    print("\nACCEPTANCE state round-trip and resume: PASS (100 states + interruption)")
