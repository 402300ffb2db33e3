"""Pipeline runs, persistence, reports, stats, the CLI, and the scripts."""

import copy
import csv
import dataclasses
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tclique.pipeline
import tclique.update
from tclique import (
    ConfigError,
    LinkStream,
    PartitionPlan,
    StateError,
    VerificationError,
    dump_state,
    enumerate_maximal_cliques,
    is_delta_gamma_clique,
    load_result,
    load_state,
    make_clique,
    parse_clique,
    render_result,
    run_pipeline,
    stats_maximum_cliques,
    verify_against_oracle,
)
from tclique.cli import main
from conftest import DATA_DIR, load_fixture
from tclique.update import EMPTY_DIGEST, chain_closed_digest
from helpers import (
    as_v1_state,
    as_v2_state,
    group_contact_stream,
    prefill_state_dir,
    random_boundaries,
    random_stream,
    state_files,
    traced_peak,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_offline_and_online_results_are_byte_identical(handoff_stream, tmp_path):
    plan = PartitionPlan("explicit", boundaries=(11,))
    off_out = tmp_path / "off.txt"
    on_out = tmp_path / "on.txt"
    run_pipeline(handoff_stream, 4, 2, plan, out_path=off_out)
    run_pipeline(
        handoff_stream, 4, 2, plan,
        mode="online", state_dir=tmp_path / "state", out_path=on_out,
    )
    assert off_out.read_bytes() == on_out.read_bytes()
    # only the newest state file is kept
    assert state_files(tmp_path / "state") == ["closed.txt", "state_0002.txt"]


def test_online_run_keeps_only_the_newest_state_file(handoff_stream, tmp_path):
    state_dir = tmp_path / "state"
    report = run_pipeline(
        handoff_stream, 4, 2, PartitionPlan("ut", 6),
        mode="online", state_dir=state_dir,
    )
    k = len(report.rows)
    assert k > 2
    assert state_files(state_dir) == ["closed.txt", f"state_{k:04d}.txt"]
    # rerunning resumes from the kept state, with no batch left to run
    again = run_pipeline(
        handoff_stream, 4, 2, PartitionPlan("ut", 6),
        mode="online", state_dir=state_dir,
    )
    assert again.rows == [] and again.final == report.final


def test_interrupted_online_run_resumes_to_the_same_bytes(handoff_stream, tmp_path):
    plan = PartitionPlan("explicit", boundaries=(5, 11, 16))
    whole = tmp_path / "whole.txt"
    run_pipeline(handoff_stream, 4, 2, plan, out_path=whole)

    state_dir = tmp_path / "state"
    prefill_state_dir(handoff_stream, 4, 2, plan, state_dir, 2)  # interrupted

    resumed_out = tmp_path / "resumed.txt"
    resumed = run_pipeline(
        handoff_stream, 4, 2, plan, mode="online", state_dir=state_dir,
        out_path=resumed_out,
    )
    assert resumed.completed
    assert [row.cycle for row in resumed.rows] == [3, 4]  # only the remaining cycles
    assert resumed_out.read_bytes() == whole.read_bytes()
    assert state_files(state_dir) == ["closed.txt", "state_0004.txt"]


def test_resume_rejects_parameter_mismatch(handoff_stream, tmp_path):
    plan = PartitionPlan("explicit", boundaries=(11,))
    state_dir = tmp_path / "state"
    prefill_state_dir(handoff_stream, 4, 2, plan, state_dir, 1)
    with pytest.raises(ConfigError, match="delta"):
        run_pipeline(handoff_stream, 5, 2, plan, mode="online", state_dir=state_dir)
    with pytest.raises(ConfigError, match="plan"):
        run_pipeline(
            handoff_stream, 4, 2,
            PartitionPlan("explicit", boundaries=(9,)),
            mode="online", state_dir=state_dir,
        )


HANDOFF_ONLINE = [
    "run", "--format", "uvt", "--delta", "4", "--gamma", "2", "--t-end", "21",
    "--scheme", "explicit", "--boundaries", "5,11,16", "--mode", "online",
]
HANDOFF_PLAN = PartitionPlan("explicit", boundaries=(5, 11, 16))


def test_cli_resume_refuses_a_changed_input(handoff_stream, tmp_path, capsys):
    source = (DATA_DIR / "handoff.txt").read_text()
    assert "\n1 2 6\n" in source
    changed = tmp_path / "changed.txt"
    changed.write_text(source.replace("\n1 2 6\n", "\n1 2 5\n", 1))  # into batch 1
    for name, path, code in (("same", DATA_DIR / "handoff.txt", 0), ("changed", changed, 2)):
        state_dir = tmp_path / name
        prefill_state_dir(handoff_stream, 4, 2, HANDOFF_PLAN, state_dir, 2)
        closed = (state_dir / "closed.txt").read_text()
        argv = HANDOFF_ONLINE + ["--input", str(path), "--state-dir", str(state_dir)]
        assert main(argv) == code, name
    assert "differ from those the state was built from" in capsys.readouterr().err
    # left as it was
    assert state_files(state_dir) == ["closed.txt", "state_0002.txt"]
    assert (state_dir / "closed.txt").read_text() == closed


def test_cli_refuses_a_v1_state(handoff_stream, tmp_path, capsys):
    state_dir = tmp_path / "state"
    prefill_state_dir(handoff_stream, 4, 2, HANDOFF_PLAN, state_dir, 2)
    path = state_dir / "state_0002.txt"
    path.write_text(as_v1_state(path.read_text()))
    argv = HANDOFF_ONLINE + ["--input", str(DATA_DIR / "handoff.txt"), "--state-dir", str(state_dir)]
    assert main(argv) == 2
    assert "start the run again" in capsys.readouterr().err


def test_cli_refuses_a_v2_state(handoff_stream, tmp_path, capsys):
    state_dir = tmp_path / "state"
    prefill_state_dir(handoff_stream, 4, 2, HANDOFF_PLAN, state_dir, 2)
    path = state_dir / "state_0002.txt"
    path.write_text(as_v2_state(path.read_text()))
    argv = HANDOFF_ONLINE + ["--input", str(DATA_DIR / "handoff.txt"), "--state-dir", str(state_dir)]
    assert main(argv) == 2
    assert "only v3 states are read; start the run again" in capsys.readouterr().err


def test_online_closed_file_holds_each_closed_clique_once(handoff_stream, tmp_path):
    for name, stream, delta, plan in (
        ("handoff", handoff_stream, 4, PartitionPlan("ut", 6)),
        ("groups", group_contact_stream(seed=7, n_meetings=40), 360, PartitionPlan("ut", 30)),
    ):
        state_dir = tmp_path / name
        report = run_pipeline(stream, delta, 2, plan, mode="online", state_dir=state_dir)
        lines = (state_dir / "closed.txt").read_text().splitlines()
        assert len(lines) == report.state.closed > 0, name
        assert len(set(lines)) == len(lines), name
        assert chain_closed_digest(EMPTY_DIGEST, lines) == report.state.closed_digest
        # every closed clique is final: normalizing drops none of them
        assert set(map(parse_clique, lines)) <= set(report.final), name


def test_resume_cuts_closed_lines_past_the_count(handoff_stream, tmp_path):
    """Lines past the state's count, from a cycle whose state was never
    written or torn, are cut: the resumed run writes the same result bytes
    and the same closed.txt as a run that was never interrupted."""
    straight = tmp_path / "straight"
    whole = run_pipeline(
        handoff_stream, 4, 2, HANDOFF_PLAN, mode="online", state_dir=straight,
        out_path=tmp_path / "whole.txt",
    )
    texts = {}
    for n in (2, 3):
        prefill_state_dir(handoff_stream, 4, 2, HANDOFF_PLAN, tmp_path / f"after_{n}", n)
        texts[n] = (tmp_path / f"after_{n}" / "closed.txt").read_text()
    assert texts[3].startswith(texts[2]) and texts[3] != texts[2]
    for name, n_batches, text in (
        ("unsaved cycle", 2, texts[3]),
        ("torn line", 2, texts[2] + "1,2 [1"),
        ("unsaved cycle and torn line", 2, texts[3] + "2,3 [4,"),
        ("no state", 0, "junk\n1,2 [1,5]\n"),
    ):
        state_dir = tmp_path / name
        state_dir.mkdir()
        if n_batches:
            prefill_state_dir(handoff_stream, 4, 2, HANDOFF_PLAN, state_dir, n_batches)
        (state_dir / "closed.txt").write_text(text)
        out = tmp_path / f"{name}.txt"
        resumed = run_pipeline(
            handoff_stream, 4, 2, HANDOFF_PLAN, mode="online", state_dir=state_dir,
            out_path=out,
        )
        assert out.read_bytes() == (tmp_path / "whole.txt").read_bytes(), name
        assert resumed.state == whole.state, name
        assert (state_dir / "closed.txt").read_bytes() == (
            straight / "closed.txt"
        ).read_bytes(), name


class Died(Exception):
    """A simulated death of the process at one point of an online cycle."""


def die_online(stream, plan, state_dir, point, cycle, monkeypatch) -> None:
    """Run `plan` online into `state_dir` until it dies at `point` of `cycle`:
    after the closed.txt append ("closed appended"; "torn line" then also
    cuts the last three bytes off that append), after the temporary state
    write ("temp written"), after its replace ("replaced"), or before the
    deletion of the older state ("before unlink")."""
    real_write, real_replace, real_unlink = (
        tclique.pipeline._write_state_file, os.replace, Path.unlink
    )
    at = []  # the cycle whose state is being written

    def die_at(*here):
        if point in here and at[-1] == cycle:
            raise Died(f"{point} in cycle {cycle}")

    def write_state_file(state, directory, n):
        at.append(n)
        die_at("closed appended", "torn line")
        real_write(state, directory, n)

    def replace(src, dst):
        die_at("temp written")
        real_replace(src, dst)
        die_at("replaced")

    def unlink(path, *args, **kwargs):
        die_at("before unlink")
        real_unlink(path, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(tclique.pipeline, "_write_state_file", write_state_file)
        patch.setattr(os, "replace", replace)
        patch.setattr(Path, "unlink", unlink)
        with pytest.raises(Died):
            run_pipeline(stream, 4, 2, plan, mode="online", state_dir=state_dir)
    if point == "torn line":
        closed = state_dir / "closed.txt"
        closed.write_bytes(closed.read_bytes()[:-3])  # every line is longer


# cycle 1 of HANDOFF_PLAN closes no clique, so it has no line to tear, and
# no older state to delete
CRASH_POINTS = [
    (point, cycle)
    for point in ("closed appended", "torn line", "temp written", "replaced", "before unlink")
    for cycle in (1, 2, 3, 4)
    if cycle > 1 or point in ("closed appended", "temp written", "replaced")
]


@pytest.mark.parametrize("point, cycle", CRASH_POINTS)
def test_online_run_resumes_from_every_crash_point(
    point, cycle, handoff_stream, tmp_path, monkeypatch
):
    """Rerun after a death at any point of any cycle, an online run writes
    the offline result bytes and the closed.txt of a run that never died,
    and leaves closed.txt and the newest state only: a death between a
    state's replace and the deletion of the older one leaves both, and the
    resume deletes the older one once its checks pass."""
    whole = tmp_path / "whole.txt"
    run_pipeline(handoff_stream, 4, 2, HANDOFF_PLAN, out_path=whole)
    straight = tmp_path / "straight"
    run_pipeline(handoff_stream, 4, 2, HANDOFF_PLAN, mode="online", state_dir=straight)

    state_dir = tmp_path / "state"
    die_online(handoff_stream, HANDOFF_PLAN, state_dir, point, cycle, monkeypatch)
    out = tmp_path / "resumed.txt"
    run_pipeline(
        handoff_stream, 4, 2, HANDOFF_PLAN, mode="online", state_dir=state_dir,
        out_path=out,
    )
    assert out.read_bytes() == whole.read_bytes()
    assert (state_dir / "closed.txt").read_bytes() == (straight / "closed.txt").read_bytes()
    assert state_files(state_dir) == ["closed.txt", "state_0004.txt"]


def test_a_refused_resume_keeps_an_older_state(handoff_stream, tmp_path, monkeypatch):
    state_dir = tmp_path / "state"
    die_online(handoff_stream, HANDOFF_PLAN, state_dir, "replaced", 4, monkeypatch)
    before = {name: (state_dir / name).read_bytes() for name in state_files(state_dir)}
    assert list(before) == ["closed.txt", "state_0003.txt", "state_0004.txt"]
    with pytest.raises(ConfigError, match="delta"):
        run_pipeline(handoff_stream, 5, 2, HANDOFF_PLAN, mode="online", state_dir=state_dir)
    assert {name: (state_dir / name).read_bytes() for name in state_files(state_dir)} == before


def test_state_files_past_cycle_9999_keep_only_the_newest(tmp_path):
    # 10,003 links of one pair in 10,002 online batches: state_10000.txt on
    # are found, so each cycle deletes the one before, and a rerun resumes
    # after the last cycle instead of running them all again
    stream = LinkStream((t, 1, 2) for t in range(10_003))
    plan = PartitionPlan("ut", 10_002)
    state_dir = tmp_path / "state"
    report = run_pipeline(stream, 4, 2, plan, mode="online", state_dir=state_dir)
    assert len(report.rows) == 10_002
    assert state_files(state_dir) == ["closed.txt", "state_10002.txt"]
    again = run_pipeline(stream, 4, 2, plan, mode="online", state_dir=state_dir)
    assert again.rows == [] and again.final == report.final


def test_resume_refuses_a_closed_file_that_does_not_match(handoff_stream, tmp_path, capsys):
    state_dir = tmp_path / "state"
    prefill_state_dir(handoff_stream, 4, 2, HANDOFF_PLAN, state_dir, 3)
    closed = state_dir / "closed.txt"
    text = closed.read_text()
    lines = text.splitlines(keepends=True)
    assert len(lines) == 3
    for bad, message in (
        ("".join(lines[:-1]), "fewer than the 3 counted lines"),
        (text[:-1], "fewer than the 3 counted lines"),  # the last counted line is torn
        ("1,2 [0,1]\n" + "".join(lines[1:]), "does not match the state's closed digest"),
        ("".join(lines[::-1]), "does not match the state's closed digest"),
        ("1,2 [0,01]\n" + "".join(lines[1:]), "closed.txt line 1"),
        (lines[0] + lines[1].rstrip("\n") + " \n" + lines[2], "closed.txt line 2"),
        (None, "fewer than the 3 counted lines"),
    ):
        if bad is None:
            closed.unlink()
        else:
            closed.write_text(bad)
        with pytest.raises(StateError, match=message):
            run_pipeline(
                handoff_stream, 4, 2, HANDOFF_PLAN, mode="online", state_dir=state_dir
            )
    closed.write_text(text[:-1])
    argv = HANDOFF_ONLINE + ["--input", str(DATA_DIR / "handoff.txt"), "--state-dir", str(state_dir)]
    assert main(argv) == 2
    assert "closed.txt has fewer than" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bogus",
    [
        "1,4 [2,3]",  # vertices 1 and 4 never link
        "3,4 [1,8]",  # valid, but strictly inside the closed clique 3,4 [1,9]
    ],
    ids=["not-a-clique", "contained"],
)
def test_cli_resume_exits_3_when_a_closed_clique_fails_certification(
    bogus, handoff_stream, tmp_path, capsys
):
    """A clique slipped into closed.txt, with the state's count and digest
    forged to match, is refused by finalize's certification: one that is not
    a (delta,gamma)-clique, and a valid one that another closed clique
    contains. Closed cliques pass to certification as they are, so the
    contained one is not dropped silently."""
    state_dir = tmp_path / "state"
    prefill_state_dir(handoff_stream, 4, 2, HANDOFF_PLAN, state_dir, 2)
    path = state_dir / "state_0002.txt"
    with open(path, encoding="utf-8") as fh:
        state = load_state(fh)
    closed_lines = (state_dir / "closed.txt").read_text().splitlines()
    if bogus == "3,4 [1,8]":
        assert "3,4 [1,9]" in closed_lines
        assert is_delta_gamma_clique((3, 4), (1, 8), handoff_stream, 4, 2)
    assert bogus not in closed_lines
    with open(state_dir / "closed.txt", "a", encoding="utf-8") as fh:
        fh.write(bogus + "\n")
    forged = dataclasses.replace(
        state,
        closed=state.closed + 1,
        closed_digest=chain_closed_digest(state.closed_digest, [bogus]),
    )
    path.write_text(dump_state(forged))
    argv = HANDOFF_ONLINE + ["--input", str(DATA_DIR / "handoff.txt"), "--state-dir", str(state_dir)]
    assert main(argv) == 3
    assert f"verification failed: {bogus} failed certification" in capsys.readouterr().err


@pytest.mark.parametrize(
    "forged",
    [
        "98,99 [1,11]",  # the pair never links
        "1,3 [10,11]",  # one link, at 12, up to the right move's end: gamma is 2
    ],
)
def test_cli_resume_exits_3_when_a_forged_frontier_clique_fails_certification(
    forged, handoff_stream, tmp_path, capsys
):
    """A frontier clique that is not a (delta,gamma)-clique, put into a
    re-signed state, is carried right by the resumed cycle without a lookup
    or index error and then refused by finalize's certification."""
    state_dir = tmp_path / "state"
    prefill_state_dir(handoff_stream, 4, 2, HANDOFF_PLAN, state_dir, 2)
    path = state_dir / "state_0002.txt"
    with open(path, encoding="utf-8") as fh:
        state = load_state(fh)
    clique = parse_clique(forged)
    assert clique not in state.frontier and clique.tb == state.t_boundary
    path.write_text(dump_state(dataclasses.replace(state, frontier=state.frontier | {clique})))
    argv = HANDOFF_ONLINE + ["--input", str(DATA_DIR / "handoff.txt"), "--state-dir", str(state_dir)]
    assert main(argv) == 3
    assert f"verification failed: {forged} failed certification" in capsys.readouterr().err


@pytest.mark.slow
def test_partitions_agree_on_a_group_contact_stream(tmp_path):
    """Offline, ut and ulc batches, and an interrupted online run give the
    same bytes on a 4.6k-link stream whose vertices sit in 44 to 189 final
    cliques each (long posting lists), far beyond the oracle corpus's sizes."""
    stream = group_contact_stream(seed=2024, n_meetings=110)
    assert 3_000 <= stream.n_links <= 5_000
    delta, gamma = 360, 2
    whole = render_result(run_pipeline(stream, delta, gamma, PartitionPlan("ut", 1)).final)
    assert whole.count("\n") > 500
    for plan in (PartitionPlan("ut", 8), PartitionPlan("ulc", 8)):
        report = run_pipeline(stream, delta, gamma, plan)
        assert len(report.rows) == 8
        assert render_result(report.final) == whole, plan

    plan = PartitionPlan("ut", 8)
    state_dir = tmp_path / "state"
    prefill_state_dir(stream, delta, gamma, plan, state_dir, 4)  # interrupted
    resumed = run_pipeline(stream, delta, gamma, plan, mode="online", state_dir=state_dir)
    assert [row.cycle for row in resumed.rows] == [5, 6, 7, 8]
    assert render_result(resumed.final) == whole


@pytest.mark.slow
def test_partitions_agree_on_a_20k_link_group_contact_stream(tmp_path):
    """One batch, a random explicit plan of up to 8 batches, and the same
    plan run online, interrupted halfway and resumed, give the same bytes on
    a 20k-link stream, the size of the benchmark's offline workload."""
    stream = group_contact_stream(seed=2025, n_meetings=500)
    assert 18_000 <= stream.n_links <= 22_000
    delta, gamma = 360, 2
    whole = render_result(run_pipeline(stream, delta, gamma, PartitionPlan("ut", 1)).final)
    assert whole.count("\n") > 3_000
    boundaries = random_boundaries(stream, random.Random(2025), 8)
    plan = PartitionPlan("explicit", boundaries=boundaries)
    assert render_result(run_pipeline(stream, delta, gamma, plan).final) == whole

    k, done = len(boundaries), len(boundaries) // 2
    state_dir = tmp_path / "state"
    prefill_state_dir(stream, delta, gamma, plan, state_dir, done)  # interrupted
    resumed = run_pipeline(stream, delta, gamma, plan, mode="online", state_dir=state_dir)
    assert [row.cycle for row in resumed.rows] == list(range(done + 1, k + 1))
    assert render_result(resumed.final) == whole


@pytest.mark.slow
def test_short_batches_agree_with_one_batch():
    """Batches shorter than delta, the regime of the frontier prune and the
    seed filter: 600 random streams (delta 1-8, gamma 1-3) give the same
    result in one batch, in one batch per tick from the first link to the
    last, and under a random explicit plan of up to 8 batches."""
    for seed in range(600):
        stream = random_stream(50_000 + seed)
        rng = random.Random(seed)
        delta, gamma = rng.randint(1, 8), rng.randint(1, 3)
        t_min, t_max, _ = stream.time_bounds()
        whole = run_pipeline(stream, delta, gamma, PartitionPlan("ut", 1)).final
        for boundaries in (
            tuple(range(t_min, t_max + 1)),
            random_boundaries(stream, rng, 8),
        ):
            plan = PartitionPlan("explicit", boundaries=boundaries)
            final = run_pipeline(stream, delta, gamma, plan).final
            assert final == whole, (seed, delta, gamma, boundaries)


def test_online_mode_needs_state_dir(handoff_stream):
    with pytest.raises(ConfigError):
        run_pipeline(handoff_stream, 4, 2, PartitionPlan("ut", 2), mode="online")


def test_report_rows_are_consistent(handoff_stream, tmp_path):
    report_path = tmp_path / "report.csv"
    out_path = tmp_path / "result.txt"
    run_pipeline(
        handoff_stream, 4, 2, PartitionPlan("ut", 2),
        out_path=out_path, report_path=report_path,
    )
    with open(report_path, newline="") as fh:
        assert fh.readline() == (
            "cycle,t_boundary,batch_links,maximal,frontier,new_cliques,checked,"
            "peak_live,pair_checks,seeds,wall_seconds,peak_rss_kb\r\n"
        )
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert [r["cycle"] for r in rows[:-1]] == ["1", "2"]
    assert rows[-1]["cycle"] == "final"
    lines = [l for l in out_path.read_text().splitlines() if l]
    assert int(rows[-1]["maximal"]) == len(lines)
    for r in rows[:-1]:
        for col in ("batch_links", "maximal", "frontier", "new_cliques", "checked", "peak_live"):
            assert int(r[col]) >= 0
        assert float(r["wall_seconds"]) >= 0


def test_report_pair_checks_are_the_cycle_counters(handoff_stream, tmp_path, monkeypatch):
    cycle_worksets = []
    real_drain = tclique.update.drain

    def recording_drain(worksets, roots):
        real_drain(worksets, roots)
        if not cycle_worksets or cycle_worksets[-1] is not worksets:
            cycle_worksets.append(worksets)

    monkeypatch.setattr(tclique.update, "drain", recording_drain)
    report_path = tmp_path / "report.csv"
    run_pipeline(handoff_stream, 4, 2, PartitionPlan("ut", 2), report_path=report_path)
    with open(report_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    column = [int(r["pair_checks"]) for r in rows[:-1]]
    assert column == [ws.pair_checks for ws in cycle_worksets]
    assert sum(column) > 0
    assert rows[-1]["pair_checks"] == ""


def test_report_seeds_are_the_cycle_counters(handoff_stream, tmp_path, monkeypatch):
    # the column counts the seeds drained, every seed seed_cliques returns;
    # past the first cycle that can be fewer than the working stream holds
    # (in five batches, the third and fifth cycles skip one each)
    drained, unfiltered = [], []
    real_seed_cliques = tclique.update.seed_cliques

    def recording_seed_cliques(stream, delta, gamma, t_prev):
        seeds = real_seed_cliques(stream, delta, gamma, t_prev)
        drained.append(len(seeds))
        every = real_seed_cliques(stream, delta, gamma, stream.t_start - 1)
        unfiltered.append(len(every))
        return seeds

    monkeypatch.setattr(tclique.update, "seed_cliques", recording_seed_cliques)
    report_path = tmp_path / "report.csv"
    run_pipeline(handoff_stream, 4, 2, PartitionPlan("ut", 5), report_path=report_path)
    with open(report_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    column = [int(r["seeds"]) for r in rows[:-1]]
    assert column == drained
    assert column[0] == unfiltered[0]  # the first cycle keeps every seed
    assert all(pushed <= n for pushed, n in zip(column, unfiltered))
    assert column != unfiltered  # a later cycle skipped a seed behind its boundary
    assert rows[-1]["seeds"] == ""


def test_one_batch_memory_stays_near_eight_batches(monkeypatch):
    # at k=1 every seed waits for drain at once; a seed's candidates are a
    # small tuple, each worked root leaves the list, and the input digest
    # reads its text a chunk at a time, so run_pipeline's tracemalloc peak
    # stays within 2.3 times its peak at k=8: it reads 1.9, and 2.6 with
    # frozenset candidates and every root kept to the end of the drain
    stream = group_contact_stream(seed=7, n_meetings=220)
    left = []
    real_drain = tclique.update.drain

    def recording_drain(worksets, roots):
        real_drain(worksets, roots)
        left.append(len(roots))

    monkeypatch.setattr(tclique.update, "drain", recording_drain)
    one, eight = (
        traced_peak(run_pipeline, stream, 360, 2, PartitionPlan("ut", k)) for k in (1, 8)
    )
    assert one <= 2.3 * eight, (one, eight)
    assert left == [0] * 18  # drain pops every root: two drains a cycle


def test_result_file_round_trip(handoff_stream, tmp_path):
    final = enumerate_maximal_cliques(handoff_stream, 4, 2)
    text = render_result(final)
    again = load_result(io.StringIO(text))
    assert set(again) == set(final)
    assert render_result(again) == text


def test_load_result_accepts_only_what_render_result_writes():
    text = "1,2 [1,5]\n2,3 [4,5]\n"
    assert render_result(load_result(io.StringIO(text))) == text
    assert load_result(io.StringIO("")) == []
    for at, bad in (
        (1, "  2,3 [4,5]\n\n1,2 [1,5]  \n"),  # padded, a blank line, unsorted
        (1, "2,3 [4,5]\n1,2 [1,5]\n"),  # unsorted
        (2, "1,2 [1,5]\n\n2,3 [4,5]\n"),  # a blank line
        (2, "1,2 [1,5]\n2,3 [4,5]"),  # no final newline
        (2, "1,2 [1,5]\n1,2 [1,5]\n"),  # a repeat
        (1, "1,2 [1,5]\r\n"),
    ):
        with pytest.raises(ValueError, match=f"^result line {at}\\b"):
            load_result(io.StringIO(bad))


def test_empty_stream_yields_empty_result():
    empty = LinkStream([], observation=(0, 9))
    assert enumerate_maximal_cliques(empty, 3, 1) == []


def test_stats_maximum_cliques_examples():
    wide = make_clique([1, 2], 0, 9)
    big = make_clique([1, 2, 3], 2, 5)
    temporal, cardinal = stats_maximum_cliques([wide, big])
    assert temporal == [wide] and cardinal == [big]
    only = make_clique([1, 2], 1, 3)
    assert stats_maximum_cliques([only]) == ([only], [only])
    tie_a = make_clique([1, 2], 0, 5)
    tie_b = make_clique([3, 4], 2, 7)
    temporal, _ = stats_maximum_cliques([tie_a, tie_b])
    assert temporal == [tie_a, tie_b]
    with pytest.raises(ValueError):
        stats_maximum_cliques([])


def test_verification_flags_mismatches(f1_stream):
    good = enumerate_maximal_cliques(f1_stream, 3, 2)
    assert verify_against_oracle(f1_stream, 3, 2, good) == 3
    with pytest.raises(VerificationError, match="missing"):
        verify_against_oracle(f1_stream, 3, 2, good[:-1])
    doctored = good + [make_clique([1, 2], 1, 2)]
    with pytest.raises(VerificationError, match="spurious"):
        verify_against_oracle(f1_stream, 3, 2, doctored)


# -- command line ------------------------------------------------------------------------


def test_cli_run_roundtrip(tmp_path, capsys):
    out = tmp_path / "result.txt"
    report = tmp_path / "report.csv"
    code = main([
        "run", "--input", str(DATA_DIR / "f1.txt"), "--format", "uvt",
        "--delta", "3", "--gamma", "2", "--scheme", "ut", "--partitions", "2",
        "--out", str(out), "--report", str(report), "--verify",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "verification passed" in printed
    assert "longest interval" in printed
    lines = [l for l in out.read_text().splitlines() if l]
    assert lines == ["1,2 [1,5]", "1,3 [1,5]", "1,2,3 [2,5]"]
    assert report.exists()


def test_cli_oracle_subcommand(tmp_path, capsys):
    out = tmp_path / "oracle.txt"
    code = main([
        "oracle", "--input", str(DATA_DIR / "f1.txt"), "--format", "uvt",
        "--delta", "3", "--gamma", "2", "--out", str(out),
    ])
    assert code == 0
    assert "3 maximal cliques" in capsys.readouterr().out
    assert [l for l in out.read_text().splitlines() if l] == [
        "1,2 [1,5]",
        "1,3 [1,5]",
        "1,2,3 [2,5]",
    ]


def test_cli_run_online_and_observation_override(tmp_path):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    base = [
        "run", "--input", str(DATA_DIR / "handoff.txt"), "--format", "uvt",
        "--delta", "4", "--gamma", "2", "--t-end", "21",
        "--scheme", "explicit", "--boundaries", "11",
    ]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + [
        "--out", str(out_b), "--mode", "online", "--state-dir", str(tmp_path / "st"),
    ]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert "1,2 [12,21]" in out_a.read_text().splitlines()


@pytest.mark.parametrize("window", [[], ["--t-end", "9"]])
def test_cli_run_counts_dropped_self_loops(tmp_path, capsys, window):
    links = tmp_path / "loops.txt"
    links.write_text("1 1 2\n2 1 2\n3 1 2\n1 2 2\n4 3 3\n5 1 2\n")
    code = main([
        "run", "--input", str(links), "--delta", "2", "--gamma", "1", *window,
    ])
    assert code == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith(", 2 self-loops dropped")
    assert main(["run", "--input", str(DATA_DIR / "f1.txt"), "--format", "uvt",
                 "--delta", "3", "--gamma", "2", *window]) == 0
    assert "self-loops" not in capsys.readouterr().out


def test_cli_run_builds_as_many_streams_with_a_window(monkeypatch, capsys):
    # --t-start/--t-end reach parse_links: one stream for the input and one
    # working stream for the one batch, with the window or without it
    built = []
    real_init = LinkStream.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(LinkStream, "__init__", counting_init)
    counts = []
    for window in ([], ["--t-end", "21"], ["--t-start", "0", "--t-end", "21"]):
        built.clear()
        assert main([
            "run", "--input", str(DATA_DIR / "handoff.txt"), "--format", "uvt",
            "--delta", "4", "--gamma", "2", *window,
        ]) == 0
        counts.append(len(built))
    assert counts == [2, 2, 2]
    assert "observation [0,21]" in capsys.readouterr().out


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    f1 = str(DATA_DIR / "f1.txt")
    assert main(["run", "--input", f1]) == 1  # missing --delta/--gamma
    assert main(["run", "--input", f1, "--delta", "3", "--gamma", "2",
                 "--mode", "online"]) == 1  # no --state-dir
    assert main(["run", "--input", f1, "--delta", "3", "--gamma", "2",
                 "--scheme", "explicit"]) == 1  # no --boundaries
    assert main(["run", "--input", f1, "--delta", "3", "--gamma", "2",
                 "--boundaries", "3"]) == 1  # boundaries without explicit scheme
    assert main(["run", "--input", f1, "--delta", "0", "--gamma", "2"]) == 1
    assert main(["run", "--input", f1, "--delta", "3", "--gamma", "2",
                 "--partitions", "0"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_cli_state_dir_needs_online_mode(tmp_path, capsys):
    # an offline run writes no state, so it could not be resumed from the
    # directory: naming one without --mode online is a usage error
    state_dir = tmp_path / "st"
    assert main(["run", "--input", str(DATA_DIR / "f1.txt"), "--format", "uvt",
                 "--delta", "3", "--gamma", "2", "--state-dir", str(state_dir)]) == 1
    assert "--state-dir only applies to --mode online" in capsys.readouterr().err
    assert not state_dir.exists()


def test_offline_run_refuses_a_state_dir(handoff_stream, tmp_path):
    # the library call refuses what the CLI refuses: an offline run writes
    # no state, so nothing could resume from the directory
    state_dir = tmp_path / "st"
    with pytest.raises(ConfigError, match="state directory needs online mode"):
        run_pipeline(handoff_stream, 4, 2, PartitionPlan("ut", 2), state_dir=state_dir)
    assert not state_dir.exists()


def test_a_run_leaves_the_input_stream_unchanged(tmp_path):
    # the stream is read-only once built: full offline and online passes,
    # finalize and certification included, and validity checks of their
    # results change none of its attributes
    stream = group_contact_stream(seed=7, n_meetings=40)
    delta, gamma = 360, 2
    before = copy.deepcopy(vars(stream))
    plan = PartitionPlan("ut", 4)
    final = run_pipeline(stream, delta, gamma, plan).final
    online = run_pipeline(
        stream, delta, gamma, plan, mode="online", state_dir=tmp_path / "st"
    ).final
    assert online == final and len(final) > 50
    assert all(
        is_delta_gamma_clique(c.vertices, (c.ta, c.tb), stream, delta, gamma)
        for c in final
    )
    assert vars(stream) == before


def test_cli_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["run", "--input", missing, "--delta", "3", "--gamma", "2"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 x\n")
    assert main(["run", "--input", str(bad), "--delta", "3", "--gamma", "2"]) == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert main(["run", "--input", str(empty), "--delta", "3", "--gamma", "2"]) == 2
    capsys.readouterr()
    # --t-start/--t-end only widen the observation: f1's links span [1,5]
    f1 = str(DATA_DIR / "f1.txt")
    assert main(["run", "--input", f1, "--format", "uvt", "--delta", "3",
                 "--gamma", "2", "--t-end", "3"]) == 2
    assert "observation [1,3] does not cover links [1,5]" in capsys.readouterr().err


def test_cli_verify_refuses_oversized_instances(tmp_path, capsys):
    big = tmp_path / "big.txt"
    lines = [f"{u} {u + 1} {t}" for u in range(1, 10) for t in (1, 2)]
    big.write_text("\n".join(lines) + "\n")
    code = main(["run", "--input", str(big), "--delta", "2", "--gamma", "1", "--verify"])
    assert code == 2
    assert "too large" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["run", "--help"]) == 0
    capsys.readouterr()


# -- scripts ------------------------------------------------------------------------------


def test_sweep_parameters_script_writes_its_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    done = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "scripts" / "sweep_parameters.py"),
            str(DATA_DIR / "handoff.txt"), "--deltas", "2", "4", "--gammas", "1", "2",
            "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["delta"], r["gamma"]) for r in rows] == [
        ("2", "1"), ("2", "2"), ("4", "1"), ("4", "2"),
    ]
    # the script reads the file with its own observation window, [1, 20]
    stream = load_fixture("handoff.txt")
    for r in rows:
        expected = enumerate_maximal_cliques(stream, int(r["delta"]), int(r["gamma"]))
        assert int(r["n_maximal"]) == len(expected)
        assert r["cycles"] == "1"
