"""Pipeline runs, persistence, reports, stats, the CLI, and the scripts."""

import csv
import io
import subprocess
import sys
from pathlib import Path

import pytest

import tclique.update
from tclique import (
    ConfigError,
    LinkStream,
    PartitionPlan,
    TemporalLink,
    VerificationError,
    enumerate_maximal_cliques,
    load_result,
    make_clique,
    render_result,
    run_pipeline,
    stats_maximum_cliques,
    verify_against_oracle,
)
from tclique.cli import main
from conftest import DATA_DIR, load_fixture
from helpers import group_contact_stream, prefill_state_dir, state_files

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
    assert state_files(tmp_path / "state") == ["state_0002.txt"]


def test_online_run_keeps_only_the_newest_state_file(handoff_stream, tmp_path):
    state_dir = tmp_path / "state"
    report = run_pipeline(
        handoff_stream, 4, 2, PartitionPlan("ut", 6),
        mode="online", state_dir=state_dir,
    )
    k = len(report.rows)
    assert k > 2
    assert state_files(state_dir) == [f"state_{k:04d}.txt"]
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
    assert state_files(state_dir) == ["state_0004.txt"]


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

    def recording_drain(worksets, t_start, frontier_threshold):
        real_drain(worksets, t_start, frontier_threshold)
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


def test_result_file_round_trip(handoff_stream, tmp_path):
    final = enumerate_maximal_cliques(handoff_stream, 4, 2)
    text = render_result(final)
    again = load_result(io.StringIO(text))
    assert {c.key() for c in again} == {c.key() for c in final}
    assert render_result(again) == text


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
