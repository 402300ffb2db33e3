"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload contact20k-k1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run writes the workload's link file
from the seed, then measures whole passes, each in a fresh process (see
one_pass.py), for about --seconds. With --trace 1 every measured pass is
paired with a traced pass and the per-layer metrics are reported instead.
The result is checked outside the timed region by check.py. Every metric is
printed by name and unit; the last line of standard output is the JSON
summary. Files go to .perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check, read_links, read_result  # noqa: E402
from workloads import WORKLOADS, generate_links, render_links  # noqa: E402

OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3  # a median of at least three passes; a traced run needs one
RUN_LIMIT_S = 170  # every run ends well within 180 s, checks included
# Nominal speed that times are rescaled to: ms per run of the speed probe's
# loop in one_pass.py.
REFERENCE_PROBE_MS = 0.30

END_TO_END = {
    "setup_s": "s",
    "update_s": "s",
    "batch_p50_s": "s",
    "batch_p90_s": "s",
    "final_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "state_kb": "KB",
}

PER_LAYER = {
    "linkstream.parse_s": "s",
    "partition.split_s": "s",
    "expand.seed_s": "s",
    "expand.seeds": "count",
    "expand.phase_a_s": "s",
    "expand.phase_b_s": "s",
    "expand.enqueued": "count",
    "expand.enqueued_per_result": "keys/clique",
    "expand.peak_live": "count",
    "update.cycle_self_s": "s",
    "update.sweep_s": "s",
    "update.sweep_checked": "count",
    "update.frontier_max": "count",
    "update.maximal_last": "count",
    "update.save_s": "s",
    "update.state_bytes_last": "bytes",
    "update.load_s": "s",
    "update.normalize_s": "s",
    "update.certify_s": "s",
    "cliques.contains_calls": "count",
    "cliques.validity_calls": "count",
    "pipeline.result_write_s": "s",
    "pipeline.final_cliques": "count",
    "trace.overhead_pct": "%",
}


class PassFailed(Exception):
    pass


def run_pass(workload: str, links: Path, pass_dir: Path, timeout: float,
             *flags: str) -> dict:
    """One pass in a fresh process; its JSON record."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--links", str(links), "--dir", str(pass_dir), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def quantile(values: list[float], q: int, n: int) -> float:
    """The q-th of the n-quantiles, interpolated within the values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


def rescale(timed: list[float]) -> float:
    """Seconds at the reference probe speed (see README, "Noise")."""
    seconds, probe_ms = timed
    return seconds * REFERENCE_PROBE_MS / probe_ms


def end_to_end(passes: list[dict], scale=rescale) -> dict[str, float]:
    """Medians over the passes of a run; batch latencies pooled."""
    med = statistics.median
    batches = [scale(b) for p in passes for b in p["batches"]]
    return {
        "setup_s": med(scale(s) for p in passes for s in p["setup"]),
        "update_s": med(scale(p["update"]) for p in passes),
        "batch_p50_s": quantile(batches, 1, 2),
        "batch_p90_s": quantile(batches, 9, 10),
        "final_s": med(scale(p["final"]) for p in passes),
        "wall_s": med(scale(p["wall"]) for p in passes),
        "peak_rss_mb": med(p["rss_kb"] / 1024 for p in passes),
        "state_kb": med(p["state_bytes"] / 1024 for p in passes),
    }


def as_measured(timed: list[float]) -> float:
    return timed[0]


def per_layer(pairs: list[tuple[dict, dict]]) -> dict[str, float | None]:
    """Medians over the traced passes; overhead against the paired untraced."""
    out: dict[str, float | None] = {}
    for name in PER_LAYER:
        if name == "trace.overhead_pct":
            continue
        values = [t["trace"][name] for _, t in pairs]
        out[name] = None if None in values else statistics.median(values)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(rescale(t["wall"]) for _, t in pairs)
        / statistics.median(rescale(u["wall"]) for u, _ in pairs) - 1.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()

    if not (ROOT / "src" / "tclique").is_dir():
        print(f"no tclique sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out = OUT / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    links = out / "links.txt"
    links.write_text(render_links(generate_links(w.model, w.n_links, args.seed)))

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - began)

    # Measure whole passes until the next one would end past --seconds. A
    # traced run pairs each untraced pass with a traced one.
    kinds = ((), ("--trace",)) if args.trace else ((),)
    rounds: list[tuple[dict, ...]] = []
    errors: list[str] = []
    ops_attempted = ops_failed = 0
    measuring = time.perf_counter()
    while True:
        round_ = []
        for extra in kinds:
            pass_dir = out / f"pass{len(rounds)}{'t' if extra else ''}"
            try:
                rec = run_pass(w.name, links, pass_dir, left(), *extra)
            except PassFailed as exc:
                rec = {"ok": False, "ops_total": w.batches + 1, "ops_done": 0,
                       "error": str(exc)}
            rec["dir"] = str(pass_dir)
            ops_attempted += rec["ops_total"]
            ops_failed += rec["ops_total"] - rec["ops_done"]
            if not rec["ok"]:
                errors.append(rec.get("error", "pass did not complete"))
            round_.append(rec)
        rounds.append(tuple(round_))
        spent = time.perf_counter() - measuring
        per_round = spent / len(rounds)
        enough = len(rounds) >= (1 if args.trace else MIN_PASSES)
        if errors or (enough and spent + per_round > args.seconds):
            break
        if left() < 2 * per_round + 10:
            break

    # A failed operation is counted in "failed"; the figures and the checks
    # cover the rounds that completed.
    rounds = [r for r in rounds if all(rec["ok"] for rec in r)]
    passes = [r[0] for r in rounds]
    correct = bool(rounds) and verify(
        w, links, out, [rec for r in rounds for rec in r], left())
    if correct:
        (Path(passes[0]["dir"]) / "result.txt").replace(out / "result.txt")
    if args.trace and rounds:
        (Path(rounds[0][1]["dir"]) / "spans.jsonl").replace(out / "spans.jsonl")
    for pass_dir in out.glob("pass*"):
        shutil.rmtree(pass_dir, ignore_errors=True)

    metrics: dict[str, float | None] = {}
    units = PER_LAYER if args.trace else END_TO_END
    if rounds:
        metrics = per_layer(rounds) if args.trace else end_to_end(passes)
        print(f"# {w.name} seed {args.seed}: rounds {len(rounds)}, as measured "
              f"{json.dumps(end_to_end(passes, as_measured))}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:32s} {metrics.get(name)} {unit}")
    if args.trace and rounds and rounds[0][1]["trace"]["absent"]:
        print("absent layers: " + ", ".join(rounds[0][1]["trace"]["absent"]),
              file=sys.stderr)
    for err in errors:
        print(f"failed: {err}", file=sys.stderr)
    summary = {
        "correct": correct,
        "attempted": ops_attempted,
        "failed": ops_failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


def verify(w, links: Path, out: Path, passes: list[dict], time_left: float) -> bool:
    """Outside the timed region: one result over all passes, accepted by the
    independent checker and, online, equal to an offline run of the stream."""
    digests = {p["result_sha256"] for p in passes}
    if len(digests) != 1:
        print(f"passes disagree: {len(digests)} distinct results", file=sys.stderr)
        return False
    result = Path(passes[0]["dir"]) / "result.txt"
    problems = check(read_links(links), read_result(result), w.delta, w.gamma)
    for line in problems[:10]:
        print(f"check: {line}", file=sys.stderr)
    if problems:
        return False
    if w.mode == "online":
        ref_dir = out / "offline_reference"
        try:
            run_pass(w.name, links, ref_dir, time_left, "--offline-reference")
        except PassFailed as exc:
            print(f"offline reference run failed: {exc}", file=sys.stderr)
            return False
        if set(result.read_text().splitlines()) != set(
                (ref_dir / "result.txt").read_text().splitlines()):
            print("online result differs from the offline run", file=sys.stderr)
            return False
        shutil.rmtree(ref_dir, ignore_errors=True)
    return True


if __name__ == "__main__":
    sys.exit(main())
