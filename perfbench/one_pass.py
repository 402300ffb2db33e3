"""One measured pass of a workload, run in a fresh process.

    python3 perfbench/one_pass.py --workload NAME --links FILE --dir DIR [--trace]

The pass parses the link file, then hands the stream to `run_pipeline` with
the workload's partition and mode, writing the result (and, online, the state
files) under DIR. Before the pass the set-up (parse and split) is repeated
SETUP_REPS times on its own. The last line of standard output is a JSON
record of the pass; see `run.py` for how passes become metrics.

Without --trace only `update_batch` and `finalize` are wrapped, where
`run_pipeline` looks them up, to cut the pass into batches and finalize. With
--trace every layer named in `layer_tracer` is wrapped as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tclique.linkstream  # noqa: E402
import tclique.partition  # noqa: E402
import tclique.pipeline  # noqa: E402
import tclique.update  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
PROBE_LOOPS = 5_000
PROBE_EVERY_S = 0.05


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_EVERY_S seconds while the
    pass runs, from a SIGALRM handler in the main thread.

    The machine's speed drifts by tens of percent within a minute; the mean
    probe time around an interval measures the speed it ran at (README,
    "Noise"). The probe takes about 0.5% of the pass.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, seconds)

    def _tick(self, _signum, _frame) -> None:
        begin = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i & 7
        self.samples.append((begin, time.perf_counter() - begin))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, begin: float, end: float, at_least: int = 20) -> list[float]:
        """[seconds, mean probe ms] of an interval; the probe mean is taken
        over the samples inside it, or the `at_least` nearest ones."""
        inside = [d for t, d in self.samples if begin <= t <= end]
        if len(inside) < at_least:
            mid = (begin + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:at_least]]
        return [end - begin, 1000.0 * sum(inside) / len(inside)]


def _seen_size(args: tuple):
    seen = getattr(args[0], "seen", None)
    return None if seen is None else len(seen)


def _drain_after(args: tuple, _result, seen_before) -> dict:
    worksets = args[0]
    seen_after = _seen_size(args)
    return {
        "gained": None if seen_before is None else seen_after - seen_before,
        "peak_live": getattr(worksets, "peak_live", None),
    }


def _cycle_after(_args: tuple, result, _token) -> dict:
    state = result[0]
    return {
        "frontier": len(getattr(state, "frontier", {})),
        "maximal": len(getattr(state, "maximal", {})),
    }


def layer_tracer() -> Tracer:
    """Wrap every layer of the traced run where its caller looks it up."""
    tr = Tracer()
    tr.span("tclique.linkstream", "parse_links", "linkstream.parse_links")
    tr.span("tclique.pipeline", "run_pipeline", "pipeline.run_pipeline")
    tr.span("tclique.pipeline", "partition_links", "partition.partition_links")
    tr.span("tclique.pipeline", "update_batch", "update.update_batch",
            after=_cycle_after)
    tr.span("tclique.update", "seed_cliques", "expand.seed_cliques",
            after=lambda a, r, t: {"seeds": len(r)})
    tr.span("tclique.update", "drain", "expand.drain",
            before=_seen_size, after=_drain_after)
    tr.span("tclique.update", "remove_sub_cliques", "update.remove_sub_cliques",
            after=lambda a, r, t: {"checked": r})
    tr.span("tclique.pipeline", "save_state", "update.save_state")
    tr.span("tclique.pipeline", "finalize", "update.finalize")
    tr.span("tclique.update", "normalize_final", "update.normalize_final")
    tr.count("tclique.update", "contains", "cliques.contains")
    tr.count("tclique.update", "is_delta_gamma_clique", "cliques.is_delta_gamma_clique")
    tr.count("tclique.expand", "is_delta_gamma_clique", "cliques.is_delta_gamma_clique")
    return tr


def end_to_end_tracer() -> Tracer:
    tr = Tracer()
    tr.span("tclique.pipeline", "update_batch", "update.update_batch")
    tr.span("tclique.pipeline", "finalize", "update.finalize")
    return tr


def set_up(links: Path, plan) -> tuple[float, float]:
    begin = time.perf_counter()
    with open(links, encoding="utf-8") as fh:
        stream = tclique.linkstream.parse_links(fh)
    tclique.partition.partition_links(stream, plan)
    return begin, time.perf_counter()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--links", required=True, type=Path)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--offline-reference", action="store_true",
                    help="run the stream offline in one batch instead")
    args = ap.parse_args()

    w = WORKLOADS[args.workload]
    batches, mode = (1, "offline") if args.offline_reference else (w.batches, w.mode)
    plan = tclique.partition.PartitionPlan("ut", batches)
    args.dir.mkdir(parents=True, exist_ok=True)
    state_dir = args.dir / "states"
    result_path = args.dir / "result.txt"

    # Times are recorded as [seconds, probe ms] (SpeedProbe.timed).
    record: dict = {"ops_total": batches + 1}
    with SpeedProbe() as probe:
        setups = [set_up(args.links, plan) for _ in range(SETUP_REPS)]
        tracer = layer_tracer() if args.trace else end_to_end_tracer()
        begin = time.perf_counter()
        try:
            with open(args.links, encoding="utf-8") as fh:
                stream = tclique.linkstream.parse_links(fh)
            report = tclique.pipeline.run_pipeline(
                stream, w.delta, w.gamma, plan, mode=mode,
                state_dir=state_dir if mode == "online" else None,
                out_path=result_path,
            )
            record["ok"] = report.completed
        except Exception as exc:  # a failing operation is counted, not fatal
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        tracer.uninstall()
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["setup"] = [probe.timed(*iv) for iv in setups]
    record["wall"] = probe.timed(begin, end)

    spans = tracer.spans
    cycles = [s for s in spans if s["name"] == "update.update_batch"]
    finals = [s for s in spans if s["name"] == "update.finalize"]
    record["ops_done"] = sum(not s.get("failed") for s in cycles + finals)
    if record["ok"]:
        starts = [s["start"] for s in cycles] + [finals[0]["start"]]
        record["batches"] = [probe.timed(a, b) for a, b in zip(starts, starts[1:])]
        record["update"] = probe.timed(starts[0], starts[-1])
        record["final"] = probe.timed(finals[0]["start"], finals[0]["end"])
        body = result_path.read_bytes()
        record["result_sha256"] = hashlib.sha256(body).hexdigest()
        record["n_cliques"] = body.count(b"\n")
        # The state left at the end: the online state directory, or the
        # closing state an offline run holds, written once here.
        if mode == "online":
            record["state_bytes"] = dir_bytes(state_dir)
            last_state = max(state_dir.glob("state_*.txt"), default=None)
        else:
            last_state = args.dir / "closing_state.txt"
            with open(last_state, "w", encoding="utf-8") as fh:
                tclique.update.save_state(report.state, fh)
            record["state_bytes"] = last_state.stat().st_size
        if args.trace:
            record["trace"] = summarize(tracer, last_state, report, args.dir)
    print(json.dumps(record))
    return 0


def summarize(tr: Tracer, last_state, report, out_dir: Path) -> dict:
    """Per-layer figures of one traced pass (see README for the map)."""
    own = tr.self_times()
    by_name: dict[str, list[dict]] = {}
    for s in tr.spans:
        by_name.setdefault(s["name"], []).append(s)

    absent = tr.absent

    def total(name: str, self_time: bool = False):
        if name in absent:
            return None
        return sum(own[s["id"]] if self_time else s["end"] - s["start"]
                   for s in by_name.get(name, []))

    def count(name: str):
        return None if name in absent else tr.counts[name]

    phase = {0: 0.0, 1: 0.0}
    enqueued: int | None = 0
    peak_live = 0
    for cycle in by_name.get("update.update_batch", []):
        drains = [s for s in by_name.get("expand.drain", [])
                  if s["parent"] == cycle["id"]]
        for i, s in enumerate(drains[:2]):
            phase[i] += s["end"] - s["start"]
        for s in drains:
            if s.get("gained") is None:  # WorkSets keeps no `seen` set
                enqueued = None
            elif enqueued is not None:
                enqueued += s["gained"]
            peak_live = max(peak_live, s.get("peak_live") or 0)
    cycles = by_name.get("update.update_batch", [])
    run = by_name.get("pipeline.run_pipeline", [])
    finals = by_name.get("update.finalize", [])
    n_results = len(report.final or ())

    load_s = None
    if last_state is not None and hasattr(tclique.update, "load_state"):
        begin = time.perf_counter()
        with open(last_state, encoding="utf-8") as fh:
            tclique.update.load_state(fh)
        load_s = time.perf_counter() - begin

    tr.write_jsonl(out_dir / "spans.jsonl")
    drain_absent = "expand.drain" in absent
    return {
        "linkstream.parse_s": total("linkstream.parse_links"),
        "partition.split_s": total("partition.partition_links"),
        "expand.seed_s": total("expand.seed_cliques"),
        "expand.seeds": sum(s.get("seeds", 0) for s in by_name.get("expand.seed_cliques", [])),
        "expand.phase_a_s": None if drain_absent else phase[0],
        "expand.phase_b_s": None if drain_absent else phase[1],
        "expand.enqueued": None if drain_absent else enqueued,
        "expand.enqueued_per_result": None if drain_absent or enqueued is None
        or not n_results else enqueued / n_results,
        "expand.peak_live": None if drain_absent else peak_live,
        "update.cycle_self_s": total("update.update_batch", self_time=True),
        "update.sweep_s": total("update.remove_sub_cliques"),
        "update.sweep_checked": sum(s.get("checked") or 0
                                    for s in by_name.get("update.remove_sub_cliques", [])),
        "update.frontier_max": max((s.get("frontier", 0) for s in cycles), default=0),
        "update.maximal_last": cycles[-1].get("maximal", 0) if cycles else 0,
        "update.save_s": total("update.save_state"),
        "update.state_bytes_last": last_state.stat().st_size if last_state else 0,
        "update.load_s": load_s,
        "update.normalize_s": total("update.normalize_final"),
        "update.certify_s": total("update.finalize", self_time=True),
        "cliques.contains_calls": count("cliques.contains"),
        "cliques.validity_calls": count("cliques.is_delta_gamma_clique"),
        "pipeline.result_write_s": run[-1]["end"] - finals[-1]["end"]
        if run and finals else None,
        "pipeline.final_cliques": n_results,
        "absent": absent,
    }


if __name__ == "__main__":
    sys.exit(main())
