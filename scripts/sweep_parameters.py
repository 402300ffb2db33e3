#!/usr/bin/env python3
"""Parameter sweep: run the incremental enumerator over a (delta, gamma) grid
on one link file and tabulate result sizes and runtimes.

Produces a CSV with one row per grid cell:
  delta,gamma,n_maximal,longest_span,largest_vertex_set,cycles,wall_seconds

Example:
  python3 scripts/sweep_parameters.py tests/data/handoff.txt \
      --deltas 2 4 8 --gammas 1 2 3 --partitions 4 --out sweep.csv
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tclique import (
    FormatSpec,
    PartitionPlan,
    parse_links,
    run_pipeline,
    stats_maximum_cliques,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="link file (u v t per line)")
    parser.add_argument("--format", default="uvt", choices=("uvt", "tuv"))
    parser.add_argument("--deltas", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--gammas", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--partitions", type=int, default=1,
                        help="uniform-time batches per run (default 1 = offline)")
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    with open(args.input, "r", encoding="utf-8") as fh:
        stream = parse_links(fh, FormatSpec(column_order=args.format))
    print(f"loaded {stream.n_links} links, {len(stream.vertices)} vertices, "
          f"observation {stream.observation}")

    plan = PartitionPlan("ut", args.partitions)
    rows = []
    for delta in args.deltas:
        for gamma in args.gammas:
            t0 = time.perf_counter()
            report = run_pipeline(stream, delta, gamma, plan)
            wall = time.perf_counter() - t0
            final = report.final
            if final:
                temporal, cardinal = stats_maximum_cliques(final)
                longest = temporal[0].tb - temporal[0].ta
                largest = len(cardinal[0].vertices)
            else:
                longest = largest = 0
            rows.append({
                "delta": delta,
                "gamma": gamma,
                "n_maximal": len(final),
                "longest_span": longest,
                "largest_vertex_set": largest,
                "cycles": len(report.rows),
                "wall_seconds": f"{wall:.4f}",
            })
            print(f"delta={delta:4d} gamma={gamma:2d}  "
                  f"maximal={len(final):6d}  span<= {longest:5d}  "
                  f"|Z|<= {largest:2d}  {wall:8.3f}s")

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
