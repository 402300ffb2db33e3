"""Reference result digests: one untimed pass per workload and seed.

    python3 perfbench/digests.py --seeds 1 2

Prints `workload seed links cliques sha256` per line, where sha256 is taken
over the result file `tclique` writes. A change that must not alter a single
result byte reproduces the table in README.md.
"""

from __future__ import annotations

import argparse
import shutil

from run import OUT, run_pass
from workloads import WORKLOADS, generate_links, render_links


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args()
    work = OUT / "digests"
    for name, w in WORKLOADS.items():
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            links = generate_links(w.model, w.n_links, seed)
            (work / "links.txt").write_text(render_links(links))
            rec = run_pass(name, work / "links.txt", work / "pass", 600)
            print(name, seed, len(links), rec["n_cliques"], rec["result_sha256"])
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
