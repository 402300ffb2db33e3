"""Independent check of a result file against the link file it came from.

Written apart from `tclique`: it imports nothing from the program and works
from the two text files alone. A result is accepted when

- every clique is a (delta, gamma)-clique by the definition: for every tau in
  [ta, max(tb-delta, ta)] each pair has at least gamma links in
  [tau, min(tau+delta, tb)];
- no clique grows by one step: one tick left or right inside the observation
  window [first link, last link], or one more vertex;
- no clique contains another (and none is listed twice);
- every maximal valid interval of every single pair lies inside some clique
  that holds the pair.

    python3 perfbench/check.py LINKS RESULT --delta 360 --gamma 2
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect_left, bisect_right
from itertools import combinations

Pair = tuple[int, int]
Result = tuple[tuple[int, ...], int, int]


def read_links(path) -> dict[Pair, list[int]]:
    """Pair -> sorted distinct times, from `t u v` lines."""
    times: dict[Pair, set[int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            t, u, v = (int(f) for f in line.split())
            if u != v:
                times.setdefault((min(u, v), max(u, v)), set()).add(t)
    return {pair: sorted(ts) for pair, ts in times.items()}


def read_result(path) -> list[Result]:
    """Cliques from `v1,v2,... [ta,tb]` lines."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            verts, span = line.split()
            ta, tb = span.strip("[]").split(",")
            out.append((tuple(int(v) for v in verts.split(",")), int(ta), int(tb)))
    return out


class Checker:
    def __init__(self, occ: dict[Pair, list[int]], delta: int, gamma: int) -> None:
        self.occ = occ
        self.delta = delta
        self.gamma = gamma
        self.t0 = min(ts[0] for ts in occ.values())
        self.t1 = max(ts[-1] for ts in occ.values())
        self.adj: dict[int, set[int]] = {}
        for u, v in occ:
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)

    def count(self, pair: Pair, lo: int, hi: int) -> int:
        ts = self.occ.get(pair, ())
        return bisect_right(ts, hi) - bisect_left(ts, lo)

    def pair_valid(self, pair: Pair, ta: int, tb: int) -> bool:
        d, g = self.delta, self.gamma
        if tb - ta <= d:
            return self.count(pair, ta, tb) >= g
        # The windows are [tau, tau+d] for tau in [ta, tb-d]. Their count
        # only drops right after an occurrence leaves the window, so its
        # minimum is at tau = ta or at tau = s+1 for an occurrence s.
        ts = self.occ.get(pair, ())
        taus = [ta] + [s + 1 for s in ts[bisect_left(ts, ta):bisect_left(ts, tb - d)]]
        return all(self.count(pair, tau, tau + d) >= g for tau in taus)

    def valid(self, verts, ta: int, tb: int) -> bool:
        return all(self.pair_valid(p, ta, tb) for p in combinations(sorted(verts), 2))

    def grows(self, verts: tuple[int, ...], ta: int, tb: int) -> str | None:
        """How the clique can grow by one step, or None."""
        if ta > self.t0 and self.valid(verts, ta - 1, tb):
            return "left"
        if tb < self.t1 and self.valid(verts, ta, tb + 1):
            return "right"
        members = set(verts)
        outside = set.intersection(*(self.adj.get(v, set()) for v in verts)) - members
        for w in sorted(outside):
            if self.valid(members | {w}, ta, tb):
                return f"vertex {w}"
        return None

    def pair_intervals(self, pair: Pair) -> list[tuple[int, int]]:
        """Maximal valid intervals of the two-vertex clique `pair`.

        tau has a full window (>= gamma links in [tau, tau+delta]) exactly
        when tau lies in [s_(j+gamma-1) - delta, s_j] for some j; a maximal
        run [p, q] of such taus gives the interval [p, q+delta], cut to the
        observation window.
        """
        ts, d, g = self.occ[pair], self.delta, self.gamma
        runs: list[list[int]] = []
        for j in range(len(ts) - g + 1):
            lo, hi = ts[j + g - 1] - d, ts[j]
            if lo > hi:
                continue
            if runs and lo <= runs[-1][1] + 1:
                runs[-1][1] = max(runs[-1][1], hi)
            else:
                runs.append([lo, hi])
        return [(max(p, self.t0), min(q + d, self.t1)) for p, q in runs]


def check(occ: dict[Pair, list[int]], result: list[Result], delta: int, gamma: int) -> list[str]:
    """Every problem found, as text (empty when the result is right)."""
    ck = Checker(occ, delta, gamma)
    problems: list[str] = []
    seen: set[Result] = set()
    for clique in result:
        verts, ta, tb = clique
        text = f"{','.join(map(str, verts))} [{ta},{tb}]"
        if clique in seen:
            problems.append(f"listed twice: {text}")
        seen.add(clique)
        if len(verts) < 2 or list(verts) != sorted(set(verts)):
            problems.append(f"bad vertex list: {text}")
            continue
        if not (ck.t0 <= ta <= tb <= ck.t1):
            problems.append(f"outside the observation window: {text}")
        elif not ck.valid(verts, ta, tb):
            problems.append(f"not a ({delta},{gamma})-clique: {text}")
        else:
            how = ck.grows(verts, ta, tb)
            if how:
                problems.append(f"grows ({how}): {text}")

    by_vertex: dict[int, set[int]] = {}
    by_pair: dict[Pair, list[tuple[int, int]]] = {}
    for i, (verts, ta, tb) in enumerate(result):
        for v in verts:
            by_vertex.setdefault(v, set()).add(i)
        for p in combinations(verts, 2):
            by_pair.setdefault(p, []).append((ta, tb))
    for i, (verts, ta, tb) in enumerate(result):
        holders = set.intersection(*(by_vertex[v] for v in verts)) - {i}
        for j in holders:
            _, ta2, tb2 = result[j]
            if ta2 <= ta and tb <= tb2 and result[j] != result[i]:
                problems.append(f"clique {i} lies inside clique {j}")
                break

    for pair in sorted(occ):
        spans = by_pair.get(pair, [])
        for a, b in ck.pair_intervals(pair):
            if not any(ta <= a and b <= tb for ta, tb in spans):
                problems.append(f"pair {pair} over [{a},{b}] is in no clique")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("links")
    ap.add_argument("result")
    ap.add_argument("--delta", type=int, required=True)
    ap.add_argument("--gamma", type=int, required=True)
    args = ap.parse_args()
    problems = check(read_links(args.links), read_result(args.result), args.delta, args.gamma)
    for line in problems[:20]:
        print(line)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
