"""Count λ − Δ by Δ and n over the n ≤ 7 polygon sweep.

    PYTHONPATH=src python tools/census.py

The sweep is ``tests/test_structure.py::_polygon_subsets``: every connected
graph on 4 to 7 vertices whose edges lie in a triangulated polygon, 10,533
graphs.  Each gets ``lambda_exact(g, 2, Δ+2)``.  Every graph needs Δ+1
(``labeling.degree_lower_bound``), and the paper (with Chen and Wang's
bound for Δ ≥ 5) says Δ+2 is enough, so λ − Δ is 1 or 2; a graph the
search finds no labeling for within Δ+2 counts under "over", which would
contradict that bound.  Prints, for each Δ, the count of graphs with
λ = Δ+1 and with λ = Δ+2 per n and in all; then the smallest graph per Δ
with λ = Δ+2 (fewest vertices, then fewest edges, then sweep order) as an
edge list; then the nodes searched and the seconds spent in
``lambda_exact``.  An opt-in script, not part of the test suite; it takes
a few seconds.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    from test_structure import _polygon_subsets

    from outerlabel.exact import SearchStats, lambda_exact

    counts: Counter = Counter()  # (Δ, n, λ − Δ or "over") -> graphs
    tightest: dict[int, tuple] = {}  # Δ -> (n, m, edges) of the smallest Δ+2-tight graph
    stats = SearchStats()
    seconds = 0.0  # in lambda_exact only, not in building the sweep
    for g in _polygon_subsets():
        delta = g.max_degree()
        start = time.perf_counter()
        lam, _ = lambda_exact(g, 2, delta + 2, stats=stats)
        seconds += time.perf_counter() - start
        counts[delta, g.n, "over" if lam is None else lam - delta] += 1
        if lam == delta + 2 and (g.n, g.m) < tightest.get(delta, (g.n + 1,))[:2]:
            tightest[delta] = (g.n, g.m, sorted(g.edges))

    deltas = sorted({d for d, _, _ in counts})
    ns = sorted({n for _, n, _ in counts})
    print("λ − Δ = 1 / 2 [/ over] per Δ (rows) and n (columns)")
    print(f"{'Δ':>3}" + "".join(f"{f'n={n}':>14}" for n in ns) + f"{'all':>16}")
    for d in deltas:
        cells = []
        for n in [*ns, None]:
            got = [sum(c for (dd, nn, r), c in counts.items()
                       if dd == d and n in (None, nn) and r == want)
                   for want in (1, 2, "over")]
            cells.append("/".join(str(x) for x in (got if got[2] else got[:2])))
        print(f"{d:>3}" + "".join(f"{c:>14}" for c in cells[:-1]) + f"{cells[-1]:>16}")
    print(f"graphs: {sum(counts.values())}")
    for d in deltas:
        if d in tightest:
            n, m, edges = tightest[d]
            print(f"smallest λ = Δ+2 graph at Δ = {d}: n = {n}, m = {m}, edges {edges}")
        else:
            print(f"no λ = Δ+2 graph at Δ = {d}")
    print(f"nodes searched: {stats.nodes}  calls: {stats.calls}  "
          f"seconds in lambda_exact: {seconds:.2f}")
    return 1 if any(r == "over" for _, _, r in counts) else 0


if __name__ == "__main__":
    raise SystemExit(main())
