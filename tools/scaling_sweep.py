"""Time ``label_outerplanar`` on growing hosts and fit a scaling exponent per family.

    python tools/scaling_sweep.py --run change=src [--run parent=OTHER/src] --out BENCH.json

Each ``--run LABEL=SRC`` imports ``outerlabel`` from ``SRC``, in a fresh
process per family and size, and labels five families with fixed seeds,
from about 10^2 to 10^5 vertices: bridged(k) and capped(n, 4) from
``perfbench/families.py`` (read, not changed), and three from this tree's
``generators.py``, whichever tree ``SRC`` is: strip(n), the path 0..n-1
plus the chords (i, i + 2); pentagon_leaves(k), a k-cycle with a chorded
pentagon bridged to each vertex, whose every leaf is reattached across a
chord; and sun_necklace(k), k suns of four ears in a row, reduced by one
closed chain each.  Every labeling is checked with ``verify`` and span <= Δ + 2.
A size is timed as the best of three runs.  The runs take turns point by
point: each (family, size) is timed on every run before the next, and the
run that goes first alternates from one point to the next, so a drift in
the machine's speed reaches every run alike.  Each point's process builds
and labels only that size, so no point inherits the heap of the smaller
sizes before it.  A run's family stops growing after a size whose best
run took longer than ``CAP_SECONDS`` or whose process peak memory
(``ru_maxrss``, measured after the size) passed ``MAX_MB``.
The exponent is the least-squares slope of log(seconds) over log(n), over
every size a run reached (``exponent``) and over the sizes every run
reached (``shared_exponent``), which compares runs over one range.
``memory_exponent`` is the slope of log(peak_mb - base_mb) over log(n),
where each point's ``base_mb`` is its process's peak before the size
(interpreter, package and family set-up; the package is compiled
beforehand, so the compiler's peak is not in it), over the sizes whose
peak grew past it.  A family's ``base_mb`` is the least of its points'.
The bytecode goes to one temporary ``PYTHONPYCACHEPREFIX``, which the
compile step and every child share, so no swept tree is left with a
``__pycache__``.  All runs go into one JSON file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import platform
import resource
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (100, 200, 400, 800, 1600, 3200, 6400, 10000, 30000, 100000)  # vertices, about
CAP_SECONDS = 20.0  # a family stops after a size that took longer
MAX_MB = 400.0  # or after a size that took the process past this peak


def local_generators():
    """This tree's ``outerlabel.generators``, importable beside another tree's package.

    It needs only ``graphs`` from its package, so a bare package module is
    enough; callers pass the hosts it builds on as edge lists.
    """
    package = types.ModuleType("_this_tree")
    package.__path__ = [str(ROOT / "src" / "outerlabel")]
    sys.modules["_this_tree"] = package
    return importlib.import_module("_this_tree.generators")


# each family's edge list on about n vertices, from perfbench/families.py
# (``fam``) or this tree's generators (``gen``)
FAMILIES = {
    "bridged": lambda fam, gen, n: fam.bridged(max(1, round(n / 6)), f"sweep:bridged:{n}"),
    "capped4": lambda fam, gen, n: fam.capped_polygon(n, 4, f"sweep:capped4:{n}"),
    "strip": lambda fam, gen, n: gen.gen_strip(n).edges,
    "pentagon_leaves": lambda fam, gen, n: gen.gen_pentagon_leaves(round(n / 6)).edges,
    "sun_necklace": lambda fam, gen, n: gen.gen_sun_necklace(round(n / 8)).edges,
}


def _family_modules():
    spec = importlib.util.spec_from_file_location(
        "perfbench_families", ROOT / "perfbench" / "families.py")
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return families, local_generators()


def exponent(points: list[dict], key: str = "seconds", base: float = 0.0) -> float | None:
    """The least-squares slope of log(point[key] - base) over log(n)."""
    points = [p for p in points if p[key] > base]
    xs = [math.log(p["n"]) for p in points]
    ys = [math.log(p[key] - base) for p in points]
    if len(xs) < 2:
        return None
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def serve(name: str, size: int) -> None:
    """Run in the child process: one family at one size, printed as a JSON point."""
    from outerlabel.graphs import Graph
    from outerlabel.labeling import span, verify
    from outerlabel.pipeline import label_outerplanar

    fam, gen = _family_modules()
    base = _peak_mb()
    g = Graph.from_edges(FAMILIES[name](fam, gen, size))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        f = label_outerplanar(g)
        best = min(best, time.perf_counter() - t0)
    if verify(f, 2) or span(f) > g.max_degree() + 2:
        raise AssertionError(f"{name}({size}): bad labeling")
    print(json.dumps({"n": g.n, "m": g.m, "seconds": round(best, 4),
                      "peak_mb": round(_peak_mb(), 1), "base_mb": round(base, 1)}))


def sweep(name: str, envs: dict[str, dict], turn: int) -> tuple[dict, int]:
    """Every run's points of one family, taking turns from ``turn`` on."""
    points: dict[str, list] = {label: [] for label in envs}
    growing = list(envs)
    for size in SIZES:
        if not growing:
            break
        for label in growing[::-1] if turn % 2 else list(growing):
            child = subprocess.run(
                [sys.executable, __file__, "--child", name, str(size)],
                env=envs[label], text=True, stdout=subprocess.PIPE)
            if child.returncode:
                raise SystemExit(f"{label} {name}({size}): the child process failed")
            p = json.loads(child.stdout)
            points[label].append(p)
            print(f"{label:8s} {name:15s} n={p['n']:6d} m={p['m']:6d} "
                  f"{p['seconds']:9.4f} s {p['peak_mb']:6.0f} MB", file=sys.stderr)
            if p["seconds"] > CAP_SECONDS or p["peak_mb"] > MAX_MB:
                growing.remove(label)
        turn += 1
    out = {}
    for label, pts in points.items():
        slope = exponent(pts)
        grow = exponent([{"n": p["n"], "mb": p["peak_mb"] - p["base_mb"]} for p in pts], "mb")
        out[label] = {"points": pts, "exponent": None if slope is None else round(slope, 3),
                      "base_mb": min(p["base_mb"] for p in pts),
                      "memory_exponent": None if grow is None else round(grow, 3)}
    return out, turn


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--run", action="append", default=[], metavar="LABEL=SRC",
                    help="label and source directory holding the outerlabel package")
    ap.add_argument("--out", help="JSON file to write (default: stdout)")
    ap.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        serve(args.child[0], int(args.child[1]))
        return 0
    runs: dict[str, dict] = {}
    envs = {}
    with tempfile.TemporaryDirectory() as cache:
        for spec in args.run or ["change=src"]:
            label, src = spec.split("=", 1)
            runs[label] = {}
            envs[label] = env = {"PYTHONPATH": str(Path(src).resolve()), "PATH": "",
                                 "PYTHONPYCACHEPREFIX": cache}
            # compile the package once, so that no child's base_mb holds the compiler's peak
            subprocess.run([sys.executable, "-c", "import outerlabel.pipeline"], env=env,
                           check=True)
        turn = 0
        for name in FAMILIES:
            family, turn = sweep(name, envs, turn)
            for label, result in family.items():
                runs[label][name] = result
    for name in FAMILIES:
        shared = set.intersection(*({p["n"] for p in r[name]["points"]}
                                    for r in runs.values()))
        for r in runs.values():
            slope = exponent([p for p in r[name]["points"] if p["n"] in shared])
            r[name]["shared_exponent"] = None if slope is None else round(slope, 3)
    result = {
        "what": "wall seconds of label_outerplanar, best of 3 runs per size",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}",
        "sizes": list(SIZES),
        "cap_seconds": CAP_SECONDS,
        "max_mb": MAX_MB,
        "runs": runs,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
