"""Check that the traced run's counts repeat exactly across two runs of one seed.

    python3 perfbench/check_counts.py [--seed 0] [--seconds 4] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload and compares every metric whose
unit is ``count``.  Exits 1 when any count differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: run reported incorrect outputs")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4)
    args = ap.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name, value in first.items():
            same = second[name] == value
            ok = ok and same
            print(f"{workload:7s} {name:28s} {value:>10} "
                  f"{'same' if same else f'DIFFERS: {second[name]}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
