"""Benchmark for outerlabel: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``.  The
run sets up (import, inputs, edge-list files, one warm-up operation) several
times before the passes and several times after them, and reports the median
as ``setup_s``.  The passes go over the workload's operations until
``--seconds`` have gone by, checking every operation's output outside the
timed interval.  Between operations the run times the workload's reference
kernel (``reference.py``) and scales each operation's wall time, and each
set-up's, by the kernel's nominal time over its time next to it, so that the
machine's changing speed mostly cancels.  Each operation's scaled time is its
median over the passes, and the rates, percentiles and level times are
computed from those.  Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the metrics are the
per-layer ones; the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups before the passes, and again after them: at least SETUP_REPEATS,
# and more until SETUP_SECONDS have been spent, but no more than SETUP_MAX.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
SETUP_MAX = 15
# An op's machine speed is read from the kernel samples this close to it.
REF_WINDOW_S = 0.25
# A set-up's machine speed is the median of this many kernel samples just
# before it and as many just after it.
SETUP_REF_SAMPLES = 3
MODULES = ("cli", "delta3", "delta4", "embedding", "exact", "generators",
           "graphs", "io", "labeling", "pipeline", "structure")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "elements_per_s": "1/s",
    "op_ms_p50": "ms",
    "top_size_s": "s",
    "scaling_exponent": "exponent",
    "span_mean": "label",
    "peak_rss_mb": "MB",
}


class Package:
    """The outerlabel modules of one fresh import."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules
                     if m == "outerlabel" or m.startswith("outerlabel.")]:
            del sys.modules[name]
        importlib.import_module("outerlabel")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"outerlabel.{name}"))


def set_up(workload, ref, seed: int, inputs: Path, times: list[float],
           wall_times: list[float], build_times: list[float]):
    """Import, build the inputs and run one warm-up op, repeatedly.

    A set-up takes from 0.1 s to about 1 s, so one alone is swayed by
    whatever else the machine runs at that moment; the run reports the
    median of the set-ups before and after its passes.  Appends each
    set-up's scaled time to ``times``, its wall time to ``wall_times`` and
    its input generation time to ``build_times``.  Returns the last package
    and operations and any input problems found.
    """
    spent, repeats = 0.0, 0
    while (repeats < SETUP_REPEATS or spent < SETUP_SECONDS) and repeats < SETUP_MAX:
        gc.collect()  # so that no set-up pays for the previous one's garbage
        refs = [ref.sample() for _ in range(SETUP_REF_SAMPLES)]
        t0 = perf_counter()
        ol = Package()
        t1 = perf_counter()
        ops, problems = workload.build(ol, seed, ROOT, inputs)
        build_times.append(perf_counter() - t1)
        try:
            workload.run(ol, ops[0], None)
        except Exception:  # the measured passes record this op's failure
            pass
        wall_times.append(perf_counter() - t0)
        refs += [ref.sample() for _ in range(SETUP_REF_SAMPLES)]
        times.append(ref.scaled(wall_times[-1], statistics.median(refs)))
        spent += wall_times[-1]
        repeats += 1
    return ol, ops, problems


class NoPassingOps(Exception):
    """Every op failed, so no timing can be reported."""


class Pass:
    def __init__(self) -> None:
        self.times: list[float] = []  # scaled
        self.wall: list[float] = []
        self.refs: list[float] = []  # reference kernel time next to each op
        self.failures: list[str | None] = []
        self.spans: list[int | None] = []


def op_refs(samples: list[tuple[int, float, float]], n: int) -> list[float]:
    """For each of ``n`` ops, the median of the kernel samples around it.

    ``samples`` holds (index of the op the sample was taken before, clock
    reading, kernel time), in order; the first is taken before op 0 and the
    last after op n-1.  An op between samples k and k+1 gets the median of
    these two and of every other sample taken within REF_WINDOW_S of them:
    for short ops about half a second of the machine's speed, and for long
    ops the samples that bracket them.
    """
    refs, k = [], 0
    for i in range(n):
        while samples[k + 1][0] <= i:
            k += 1
        lo, hi = samples[k][1] - REF_WINDOW_S, samples[k + 1][1] + REF_WINDOW_S
        refs.append(statistics.median(t for _, at, t in samples if lo <= at <= hi))
    return refs


def measure(workload, ref, ol, ops, seconds: float, tracer, report_failure) -> list[Pass]:
    """Whole passes over ``ops`` until ``seconds`` have gone by (at least one)."""
    passes: list[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        rec = Pass()
        samples = [(0, perf_counter(), ref.sample())]
        for i, op in enumerate(ops):
            if perf_counter() - samples[-1][1] >= reference.EVERY_S:
                samples.append((i, perf_counter(), ref.sample()))
            if tracer is not None:
                tracer.op += 1
                tracer.active = True
            t0 = perf_counter()
            try:
                result = workload.run(ol, op, tracer)
                failure = None
            except Exception as exc:  # counted as a failed op, never dropped
                result, failure = None, type(exc).__name__
                report_failure(op, traceback.format_exc())
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            span = None
            if failure is None:
                failure, span = workload.gate(ol, op, result)
                if failure is not None:
                    report_failure(op, failure)
            rec.wall.append(dt)
            rec.failures.append(failure)
            rec.spans.append(span)
        samples.append((len(ops), perf_counter(), ref.sample()))
        rec.refs = op_refs(samples, len(ops))
        rec.times = [ref.scaled(dt, r) for dt, r in zip(rec.wall, rec.refs)]
        passes.append(rec)
    return passes


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den if den else 0.0


def op_times(passes: list[Pass], wall: bool = False) -> dict[int, float]:
    """Each op's median scaled (or wall) time over the passes where it passed its gate.

    Keyed by op index; an op that never passes its gate has no time.
    """
    samples: dict[int, list[float]] = {}
    for p in passes:
        for i, (dt, failure) in enumerate(zip(p.wall if wall else p.times, p.failures)):
            if failure is None:
                samples.setdefault(i, []).append(dt)
    return {i: statistics.median(ts) for i, ts in samples.items()}


def end_to_end(ops, passes: list[Pass], wall: bool = False) -> dict:
    """Every end-to-end metric but ``setup_s``, from scaled (or wall) times."""
    per_op = op_times(passes, wall)
    if not per_op:
        raise NoPassingOps
    times = list(per_op.values())
    total_time = sum(times)
    levels = sorted({ops[i].level for i in per_op})
    level_times = {lv: sum(dt for i, dt in per_op.items() if ops[i].level == lv)
                   for lv in levels}
    level_elements = {lv: sum(op.elements for op in ops if op.level == lv)
                      for lv in levels}
    spans = [s for p in passes for s in p.spans if s is not None]
    return {
        "ops_per_s": len(per_op) / total_time,
        "elements_per_s": sum(ops[i].elements for i in per_op) / total_time,
        "op_ms_p50": 1000 * statistics.median(times),
        "op_ms_p99": 1000 * quantile(times, 99),
        "top_size_s": level_times[levels[-1]],
        "scaling_exponent": slope([level_elements[lv] for lv in levels],
                                  [level_times[lv] for lv in levels]),
        "span_mean": statistics.fmean(spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    ref = reference.Reference(workload.reference)
    # Set-up generates inputs and imports modules: graph-walking work on
    # every workload, so the walk kernel scales it.
    setup_ref = reference.Reference("walk")
    out_dir = ROOT / ".perfbench_out"
    inputs = out_dir / f"inputs-{args.workload}-seed{args.seed}"
    setup_times: list[float] = []
    setup_wall: list[float] = []
    build_times: list[float] = []
    try:
        ol, ops, problems = set_up(workload, setup_ref, args.seed, inputs, setup_times,
                                   setup_wall, build_times)
    except ImportError as exc:
        print(f"cannot import outerlabel from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot set up the inputs: {exc}", file=sys.stderr)
        return 2

    # Keep the benchmark's own inputs out of the collector's scans, as they
    # would be in a process that labels one graph.
    gc.collect()
    gc.freeze()
    reported = Counter()

    def report_failure(op, detail: str) -> None:
        reported[op.name] += 1
        if reported[op.name] == 1:
            print(f"FAILED {op.name}: {detail}", file=sys.stderr)

    printed_only: dict[str, float] = {}
    try:
        if args.trace:
            seconds = args.seconds / 2
            untraced = measure(workload, ref, ol, ops, seconds, None, report_failure)
            tracer = tracing.Tracer()
            tracer.install(ol)
            traced, per_pass = [], []
            start = perf_counter()
            while not traced or perf_counter() - start < seconds:
                lo, before = len(tracer.spans), Counter(tracer.counts)
                traced += measure(workload, ref, ol, ops, 0, tracer, report_failure)
                per_pass.append(tracer.pass_metrics(
                    lo, tracer.counts - before, sum(op.elements for op in ops)))
            tracer.uninstall()
            metrics, unstable = tracing.summarize_passes(per_pass)
            rate = workload.throughput
            metrics["trace.overhead"] = (end_to_end(ops, untraced)[rate]
                                         / end_to_end(ops, traced)[rate])
            units = tracing.PER_LAYER_UNITS
            passes = untraced + traced
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            if unstable:
                print(f"counts differing between traced passes: {', '.join(unstable)}")
        else:
            passes = measure(workload, ref, ol, ops, args.seconds, None, report_failure)
            metrics = end_to_end(ops, passes)
            # The op behind the 99th percentile changes with the seed, so
            # op_ms_p99 spreads too widely across seeds to carry a bound.
            printed_only = {"op_ms_p99": metrics.pop("op_ms_p99")}
            wall = end_to_end(ops, passes, wall=True)
            printed_only.update({f"wall {name}": wall[name] for name in
                                 ("ops_per_s", "op_ms_p50", "top_size_s")})
            units = END_TO_END_UNITS
        summary = workload.summary()  # before the set-ups below reset it
        set_up(workload, setup_ref, args.seed, inputs, setup_times, setup_wall, build_times)
    except NoPassingOps:
        print("every op failed; no metrics to report", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if args.trace:
        metrics["generators.build_s"] = statistics.median(build_times)
    else:
        metrics = {"setup_s": statistics.median(setup_times), **metrics}
        printed_only["wall setup_s"] = statistics.median(setup_wall)
    attempted = sum(len(p.failures) for p in passes)
    failures = Counter(f for p in passes for f in p.failures if f is not None)
    failed = sum(failures.values())
    samples = attempted - failed
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops/pass={len(ops)} passes={len(passes)} timed samples={samples} "
          f"set-ups={len(setup_times)}")
    for problem in problems:
        print(f"input check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in printed_only.items():
        unit = END_TO_END_UNITS.get(name.removeprefix("wall "), "ms")
        print(f"{name} = {value:.6g} {unit} (printed only)")
    refs = [r for p in passes for r in p.refs]
    print(f"machine speed: reference kernel {ref.name} median "
          f"{1000 * statistics.median(refs):.3f} ms (nominal {1000 * ref.nominal:g} ms), quartiles "
          + " / ".join(f"{1000 * q:.3f}" for q in statistics.quantiles(refs, n=4)))
    print(f"fail_share = {failed}/{attempted}"
          + (f" {dict(failures)}" if failures else ""))
    for line in summary:
        print(line)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
