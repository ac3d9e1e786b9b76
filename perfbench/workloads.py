"""The four workloads: their inputs, the call each operation makes, and its correctness gate.

Inputs depend only on the workload seed.  The program receives only the
generated graphs: as Graph objects through the public API, or as edge-list
files through ``outerlabel label``.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
from dataclasses import dataclass
from pathlib import Path

import families

CORPUS_COUNT = 520  # entries per degree corpus, as in corpus/delta{3,4}_manifest.json
CORPUS_RANGE = (4, 12)  # vertex counts of the corpus, as in the manifests
# oracle: the same generator on 4-9 vertices.  On 10-12 vertices a few
# exponential refutations make up half of the oracle's time, and how many
# there are changes with the seed: over ten far-apart seeds the search-node
# total of the 4-12 corpus spread 0.31 of its median, that of 4-9 only 0.05.
ORACLE_RANGE = (4, 9)
ORACLE_COUNT = 2 * CORPUS_COUNT  # entries per degree corpus
# block: one level per s, holding ladder(s) and a capped polygon on 2s vertices, cap 3
BLOCK_LEVELS = (200, 400, 800)
# reduce: one level per (k, n, m): bridged(k), REDUCE_RANDOM capped polygons on
# n vertices with cap 4, and REDUCE_RANDOM glued hosts on m vertices with
# maximum degree 4.  Several random hosts per level average out their shapes.
REDUCE_LEVELS = ((8, 24, 30), (16, 48, 60), (32, 96, 120))
REDUCE_RANDOM = 6
# Outerplanar graphs with n <= 12 have m <= 2n - 3, so n + m <= 33: every
# graph of the degree corpora fits under this cap, whatever the seed.
ORACLE_CAP = 33


@dataclass
class Op:
    name: str
    level: int  # size level 0, 1 or 2
    graph: object
    delta: int
    path: str | None = None

    @property
    def elements(self) -> int:
        return self.graph.n + self.graph.m


def _corpus_ops(ol, seed: int, root: Path, n_range: tuple[int, int] = CORPUS_RANGE,
                count: int = CORPUS_COUNT) -> tuple[list[Op], list[str]]:
    """The Δ=3 and Δ=4 degree corpora on ``n_range`` vertices, ``count`` random entries each.

    For seed 0 the corpora on CORPUS_RANGE must equal the frozen manifests.
    The size levels are three equal vertex-count bands of ``n_range`` (4-6,
    7-9 and 10-12 for the corpus); the few fixed hosts that
    ``build_degree_corpus`` adds fall into the nearest band.  A band, unlike
    a single vertex count, holds enough graphs that the few slowest
    searches, which change with the seed, do not decide its time alone.
    """
    ops: list[Op] = []
    problems: list[str] = []
    lo, hi = n_range
    for delta in (3, 4):
        entries = ol.generators.build_degree_corpus(
            delta, count, n_range=n_range, seed0=seed)
        if seed == 0 and (n_range, count) == (CORPUS_RANGE, CORPUS_COUNT):
            frozen = root / "corpus" / f"delta{delta}_manifest.json"
            if ol.generators.load_manifest(frozen) != entries:
                problems.append(f"seed 0 corpus differs from {frozen.name}")
        for entry in entries:
            g = ol.generators.corpus_graph(entry)
            level = min(2, max(0, 3 * (g.n - lo) // (hi - lo + 1)))
            ops.append(Op(entry["name"], level, g, delta))
    return ops, problems


def _write_edgelists(ol, ops: list[Op], inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.path = str(inputs / f"{op.name}.txt")
        Path(op.path).write_text(ol.io.dump_edgelist(op.graph), encoding="utf-8")


def _block_ops(ol, seed: int, inputs: Path) -> list[Op]:
    Graph = ol.graphs.Graph
    ops = []
    for level, s in enumerate(BLOCK_LEVELS):
        for name, edges in (
            (f"ladder{s}", families.ladder(s, f"{seed}:ladder:{s}")),
            (f"capped3-{2 * s}",
             families.capped_polygon(2 * s, 3, f"{seed}:capped3:{2 * s}")),
        ):
            ops.append(Op(name, level, Graph.from_edges(edges), 3))
    _write_edgelists(ol, ops, inputs)
    return ops


def _reduce_ops(ol, seed: int, inputs: Path) -> list[Op]:
    Graph = ol.graphs.Graph
    ops = []
    for level, (k, n, m) in enumerate(REDUCE_LEVELS):
        bridged = Graph.from_edges(families.bridged(k, f"{seed}:bridged:{k}"))
        ops.append(Op(f"bridged{k}", level, bridged, 3))
        for i in range(REDUCE_RANDOM):
            capped = families.capped_polygon(n, 4, f"{seed}:capped4:{n}:{i}")
            ops.append(Op(f"capped4-{n}-{i}", level, Graph.from_edges(capped), 4))
        for i in range(REDUCE_RANDOM):
            glued = ol.generators.gen_glued_outerplanar(
                m, REDUCE_RANDOM * seed + i, {"max_degree": 4})
            ops.append(Op(f"glued4-{m}-{i}", level, glued, 4))
    _write_edgelists(ol, ops, inputs)
    return ops


class Workload:
    """One workload: ``build`` makes the operations, ``run`` performs one, ``gate`` checks it.

    ``gate`` returns the failure reason (None when correct) and the span of
    the labeling that ``label_outerplanar`` constructs for the operation's
    graph.
    """

    name = ""
    throughput = "ops_per_s"  # the end-to-end rate that trace.overhead compares
    reference = "walk"  # the reference.py kernel that scales its times

    def build(self, ol, seed: int, root: Path, inputs: Path) -> tuple[list[Op], list[str]]:
        raise NotImplementedError

    def run(self, ol, op: Op, tracer):
        raise NotImplementedError

    def gate(self, ol, op: Op, result) -> tuple[str | None, int | None]:
        raise NotImplementedError

    def summary(self) -> list[str]:
        """Readable lines on the outputs, beyond the metrics."""
        return []


def _check_labeling(ol, op: Op, f) -> tuple[str | None, int | None]:
    if ol.labeling.verify(f, 2):
        return "verify", None
    s = ol.labeling.span(f)
    if s > op.delta + 2:
        return "span-above-delta+2", s
    return None, s


class Corpus(Workload):
    name = "corpus"

    def build(self, ol, seed, root, inputs):
        return _corpus_ops(ol, seed, root)

    def run(self, ol, op, tracer):
        if tracer is None:
            return ol.pipeline.label_outerplanar(op.graph)
        return tracer.label(op.graph)

    def gate(self, ol, op, result):
        return _check_labeling(ol, op, result)


class LabelCli(Workload):
    """``outerlabel label FILE`` in-process, with stdout and stderr captured."""

    throughput = "elements_per_s"
    reference = "both"  # the CLI parses and recognizes as well as labels

    def __init__(self, name: str, make_ops) -> None:
        self.name = name
        self._make_ops = make_ops

    def build(self, ol, seed, root, inputs):
        return self._make_ops(ol, seed, inputs), []

    def run(self, ol, op, tracer):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = ol.cli.main(["label", op.path])
            else:
                rc = tracer.call("cli.main", "bench", ol.cli.main, ["label", op.path])
        return rc, out.getvalue()

    def gate(self, ol, op, result):
        rc, text = result
        if rc != 0:
            return f"exit-{rc}", None
        try:
            f = ol.io.labeling_from_json(json.loads(text), op.graph)
        except (ValueError, TypeError) as exc:
            return f"round-trip-{type(exc).__name__}", None
        return _check_labeling(ol, op, f)


class Oracle(Workload):
    """``lambda_exact(g, 2, Δ+2)`` on degree corpora of 4-9 vertices, checked against the constructed span."""

    name = "oracle"
    reference = "search"

    def __init__(self) -> None:
        self._constructed: dict[int, tuple[str | None, int | None]] = {}
        self._optimal: dict[int, bool] = {}

    def build(self, ol, seed, root, inputs):
        self._constructed.clear()
        self._optimal.clear()
        return _corpus_ops(ol, seed, root, ORACLE_RANGE, ORACLE_COUNT)

    def run(self, ol, op, tracer):
        stats = ol.exact.SearchStats()
        args = (op.graph, 2, op.delta + 2)
        if tracer is None:
            return ol.exact.lambda_exact(*args, cap=ORACLE_CAP, stats=stats)
        out = tracer.call("exact.lambda_exact", "bench", ol.exact.lambda_exact,
                          *args, cap=ORACLE_CAP, stats=stats)
        tracer.counts["exact.oracle_nodes"] += stats.nodes
        tracer.counts["exact.oracle_k_steps"] += stats.calls
        return out

    def gate(self, ol, op, result):
        key = id(op)
        if key not in self._constructed:
            f = ol.pipeline.label_outerplanar(op.graph)
            self._constructed[key] = _check_labeling(ol, op, f)
        problem, constructed = self._constructed[key]
        if problem is not None:
            return f"constructed-{problem}", constructed
        value, witness = result
        if value is None or witness is None:
            return "no-lambda", constructed
        if ol.labeling.verify(witness, 2) or ol.labeling.span(witness) != value:
            return "witness", constructed
        if not op.delta + 1 <= value <= constructed:
            return "lambda-out-of-range", constructed
        self._optimal[key] = value == constructed
        return None, constructed

    def summary(self):
        return [f"optimal_share = {sum(self._optimal.values())}/{len(self._optimal)} "
                "(graphs whose constructed span equals lambda)"]


WORKLOADS = {
    w.name: w
    for w in (Corpus(), LabelCli("block", _block_ops),
              LabelCli("reduce", _reduce_ops), Oracle())
}
