"""Spans and counts around the calls into each outerlabel module.

The tracer wraps functions from outside the package.  A name imported with
``from .embedding import recognize_embed`` is bound separately in every
importing module, so each importing module's binding is patched on its own;
patching only the defining module would miss those calls.  Each wrapped call
records a span ``[key, site, start, end, parent, op, outer]`` in memory:
``key`` names the layer function, ``site`` the module whose binding was
called, ``parent`` the index of the enclosing span, ``op`` the benchmark
operation, and ``outer`` whether no span of the same key was already open,
so recursive calls are not counted twice.  Spans are written out once, when
the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter

# (site module, attribute, span key) for every patched module binding
BINDINGS = (
    ("cli", "recognize_embed", "embedding.recognize_embed"),
    ("cli", "label_outerplanar", "pipeline.label_outerplanar"),
    ("cli", "verify", "labeling.verify"),
    ("io", "parse_graph", "io.parse_graph"),
    ("io", "labeling_to_json", "io.labeling_to_json"),
    ("pipeline", "label_delta3", "delta3.label_delta3"),
    ("pipeline", "label_delta4", "delta4.label_delta4"),
    ("pipeline", "label_cycle_or_path", "delta3.label_cycle_or_path"),
    ("pipeline", "find_labeling_bounded", "exact.find_labeling_bounded"),
    ("pipeline", "verify", "labeling.verify"),
    ("delta3", "recognize_embed", "embedding.recognize_embed"),
    ("delta3", "extend_bounded", "exact.extend_bounded"),
    ("delta3", "find_labeling_bounded", "exact.find_labeling_bounded"),
    ("delta3", "verify", "labeling.verify"),
    ("delta3", "label_k2", "delta3.label_k2"),
    ("delta4", "recognize_embed", "embedding.recognize_embed"),
    ("delta4", "extend_bounded", "exact.extend_bounded"),
    ("delta4", "find_labeling_bounded", "exact.find_labeling_bounded"),
    ("delta4", "verify", "labeling.verify"),
    ("delta4", "find_configuration", "structure.find_configuration"),
    ("delta4", "find_closed_chain", "structure.chain"),
    ("delta4", "chain_template", "delta4.chain_template"),
    ("delta4", "_label_span5", "delta3.label_span5"),
    ("delta4", "label_cycle_or_path", "delta3.label_cycle_or_path"),
    ("structure", "find_configuration", "structure.find_configuration"),
    ("structure", "enumerate_chains", "structure.chain"),
)
GRAPH_METHODS = (
    ("biconnected_components", "graphs.blocks"),
    ("cut_vertices", "graphs.blocks"),
)

# per-layer metrics in output order: name -> unit
PER_LAYER_UNITS = {
    "cli.gate_recognize_s": "s",
    "io.parse_s": "s",
    "io.emit_s": "s",
    "pipeline.label_s": "s",
    "pipeline.verify_s": "s",
    "embedding.recognize_s": "s",
    "embedding.recognize_calls": "count",
    "embedding.rework_ratio": "ratio",
    "graphs.builds": "count",
    "graphs.blocks_s": "s",
    "structure.config_s": "s",
    "structure.config_calls": "count",
    "structure.chain_s": "s",
    "exact.extend_s": "s",
    "exact.extend_calls": "count",
    "exact.extend_nodes": "count",
    "exact.extend_misses": "count",
    "exact.extend_scope_ratio": "ratio",
    "exact.tiny_search_s": "s",
    "exact.oracle_s": "s",
    "exact.oracle_nodes": "count",
    "exact.oracle_k_steps": "count",
    "labeling.verify_s": "s",
    "labeling.verify_calls": "count",
    "labeling.verify_rework_ratio": "ratio",
    "delta3.self_s": "s",
    "delta3.k2_s": "s",
    "delta3.fallbacks": "count",
    "delta3.junction_patches": "count",
    "delta4.self_s": "s",
    "delta4.template_s": "s",
    "delta4.widened": "count",
    "delta4.template_fallbacks": "count",
    "generators.build_s": "s",
    "trace.overhead": "ratio",
}


def _elements(g) -> int:
    return g.n + g.m


class Tracer:
    """Records spans and counts while ``active``; wrappers pass through otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.label = None  # label_outerplanar as called by the benchmark itself

    # -- recording ---------------------------------------------------------

    def call(self, key: str, site: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span."""
        idx = len(self.spans)
        rec = [key, site, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, self._open[key] == 0]
        self.spans.append(rec)
        self._stack.append(idx)
        self._open[key] += 1
        rec[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._open[key] -= 1
            self._stack.pop()

    def _wrap(self, key: str, site: str, fn, ol):
        tracer = self
        counts = self.counts
        if key == "exact.extend_bounded":
            SearchStats = ol.exact.SearchStats

            def wrapper(f, free, k=None, p=2, stats=None):
                if not tracer.active:
                    return fn(f, free, k, p, stats)
                st = stats if stats is not None else SearchStats()
                before = st.nodes
                out = tracer.call(key, site, fn, f, free, k, p, st)
                counts["exact.extend_calls"] += 1
                counts["exact.extend_nodes"] += st.nodes - before
                counts["exact.extend_misses"] += out is None
                counts["extend.graph_elements"] += _elements(f.graph)
                counts["extend.freed"] += len(free)
                return out
            return wrapper
        if key == "pipeline.label_outerplanar":
            Diagnostics = ol.delta3.Diagnostics

            def wrapper(g, fallback_search=False, diag=None):
                if not tracer.active:
                    return fn(g, fallback_search, diag)
                d = diag if diag is not None else Diagnostics()
                seen = len(d.records)
                try:
                    return tracer.call(key, site, fn, g, fallback_search, d)
                finally:
                    tracer.count_events(d.records[seen:])
            return wrapper
        tally = {
            "labeling.verify": ("labeling.verify_calls", "verify.elements"),
            "embedding.recognize_embed": ("embedding.recognize_calls",
                                          "recognize.elements"),
            "structure.find_configuration": ("structure.config_calls", None),
        }.get(key)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tally is not None:
                counts[tally[0]] += 1
                if tally[1] is not None:
                    graph = args[0].graph if key == "labeling.verify" else args[0]
                    counts[tally[1]] += _elements(graph)
            return tracer.call(key, site, fn, *args, **kwargs)
        return wrapper

    def count_events(self, records: list[dict]) -> None:
        """Fold the labelers' Diagnostics records into the counts."""
        for rec in records:
            event = rec.get("event")
            if event == "widened-completion":
                self.counts["delta4.widened"] += 1
            elif event == "junction-patch":
                self.counts["delta3.junction_patches"] += 1
            elif event == "fallback":
                if str(rec.get("where", "")).startswith("chain template"):
                    self.counts["delta4.template_fallbacks"] += 1
                else:
                    self.counts["delta3.fallbacks"] += 1

    # -- patching ----------------------------------------------------------

    def install(self, ol) -> None:
        """Patch every module binding and Graph method listed above."""
        self.label = self._wrap("pipeline.label_outerplanar", "bench",
                                ol.pipeline.label_outerplanar, ol)
        for site, attr, key in BINDINGS:
            mod = getattr(ol, site)
            self._patch(mod, attr, self._wrap(key, site, getattr(mod, attr), ol))
        graph_cls = ol.graphs.Graph
        for attr, key in GRAPH_METHODS:
            self._patch(graph_cls, attr,
                        self._wrap(key, "graphs", getattr(graph_cls, attr), ol))
        init = graph_cls.__init__
        tracer = self

        def counted_init(g, vertices, edges):
            if tracer.active:
                tracer.counts["graphs.builds"] += 1
            init(g, vertices, edges)
        self._patch(graph_cls, "__init__", counted_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def pass_metrics(self, lo: int, counts: Counter, input_elements: int) -> dict:
        """Per-layer metrics over the spans ``lo:`` and the counts of one pass."""
        spans = self.spans[lo:]
        child = Counter()
        for rec in spans:
            if rec[4] >= lo:
                child[rec[4]] += rec[3] - rec[2]
        outer = Counter()
        by_site = Counter()
        self_time = Counter()
        for i, rec in enumerate(spans, lo):
            key, site, start, end = rec[0], rec[1], rec[2], rec[3]
            dur = end - start
            if rec[6]:
                outer[key] += dur
            by_site[key, site] += dur
            self_time[key.split(".", 1)[0]] += dur - child[i]

        def ratio(num: str, den: float) -> float:
            return counts[num] / den if den else 0.0

        return {
            "cli.gate_recognize_s": by_site["embedding.recognize_embed", "cli"],
            "io.parse_s": outer["io.parse_graph"],
            "io.emit_s": outer["io.labeling_to_json"],
            "pipeline.label_s": outer["pipeline.label_outerplanar"],
            "pipeline.verify_s": by_site["labeling.verify", "pipeline"],
            "embedding.recognize_s": outer["embedding.recognize_embed"],
            "embedding.recognize_calls": counts["embedding.recognize_calls"],
            "embedding.rework_ratio": ratio("recognize.elements", input_elements),
            "graphs.builds": counts["graphs.builds"],
            "graphs.blocks_s": outer["graphs.blocks"],
            "structure.config_s": outer["structure.find_configuration"],
            "structure.config_calls": counts["structure.config_calls"],
            "structure.chain_s": outer["structure.chain"],
            "exact.extend_s": outer["exact.extend_bounded"],
            "exact.extend_calls": counts["exact.extend_calls"],
            "exact.extend_nodes": counts["exact.extend_nodes"],
            "exact.extend_misses": counts["exact.extend_misses"],
            "exact.extend_scope_ratio": ratio("extend.graph_elements",
                                              counts["extend.freed"]),
            "exact.tiny_search_s": outer["exact.find_labeling_bounded"],
            "exact.oracle_s": outer["exact.lambda_exact"],
            "exact.oracle_nodes": counts["exact.oracle_nodes"],
            "exact.oracle_k_steps": counts["exact.oracle_k_steps"],
            "labeling.verify_s": outer["labeling.verify"],
            "labeling.verify_calls": counts["labeling.verify_calls"],
            "labeling.verify_rework_ratio": ratio("verify.elements", input_elements),
            "delta3.self_s": self_time["delta3"],
            "delta3.k2_s": outer["delta3.label_k2"],
            "delta3.fallbacks": counts["delta3.fallbacks"],
            "delta3.junction_patches": counts["delta3.junction_patches"],
            "delta4.self_s": self_time["delta4"],
            "delta4.template_s": outer["delta4.chain_template"],
            "delta4.widened": counts["delta4.widened"],
            "delta4.template_fallbacks": counts["delta4.template_fallbacks"],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["key", "site", "start", "end", "parent", "op",
                                 "outer"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize_passes(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time over the traced passes; counts must not differ between passes."""
    out: dict = {}
    unstable: list[str] = []
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if PER_LAYER_UNITS[name] == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    return out, unstable
