"""The benchmark's tracer patches names that the package must keep."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from outerlabel import exact, pipeline
from outerlabel.graphs import Graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for site, attr, _ in tracing.BINDINGS:
        module = importlib.import_module(f"outerlabel.{site}")
        assert callable(module.__dict__.get(attr)), f"outerlabel.{site}.{attr}"
    for attr, _ in tracing.GRAPH_METHODS:
        assert callable(Graph.__dict__.get(attr)), f"Graph.{attr}"


def test_positional_signatures():
    # the tracer's wrappers pass these arguments by position
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(exact.extend_bounded) == ["f", "free", "k", "p", "stats"]
    assert params(pipeline.label_outerplanar) == ["g", "fallback_search", "diag"]
