"""File formats: edge-list text, graph/labeling JSON, DOT, embedding JSON."""

from __future__ import annotations

import json
from typing import Any

from .embedding import OuterplanarEmbedding
from .graphs import Graph
from .labeling import TotalLabeling


class FormatError(ValueError):
    pass


def parse_edgelist(text: str) -> Graph:
    """One ``u v`` pair per line; ``#`` starts a comment.

    Vertices are the endpoints that appear (the format cannot express
    isolated vertices).
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-integer vertex id") from exc
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: vertex ids must be nonnegative")
        edges.append((u, v))
    if not edges:
        raise FormatError("empty edge list")
    return Graph.from_edges(edges)


def dump_edgelist(g: Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in g.edges) + "\n"


def parse_graph_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise FormatError('graph JSON needs {"n": int, "edges": [[u, v], ...]}')
    edges = data["edges"]
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 for e in edges
    ):
        raise FormatError('"edges" must be a list of [u, v] pairs')
    n = _int(data["n"], "n")
    if n < 0:
        raise FormatError(f"n must be nonnegative, got {n}")
    ends = [_int(x, "vertex id") for e in edges for x in e]
    if any(x < 0 for x in ends):
        raise FormatError("vertex ids must be nonnegative")
    if any(x >= n for x in ends):
        raise FormatError(f"vertex id {max(ends)} is not below n = {n}")
    try:
        return Graph.from_edges(zip(ends[::2], ends[1::2]), n=n)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def dump_graph_json(g: Graph) -> str:
    n = (max(g.vertices) + 1) if g.vertices else 0
    return json.dumps({"n": n, "edges": [list(e) for e in g.edges]})


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "json":
        return parse_graph_json(text)
    raise FormatError(f"unknown graph format {fmt!r}")


def labeling_to_json(f: TotalLabeling) -> dict[str, Any]:
    labels = f.assignment.items()
    vertices = {str(v): lab for v, lab in labels if isinstance(v, int)}
    edges = [[e[0], e[1], lab] for e, lab in labels if isinstance(e, tuple)]
    edges.sort()
    return {"k": f.k, "vertices": vertices, "edges": edges}


def _int(x: Any, what: str) -> int:
    """An integer, or the decimal string of one (JSON object keys are strings)."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise FormatError(f"{what} must be an integer, got {x!r}")
    try:
        return int(x)
    except ValueError as exc:
        raise FormatError(f"{what} must be an integer, got {x!r}") from exc


def labeling_from_json(data: dict[str, Any], g: Graph) -> TotalLabeling:
    if not isinstance(data, dict) or "k" not in data:
        raise FormatError('labeling JSON needs "k", "vertices", "edges"')
    vertices = data.get("vertices", {})
    items = data.get("edges", [])
    if not isinstance(vertices, dict) or not isinstance(items, list):
        raise FormatError('"vertices" must be an object and "edges" a list')
    k = _int(data["k"], "k")
    if k < 0:
        raise FormatError(f"k must be nonnegative, got {k}")
    f = TotalLabeling(g, k)
    for v, lab in vertices.items():
        vi = _int(v, "vertex id")
        if not g.has_vertex(vi):
            raise FormatError(f"labeling mentions unknown vertex {vi}")
        if vi in f.assignment:
            raise FormatError(f"labeling gives vertex {vi} twice")
        f.set(vi, _int(lab, f"label of vertex {vi}"))
    edges = set(g.edges)
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise FormatError(f"edge entries must be [u, v, label], got {item!r}")
        u, v, lab = (_int(x, "edge entry") for x in item)
        e = (min(u, v), max(u, v))
        if e not in edges:
            raise FormatError(f"labeling mentions unknown edge {e}")
        if e in f.assignment:
            raise FormatError(f"labeling gives edge {e} twice")
        f.set(e, lab)
    return f


def to_dot(g: Graph, f: TotalLabeling | None = None) -> str:
    lines = ["graph G {"]
    for v in g.vertices:
        if f is not None and f.vertex(v) is not None:
            lines.append(f'  {v} [label="{v}:{f.vertex(v)}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges:
        if f is not None and f.edge(u, v) is not None:
            lines.append(f'  {u} -- {v} [label="{f.edge(u, v)}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def embedding_to_json(emb: OuterplanarEmbedding) -> dict[str, Any]:
    blocks = []
    for b in emb.blocks:
        blocks.append(
            {
                "boundary": list(b.cycle),
                "chords": sorted(list(e) for e in b.chords),
                "faces": [
                    {"vertices": list(fc.vertices), "chords": fc.inner_edge_count}
                    for fc in b.faces
                ],
            }
        )
    return {
        "blocks": blocks,
        "bridges": sorted(list(e) for e in emb.bridge_edges),
        "outer_edges": sorted(list(e) for e in emb.outer_edges),
        "inner_edges": sorted(list(e) for e in emb.inner_edges),
    }
