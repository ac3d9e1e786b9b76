"""File formats: edge-list text, graph/labeling JSON, DOT, embedding JSON."""

from __future__ import annotations

import json
import re
from itertools import chain, repeat
from typing import Any

from .embedding import OuterplanarEmbedding
from .graphs import Graph
from .labeling import TotalLabeling


class FormatError(ValueError):
    pass


# A line of two decimal ids, or a blank one, as ``dump_edgelist`` writes them.
_PLAIN_LINE = r"[ \t]*+(?:[0-9]++[ \t]++[0-9]++[ \t]*+)?+"
# Plain lines between the line breaks ``str.splitlines`` knows.  Every
# quantifier is possessive, so a match of a whole text keeps no
# backtracking state.
_PLAIN_TEXT = re.compile(
    rf"{_PLAIN_LINE}(?:[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]{_PLAIN_LINE})*+")


def parse_edgelist(text: str) -> Graph:
    """One ``u v`` pair per line; ``#`` starts a comment.

    Vertices are the endpoints that appear (the format cannot express
    isolated vertices).  A text whose every line is plain (``_PLAIN_TEXT``,
    one match of the whole text) has no fault to report, so its ids are
    read in one pass (``_plain_ids``).  Every other text (comments, other
    whitespace, signs, a wrong token count, an id ``int`` refuses, no edge)
    goes to the line scan, which raises at its first faulty line.
    """
    if _PLAIN_TEXT.fullmatch(text):
        ends = _plain_ids(text)
        if ends:
            return Graph.from_edges(zip(ends[::2], ends[1::2]))
    return _scan_edgelist(text)


def _plain_ids(text: str) -> list[int]:
    """The ids of a plain text in order, or [] if ``int`` refuses one.

    A text as ``dump_edgelist`` writes it, one space or line break between
    ids, is a JSON array once each of those is a comma, so the C decoder
    reads it.  JSON refuses other gaps and leading zeros; those texts are
    read by ``int``.
    """
    ids = text.replace(" ", ",").replace("\n", ",").rstrip(",")
    try:
        return json.loads(f"[{ids}]")
    except ValueError:
        pass
    try:
        return list(map(int, text.split()))
    except ValueError:  # more digits than ``int`` converts
        return []


def _scan_edgelist(text: str) -> Graph:
    """``parse_edgelist`` line by line, raising at the first faulty line."""
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
    """``f`` as JSON: ``k``, the vertex labels by id (as strings), in the
    assignment's order, and ``[u, v, label]`` per labeled edge, sorted.

    ``f.graph.edges`` is already sorted, so the edges are read off it with
    no sort.  When some edge key is not one of its edges (a pair outside
    the graph, or not normalized), every edge key is still written, sorted
    as a list.
    """
    a = f.assignment
    vertices = {str(v): lab for v, lab in a.items() if isinstance(v, int)}
    edges = [[*e, a[e]] for e in f.graph.edges if e in a]
    if len(vertices) + len(edges) != len(a):
        edges = sorted([*e, lab] for e, lab in a.items() if isinstance(e, tuple))
    return {"k": f.k, "vertices": vertices, "edges": edges}


def labeling_to_text(f: TotalLabeling) -> str:
    """``json.dumps(labeling_to_json(f))``, converting each id and label once.

    When every key is an ``int`` vertex or an edge of the graph, every edge
    and both its ends are labeled, and every label is an ``int``, the text
    is joined from the decimal strings of the labeled vertices and of the
    labels in use, each made once, with the vertices in the assignment's
    order and the edges in the graph's.  Any other labeling is written from
    ``labeling_to_json``.
    """
    a, es = f.assignment, f.graph.edges
    vertices = [v for v in a if type(v) is int]
    if len(vertices) + len(es) == len(a) and set(map(type, a.values())) <= {int}:
        names = list(map(str, vertices))
        labels = set(a.values())
        label = dict(zip(labels, map(str, labels))).__getitem__
        # both ends of each edge, in turn, from one iterator
        ends = map(dict(zip(vertices, names)).__getitem__, chain.from_iterable(es))
        try:  # a KeyError: an edge or an end of one is unlabeled
            vpart = "".join(chain.from_iterable(zip(
                repeat('"'), names, repeat('": '),
                map(label, map(a.__getitem__, vertices)), repeat(", "))))
            epart = "".join(chain.from_iterable(zip(
                repeat("["), ends, repeat(", "), ends, repeat(", "),
                map(label, map(a.__getitem__, es)), repeat("], "))))
        except KeyError:
            pass
        else:  # each part without its last ", "
            return (f'{{"k": {json.dumps(f.k)}, "vertices": {{{vpart[:-2]}}}, '
                    f'"edges": [{epart[:-2]}]}}')
    return json.dumps(labeling_to_json(f))


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
