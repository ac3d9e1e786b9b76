"""Total labelings of vertices and edges, and the validity verifier.

A labeling assigns integers from ``{0..k}`` to vertices and edges.  It is
valid at separation ``p`` when every vertex differs from each incident edge
by at least ``p``, and adjacent vertices (or edges sharing an endpoint)
carry distinct labels.  The verifier below is the single source of truth:
every constructive labeler's output is checked through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, sub
from typing import Iterable, Mapping

from .graphs import Edge, Element, Graph, norm_edge


@dataclass(frozen=True)
class Violation:
    kind: str  # see VIOLATION_KINDS
    witnesses: tuple[Element, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.witnesses}"


VIOLATION_KINDS = (
    "vertex-edge-too-close",
    "adjacent-vertices-equalish",
    "adjacent-edges-equalish",
    "unlabeled-element",
    "label-out-of-range",
)


@dataclass(slots=True)
class TotalLabeling:
    """Partial or total assignment from vertices and edges to ``{0..k}``."""

    graph: Graph
    k: int
    assignment: dict[Element, int] = field(default_factory=dict)

    def get(self, element: Element) -> int | None:
        return self.assignment.get(element)

    def vertex(self, v: int) -> int | None:
        return self.get(v)

    def edge(self, u: int, v: int) -> int | None:
        return self.get(norm_edge(u, v))

    def set(self, element: Element, label: int) -> None:
        self.assignment[element] = label

    def set_edge(self, u: int, v: int, label: int) -> None:
        self.set(norm_edge(u, v), label)

    def update(self, other: Mapping[Element, int]) -> None:
        self.assignment.update(other)


def span(f: TotalLabeling) -> int:
    """Largest assigned label."""
    if not f.assignment:
        raise ValueError("empty labeling has no span")
    return max(f.assignment.values())


def verify(f: TotalLabeling, p: int = 2) -> list[Violation]:
    """All constraint violations of ``f`` at vertex-edge separation ``p``.

    An empty list means the labeling is a valid (p,1)-total labeling.
    Validity is decided first, in ``_valid``'s whole-list passes; only when
    they find a fault does the ordered scan run, which is deterministic and
    exhaustive.  The violations come in four runs: unlabeled or out-of-range
    elements (vertices, then edges), equal adjacent vertices, vertex-edge
    pairs closer than ``p`` (by edge, then end), and equal edges at a vertex
    (by vertex, then pairs of its edges in adjacency order).  One pass over
    the edges reads each edge's labels once for the first three; a vertex
    whose present edge labels are all distinct (labels are integers) has no
    pair to report.
    """
    if _valid(f, p):
        return []
    g = f.graph
    get = f.assignment.get
    k = f.k
    out: list[Violation] = []
    for v in g.vertices:
        lab = get(v)
        if lab is None:
            out.append(Violation("unlabeled-element", (v,)))
        elif not (0 <= lab <= k):
            out.append(Violation("label-out-of-range", (v,)))

    equal: list[Violation] = []
    close: list[Violation] = []
    for e in g.edges:
        u, v = e
        le, lu, lv = get(e), get(u), get(v)
        if lu is not None and lv is not None and abs(lu - lv) < 1:
            equal.append(Violation("adjacent-vertices-equalish", e))
        if le is None:
            out.append(Violation("unlabeled-element", (e,)))
            continue
        if not (0 <= le <= k):
            out.append(Violation("label-out-of-range", (e,)))
        if lu is not None and abs(lu - le) < p:
            close.append(Violation("vertex-edge-too-close", (u, e)))
        if lv is not None and abs(lv - le) < p:
            close.append(Violation("vertex-edge-too-close", (v, e)))
    out += equal
    out += close

    nbrs = g.neighbors
    for v in g.vertices:
        inc = [(v, w) if v < w else (w, v) for w in nbrs(v)]
        labs = [get(e) for e in inc]
        if len(set(labs)) == len(labs):
            continue
        for i in range(len(inc)):
            le = labs[i]
            if le is None:
                continue
            for j in range(i + 1, len(inc)):
                lf = labs[j]
                if lf is not None and abs(le - lf) < 1:
                    out.append(Violation("adjacent-edges-equalish", (inc[i], inc[j])))
    return out


def _valid(f: TotalLabeling, p: int) -> bool:
    """Whether ``verify(f, p)`` is empty, decided in whole-list passes.

    A missing label reads as past the range.  The labels must lie in
    ``{0..k}``, the gaps must reach 1 and ``p``, and the edges' (end, label)
    pairs must be 2m distinct ones.
    """
    g, k = f.graph, f.k
    get, es = f.assignment.get, g.edges
    vl = list(map(get, g.vertices, repeat(k + 1)))
    el = list(map(get, es, repeat(k + 1)))
    if min(vl + el, default=0) < 0 or max(vl + el, default=k) > k:
        return False
    us, ws = list(map(itemgetter(0), es)), list(map(itemgetter(1), es))
    lu, lw = list(map(get, us)), list(map(get, ws))
    return (min(map(abs, map(sub, lu, lw)), default=1) >= 1
            and min(map(abs, map(sub, lu, el)), default=p) >= p
            and min(map(abs, map(sub, lw, el)), default=p) >= p
            and len({*zip(us, el), *zip(ws, el)}) == 2 * len(es))


def verify_around(
    f: TotalLabeling, elements: Iterable[Element], p: int = 2
) -> list[Violation]:
    """The violations of ``verify(f, p)`` that have a witness in ``elements``.

    Only the given elements and the constraints they take part in are read,
    so the cost does not grow with the graph.  When ``f`` agrees, outside
    ``elements``, with a labeling known to be valid on a subgraph, and every
    element outside that subgraph is in ``elements``, an empty result means
    ``verify(f, p)`` is empty too.  Raises ValueError on an element that is
    not in the graph.  Labels are integers, so a gap below 1 is an equal
    pair.
    """
    g, k = f.graph, f.k
    get, adj = f.assignment.get, g._adj
    out: dict[Violation, None] = {}
    for el in elements:
        edge = isinstance(el, tuple)
        if edge:
            u, w = el
            if u > w:
                el = (w, u)
            if w not in adj.get(u, ()):
                raise ValueError(f"edge {el} is not in the graph")
        elif el not in adj:
            raise ValueError(f"vertex {el} is not in the graph")
        lab = get(el)
        if lab is None:
            out[Violation("unlabeled-element", (el,))] = None
            continue  # every pair it takes part in has a label missing
        if not 0 <= lab <= k:
            out[Violation("label-out-of-range", (el,))] = None
        if edge:
            for x in el:
                lx = get(x)
                if lx is not None and abs(lx - lab) < p:
                    out[Violation("vertex-edge-too-close", (x, el))] = None
                # edges at x in adjacency order, as ``verify`` pairs them
                y = el[0] + el[1] - x
                for z in adj[x]:
                    if z != y:
                        e = (x, z) if x < z else (z, x)
                        if get(e) == lab:
                            out[Violation("adjacent-edges-equalish",
                                          (el, e) if y < z else (e, el))] = None
        else:
            for w in adj[el]:
                e = (el, w) if el < w else (w, el)
                if get(w) == lab:
                    out[Violation("adjacent-vertices-equalish", e)] = None
                le = get(e)
                if le is not None and abs(lab - le) < p:
                    out[Violation("vertex-edge-too-close", (el, e))] = None
    return list(out)


def complement(f: TotalLabeling, k: int | None = None) -> TotalLabeling:
    """The labeling ``z -> k - f(z)``; valid exactly when ``f`` is."""
    kk = f.k if k is None else k
    for el, lab in f.assignment.items():
        if lab > kk:
            raise ValueError(f"label {lab} at {el} exceeds bound {kk}")
    return TotalLabeling(f.graph, kk, {el: kk - lab for el, lab in f.assignment.items()})


def incidence_graph(g: Graph) -> tuple[Graph, dict[int, Edge]]:
    """Subdivide every edge once.

    Returns the subdivided graph plus a map from each new midpoint vertex to
    its source edge.  Vertex labelings of the result at separations (p, 1)
    correspond exactly to (p,1)-total labelings of ``g``.
    """
    next_id = (max(g.vertices) + 1) if g.vertices else 0
    mid_of: dict[int, Edge] = {}
    edges: list[Edge] = []
    for e in g.edges:
        mid = next_id
        next_id += 1
        mid_of[mid] = e
        edges.append(norm_edge(e[0], mid))
        edges.append(norm_edge(mid, e[1]))
    vs = set(g.vertices) | set(mid_of)
    return Graph(vs, edges), mid_of


def degree_lower_bound(g: Graph, p: int = 2) -> int:
    """Smallest conceivable span: at a maximum-degree vertex the incident
    edges need distinct labels all at distance >= p from the vertex label."""
    if g.m == 0:
        return 0
    return g.max_degree() + p - 1
