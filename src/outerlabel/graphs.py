"""Immutable undirected simple graphs and basic connectivity primitives.

Vertices are nonnegative integers; an edge is the normalized pair
``(min(u, v), max(u, v))``.  Graph operations return new graphs, except on
a working copy (``working_copy``), which ``cut`` changes in place and
``put_back`` restores from the record ``cut`` returned; the reduction driver
keeps one.  A working copy counts its degrees into a histogram once, and a
cut patches it at the vertices it touches, so its extreme degrees cost O(Δ);
any other graph finds them by a scan.  A cut of one vertex, the usual
reduction step, slices it out of its neighbours' tuples, so it costs
O(Δ²) and builds no map of what each neighbour loses.  A working copy or an
induced subgraph lists its sorted vertex and edge tuples only when they are
first read.  ``from_edges`` keeps the sorted vertices it computes, and
keeps the pairs it was given as the edges when they came as tuples in
sorted order (as ``io.parse_edgelist`` reads a written edge list); other
input has its edges listed when first read.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Iterator


Edge = tuple[int, int]
# A labelable element is either a vertex id or a normalized edge pair.
Element = int | Edge


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def is_edge_element(x: Element) -> bool:
    return isinstance(x, tuple)


class Graph:
    """Undirected simple graph with stable integer vertex ids."""

    __slots__ = ("_vertices", "_adj", "_edges", "_m", "_degrees")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]):
        vs = sorted(set(int(v) for v in vertices))
        adj: dict[int, set[int]] = {v: set() for v in vs}
        es: set[Edge] = set()
        for u, v in edges:
            e = norm_edge(int(u), int(v))
            if e[0] not in adj or e[1] not in adj:
                raise ValueError(f"edge {e} uses unknown vertex")
            es.add(e)
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        self._vertices: tuple[int, ...] | None = tuple(vs)
        self._adj: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in adj.items()
        }
        self._edges: tuple[Edge, ...] | None = tuple(sorted(es))
        self._m = len(es)
        self._degrees: list[int] | None = None

    @classmethod
    def _of(
        cls, adj: dict[int, tuple[int, ...]], m: int, degrees: list[int] | None
    ) -> "Graph":
        """A graph on sorted adjacency tuples; vertices and edges are listed lazily."""
        out = cls.__new__(cls)
        out._vertices = out._edges = None
        out._adj, out._m, out._degrees = adj, m, degrees
        return out

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], n: int | None = None) -> "Graph":
        """Build from an edge list; vertices are the endpoints plus 0..n-1.

        Each edge is read once, into adjacency lists; a self-loop raises
        ValueError.  Edges in the order ``edges`` lists them (each ``u < v``,
        increasing, none twice) leave every list sorted, and when each is a
        tuple they are kept as ``edges``; any other order pays a sort and a
        set per vertex, and its edges are listed when first read.  The
        sorted vertices are kept either way."""
        pairs = tuple(edges)
        adj = defaultdict(list, {v: [] for v in range(n or 0)})
        ordered, lu, lv = True, -1, -1
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if ordered and not (u < v and (u > lu or u == lu and v > lv)):
                ordered = False
            lu, lv = u, v
            adj[u].append(v)
            adj[v].append(u)
        vs = sorted(adj)
        if ordered:
            out = {v: tuple(adj[v]) for v in vs}
        else:
            out = {v: tuple(sorted(set(adj[v]))) for v in vs}
        g = cls._of(out, sum(map(len, out.values())) // 2, None)
        g._vertices = tuple(vs)
        if ordered and set(map(type, pairs)) <= {tuple}:
            g._edges = pairs
        return g

    # -- accessors ---------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        if self._vertices is None:
            self._vertices = tuple(sorted(self._adj))
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            # adjacency tuples are sorted, so this lists the edges in sorted order
            adj = self._adj
            self._edges = tuple(
                (v, w) for v in self.vertices for w in adj[v] if w > v
            )
        return self._edges

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        if v not in self._adj:
            raise KeyError(f"unknown vertex {v}")
        return len(self._adj[v])

    def max_degree(self) -> int:
        if not self._adj:
            raise ValueError("empty graph has no maximum degree")
        if self._degrees is None:  # a scan costs less than counting
            return max(map(len, self._adj.values()))
        top = len(self._degrees) - 1
        while not self._degrees[top]:
            top -= 1
        return top

    def min_degree(self) -> int:
        if not self._adj:
            raise ValueError("empty graph has no minimum degree")
        if self._degrees is None:
            return min(map(len, self._adj.values()))
        low = 0
        while not self._degrees[low]:
            low += 1
        return low

    def _histogram(self) -> list[int]:
        """How many vertices have each degree, from 0 up to the maximum."""
        if self._degrees is None:
            counts = Counter(map(len, self._adj.values()))  # counted at C level
            self._degrees = [counts[d] for d in range(max(counts, default=0) + 1)]
        return self._degrees

    def elements(self) -> Iterator[Element]:
        yield from self.vertices
        yield from self.edges

    def incident_edges(self, v: int) -> list[Edge]:
        return [(v, u) if v < u else (u, v) for u in self._adj[v]]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        out: list[list[int]] = []
        for s in self.vertices:
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def cut_vertices(self) -> set[int]:
        return self._block_decomposition()[1]

    def biconnected_components(self) -> list["Graph"]:
        """Maximal 2-connected blocks as vertex-induced subgraphs.

        Bridges appear as 2-vertex blocks; blocks pairwise share at most one
        vertex, which is a cut vertex.
        """
        blocks, _ = self._block_decomposition()
        out = []
        for block_edges in blocks:
            vs = sorted({v for e in block_edges for v in e})
            out.append(Graph(vs, block_edges))
        return out

    def _block_decomposition(self) -> tuple[list[list[Edge]], set[int]]:
        """Iterative DFS block/cut-vertex decomposition."""
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        parent: dict[int, int | None] = {}
        cuts: set[int] = set()
        blocks: list[list[Edge]] = []
        estack: list[Edge] = []
        timer = 0
        adj = self._adj
        for root in self.vertices:
            if root in disc:
                continue
            parent[root] = None
            root_children = 0
            # stack holds (vertex, iterator over neighbors)
            stack: list[tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
            disc[root] = low[root] = timer
            timer += 1
            while stack:
                u, it = stack[-1]
                advanced = False
                for w in it:
                    if w not in disc:
                        parent[w] = u
                        if u == root:
                            root_children += 1
                        estack.append((u, w) if u < w else (w, u))
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, iter(adj[w])))
                        advanced = True
                        break
                    dw = disc[w]
                    if dw < disc[u] and w != parent[u]:
                        estack.append((u, w) if u < w else (w, u))
                        if dw < low[u]:
                            low[u] = dw
                if advanced:
                    continue
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:
                        # p separates u's subtree: pop one block
                        block: list[Edge] = []
                        pe = (p, u) if p < u else (u, p)
                        while estack:
                            e = estack.pop()
                            block.append(e)
                            if e == pe:
                                break
                        if block:
                            blocks.append(block)
                        if p != root:
                            cuts.add(p)
            if root_children >= 2:
                cuts.add(root)
        return blocks, cuts

    # -- a working copy, changed in place ----------------------------------

    def working_copy(self) -> "Graph":
        """A copy for ``cut`` and ``put_back``; this graph is never changed."""
        return Graph._of(dict(self._adj), self._m, self._histogram().copy())

    def cut(self, vertices: Iterable[int], edges: Iterable[Edge] = ()) -> tuple:
        """Remove ``vertices`` and existing ``edges`` from a working copy, in
        place; the undo record holds the tuples it changed, so ``put_back``
        costs what the cut did.  One vertex and no edges (most cuts) is
        sliced out of each neighbour's tuple; otherwise each neighbour's
        tuple is filtered by what it loses.  ``vertices`` may be any
        iterable, a generator too."""
        adj = self._adj
        degrees = self._degrees or self._histogram()
        saved = []
        ends = 0
        vertices = tuple(vertices)
        if len(vertices) == 1 and not edges:
            (v,) = vertices
            ns = adj.pop(v, None)
            if ns is not None:
                saved.append((v, ns))
                degrees[len(ns)] -= 1
                ends = 2 * len(ns)
                for w in ns:
                    ws = adj[w]
                    saved.append((w, ws))
                    i = ws.index(v)
                    adj[w] = ws[:i] + ws[i + 1:]
                    degrees[len(ws)] -= 1
                    degrees[len(ws) - 1] += 1
        else:
            lose: dict[int, list[int]] = {}
            for v in vertices:
                ns = adj.pop(v, None)
                if ns is not None:
                    saved.append((v, ns))
                    degrees[len(ns)] -= 1
                    ends += len(ns)
                    for w in ns:
                        lose.setdefault(w, []).append(v)
            for a, b in edges:
                lose.setdefault(a, []).append(b)
                lose.setdefault(b, []).append(a)
            for w, xs in lose.items():
                ns = adj.get(w)
                if ns is None:  # removed as well
                    continue
                saved.append((w, ns))
                adj[w] = left = tuple([u for u in ns if u not in xs])
                degrees[len(ns)] -= 1
                degrees[len(left)] += 1
                ends += len(ns) - len(left)
        record = (saved, self._m)
        self._m -= ends // 2
        self._vertices = self._edges = None
        return record

    def put_back(self, record: tuple) -> None:
        """Undo the ``cut`` that returned ``record``, after every later one."""
        saved, self._m = record
        adj, degrees = self._adj, self._degrees
        for v, ns in reversed(saved):
            cur = adj.get(v)
            if cur is not None:
                degrees[len(cur)] -= 1
            adj[v] = ns
            degrees[len(ns)] += 1
        self._vertices = self._edges = None

    # -- derived graphs ----------------------------------------------------

    def induced(self, keep: Iterable[int]) -> "Graph":
        """The subgraph on ``keep``, its adjacency filtered from this graph's."""
        ks = set(keep)
        unknown = ks.difference(self._adj)
        if unknown:
            raise ValueError(f"vertices {sorted(unknown)} are not in the graph")
        adj = {v: tuple(w for w in self._adj[v] if w in ks) for v in sorted(ks)}
        return Graph._of(adj, sum(map(len, adj.values())) // 2, None)

    def add_edges(self, add: Iterable[Edge]) -> "Graph":
        """Edge-augmented graph; endpoints missing from the vertex set are added."""
        new_edges = [norm_edge(u, v) for u, v in add]
        vs = set(self._adj)
        for u, v in new_edges:
            vs.add(u)
            vs.add(v)
        return Graph(vs, list(self.edges) + new_edges)

