"""Immutable undirected simple graphs and basic connectivity primitives.

Vertices are nonnegative integers; an edge is the normalized pair
``(min(u, v), max(u, v))``.  All mutating operations return new graphs.
"""

from __future__ import annotations

from itertools import filterfalse
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

    __slots__ = ("_vertices", "_adj", "_edges")

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
        self._vertices: tuple[int, ...] = tuple(vs)
        self._adj: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in adj.items()
        }
        self._edges: tuple[Edge, ...] = tuple(sorted(es))

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], n: int | None = None) -> "Graph":
        """Build from an edge list; vertices are the endpoints plus 0..n-1."""
        edges = [norm_edge(u, v) for u, v in edges]
        vs: set[int] = set()
        for u, v in edges:
            vs.add(u)
            vs.add(v)
        if n is not None:
            vs.update(range(n))
        return cls(vs, edges)

    # -- accessors ---------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

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
        if not self._vertices:
            raise ValueError("empty graph has no maximum degree")
        return max(map(len, self._adj.values()))

    def min_degree(self) -> int:
        if not self._vertices:
            raise ValueError("empty graph has no minimum degree")
        return min(map(len, self._adj.values()))

    def elements(self) -> Iterator[Element]:
        yield from self._vertices
        yield from self._edges

    def incident_edges(self, v: int) -> list[Edge]:
        return [norm_edge(v, u) for u in self._adj[v]]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        out: list[list[int]] = []
        for s in self._vertices:
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
        for root in self._vertices:
            if root in disc:
                continue
            parent[root] = None
            root_children = 0
            # stack holds (vertex, iterator over neighbors)
            stack: list[tuple[int, Iterator[int]]] = [(root, iter(self._adj[root]))]
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
                        estack.append(norm_edge(u, w))
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, iter(self._adj[w])))
                        advanced = True
                        break
                    elif w != parent[u] and disc[w] < disc[u]:
                        estack.append(norm_edge(u, w))
                        low[u] = min(low[u], disc[w])
                if advanced:
                    continue
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        # p separates u's subtree: pop one block
                        block: list[Edge] = []
                        pe = norm_edge(p, u)
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

    def bridges(self) -> set[Edge]:
        """Edges lying in no cycle (their removal disconnects the graph)."""
        return {
            b.edges[0] for b in self.biconnected_components() if b.n == 2
        }

    # -- derived graphs ----------------------------------------------------

    def remove_vertices(self, remove: Iterable[int]) -> "Graph":
        """This graph without ``remove`` (unknown ids are ignored).

        Only the adjacency tuples of the removed vertices' neighbours are
        rebuilt; everything else is copied or filtered by C-level calls, so
        the Python work is set by the removed vertices' degrees.  The result
        equals ``induced`` on the vertices left, tuple for tuple.
        """
        drop = set(remove).intersection(self._adj)
        adj = dict(self._adj)
        near: set[int] = set()
        for v in drop:
            near.update(adj.pop(v))
        for w in near.difference(drop):
            adj[w] = tuple(filterfalse(drop.__contains__, adj[w]))
        lost = {norm_edge(v, w) for v in drop for w in self._adj[v]}
        out = Graph.__new__(Graph)
        out._vertices = tuple(filterfalse(drop.__contains__, self._vertices))
        out._adj = adj
        out._edges = tuple(filterfalse(lost.__contains__, self._edges))
        return out

    def induced(self, keep: Iterable[int]) -> "Graph":
        """The subgraph on ``keep``, filtered from this graph's sorted tuples."""
        ks = set(keep)
        unknown = ks.difference(self._adj)
        if unknown:
            raise ValueError(f"vertices {sorted(unknown)} are not in the graph")
        out = Graph.__new__(Graph)
        out._vertices = tuple(v for v in self._vertices if v in ks)
        out._adj = {
            v: tuple(w for w in self._adj[v] if w in ks) for v in out._vertices
        }
        # adjacency tuples are sorted, so this lists the edges in sorted order
        out._edges = tuple(
            (v, w) for v in out._vertices for w in out._adj[v] if w > v
        )
        return out

    def remove_edges(self, remove: Iterable[Edge]) -> "Graph":
        """This graph without the listed edges, filtered like ``induced``."""
        drop = {norm_edge(u, v) for u, v in remove}
        if not drop:
            return self
        out = Graph.__new__(Graph)
        out._vertices = self._vertices
        out._adj = dict(self._adj)
        for v in {x for e in drop for x in e}.intersection(self._adj):
            out._adj[v] = tuple(
                w for w in self._adj[v] if norm_edge(v, w) not in drop
            )
        out._edges = tuple(e for e in self._edges if e not in drop)
        return out

    def add_edges(self, add: Iterable[Edge]) -> "Graph":
        """Edge-augmented graph; endpoints missing from the vertex set are added."""
        new_edges = [norm_edge(u, v) for u, v in add]
        vs = set(self._vertices)
        for u, v in new_edges:
            vs.add(u)
            vs.add(v)
        return Graph(vs, list(self._edges) + new_edges)

    def union(self, other: "Graph") -> "Graph":
        return Graph(
            set(self._vertices) | set(other._vertices),
            list(self._edges) + list(other._edges),
        )
