"""Outerplanarity recognition and the boundary/chord/face embedding.

A connected outerplanar graph is handled block by block: every biconnected
block with three or more vertices has a unique Hamiltonian boundary cycle,
and all remaining block edges must be pairwise non-crossing chords of that
cycle.  Both are checked in near-linear time: the cycle by degree-2
reduction, the chords by one stack pass over the boundary positions in which
they must nest like parentheses.  The same pass traces the inner faces.
"Clockwise" means the stored orientation of each cycle; there are no
coordinates.

An embedding is kept up to date as vertices and edges are removed
(``OuterplanarEmbedding.without``), as in S. L. Mitchell's linear
recognition (Inf. Process. Lett. 9(5), 1979): only the blocks a removal
touches are redone.  A block that loses one arc of its boundary cycle
(an ear, a 2-vertex, a chain's interior, all of a leaf block but its cut
vertex) falls apart along the path left of its cycle, without searching
for any boundary again.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Iterable, Sequence

from .graphs import Edge, Graph, norm_edge


class NotOuterplanar(ValueError):
    """Raised when some block has no boundary cycle or has crossing chords."""


@dataclass(frozen=True)
class Face:
    """An inner face as a cyclic vertex sequence, plus its chord count."""

    vertices: tuple[int, ...]
    inner_edge_count: int

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[Edge]:
        vs = self.vertices
        return [norm_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))


@dataclass(frozen=True)
class BlockEmbedding:
    """One biconnected block: boundary cycle, chords, inner faces."""

    cycle: tuple[int, ...]
    chords: frozenset[Edge]
    faces: tuple[Face, ...]

    def outer_edges(self) -> list[Edge]:
        c = self.cycle
        return [norm_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))]


@dataclass(frozen=True)
class OuterplanarEmbedding:
    """The blocks, sorted by boundary cycle, and the bridges of a graph.

    ``may_split`` is set by ``without`` when its remainder may be
    disconnected; ``split`` then gives the embedding of each component.
    """

    graph: Graph
    blocks: tuple[BlockEmbedding, ...]
    bridge_edges: frozenset[Edge]
    may_split: bool = field(default=False, compare=False)

    @property
    def outer_edges(self) -> set[Edge]:
        out = set(self.bridge_edges)
        for b in self.blocks:
            out.update(b.outer_edges())
        return out

    @property
    def inner_edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for b in self.blocks:
            out.update(b.chords)
        return out

    @property
    def inner_faces(self) -> list[Face]:
        out: list[Face] = []
        for b in self.blocks:
            out.extend(b.faces)
        return out

    @property
    def boundary(self) -> tuple[int, ...]:
        """Boundary cycle of a 2-connected host (single block, no bridges)."""
        if self.bridge_edges or len(self.blocks) != 1:
            raise ValueError("boundary cycle is only stored for 2-connected hosts")
        b = self.blocks[0]
        if len(b.cycle) != self.graph.n:
            raise ValueError("boundary cycle is only stored for 2-connected hosts")
        return b.cycle

    def is_biconnected(self) -> bool:
        return not self.bridge_edges and len(self.blocks) == 1 and (
            len(self.blocks[0].cycle) == self.graph.n
        )

    def reversed(self) -> "OuterplanarEmbedding":
        """The same embedding with every boundary cycle read the other way."""
        blocks = tuple(
            _finish_block(b.cycle[::-1], b.chords) for b in self.blocks
        )
        return OuterplanarEmbedding(self.graph, blocks, self.bridge_edges)

    def cut_vertices(self) -> set[int]:
        """The vertices lying on two or more blocks and bridges."""
        on = Counter(v for b in self.blocks for v in b.cycle)
        on.update(v for e in self.bridge_edges for v in e)
        return {v for v, c in on.items() if c > 1}

    def without(
        self, vertices: Iterable[int], edges: Iterable[Edge] = ()
    ) -> "OuterplanarEmbedding":
        """The embedding of the graph with ``vertices`` and ``edges`` removed.

        Blocks and bridges that lose nothing are kept as they are.  A block
        that loses one arc of its cycle, and chords at most, leaves the path
        ``P`` around the rest of its cycle: each outermost chord left on
        ``P`` closes a block on the stretch under it, and each edge of ``P``
        under no chord is a bridge (so losing an ear splices the boundary
        across it, and a triangle leaves one bridge).  Any other block that
        loses something is decomposed again on what is left of it alone.
        Removal never joins blocks, so the result equals a fresh
        recognition of each component of the remainder.  It has
        ``may_split`` set when the remainder may be disconnected: a removed
        vertex lay on two or more blocks and bridges, a bridge was removed,
        or what is left of a block is not connected.
        """
        gone = set(vertices)
        cut = {norm_edge(u, v) for u, v in edges}
        g = self.graph.remove_vertices(gone).remove_edges(cut)
        met: Counter = Counter()
        may_split = self.may_split
        blocks: list[BlockEmbedding] = []
        bridges: set[Edge] = set()
        for e in self.bridge_edges:
            if e in cut:
                may_split = True
            elif e[0] in gone or e[1] in gone:
                met.update(v for v in e if v in gone)
            else:
                bridges.add(e)
        for b in self.blocks:
            hit = gone.intersection(b.cycle)
            lost = {e for e in cut if e[0] in b.cycle and e[1] in b.cycle}
            if not hit and not lost:
                blocks.append(b)
                continue
            met.update(hit)
            if _without_arc(b, gone, lost, blocks, bridges):
                continue
            rest = g.induced(v for v in b.cycle if v not in gone)
            may_split = may_split or not rest.is_connected()
            for blk in rest.biconnected_components():
                if blk.n == 2:
                    bridges.add(blk.edges[0])
                else:
                    blocks.append(embed_block(blk))
        may_split = may_split or any(c > 1 for c in met.values())
        blocks.sort(key=lambda b: b.cycle)
        return OuterplanarEmbedding(g, tuple(blocks), frozenset(bridges), may_split)

    def split(self) -> list["OuterplanarEmbedding"]:
        """The embedding of each component, in vertex order.

        Only an embedding with ``may_split`` set is checked; any other is
        connected and comes back as ``[self]``.
        """
        if not self.may_split:
            return [self]
        out = []
        for comp in self.graph.components():
            inside = set(comp)
            out.append(OuterplanarEmbedding(
                self.graph.induced(comp),
                tuple(b for b in self.blocks if b.cycle[0] in inside),
                frozenset(e for e in self.bridge_edges if e[0] in inside),
            ))
        return out


def _without_arc(
    b: BlockEmbedding,
    gone: set[int],
    lost: set[Edge],
    blocks: list[BlockEmbedding],
    bridges: set[Edge],
) -> bool:
    """If ``gone`` takes one arc of ``b``'s cycle and ``lost`` only chords,
    add what is left of ``b`` to ``blocks`` and ``bridges`` and return True;
    else add nothing and return False.

    The rest of the cycle is a path ``P``, on which the surviving chords
    nest as intervals.  Each outermost chord closes a block on the stretch
    of ``P`` under it, with the chords inside; each edge of ``P`` under no
    chord is a bridge.  Chords go in sorted, as recognition passes them, so
    each chord set iterates in the same order as a fresh one.
    """
    c = b.cycle
    starts = [i for i, v in enumerate(c) if v not in gone and c[i - 1] in gone]
    if len(starts) != 1:
        return False
    path = list(filterfalse(gone.__contains__, c[starts[0]:] + c[:starts[0]]))
    at = {v: t for t, v in enumerate(path)}
    if any(e not in b.chords for e in lost if e[0] in at and e[1] in at):
        return False  # a boundary edge of P is cut
    reach = list(range(len(path)))  # farthest chord end from each position
    chords_at: list[list[Edge]] = [[] for _ in path]  # by nearer end
    for e in b.chords:
        if e[0] in at and e[1] in at and e not in lost:
            i, j = sorted((at[e[0]], at[e[1]]))
            chords_at[i].append(e)
            reach[i] = max(reach[i], j)
    t = 0
    while t < len(path) - 1:
        q = reach[t]
        if q == t:
            bridges.add(norm_edge(path[t], path[t + 1]))
            t += 1
        else:
            blocks.append(_finish_block(
                _canonical_cycle(path[t:q + 1]),
                sorted(e for i in range(t, q) for e in chords_at[i])))
            t = q
    return True


def _boundary_cycle(block: Graph) -> tuple[int, ...]:
    """The Hamiltonian boundary cycle of a 2-connected outerplanar block.

    Repeatedly deletes the smallest-id degree-2 vertex, splicing its
    neighbors together, then reinserts the vertices in reverse order.  A
    2-connected graph of minimum degree 3 has no outerplane drawing, so
    getting stuck is a sound rejection.  Degrees never grow, so a heap with
    lazy deletion finds the vertex a full scan would.  The output does not
    depend on the removal order: a 2-connected outerplanar graph has exactly
    one Hamiltonian cycle, and ``_canonical_cycle`` fixes its rotation and
    direction.
    """
    n = block.n
    if block.m > 2 * n - 3:
        raise NotOuterplanar("too many edges for an outerplane drawing")
    adj: dict[int, set[int]] = {v: set(block.neighbors(v)) for v in block.vertices}
    ready = [v for v in block.vertices if len(adj[v]) == 2]  # sorted: a heap
    removed: list[tuple[int, int, int]] = []  # (vertex, left, right)
    while len(adj) > 3:
        while ready and len(adj.get(ready[0], ())) != 2:
            heapq.heappop(ready)
        if not ready:
            raise NotOuterplanar("a block has minimum degree 3")
        v2 = heapq.heappop(ready)
        a, b = sorted(adj.pop(v2))
        removed.append((v2, a, b))
        for x, y in ((a, b), (b, a)):
            adj[x].discard(v2)
            adj[x].add(y)
            if len(adj[x]) == 2:
                heapq.heappush(ready, x)
    if any(len(ns) != 2 for ns in adj.values()):
        raise NotOuterplanar("block does not reduce to a triangle")
    # reinsert in reverse removal order; neighbors must sit side by side
    first, second, third = sorted(adj)
    nxt = {first: second, second: third, third: first}
    for v, a, b in reversed(removed):
        if nxt[a] != b:
            a, b = b, a
        if nxt[a] != b:
            raise NotOuterplanar("chords of a block interleave")
        nxt[a], nxt[v] = v, b
    cycle = [first]
    for _ in range(n - 1):
        cycle.append(nxt[cycle[-1]])
    return _canonical_cycle(cycle)


def _canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate to the smallest vertex and orient toward its smaller neighbor."""
    k = len(cycle)
    i = cycle.index(min(cycle))
    rot = [cycle[(i + j) % k] for j in range(k)]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[1:][::-1]
    return tuple(rot)


def _finish_block(cycle: Sequence[int], edges: Iterable[Edge]) -> BlockEmbedding:
    """The block on boundary ``cycle``; its ``edges`` off the cycle are its chords.

    One stack pass over the boundary positions checks the chords and traces
    the inner faces.  The stack holds the positions still open, increasing,
    and consecutive entries are joined by an edge.  At position ``j`` each
    chord ``(i, j)``, innermost first, pops the positions above ``i``; they
    close a face with ``i`` and ``j``.  If ``i`` was already popped, the
    chord interleaves with the one that popped it.  The positions left at
    the end close the last face along the boundary edge back to position 0.
    A face lists its smallest-position vertex first, then the others in
    decreasing position.
    """
    k = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    chords: list[Edge] = []
    closing: list[list[int]] = [[] for _ in range(k)]
    for u, v in edges:
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        if 1 < j - i < k - 1:
            chords.append((u, v))
            closing[j].append(i)

    faces: list[Face] = []

    def close(run: list[int]) -> None:
        vs = (cycle[run[0]],) + tuple(cycle[p] for p in reversed(run[1:]))
        inner = sum(1 for a, b in zip(run, run[1:]) if b - a > 1)
        faces.append(Face(vs, inner + (run[-1] - run[0] < k - 1)))

    stack: list[int] = []
    for j in range(k):
        for i in sorted(closing[j], reverse=True):
            top = len(stack) - 1
            while stack[top] > i:
                top -= 1
            if stack[top] != i:
                raise NotOuterplanar(
                    f"chord {norm_edge(cycle[i], cycle[j])} interleaves another")
            close(stack[top:] + [j])
            del stack[top + 1:]
        stack.append(j)
    close(stack)
    faces.sort(key=Face.key)
    return BlockEmbedding(tuple(cycle), frozenset(chords), tuple(faces))


def embed_block(block: Graph) -> BlockEmbedding:
    return _finish_block(_boundary_cycle(block), block.edges)


def recognize_embed(g: Graph) -> OuterplanarEmbedding:
    """Recognize outerplanarity and build the embedding, or raise NotOuterplanar."""
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("recognition expects a connected graph")
    blocks: list[BlockEmbedding] = []
    bridges: set[Edge] = set()
    for blk in g.biconnected_components():
        if blk.n == 2:
            bridges.add(blk.edges[0])
        else:
            blocks.append(embed_block(blk))
    blocks.sort(key=lambda b: b.cycle)
    return OuterplanarEmbedding(g, tuple(blocks), frozenset(bridges))


def endfaces(emb: OuterplanarEmbedding) -> list[Face]:
    """Inner faces carrying exactly one chord."""
    return [f for f in emb.inner_faces if f.inner_edge_count == 1]


def boundary_decompose(
    emb: OuterplanarEmbedding, start: int | None = None
) -> tuple[list[int], list[list[int]], list[int]]:
    """Split the boundary of a 2-connected, maximum-degree-3 host.

    Returns the chord endpoints ``x_1..x_p`` in clockwise order, the runs of
    degree-2 vertices strictly between consecutive chord endpoints, and the
    run lengths.  ``start`` picks which chord endpoint becomes ``x_1``
    (default: the one with the smallest id).
    """
    g = emb.graph
    boundary = emb.boundary
    if g.max_degree() != 3:
        raise ValueError("decomposition expects maximum degree 3")
    three = [v for v in boundary if g.degree(v) == 3]
    if not three:
        raise ValueError("host has no chords to decompose around")
    if start is None:
        start = min(three)
    elif g.degree(start) != 3:
        raise ValueError(f"start vertex {start} is not a chord endpoint")
    k = len(boundary)
    i0 = boundary.index(start)
    order = [boundary[(i0 + j) % k] for j in range(k)]
    xs: list[int] = []
    ys: list[list[int]] = []
    for v in order:
        if g.degree(v) == 3:
            xs.append(v)
            ys.append([])
        else:
            ys[-1].append(v)
    qs = [len(run) for run in ys]
    return xs, ys, qs
