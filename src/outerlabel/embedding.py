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
recognition (Inf. Process. Lett. 9(5), 1979), and a removal costs what it
touches.  At its first removal an embedding indexes, for every vertex, the
blocks and bridges it lies on; each removal patches that index, the cut
vertices, the leaf blocks and the reduction worklists (degree-1 vertices,
C1 edges, C2 triangles) at the vertices it changes, and hands them on to
the embedding it returns.  Untouched blocks and bridges are copied by
C-level calls.  A block that loses one arc of its boundary cycle (an ear,
a 2-vertex, a chain's interior, all of a leaf block but its cut vertex)
falls apart along the path left of its cycle, found by jumping along
outermost chords, without searching for any boundary again.  Such a block
traces its faces, and orders its chords as recognition does, only when
they are first read.  Recognition itself builds none of this state.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import chain, count, filterfalse
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

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


class BlockEmbedding:
    """One biconnected block: boundary cycle, chords, inner faces.

    Recognition fills in everything at once.  A block left by ``without``
    traces its ``faces`` on first read, and until ``chords`` is first read
    holds its chord set in whatever order set operations left it; the first
    read rebuilds it from the sorted chords, as recognition does, so every
    chord set iterates in the same order as a fresh one.  ``spot`` numbers
    the boundary positions of the recognized block a block descends from:
    removals keep the cyclic order of what is left, so every descendant
    shares that map.
    """

    __slots__ = ("cycle", "_chords", "_sorted", "_faces", "_spot")

    def __init__(
        self,
        cycle: tuple[int, ...],
        chords: frozenset[Edge],
        faces: tuple[Face, ...] | None = None,
        spot: dict[int, int] | None = None,
        ordered: bool = True,
    ):
        self.cycle = cycle
        self._chords = chords
        self._sorted = ordered
        self._faces = faces
        self._spot = spot

    @property
    def chords(self) -> frozenset[Edge]:
        if not self._sorted:
            self._chords = frozenset(sorted(self._chords))
            self._sorted = True
        return self._chords

    @property
    def faces(self) -> tuple[Face, ...]:
        if self._faces is None:
            self._faces = _face_pass(self.cycle, _positions(self.cycle), self._chords)
        return self._faces

    def spot(self) -> dict[int, int]:
        if self._spot is None:
            self._spot = _positions(self.cycle)
        return self._spot

    def outer_edges(self) -> list[Edge]:
        c = self.cycle
        return [norm_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BlockEmbedding)
            and self.cycle == other.cycle
            and self._chords == other._chords
            and self.faces == other.faces
        )

    def __hash__(self) -> int:
        return hash(self.cycle)

    def __repr__(self) -> str:
        return f"BlockEmbedding(cycle={self.cycle}, chords={sorted(self._chords)})"


class Worklists:
    """What the reduction steps pick from, each by its smallest entry.

    ``pendants`` is the set of degree-1 vertices; ``c1`` iterates the edges
    joining two 2-vertices (such an edge comes once per end), and ``c2``
    the triples ``(u1, u2, u3)`` of a triangle with ``u1`` of degree 2 and
    ``u2`` of degree 3.  Only 2-vertices with an entry are kept.  A
    2-vertex whose neighbours are adjacent always closes a triangular face,
    so the triangles are read off the graph.  ``without`` patches
    ``pendants`` at the vertices whose degree changed and only marks them
    for C1 and C2, whose entries are kept by their 2-vertex: the entries at
    the marked vertices and at the 2-vertices next to them (a triangle's
    entry changes with its 3-vertex) are redone when ``c1`` or ``c2`` is
    next read, so a run of removals that never reads them (pendants, say)
    costs no more than the marking.
    """

    __slots__ = ("graph", "pendants", "_c1", "_c2", "_stale")

    def __init__(self, g: Graph):
        self.graph = g
        self.pendants = {v for v in g.vertices if len(g.neighbors(v)) == 1}
        self._c1: dict[int, tuple[Edge, ...]] = {}
        self._c2: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._stale: set[int] | None = None  # None: every vertex

    @property
    def c1(self) -> Iterator[Edge]:
        self._redo()
        return chain.from_iterable(self._c1.values())

    @property
    def c2(self) -> Iterator[tuple[int, int, int]]:
        self._redo()
        return chain.from_iterable(self._c2.values())

    def removed(self, g: Graph, gone: set[int], changed: set[int]) -> None:
        """Make these the worklists of ``g``, which is their graph without
        ``gone`` and some edges; ``changed`` holds the other vertices whose
        degree changed."""
        self.graph = g
        self.pendants.difference_update(gone)
        for v in changed:
            if len(g.neighbors(v)) == 1:
                self.pendants.add(v)
            else:
                self.pendants.discard(v)
        if self._stale is not None:
            self._stale |= gone
            self._stale |= changed

    def _redo(self) -> None:
        g, c1, c2 = self.graph, self._c1, self._c2
        nbrs = g.neighbors
        if self._stale is None:
            redo: Iterable[int] = g.vertices
        else:
            redo = set()
            for v in self._stale:
                if g.has_vertex(v):
                    redo.add(v)
                    redo.update(u for u in nbrs(v) if len(nbrs(u)) == 2)
                else:
                    c1.pop(v, None)
                    c2.pop(v, None)
        self._stale = set()
        for v in redo:
            ns = nbrs(v)
            if len(ns) != 2:
                c1.pop(v, None)
                c2.pop(v, None)
                continue
            a, b = ns
            da, db = len(nbrs(a)), len(nbrs(b))
            here = ((norm_edge(v, a),) if da == 2 else ()) + (
                (norm_edge(v, b),) if db == 2 else ())
            if here:
                c1[v] = here
            else:
                c1.pop(v, None)
            if g.has_edge(a, b) and (da == 3 or db == 3):
                c2[v] = ((v, a, b),) * (da == 3) + ((v, b, a),) * (db == 3)
            else:
                c2.pop(v, None)


_cycle = attrgetter("cycle")


@dataclass
class _Index:
    """For each vertex the keys of the blocks (ints) and bridges (edges) on
    it, the blocks by key, and the vertices on two or more of them.

    ``leaves`` holds the blocks with one cut vertex, by cycle, except that
    the blocks in ``fresh`` (new ones, and those at a vertex that became or
    stopped being a cut vertex) are counted again when a leaf is asked for.
    ``keys`` numbers the blocks.
    """

    at: dict[int, tuple]
    block: dict[int, BlockEmbedding]
    cuts: set[int]
    leaves: dict[tuple[int, ...], BlockEmbedding]
    fresh: set[int]
    keys: Iterator[int]


@dataclass(frozen=True)
class OuterplanarEmbedding:
    """The blocks, sorted by boundary cycle, and the bridges of a graph.

    ``may_split`` is set by ``without`` when its remainder may be
    disconnected; ``split`` then gives the embedding of each component.
    The vertex index and the worklists are built on first use.  ``without``
    patches them in place and hands them on to the embedding it returns,
    so an embedding that is used again after ``without`` builds them anew.
    """

    graph: Graph
    blocks: tuple[BlockEmbedding, ...]
    bridge_edges: frozenset[Edge]
    may_split: bool = field(default=False, compare=False)
    _index: _Index | None = field(default=None, compare=False, repr=False)
    _work: Worklists | None = field(default=None, compare=False, repr=False)

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
        """The same embedding with every boundary cycle read the other way
        (the blocks sorted again by cycle)."""
        blocks = sorted(
            (_finish_block(b.cycle[::-1], b.chords) for b in self.blocks), key=_cycle
        )
        return OuterplanarEmbedding(self.graph, tuple(blocks), self.bridge_edges)

    def worklists(self) -> Worklists:
        if self._work is None:
            object.__setattr__(self, "_work", Worklists(self.graph))
        return self._work

    def cut_vertices(self) -> frozenset[int]:
        """The vertices lying on two or more blocks and bridges."""
        return frozenset(self._pieces().cuts)

    def _pieces(self) -> _Index:
        if self._index is None:
            at: dict[int, tuple] = dict.fromkeys(self.graph.vertices, ())
            block: dict[int, BlockEmbedding] = {}
            keys = count()
            for b in self.blocks:
                key = next(keys)
                block[key] = b
                for v in b.cycle:
                    at[v] += (key,)
            for e in self.bridge_edges:
                for v in e:
                    at[v] += (e,)
            cuts = {v for v, on in at.items() if len(on) > 1}
            object.__setattr__(
                self, "_index", _Index(at, block, cuts, {}, set(block), keys))
        return self._index

    def leaf_block(self) -> tuple[BlockEmbedding, int] | None:
        """The first block, by cycle, with exactly one cut vertex, and that vertex."""
        idx = self._pieces()
        for key in idx.fresh:
            b = idx.block.get(key)  # None: the block is gone
            if b is None:
                continue
            if len(idx.cuts.intersection(b.cycle)) == 1:
                idx.leaves[b.cycle] = b
            else:
                idx.leaves.pop(b.cycle, None)
        idx.fresh.clear()
        if not idx.leaves:
            return None
        b = idx.leaves[min(idx.leaves)]
        (cut,) = idx.cuts.intersection(b.cycle)
        return b, cut

    def _hand_over(self) -> tuple[_Index | None, Worklists | None]:
        """This embedding's index and worklists, which it gives up."""
        out = self._index, self._work
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_work", None)
        return out

    def without(
        self, vertices: Iterable[int], edges: Iterable[Edge] = ()
    ) -> "OuterplanarEmbedding":
        """The embedding of the graph with ``vertices`` and ``edges`` removed.

        Blocks and bridges that lose nothing are kept as they are; the index
        names the ones that do.  A block that loses one arc of its cycle,
        and chords at most, leaves the path ``P`` around the rest of its
        cycle: each outermost chord left on ``P`` closes a block on the
        stretch under it, and each edge of ``P`` under no chord is a bridge
        (so losing an ear splices the boundary across it, and a triangle
        leaves one bridge).  Any other block that loses something is
        decomposed again on what is left of it alone.  Removal never joins
        blocks, so the result equals a fresh recognition of each component
        of the remainder.  It has ``may_split`` set when the remainder may
        be disconnected: a removed vertex lay on two or more blocks and
        bridges, a bridge was removed, or what is left of a block is not
        connected.
        """
        old = self.graph
        gone = {v for v in vertices if old.has_vertex(v)}
        cut = {e for e in (norm_edge(u, v) for u, v in edges)
               if old.has_edge(*e) and gone.isdisjoint(e)} if edges else set()
        g = old.remove_vertices(gone)
        if cut:
            g = g.remove_edges(cut)
        self._pieces()
        idx, work = self._hand_over()
        at, block = idx.at, idx.block
        may_split = self.may_split or not idx.cuts.isdisjoint(gone)
        hits: dict[int, set[int]] = {}  # touched block key -> its removed vertices
        lost: dict[int, list[Edge]] = {}  # touched block key -> its removed chords
        dead: set[Edge] = set()  # removed bridges
        for v in gone:
            for key in at[v]:
                if type(key) is int:
                    hits.setdefault(key, set()).add(v)
                else:
                    dead.add(key)
        for e in cut:
            if e in self.bridge_edges:
                dead.add(e)
                may_split = True
            else:
                (key,) = set(at[e[0]]).intersection(at[e[1]])
                hits.setdefault(key, set())
                lost.setdefault(key, []).append(e)
        lose: dict[int, set] = {}  # vertex -> keys it no longer lies on
        gain: dict[int, list] = {}  # vertex -> keys of the new pieces on it
        for e in dead:
            for v in e:
                lose.setdefault(v, set()).add(e)
        bridges: list[Edge] = []
        blocks = self.blocks
        if hits:
            blocks = list(blocks)
        for key, hit in hits.items():
            b = block.pop(key)
            del blocks[bisect_left(blocks, b.cycle, key=_cycle)]
            idx.leaves.pop(b.cycle, None)
            left = _without_arc(b, key, hit, lost.get(key, ()), old, g, at)
            if left is None:
                rest = g.induced(v for v in b.cycle if v not in gone)
                may_split = may_split or not rest.is_connected()
                leaving: Iterable[int] = rest.vertices
                pieces = [blk.edges[0] if blk.n == 2 else embed_block(blk)
                          for blk in rest.biconnected_components()]
                kept = None
            else:
                leaving, pieces, kept = left
            for v in leaving:
                lose.setdefault(v, set()).add(key)
            if kept is not None:  # the largest block keeps the key
                block[key] = kept
                insort(blocks, kept, key=_cycle)
                idx.fresh.add(key)
            for piece in pieces:
                if isinstance(piece, tuple):
                    bridges.append(piece)
                    ons: Iterable[int] = piece
                    new: object = piece
                else:
                    new = next(idx.keys)
                    block[new] = piece
                    insort(blocks, piece, key=_cycle)
                    idx.fresh.add(new)
                    ons = piece.cycle
                for v in ons:
                    gain.setdefault(v, []).append(new)
        for v in gone:
            del at[v]
            lose.pop(v, None)
        for v, keys in lose.items():
            at[v] = tuple(filterfalse(keys.__contains__, at[v]))
        for v, keys in gain.items():
            at[v] += tuple(keys)
        idx.cuts.difference_update(gone)
        for v in lose.keys() | gain.keys():
            cut_now = len(at[v]) > 1
            if cut_now != (v in idx.cuts):
                idx.fresh.update(k for k in at[v] if type(k) is int)
                if cut_now:
                    idx.cuts.add(v)
                else:
                    idx.cuts.discard(v)
        if work is not None:
            changed = {w for v in gone for w in old.neighbors(v)}
            changed.update(*cut)
            work.removed(g, gone, changed.difference(gone))
        bridge_edges = self.bridge_edges
        if dead:
            bridge_edges = bridge_edges.difference(dead)
        if bridges:
            bridge_edges = bridge_edges.union(bridges)
        return OuterplanarEmbedding(
            g, tuple(blocks), bridge_edges, may_split, idx, work)

    def split(self) -> list["OuterplanarEmbedding"]:
        """The embedding of each component, in vertex order.

        Only an embedding with ``may_split`` set is checked; any other is
        connected and comes back as ``[self]``.  The largest component
        takes over the index and the worklists, less the other components'
        vertices.
        """
        if not self.may_split:
            return [self]
        comps = self.graph.components()
        big = max(comps, key=len)
        idx, work = self._hand_over()
        out = []
        for comp in comps:
            inside = set(comp)
            blocks = tuple(b for b in self.blocks if b.cycle[0] in inside)
            bridges = frozenset(e for e in self.bridge_edges if e[0] in inside)
            if comp is not big:
                out.append(OuterplanarEmbedding(
                    self.graph.induced(comp), blocks, bridges))
                continue
            others = set(self.graph.vertices).difference(inside)
            g = self.graph.remove_vertices(others)
            if idx is not None:
                for key in {k for v in others for k in idx.at[v] if type(k) is int}:
                    idx.leaves.pop(idx.block.pop(key).cycle, None)
                for v in others:
                    del idx.at[v]
                idx.cuts -= others
            if work is not None:
                work.removed(g, others, set())
            out.append(OuterplanarEmbedding(g, blocks, bridges, False, idx, work))
        return out


def _without_arc(
    b: BlockEmbedding,
    key: int,
    hit: set[int],
    lost: Iterable[Edge],
    old: Graph,
    g: Graph,
    at: dict[int, tuple],
) -> tuple[tuple[int, ...], list, BlockEmbedding | None] | None:
    """What is left of ``b`` if ``hit`` is one arc of its cycle and ``lost``
    holds only chords; else None.

    The rest of the cycle is a path ``P``, on which the surviving chords
    nest as intervals.  From the start of ``P`` each step looks at the
    neighbours of the current vertex that lie on ``b`` (``at`` is the
    index before the removal) and ahead of it on ``P``.  If the farthest
    is its successor, the edge between them is a bridge; else it ends the
    outermost chord that closes a block on the stretch under it, and the
    walk jumps there.  So the Python work is set by the removed vertices
    and the pieces, and the vertex tuples and chord sets are cut out by
    C-level calls: the largest block's chords are what is left of ``b``'s
    after the other blocks take theirs, collected from their own vertices.

    Returns three things: the vertices of ``P`` off the largest block, the
    other pieces (bridge edges and blocks), and the largest block, which
    keeps ``key`` (None if ``P`` closes no block).
    """
    if not hit or any(e not in b._chords for e in lost):
        return None
    c = b.cycle
    spot = b.spot()
    size = len(spot)  # positions of the recognized block; gaps are harmless

    def ahead(v: int, nbrs: Iterable[int]) -> list[tuple[int, int]]:
        s = spot[v]
        return [((spot[w] - s) % size, w) for w in nbrs if key in at[w]]

    succ = {v: min(ahead(v, old.neighbors(v)))[1] for v in hit}
    tails = [v for v in hit if succ[v] not in hit]
    if len(tails) != 1:  # not one arc, or all of the cycle
        return None
    i = c.index(succ[tails[0]])
    k = len(c) - len(hit)  # vertices left
    if (spot[c[1]] - spot[c[0]]) % size < (spot[c[2]] - spot[c[0]]) % size:
        path = c[i:i + k] if i + k <= len(c) else c[i:] + c[:i + k - len(c)]
    else:
        path = c[i::-1][:k] if i + 1 >= k else c[i::-1] + c[:i - k:-1]
    room = spot[path[-1]]  # where the path ends
    pieces: list = []
    stretches: list[tuple[int, int]] = []
    t = 0
    while t < len(path) - 1:
        v = path[t]
        reach = (room - spot[v]) % size
        far = max([r for r in ahead(v, g.neighbors(v)) if r[0] <= reach])[1]
        if far == path[t + 1]:
            pieces.append(norm_edge(v, far))
            t += 1
        else:
            q = len(path) - 1 if far == path[-1] else path.index(far, t + 2)
            stretches.append((t, q))
            t = q
    if not stretches:
        return path, pieces, None
    big = max(stretches, key=lambda tq: tq[1] - tq[0])
    closing = [norm_edge(path[t], path[q]) for t, q in stretches]
    taken: list[set[Edge]] = []
    for tq, chord in zip(stretches, closing):
        if tq is big:
            continue
        verts = path[tq[0]:tq[1] + 1]
        inside = set(verts)
        chords = {(v, w) for v in verts for w in g.neighbors(v)
                  if v < w and w in inside and (v, w) in b._chords}
        chords.discard(chord)
        taken.append(chords)
        pieces.append(BlockEmbedding(
            _canonical_cycle(verts), frozenset(chords), spot=spot, ordered=False))
    dead = {norm_edge(v, w) for v in hit for w in old.neighbors(v)}
    dead.update(lost)
    t, q = big
    kept = BlockEmbedding(
        _canonical_cycle(path[t:q + 1]), b._chords.difference(dead, closing, *taken),
        spot=spot, ordered=False)
    return path[:t] + path[q + 1:], pieces, kept


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
    c = tuple(cycle)
    i = c.index(min(c))
    rot = c[i:] + c[:i]
    if rot[1] > rot[-1]:
        rot = rot[:1] + rot[:0:-1]
    return rot


def _positions(cycle: tuple[int, ...]) -> dict[int, int]:
    return dict(zip(cycle, range(len(cycle))))


def _finish_block(cycle: Sequence[int], edges: Iterable[Edge]) -> BlockEmbedding:
    """The block on boundary ``cycle``; its ``edges`` off the cycle are its chords.

    Its faces come from ``_face_pass`` at once, which also checks the chords.
    """
    cycle = tuple(cycle)
    k = len(cycle)
    pos = _positions(cycle)
    chords: list[Edge] = []
    for u, v in edges:
        if 1 < abs(pos[u] - pos[v]) < k - 1:
            chords.append((u, v))
    return BlockEmbedding(cycle, frozenset(chords), _face_pass(cycle, pos, chords))


def _face_pass(
    cycle: tuple[int, ...], pos: dict[int, int], chords: Iterable[Edge]
) -> tuple[Face, ...]:
    """The inner faces of the block on ``cycle`` with ``chords``, sorted by key.

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
    closing: list[list[int]] = [[] for _ in range(k)]
    for u, v in chords:
        i, j = pos[u], pos[v]
        closing[max(i, j)].append(min(i, j))

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
    return tuple(faces)


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
