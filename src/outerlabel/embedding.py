"""Outerplanarity recognition and the boundary/chord/face embedding.

A connected outerplanar graph is handled block by block: every biconnected
block with three or more vertices has a unique Hamiltonian boundary cycle,
and all remaining block edges must be pairwise non-crossing chords of that
cycle.  Both are checked in near-linear time: the cycle by degree-2
reduction on adjacency sets, the chords by one stack pass over the boundary
positions in which they must nest like parentheses.  A reduction step never
joins the two sides of a cut vertex, so reducing a whole host of minimum
degree 2 to a triangle proves it one 2-connected block; other hosts are cut
into blocks by one depth-first search.  Faces are traced when first read.
"Clockwise" means the stored orientation of each cycle; there are no
coordinates.

The reduction driver changes one embedding in place, as in S. L.
Mitchell's linear recognition (Inf. Process. Lett. 9(5), 1979).
``OuterplanarEmbedding.remove`` cuts vertices and edges out of a working
copy of the graph and returns its undo record, which the driver replays
just before the step's finish rule runs; it patches the vertex index, the
cut vertices, each block's count of them (so a leaf block is found without
reading its vertices), the heap of leaf blocks and the reduction worklists where
it changed them.  One vertex goes by its kind: a pendant or a path vertex
with its bridges, a 2-vertex of a triangle or of a chordless cycle by
leaving the rest of the cycle as a path of bridges, and an ear of a block
of four or more vertices by a splice of the block's boundary.  Any other
block that loses one arc of its cycle (another 2-vertex, a chain's
interior, all of a leaf block but its cut vertex) falls apart along the
path left of its cycle, found by jumping along outermost chords, and its
largest piece is relinked in place.  So a removal costs what it touches.
Recognition builds none of this state.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, count
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .graphs import Edge, Graph, norm_edge


class NotOuterplanar(ValueError):
    """Raised when some block has no boundary cycle or has crossing chords."""


@dataclass(frozen=True)
class Face:
    """An inner face as a cyclic vertex sequence, plus its chord count."""

    vertices: tuple[int, ...]
    inner_edge_count: int

    def edges(self) -> list[Edge]:
        vs = self.vertices
        return [norm_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))


class BlockEmbedding:
    """One biconnected block: boundary cycle, chords, inner faces.

    A block traces its ``faces`` when they are first read.  A recognized
    block never changes: a removal replaces it by a linked block, which
    keeps ``_next`` (each vertex's boundary successor) and ``_spot`` (the
    positions of the recognized block it descends from; removals keep the
    cyclic order, so descendants share it).  A linked block lists its
    ``cycle``, traces its ``faces`` and sorts its ``chords`` as recognition
    does only when first read after a change.
    """

    __slots__ = ("_cycle", "_chords", "_frozen", "_faces", "_spot", "_next")

    def __init__(self, cycle: tuple[int, ...], chords: frozenset[Edge]):
        self._cycle = cycle
        self._chords = self._frozen = chords
        self._faces: tuple[Face, ...] | None = None
        self._next: dict[int, int] | None = None

    @classmethod
    def _linked(cls, ring: Sequence[int], chords: set[Edge],
                spot: dict[int, int]) -> "BlockEmbedding":
        """The block on ``ring``, listed in increasing positions, to be cut in place."""
        b = cls.__new__(cls)
        b._cycle = b._faces = b._frozen = None
        b._chords, b._spot = chords, spot
        b._next = dict(zip(ring, [*ring[1:], ring[0]]))
        return b

    def __len__(self) -> int:
        return len(self._cycle if self._next is None else self._next)

    def vertices(self) -> Iterable[int]:
        return self._cycle if self._next is None else self._next

    @property
    def cycle(self) -> tuple[int, ...]:
        if self._cycle is None:
            ring = [min(self._next)]
            while self._next[ring[-1]] != ring[0]:
                ring.append(self._next[ring[-1]])
            self._cycle = _canonical_cycle(ring)
        return self._cycle

    @property
    def chords(self) -> frozenset[Edge]:
        if self._frozen is None:
            self._frozen = frozenset(sorted(self._chords))
        return self._frozen

    @property
    def faces(self) -> tuple[Face, ...]:
        if self._faces is None:
            self._faces = _face_pass(self.cycle, _positions(self.cycle), self._chords)
        return self._faces

    def outer_edges(self) -> list[Edge]:
        c = self.cycle
        return [norm_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BlockEmbedding) and self.cycle == other.cycle
                and self._chords == other._chords and self.faces == other.faces)

    __hash__ = None  # type: ignore[assignment]  # a linked block changes

    def __repr__(self) -> str:
        return f"BlockEmbedding(cycle={self.cycle}, chords={sorted(self._chords)})"


class Worklists:
    """What the reduction steps pick from, each by its smallest entry.

    The degree-1 vertices (``pendants``), the edges joining two 2-vertices
    (``c1``) and the triples ``(u1, u2, u3)`` of a triangle with ``u1`` of
    degree 2 and ``u2`` of degree 3 (``c2``; a 2-vertex whose neighbours
    are adjacent closes a triangular face).  Each is a heap with lazy
    deletion: an entry is pushed when it may have become one, and ``first``
    pops until the graph says the top still is one.  ``removed`` pushes the
    new pendants and marks the vertices whose degree changed; the C1 and C2
    entries at them and at the 2-vertices next to them are pushed when
    those heaps are next read, so removals that never read them cost no
    more than the marking.
    """

    __slots__ = ("_adj", "_heaps", "_stale", "_preds")

    def __init__(self, g: Graph):
        # changed in place by ``cut`` and ``put_back``, never replaced
        self._adj = adj = g._adj
        pendants = [v for v in g.vertices if len(adj[v]) == 1]  # sorted: a heap
        self._heaps: dict[str, list] = {"pendant": pendants, "C1": [], "C2": []}
        self._stale: set[int] | None = None  # None: every vertex

        def pendant(v: int) -> bool:
            return len(adj.get(v, ())) == 1

        def c1(e: Edge) -> bool:
            ns = adj.get(e[0], ())
            return len(ns) == 2 and e[1] in ns and len(adj[e[1]]) == 2

        def c2(t: tuple[int, int, int]) -> bool:
            ns = adj.get(t[0], ())
            return (len(ns) == 2 and t[1] in ns and t[2] in ns
                    and len(nb := adj[t[1]]) == 3 and t[2] in nb)

        self._preds = {"pendant": pendant, "C1": c1, "C2": c2}

    def first(self, kind: str):
        """The smallest pendant, C1 edge or C2 triple (``kind``), or None."""
        if kind != "pendant":
            self._redo()
        heap, listed = self._heaps[kind], self._preds[kind]
        while heap and not listed(heap[0]):
            heapq.heappop(heap)
        return heap[0] if heap else None

    def removed(self, gone: set[int], changed: Iterable[int]) -> None:
        """Note that the graph lost ``gone`` and some edges; ``changed`` holds
        the other vertices whose degree changed."""
        adj = self._adj
        for v in changed:
            if len(adj[v]) == 1:
                heapq.heappush(self._heaps["pendant"], v)
        if self._stale is not None:
            self._stale |= gone
            self._stale.update(changed)

    def _redo(self) -> None:
        if self._stale is not None and not self._stale:
            return
        adj = self._adj
        if self._stale is None:
            redo: Iterable[int] = adj
        else:
            redo = set()
            for v in self._stale:
                ns = adj.get(v)
                if ns is not None:
                    redo.add(v)
                    redo.update(u for u in ns if len(adj[u]) == 2)
        self._stale = set()
        h1, h2 = self._heaps["C1"], self._heaps["C2"]
        for v in redo:
            ns = adj[v]
            if len(ns) == 2:
                a, b = ns
                na = adj[a]
                da, db = len(na), len(adj[b])
                if da == 2:
                    heapq.heappush(h1, (v, a) if v < a else (a, v))
                if db == 2:
                    heapq.heappush(h1, (v, b) if v < b else (b, v))
                if b in na:
                    if da == 3:
                        heapq.heappush(h2, (v, a, b))
                    if db == 3:
                        heapq.heappush(h2, (v, b, a))


_cycle = attrgetter("cycle")


class OuterplanarEmbedding:
    """The blocks, sorted by boundary cycle, and the bridges of a graph.

    Only ``remove`` and ``split`` change an embedding, and only one made by
    ``working``, which owns a working copy of its graph, so the graph an
    embedding was made with never changes.  The vertex index and the
    worklists are built on first use and patched by every removal.  While
    the graph may be disconnected (by a removal, or as made, with ``seeds``:
    a vertex of each component), the embedding holds seeds for ``split``.
    """

    __slots__ = ("graph", "_seeds", "_sorted", "_bridges", "_own", "_block", "_at",
                 "_cuts", "_ncut", "_heap", "_fresh", "_keys", "_work", "_low")

    def __init__(self, graph: Graph, blocks: Iterable[BlockEmbedding],
                 bridge_edges: Iterable[Edge], seeds: Iterable[int] = ()):
        self.graph = graph
        self._seeds = set(seeds)  # a vertex of every component the graph may have
        self._sorted: tuple[BlockEmbedding, ...] | None = tuple(blocks)
        self._bridges = set(bridge_edges)
        self._own = False  # whether ``graph`` is this embedding's working copy
        self._block: dict[int, BlockEmbedding] | None = None  # by key, with the index
        self._work: Worklists | None = None
        self._low: list[int] | None = None

    @property
    def blocks(self) -> tuple[BlockEmbedding, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._block.values(), key=_cycle))
        return self._sorted

    @property
    def bridge_edges(self) -> frozenset[Edge]:
        return frozenset(self._bridges)

    @property
    def outer_edges(self) -> set[Edge]:
        return self._bridges.union(*(b.outer_edges() for b in self.blocks))

    @property
    def inner_edges(self) -> set[Edge]:
        return set().union(*(b.chords for b in self.blocks))

    @property
    def inner_faces(self) -> list[Face]:
        return [face for b in self.blocks for face in b.faces]

    def _single(self) -> BlockEmbedding | None:
        """The block of a 2-connected host (one block, no bridges), else None."""
        bs = self._sorted if self._sorted is not None else self._block.values()
        if self._bridges or len(bs) != 1:
            return None
        (b,) = bs
        return b if len(b) == self.graph.n else None

    @property
    def boundary(self) -> tuple[int, ...]:
        """Boundary cycle of a 2-connected host (single block, no bridges)."""
        if self._single() is None:
            raise ValueError("boundary cycle is only stored for 2-connected hosts")
        return self._single().cycle

    def is_biconnected(self) -> bool:
        return self._single() is not None

    def working(self) -> "OuterplanarEmbedding":
        """This embedding if it has its working copy, else a copy that has one
        (sharing the blocks, which removals replace rather than change)."""
        if self._own:
            return self
        out = OuterplanarEmbedding(
            self.graph.working_copy(), self.blocks, self._bridges, self._seeds)
        out._own = True
        return out

    def worklists(self) -> Worklists:
        if self._work is None:
            self._work = Worklists(self.graph)
        return self._work

    def _index(self) -> dict[int, tuple]:
        """For each vertex the keys of the blocks (ints) and bridges (edges) on
        it, built with ``_block`` (blocks by key), ``_cuts`` and ``_ncut``
        (each block's count of cut vertices)."""
        if self._block is None:
            at: dict[int, tuple] = dict.fromkeys(self.graph.vertices, ())
            self._block = dict(enumerate(self._sorted))
            for key, b in self._block.items():
                for v in b.cycle:
                    at[v] += (key,)
            for e in self._bridges:
                for v in e:
                    at[v] += (e,)
            self._at = at
            self._cuts = cuts = {v for v, on in at.items() if len(on) > 1}
            self._ncut = {key: len(cuts.intersection(b.cycle))
                          for key, b in self._block.items()}
            self._heap: list = []  # (cycle, key) of the leaves, lazily deleted
            self._fresh = set(self._block)
            self._keys = count(len(self._block))
        return self._at

    def leaf_block(self) -> tuple[BlockEmbedding, int] | None:
        """The first block, by cycle, with exactly one cut vertex, and that vertex."""
        self._index()
        block, ncut = self._block, self._ncut
        heap = self._heap  # (cycle, key): stale once the key left or its cycle changed
        for key in self._fresh:
            b = block.get(key)  # None: the block is gone
            if b is not None and ncut[key] == 1:
                heapq.heappush(heap, (b.cycle, key))
        self._fresh.clear()
        while heap:
            cycle, key = heap[0]
            b = block.get(key)
            # a changed block fails a test before its cycle is read
            if b is not None and ncut[key] == 1 and b.cycle is cycle:
                (cut,) = self._cuts.intersection(b.vertices())
                return b, cut
            heapq.heappop(heap)
        return None

    def remove(self, vertices: Iterable[int], edges: Iterable[Edge] = ()) -> tuple:
        """Cut ``vertices`` and ``edges`` out of this embedding and its graph.

        Returns the graph's undo record (``Graph.put_back``).  Only the
        blocks and bridges the index names are touched: each block must
        lose one arc of its cycle, and chords at most, and falls apart by
        ``_cut_arc``; any other removal raises ValueError and leaves this
        embedding unusable.  Removal never joins blocks, so the result
        equals a fresh recognition of each component of what is left.
        When a removed vertex was a cut vertex or a bridge was removed, the
        vertices next to the removal become seeds for ``split``.

        One vertex and no edges (a pendant, or a 2-vertex of a C1 or C2
        step) takes ``_cut_vertex``, which leaves exactly what ``_cut``
        would but builds none of its maps; ``_cut`` takes the rest (a leaf
        block but its cut vertex, a chain's interior, ``split``).
        """
        if not self._own:
            raise ValueError("only a working() embedding can be changed")
        if self._block is None:
            self._index()
        gone = set(vertices)
        if len(gone) == 1 and not edges:
            return self._cut_vertex(*gone)
        return self._cut(gone, edges)

    def _cut_vertex(self, v: int) -> tuple:
        """``remove([v])`` with no more set-up than ``v``'s kind needs.

        A vertex on bridges alone (a pendant, a path vertex) takes them
        along.  A vertex of one block without chords (a triangle, a
        chordless cycle) leaves the rest of the cycle as a path of bridges;
        an ear, whose neighbours are joined by a chord, is spliced out of
        the boundary; any other vertex of one block is cut by ``_cut_arc``.
        A cut vertex on a block, or a vertex not in the graph, goes to
        ``_cut``.
        """
        at, g = self._at, self.graph
        on = at.get(v)
        if on is None or len(on) > 1 and len(g.neighbors(v)) > len(on):
            return self._cut({v}, ())
        ns = g.neighbors(v)
        del at[v]
        undo = g.cut((v,))
        if len(ns) == len(on):  # a block would hold two of the neighbours
            for e in on:
                self._bridges.discard(e)
                w = e[0] + e[1] - v
                at[w] = _drop(at[w], e)
            self._recheck(ns)
            if len(on) > 1:
                self._cuts.discard(v)
                self._seeds.update(ns)
        else:
            key = on[0]
            b = self._block[key]
            if not b._chords:
                self._recheck(self._open(v, key, b))
            elif len(ns) == 2 and ns in b._chords:
                self._splice(v, ns, key, b)
            else:
                self._recheck(self._split_block(key, {v}, (), {v: ns}))
        if self._work is not None:
            self._work.removed({v}, ns)
        return undo

    def _open(self, v: int, key: int, b: BlockEmbedding) -> list[int]:
        """Drop block ``key`` (``b``, with no chords) for the path of bridges
        its cycle leaves without ``v``; returns the path's inner vertices."""
        at = self._at
        del self._block[key]
        del self._ncut[key]
        self._sorted = None
        if b._next is None:
            i = b._cycle.index(v)
            path = [*b._cycle[i + 1:], *b._cycle[:i]]
        else:
            nxt = b._next
            path = [nxt[v]]
            while nxt[path[-1]] != v:
                path.append(nxt[path[-1]])
        es = [(x, y) if x < y else (y, x) for x, y in zip(path, path[1:])]
        self._bridges.update(es)
        for i, x in enumerate(path):
            at[x] = _drop(at[x], key) + tuple(es[max(i - 1, 0):i + 1])
        return path[1:-1]

    def _splice(self, v: int, ns: tuple[int, int], key: int, b: BlockEmbedding) -> None:
        """Skip the ear ``v`` on the boundary of block ``key`` (``b``): the
        chord between its neighbours ``ns`` becomes a boundary edge."""
        if b._next is None:
            b = self._block[key] = BlockEmbedding._linked(
                b.cycle, set(b._chords), _positions(b.cycle))
        a, c = ns
        nxt = b._next
        if nxt[a] == v:
            nxt[a] = c
        else:
            nxt[c] = a
        del nxt[v]
        b._chords.discard(ns)
        b._cycle = b._faces = b._frozen = None
        self._sorted = None
        self._fresh.add(key)

    def _cut(self, gone: set[int], edges: Iterable[Edge]) -> tuple:
        """``remove`` by ``_cut_arc``, block by block: the one-vertex paths
        are checked against it."""
        g, at, bridges = self.graph, self._at, self._bridges
        if not gone <= at.keys():
            gone = {v for v in gone if v in at}
        cut = [e for e in {norm_edge(u, v) for u, v in edges}
               if g.has_edge(*e) and gone.isdisjoint(e)] if edges else []
        may_split = not self._cuts.isdisjoint(gone)
        hits: dict[int, set[int]] = {}  # touched block key -> its removed vertices
        lost: dict[int, list[Edge]] = {}  # touched block key -> its removed chords
        nbrs = {}  # the removed vertices' neighbours, as they were
        near: set[int] = set()  # the other vertices whose degree changes
        for v in gone:
            nbrs[v] = ns = g.neighbors(v)
            near.update(ns)
            for key in at.pop(v):
                if type(key) is int:
                    hits.setdefault(key, set()).add(v)
                elif key in bridges:
                    bridges.discard(key)
                    w = key[0] + key[1] - v
                    if w not in gone:
                        at[w] = _drop(at[w], key)
        near -= gone
        for e in cut:
            near.update(e)
            if e in bridges:
                bridges.discard(e)
                may_split = True
                for w in e:
                    at[w] = _drop(at[w], e)
            else:
                (key,) = set(at[e[0]]).intersection(at[e[1]])
                hits.setdefault(key, set())
                lost.setdefault(key, []).append(e)
        undo = g.cut(gone, cut)
        touched = set(near)  # the vertices whose index entry may change
        for key, hit in hits.items():
            touched.update(self._split_block(key, hit, lost.get(key, ()), nbrs))
        self._cuts -= gone
        self._recheck(touched)
        if self._work is not None:
            self._work.removed(gone, near)
        if may_split:
            self._seeds |= near
        return undo

    def _split_block(self, key: int, hit: set[int], lost: Iterable[Edge],
                     nbrs: dict[int, tuple[int, ...]]) -> list[int]:
        """Replace block ``key`` by what ``_cut_arc`` leaves of it once
        ``hit`` and ``lost`` are gone (the graph has lost them); returns
        the vertices whose index entries changed."""
        at, block, cuts, ncut = self._at, self._block, self._cuts, self._ncut
        b = block.pop(key)
        self._sorted = None
        left = _cut_arc(b, hit, lost, nbrs, self.graph)
        if left is None:
            raise ValueError(f"removal is not one arc of block {b.cycle}")
        leaving, pieces, kept = left
        for v in leaving:
            at[v] = _drop(at[v], key)
        if kept is not None:  # the largest block keeps the key
            block[key] = kept
            self._fresh.add(key)
            ncut[key] -= sum(v in cuts for v in chain(hit, leaving))
        else:
            del ncut[key]
        touched = list(leaving)
        for piece in pieces:
            if isinstance(piece, tuple):
                self._bridges.add(piece)
                new, ons = piece, piece
            else:
                new, ons = next(self._keys), piece.vertices()
                block[new] = piece
                self._fresh.add(new)
                ncut[new] = sum(v in cuts for v in ons)
            for v in ons:
                at[v] += (new,)
            touched += ons
        return touched

    def _recheck(self, vertices: Iterable[int]) -> None:
        """Patch the cut set, and the cut counts of the blocks on them (marked
        fresh), for ``vertices`` whose index entries changed."""
        at, cuts, ncut = self._at, self._cuts, self._ncut
        for v in vertices:
            on = at[v]
            if (len(on) > 1) != (v in cuts):
                keys = [k for k in on if type(k) is int]
                self._fresh.update(keys)
                step = 1 if len(on) > 1 else -1
                for k in keys:
                    ncut[k] += step
                if step > 0:
                    cuts.add(v)
                else:
                    cuts.discard(v)

    def split(self) -> tuple[list["OuterplanarEmbedding"], tuple | None]:
        """The embedding of each component, in vertex order, and an undo record.

        Only an embedding holding seeds is checked.  This one keeps
        the largest component; each other one is copied out with its blocks
        and bridges and removed (the record undoes that), so a split costs
        the components it copies out."""
        if not self._seeds:
            return [self], None
        g = self.graph
        seeds, self._seeds = self._seeds, set()
        small = _small_components(g, seeds)
        if not small:
            return [self], None
        at = self._index()
        others = set().union(*small)
        parts = []
        for comp in small:
            keys = {k for v in comp for k in at[v]}
            part = OuterplanarEmbedding(
                g.induced(comp),
                sorted((self._block[k] for k in keys if type(k) is int), key=_cycle),
                [k for k in keys if type(k) is not int])
            part._own = True
            parts.append((min(comp), part))
        undo = self.remove(others)
        self._seeds.clear()  # what is left is the largest component
        if self._low is None:
            self._low = list(g.vertices)  # sorted, so a heap
        while not g.has_vertex(self._low[0]):
            heapq.heappop(self._low)
        parts.append((self._low[0], self))
        parts.sort(key=itemgetter(0))
        return [part for _, part in parts], undo


def _drop(on: tuple, key: object) -> tuple:
    """``on`` without its entry ``key``."""
    i = on.index(key)
    return on[:i] + on[i + 1:]


def _walk(nxt: dict[int, int], a: int, z: int) -> list[int]:
    """The boundary from ``a`` to ``z``, both included."""
    ring = [a]
    while a != z:
        a = nxt[a]
        ring.append(a)
    return ring


def _cut_arc(b: BlockEmbedding, hit: set[int], lost: Iterable[Edge],
             nbrs: dict[int, tuple[int, ...]], g: Graph) -> tuple | None:
    """What is left of ``b`` if ``hit`` is one arc of its cycle and ``lost``
    holds only chords; else None.

    ``nbrs`` holds the removed vertices' neighbours and ``g`` is the graph
    after the removal.  The rest of the cycle is a path ``P`` on which the
    surviving chords nest.  From the start of ``P`` each step looks at the
    current vertex's neighbours on ``b`` ahead of it on ``P``: if the
    farthest is its successor, the edge between them is a bridge; else it
    ends the outermost chord that closes a block on the stretch under it,
    and the walk jumps there.  The stretch spanning the most positions keeps
    ``b`` (a recognized block is first linked), relinked across its closing
    chord; only what leaves it is walked, so the work is set by the removed
    vertices and the pieces, not by ``b``'s size.  Returns the vertices of
    ``P`` off the kept block, the other pieces (bridge edges and blocks) and
    the kept block (None if ``P`` closes no block).
    """
    if not hit or any(e not in b._chords for e in lost):
        return None
    if len(hit) + 1 >= len(b):  # all but one vertex at most: no piece is left
        return [v for v in b.vertices() if v not in hit], [], None
    if b._next is None:
        b = BlockEmbedding._linked(b.cycle, set(b._chords), _positions(b.cycle))
    nxt, spot, chords = b._next, b._spot, b._chords
    tails = [v for v in hit if nxt[v] not in hit]
    if len(tails) != 1:  # not one arc, or all of the cycle
        return None
    start = nxt[tails[0]]
    end = next(w for v in hit for w in nbrs[v] if w not in hit and nxt.get(w) == v)
    size = len(spot)  # positions of the recognized block; gaps are harmless
    room = spot[end]
    pieces: list = []
    stretches: list[tuple[int, int, int]] = []  # (positions spanned, first, last)
    v = start
    while v != end:
        s = spot[v]
        reach = (room - s) % size
        far, fd = v, 0
        for w in g.neighbors(v):
            if w in nxt:
                d = (spot[w] - s) % size
                if fd < d <= reach:
                    far, fd = w, d
        if far == nxt[v]:
            pieces.append(norm_edge(v, far))
        else:
            stretches.append((fd, v, far))
        v = far
    if not stretches:
        return _walk(nxt, start, end), pieces, None
    big = max(stretches)
    _, v0, f0 = big
    taken: set[Edge] = set()
    for stretch in stretches:
        _, v, far = stretch
        closing = norm_edge(v, far)
        taken.add(closing)
        if stretch is big:
            continue
        ring = _walk(nxt, v, far)
        inside = set(ring)
        own = {(x, y) for x in ring for y in g.neighbors(x)
               if x < y and y in inside and (x, y) in chords}
        own.discard(closing)
        taken |= own
        pieces.append(BlockEmbedding._linked(ring, own, spot))
    leaving = _walk(nxt, start, v0)[:-1] + _walk(nxt, f0, end)[1:]
    for x in chain(hit, leaving):
        del nxt[x]
    nxt[f0] = v0
    chords.difference_update([norm_edge(v, w) for v in hit for w in nbrs[v]], lost, taken)
    b._cycle = b._faces = b._frozen = None
    return leaving, pieces, b


def _small_components(g: Graph, seeds: set[int]) -> list[list[int]]:
    """Every component of ``g`` but a largest one: [] when ``g`` is connected.

    ``seeds`` holds a vertex of every component.  A search runs from each
    seed, a vertex at a time in turn; searches that meet merge, and one
    that runs out has found a component.  The work stops when one search is
    left running.
    """
    stacks = [[s] for s in seeds if g.has_vertex(s)]
    owner = {stack[0]: i for i, stack in enumerate(stacks)}  # vertex -> its search
    root = list(range(len(stacks)))  # merged searches, as a union-find

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    running = list(range(len(root)))
    finished: dict[int, None] = {}  # in the order the searches ran out
    while len(running) > 1:
        for i in running:
            if root[i] != i:  # merged this round
                continue
            stack = stacks[i]
            if not stack:
                finished[i] = None
                continue
            for w in g.neighbors(stack.pop()):
                j = owner.get(w)
                if j is None:
                    owner[w] = i
                    stack.append(w)
                elif find(j) != i:  # two searches met: one component
                    j = find(j)
                    root[j] = i
                    stack += stacks[j]
                    stacks[j] = []
        running = [i for i in running if root[i] == i and i not in finished]
    if not finished:
        return []
    if not running:  # every search ran out: keep the largest one's component
        sizes = Counter(find(j) for j in owner.values())
        del finished[max(finished, key=sizes.__getitem__)]
    comps: dict[int, list[int]] = {i: [] for i in finished}
    for v, j in owner.items():
        j = find(j)
        if j in comps:
            comps[j].append(v)
    return [sorted(c) for c in comps.values()]


def _boundary_cycle(adj: dict[int, set[int]], m: int) -> tuple[int, ...]:
    """The Hamiltonian boundary cycle of a 2-connected outerplanar block.

    ``adj`` holds the block's adjacency (sets, or tuples that are turned
    into sets when the peel first changes them), which this uses up, and
    ``m`` its edge count.  Repeatedly deletes a degree-2 vertex, splicing
    its neighbors together, then reinserts the vertices in reverse order.
    A 2-connected graph of minimum degree 3 has no outerplane drawing, so
    getting stuck is a sound rejection.  The ready vertices wait on a
    stack, and one whose degree changed since it was pushed is skipped when
    popped.  Which 2-vertex goes first does not change the output: a
    2-connected outerplanar graph has exactly one Hamiltonian cycle, and
    ``_canonical_cycle`` fixes its rotation and direction.  It can change
    which fault a rejected host is reported with.  A splice keeps a block
    2-connected, so a vertex left with one neighbour ends a trial on a host
    that is no block.
    """
    n = len(adj)
    if m > 2 * n - 3:
        raise NotOuterplanar("too many edges for an outerplane drawing")
    ready = [v for v, ns in adj.items() if len(ns) == 2]
    removed: list[tuple[int, int, int]] = []  # (vertex, left, right)
    push = ready.append
    for _ in range(n - 3):
        while ready and len(adj.get(ready[-1], ())) != 2:
            ready.pop()
        if not ready:
            raise NotOuterplanar("a block has minimum degree 3")
        v2 = ready.pop()
        a, b = adj.pop(v2)
        if a > b:
            a, b = b, a
        removed.append((v2, a, b))
        na, nb = adj[a], adj[b]
        if type(na) is tuple:
            adj[a] = na = set(na)
        if type(nb) is tuple:
            adj[b] = nb = set(nb)
        na.discard(v2)
        na.add(b)
        nb.discard(v2)
        nb.add(a)
        if len(na) < 2 or len(nb) < 2:
            raise NotOuterplanar("a vertex is left with one neighbour")
        if len(na) == 2:
            push(a)
        if len(nb) == 2:
            push(b)
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

    The chords must nest like parentheses; the block traces its faces when
    they are first read.
    """
    cycle = tuple(cycle)
    k = len(cycle)
    pos = _positions(cycle)
    chords: list[Edge] = []
    for u, v in edges:
        if 1 < abs(pos[u] - pos[v]) < k - 1:
            chords.append((u, v))
    _check_nesting(cycle, pos, chords)
    chords.sort()  # a frozenset's order depends on how it was filled
    return BlockEmbedding(cycle, frozenset(chords))


def _closing(k: int, pos: dict[int, int], chords: Iterable[Edge]) -> list[list[int]]:
    """For each boundary position ``j``, the other ends of the chords that
    close there (at their larger position)."""
    closing: list[list[int]] = [[] for _ in range(k)]
    for u, v in chords:
        i, j = pos[u], pos[v]
        if i < j:
            closing[j].append(i)
        else:
            closing[i].append(j)
    return closing


def _check_nesting(cycle: tuple[int, ...], pos: dict[int, int],
                   chords: Iterable[Edge]) -> None:
    """Raise NotOuterplanar unless the chords nest like parentheses.

    The stack holds the boundary positions still open, increasing.  At
    position ``j`` each chord ``(i, j)``, innermost first, pops the
    positions above ``i``; if ``i`` was already popped, the chord
    interleaves with the one that popped it.
    """
    stack: list[int] = []
    for j, ends in enumerate(_closing(len(cycle), pos, chords)):
        if len(ends) > 1:
            ends.sort(reverse=True)
        for i in ends:
            while stack[-1] > i:
                stack.pop()
            if stack[-1] != i:
                raise NotOuterplanar(
                    f"chord {norm_edge(cycle[i], cycle[j])} interleaves another")
        stack.append(j)


def _face_pass(
    cycle: tuple[int, ...], pos: dict[int, int], chords: Iterable[Edge]
) -> tuple[Face, ...]:
    """The inner faces of the block on ``cycle`` with ``chords``, sorted by key.

    The chords nest (``_check_nesting`` ran on the block or its ancestor).
    One stack pass over the boundary positions traces the inner faces.  The
    stack holds the positions still open, increasing, and consecutive
    entries are joined by an edge.  At position ``j`` each chord ``(i, j)``,
    innermost first, pops the positions above ``i``; they close a face with
    ``i`` and ``j``.  The positions left at the end close the last face
    along the boundary edge back to position 0.  A face lists its
    smallest-position vertex first, then the others in decreasing position.
    """
    k = len(cycle)
    closing = _closing(k, pos, chords)
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
            close(stack[top:] + [j])
            del stack[top + 1:]
        stack.append(j)
    close(stack)
    faces.sort(key=Face.key)
    return tuple(faces)


def embed_block(edges: list[Edge], adj: dict[int, set[int]]) -> BlockEmbedding:
    """The block on ``edges``, which are its DFS edge list; the degree-2
    reduction uses up its adjacency sets ``adj``."""
    return _finish_block(_boundary_cycle(adj, len(edges)), edges)


def recognize_embed(g: Graph) -> OuterplanarEmbedding:
    """Recognize outerplanarity and build the embedding, or raise NotOuterplanar.

    A host of minimum degree 2 is first peeled whole.  A peel step only
    splices the two neighbours of a 2-vertex, so it never joins the two
    sides of a cut vertex (or two components), and the last vertex peeled
    from one side would have degree 1 at most: a peel down to a triangle
    proves ``g`` one 2-connected block.  The peel copies a vertex's
    neighbours into a set only when it first changes them, so a failed
    attempt costs about what it peeled.  Else ``_recognize_blocks`` runs,
    and raises what it would have raised without the attempt.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if g.min_degree() >= 2:  # so n >= 3
        with suppress(NotOuterplanar):
            cycle = _boundary_cycle(dict(g._adj), g.m)
            return OuterplanarEmbedding(g, [_finish_block(cycle, g.edges)], ())
    return _recognize_blocks(g)


def _recognize_blocks(g: Graph) -> OuterplanarEmbedding:
    """``recognize_embed`` block by block, off one depth-first search.

    A one-edge block is a bridge, and any other gets its adjacency sets
    built once.  The blocks' vertex counts, less one each, add up to
    ``g.n - 1`` exactly when ``g`` is connected (its block-cut tree is then
    a tree; with c components they add up to ``g.n - c``).  A disconnected
    ``g`` gets one embedding with a seed in each component, so the
    reduction driver splits it; only then does a second search name
    the components.
    """
    bridges: set[Edge] = set()
    cyclic: list[tuple[list[Edge], dict[int, set[int]]]] = []
    spanned = 1  # one plus each block's vertex count less one
    for edges in g._block_decomposition()[0]:
        if len(edges) == 1:
            bridges.add(edges[0])
            spanned += 1
            continue
        adj: dict[int, set[int]] = defaultdict(set)
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        cyclic.append((edges, adj))
        spanned += len(adj) - 1
    seeds = [c[0] for c in g.components()] if spanned != g.n else ()
    blocks = sorted((embed_block(*block) for block in cyclic), key=_cycle)
    return OuterplanarEmbedding(g, blocks, bridges, seeds)


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
    adj = g._adj
    ends = [len(adj[v]) == 3 for v in boundary]
    three = [v for v, end in zip(boundary, ends) if end]
    if not three:
        raise ValueError("host has no chords to decompose around")
    if start is None:
        start = min(three)
    elif g.degree(start) != 3:
        raise ValueError(f"start vertex {start} is not a chord endpoint")
    i0 = boundary.index(start)
    xs: list[int] = []
    ys: list[list[int]] = []
    for v, end in zip(boundary[i0:] + boundary[:i0], ends[i0:] + ends[:i0]):
        if end:
            xs.append(v)
            ys.append([])
        else:
            ys[-1].append(v)
    qs = [len(run) for run in ys]
    return xs, ys, qs
