"""Unavoidable local structures of outerplane graphs with small degrees.

Three configurations drive the reductions for hosts of minimum degree 2:

* C1 - two adjacent 2-vertices;
* C2 - a triangular face with a 2-vertex and a 3-vertex;
* C3 - two triangular faces sharing a 4-vertex, each carrying a 2-vertex.

C1 and C2 are read off the worklists the embedding carries (patched by
every removal, with a heap each), so picking one costs what the last
removals touched and a heap pop; C3 pairs only the triangular faces
that share a 4-vertex, bucketed by their 4-vertices, and is only
reported (the Δ = 4 labeler goes from C1/C2 straight to a closed chain).
Beyond these, fans of triangles glued along chords ("chains") are read
off a successor map that links each ear triangle to the one ear sharing
its far 4-vertex, including the closed form whose two end spine vertices
are themselves joined by a chord.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .embedding import BlockEmbedding, Face, OuterplanarEmbedding
from .graphs import Edge, Graph, norm_edge


class ChainNotFound(ValueError):
    pass


@dataclass(frozen=True)
class Configuration:
    kind: str  # "C1" | "C2" | "C3"
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class Chain:
    """A fan of ``t >= 2`` triangles glued along chords.

    ``spine`` lists the 2t+1 boundary vertices in order; even positions
    (0-indexed odd) are the degree-2 tips, odd positions the chord
    endpoints.  ``closing_inner_edge`` is set when the two spine ends are
    joined by a further chord, in which case ``attachments`` holds the
    unique outside neighbors of the two ends.
    """

    spine: tuple[int, ...]
    closing_inner_edge: Edge | None
    attachments: tuple[int, int] | None

    @property
    def t(self) -> int:
        return (len(self.spine) - 1) // 2

    def interior(self) -> list[int]:
        return list(self.spine[1:-1])


def _face_triple(face: Face, outer: set[Edge]) -> tuple[int, int, int] | None:
    """Orient a triangular single-chord face as (end, tip, end)."""
    if len(face.vertices) != 3 or face.inner_edge_count != 1:
        return None
    vs = face.vertices
    for i in range(3):
        a, b, c = vs[i], vs[(i + 1) % 3], vs[(i + 2) % 3]
        if norm_edge(a, b) in outer and norm_edge(b, c) in outer:
            return (a, b, c)
    return None


def find_configuration(emb: OuterplanarEmbedding) -> Configuration:
    """Some C1/C2/C3 instance of a minimum-degree-2 host.

    Detection order is C1, C2, C3; within a kind the witness tuple with the
    smallest vertex ids wins.  C1 and C2 are the smallest entries of the
    embedding's worklists, read off their heaps; C3 pairs the triangular
    faces at each 4-vertex.  For outerplane hosts with minimum degree 2 one
    of the three always exists.
    """
    g = emb.graph
    if g.min_degree() != 2:
        raise ValueError("configuration search expects minimum degree 2")

    work = emb.worklists()
    for kind in ("C1", "C2"):
        witnesses = work.first(kind)
        if witnesses is not None:
            return Configuration(kind, witnesses)

    at: dict[int, list[tuple[int, ...]]] = {}  # 4-vertex -> triangular faces on it
    for face in emb.inner_faces:
        if len(face.vertices) == 3:
            for v in face.vertices:
                if g.degree(v) == 4:
                    at.setdefault(v, []).append(face.vertices)
    c3: list[tuple[int, ...]] = []
    for u3, faces in at.items():
        for f1, f2 in permutations(faces, 2):
            if len(set(f1) & set(f2)) != 1:
                continue
            tips1 = [v for v in f1 if v != u3 and g.degree(v) == 2]
            tips2 = [v for v in f2 if v != u3 and g.degree(v) == 2]
            for u2 in tips1:
                for u4 in tips2:
                    u1 = next(v for v in f1 if v not in (u2, u3))
                    u5 = next(v for v in f2 if v not in (u3, u4))
                    c3.append((u1, u2, u3, u4, u5))
    if c3:
        return Configuration("C3", min(c3, key=lambda w: (min(w), w)))
    raise ChainNotFound("no C1/C2/C3 found; host is not an outerplane graph "
                        "with minimum degree 2")


def _chain_runs(
    g: Graph, triples: list[tuple[int, int, int]]
) -> list[list[tuple[int, int, int]]]:
    """All maximal runs of triangles where consecutive ones share a 4-vertex.

    Each face is oriented both ways, and (a, tip, c) links to the one
    triangle (c, tip', d) that shares only the 4-vertex c with it: a
    4-vertex has room for two ears only.  So the links form paths and
    rings, one of each mirror pair is walked, and the runs are read off:
    a path is one run, unless its last triangle ends where its first
    starts, when dropping either end triangle gives the two runs; a ring
    of T triangles gives its T runs of T - 1.
    """
    oriented = triples + [(c, b, a) for a, b, c in triples]
    starting_at: dict[int, list[tuple[int, int, int]]] = {}
    for tr in oriented:
        starting_at.setdefault(tr[0], []).append(tr)
    succ = {}
    for a, b, c in oriented:
        if g.degree(c) == 4:
            for tr2 in starting_at[c]:
                if a not in tr2 and b not in tr2:
                    succ[a, b, c] = tr2
    has_pred = set(succ.values())

    runs: list[list[tuple[int, int, int]]] = []
    walked: set[tuple[int, int, int]] = set()
    for head in [tr for tr in oriented if tr not in has_pred] + oriented:
        if head in walked:
            continue
        links = [head]
        while links[-1] in succ and succ[links[-1]] != head:
            links.append(succ[links[-1]])
        walked.update(links)
        walked.update((c, b, a) for a, b, c in links)  # its mirror image
        if head in has_pred:  # a ring
            runs += [(links[i:] + links[:i])[:-1] for i in range(len(links))]
        elif links[-1][2] == head[0]:
            runs += [links[:-1], links[1:]]
        else:
            runs.append(links)
    return [run for run in runs if len(run) >= 2]


def _run_to_chain(g: Graph, run: list[tuple[int, int, int]]) -> Chain:
    spine = [run[0][0]]
    for tr in run:
        spine.extend(tr[1:])
    spine = min(spine, spine[::-1])
    u1, u_last = spine[0], spine[-1]
    closing = norm_edge(u1, u_last) if g.has_edge(u1, u_last) else None
    attachments = None
    if closing is not None:
        inside = set(spine)
        w1 = [w for w in g.neighbors(u1) if w not in inside]
        w2 = [w for w in g.neighbors(u_last) if w not in inside]
        if len(w1) == 1 and len(w2) == 1:
            attachments = (w1[0], w2[0])
        else:
            closing = None
    return Chain(tuple(spine), closing, attachments)


def _block_chains(g: Graph, block: BlockEmbedding) -> list[Chain]:
    """The maximal chains of one block, read off the ears whose tip is a 2-vertex."""
    outer = set(block.outer_edges())
    ears = [tr for tr in (_face_triple(face, outer) for face in block.faces)
            if tr is not None and g.degree(tr[1]) == 2]
    return [_run_to_chain(g, run) for run in _chain_runs(g, ears)]


def _chain_order(chain: Chain) -> tuple:
    return (min(chain.spine), chain.spine)


def enumerate_chains(emb: OuterplanarEmbedding) -> list[Chain]:
    """All maximal chains (t >= 2) of the host, in deterministic order."""
    g = emb.graph
    return sorted((ch for block in emb.blocks for ch in _block_chains(g, block)),
                  key=_chain_order)


def find_closed_chain(emb: OuterplanarEmbedding) -> Chain:
    """The first chain, in ``enumerate_chains`` order, whose ends are joined by a chord.

    A chain read off the ear links already has its faces, tips, 4-vertices
    and attachments in place (``check_chain`` in ``tests/test_structure.py``
    is their reference check, a scan of the whole host), so only the
    closing edge is looked up, among its own block's chords.  A
    host of maximum degree 4 and minimum degree 2 with no C1/C2 always has
    one.  Raises ChainNotFound when there is none.
    """
    g = emb.graph
    closed = [ch for block in emb.blocks for ch in _block_chains(g, block)
              if ch.closing_inner_edge in block.chords]
    if not closed:
        raise ChainNotFound("no closed chain of triangles found")
    return min(closed, key=_chain_order)
