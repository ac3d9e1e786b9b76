"""Unavoidable local structures of outerplane graphs with small degrees.

Three configurations drive the reductions for hosts of minimum degree 2:

* C1 - two adjacent 2-vertices;
* C2 - a triangular face with a 2-vertex and a 3-vertex;
* C3 - two triangular faces sharing a 4-vertex, each carrying a 2-vertex.

C1 and C2 are read off the worklists the embedding carries (patched by
every removal, with a heap each), so picking one costs what the last
removals touched and a heap pop; C3 is looked for among the triangular
faces.  Beyond these, fans of triangles
glued along chords ("chains") are detected, including the closed form
whose two end spine vertices are themselves joined by a chord.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def faces(self) -> list[tuple[int, int, int]]:
        s = self.spine
        return [(s[2 * i], s[2 * i + 1], s[2 * i + 2]) for i in range(self.t)]

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
    embedding's worklists, read off their heaps; C3 is looked for among the
    triangular faces.  For outerplane hosts with minimum degree 2 one of the
    three always exists.
    """
    g = emb.graph
    if g.min_degree() != 2:
        raise ValueError("configuration search expects minimum degree 2")

    work = emb.worklists()
    for kind in ("C1", "C2"):
        witnesses = work.first(kind)
        if witnesses is not None:
            return Configuration(kind, witnesses)

    c3: list[tuple[int, ...]] = []
    triangles = [f for f in emb.inner_faces if len(f.vertices) == 3]
    for i in range(len(triangles)):
        for j in range(len(triangles)):
            if i == j:
                continue
            f1, f2 = triangles[i], triangles[j]
            shared = set(f1.vertices) & set(f2.vertices)
            if len(shared) != 1:
                continue
            u3 = shared.pop()
            if g.degree(u3) != 4:
                continue
            tips1 = [v for v in f1.vertices if v != u3 and g.degree(v) == 2]
            tips2 = [v for v in f2.vertices if v != u3 and g.degree(v) == 2]
            for u2 in tips1:
                for u4 in tips2:
                    u1 = next(v for v in f1.vertices if v not in (u2, u3))
                    u5 = next(v for v in f2.vertices if v not in (u3, u4))
                    c3.append((u1, u2, u3, u4, u5))
    if c3:
        return Configuration("C3", min(c3, key=lambda w: (min(w), w)))
    raise ChainNotFound("no C1/C2/C3 found; host is not an outerplane graph "
                        "with minimum degree 2")


def _chain_faces_of_block(
    g: Graph, block: BlockEmbedding
) -> list[tuple[int, int, int]]:
    """Oriented triangles (a, tip, c) that can participate in a chain."""
    outer = set(block.outer_edges())
    out = []
    for face in block.faces:
        triple = _face_triple(face, outer)
        if triple is not None and g.degree(triple[1]) == 2:
            out.append(triple)
    return out


def _extend_chains(
    g: Graph, triples: list[tuple[int, int, int]]
) -> list[list[tuple[int, int, int]]]:
    """All maximal runs of triangles where consecutive ones share a 4-vertex."""
    # orient both ways so runs can be walked left to right
    oriented = set()
    for a, b, c in triples:
        oriented.add((a, b, c))
        oriented.add((c, b, a))
    nxt: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    prev_exists: set[tuple[int, int, int]] = set()
    for tr in oriented:
        nxt[tr] = []
    for tr in oriented:
        a, b, c = tr
        if g.degree(c) != 4:
            continue
        for tr2 in oriented:
            if tr2[0] == c and tr2[2] != a and len(
                {a, b, c, tr2[1], tr2[2]}
            ) == 5:
                nxt[tr].append(tr2)
                prev_exists.add(tr2)

    chains: list[list[tuple[int, int, int]]] = []
    starts = [tr for tr in oriented if tr not in prev_exists] + sorted(oriented)
    seen_runs: set[tuple[tuple[int, int, int], ...]] = set()
    for start in starts:
        runs = [[start]]
        while runs:
            run = runs.pop()
            extended = False
            for tr2 in sorted(nxt[run[-1]]):
                used = {v for tr in run for v in tr}
                if tr2[1] in used or tr2[2] in used:
                    continue
                runs.append(run + [tr2])
                extended = True
            if not extended and len(run) >= 2:
                key = tuple(run)
                rkey = tuple((c, b, a) for a, b, c in reversed(run))
                if key not in seen_runs and rkey not in seen_runs:
                    # drop runs that are sub-runs of an already kept maximal one
                    seen_runs.add(key)
                    chains.append(run)
    # keep only runs not strictly contained in another kept run
    def spine_of(run):
        sp = [run[0][0]]
        for tr in run:
            sp.extend(tr[1:])
        return tuple(sp)

    spines = [spine_of(r) for r in chains]
    keep = []
    for i, r in enumerate(chains):
        si = spines[i]
        contained = False
        for j, sj in enumerate(spines):
            if i == j or len(sj) <= len(si):
                continue
            text = ",".join(map(str, sj)) + ","
            rev = ",".join(map(str, sj[::-1])) + ","
            probe = ",".join(map(str, si)) + ","
            if probe in text or probe in rev:
                contained = True
                break
        if not contained:
            keep.append(r)
    return keep


def _run_to_chain(g: Graph, run: list[tuple[int, int, int]]) -> Chain:
    spine = [run[0][0]]
    for tr in run:
        spine.extend(tr[1:])
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


def _canonical_run(run: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    fwd = [run[0][0]] + [v for tr in run for v in tr[1:]]
    rev = list(reversed(fwd))
    return run if tuple(fwd) <= tuple(rev) else [
        (c, b, a) for a, b, c in reversed(run)
    ]


def enumerate_chains(emb: OuterplanarEmbedding) -> list[Chain]:
    """All maximal chains (t >= 2) of the host, in deterministic order."""
    g = emb.graph
    out: list[Chain] = []
    seen: set[tuple[int, ...]] = set()
    for block in emb.blocks:
        triples = _chain_faces_of_block(g, block)
        for run in _extend_chains(g, triples):
            run = _canonical_run(run)
            ch = _run_to_chain(g, run)
            key = min(ch.spine, ch.spine[::-1])
            if key not in seen:
                seen.add(key)
                out.append(ch)
    out.sort(key=lambda c: (min(c.spine), c.spine))
    return out


def check_chain(g: Graph, emb: OuterplanarEmbedding, chain: Chain) -> list[str]:
    """Re-validate a chain against its structural invariants; [] when sound."""
    problems = []
    s = chain.spine
    inner = emb.inner_edges
    outer = emb.outer_edges
    if len(s) < 5 or len(s) % 2 == 0:
        problems.append("spine must have odd length >= 5")
        return problems
    if len(set(s)) != len(s):
        problems.append("spine vertices repeat")
    for i in range(chain.t):
        a, b, c = s[2 * i], s[2 * i + 1], s[2 * i + 2]
        if norm_edge(a, b) not in outer or norm_edge(b, c) not in outer:
            problems.append(f"face {i} is missing its two outer edges")
        if norm_edge(a, c) not in inner:
            problems.append(f"face {i} is missing its chord")
        if g.degree(b) != 2:
            problems.append(f"tip {b} is not a 2-vertex")
    for j in range(2, len(s) - 1, 2):
        if g.degree(s[j]) != 4:
            problems.append(f"interior spine vertex {s[j]} is not a 4-vertex")
    if chain.closing_inner_edge is not None:
        e = chain.closing_inner_edge
        if e != norm_edge(s[0], s[-1]):
            problems.append("closing edge does not join the spine ends")
        if e not in inner:
            problems.append("closing edge is not a chord")
        if chain.attachments is None:
            problems.append("closed chain lacks attachments")
        else:
            w1, w2 = chain.attachments
            inside = set(s)
            for end, w in ((s[0], w1), (s[-1], w2)):
                outsiders = [x for x in g.neighbors(end) if x not in inside]
                if outsiders != [w]:
                    problems.append(
                        f"end {end} must have exactly one outside neighbor"
                    )
    return problems


def find_closed_chain(
    emb: OuterplanarEmbedding, check_preconditions: bool = True
) -> Chain:
    """A chain whose spine ends are joined by a chord.

    With ``check_preconditions`` the host must have maximum degree 4,
    minimum degree 2, and no C1/C2; such hosts always contain a closed
    chain.  Raises ChainNotFound otherwise.
    """
    g = emb.graph
    if check_preconditions:
        if g.max_degree() != 4:
            raise ValueError("closed-chain search expects maximum degree 4")
        if g.min_degree() != 2:
            raise ValueError("closed-chain search expects minimum degree 2")
        cfg = find_configuration(emb)
        if cfg.kind in ("C1", "C2"):
            raise ValueError(f"host still contains {cfg.kind} at {cfg.witnesses}")
    candidates = [
        ch for ch in enumerate_chains(emb) if ch.closing_inner_edge is not None
    ]
    candidates = [ch for ch in candidates if not check_chain(g, emb, ch)]
    if not candidates:
        raise ChainNotFound("no closed chain of triangles found")
    return candidates[0]
