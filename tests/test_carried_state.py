"""The state the reduction driver carries, checked against whole-host scans.

The driver changes one working host in place: a working copy of the graph
(with a degree histogram and an edge count) and its ``OuterplanarEmbedding``
(a vertex index for the cut vertices and ``leaf_block``, linked boundaries
of the blocks it cut, and worklist heaps of degree-1 vertices, C1 edges
and C2 triangles); each reduction patches them where it changed the host.
The scans below, run only here, are the reference at every host the
driver pops: a fresh recognition of the working graph for the blocks and
bridges, the extreme degrees and edge count, the pendant, C1 and C2
worklists and the picks made from them, the cut vertices, each block's
count of them and the first leaf block.
The last test counts the work a labeling does.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from test_delta4 import _bridged_hexagons, _capped_polygon
from test_embedding import _cut_vertices

from outerlabel import delta3, delta4, embedding
from outerlabel import generators as gen
from outerlabel.graphs import Graph
from outerlabel.labeling import TotalLabeling, span, verify
from outerlabel.pipeline import label_outerplanar
from outerlabel.embedding import BlockEmbedding, OuterplanarEmbedding, recognize_embed
from outerlabel.structure import find_configuration


def _scanned_c1c2(emb):
    """C1 edges and C2 triples by a scan of every edge and triangular face."""
    g = emb.graph
    c1 = {e for e in g.edges if g.degree(e[0]) == 2 and g.degree(e[1]) == 2}
    c2 = set()
    for face in emb.inner_faces:
        if len(face.vertices) != 3:
            continue
        vs = sorted(face.vertices)
        for u1 in vs:
            if g.degree(u1) != 2:
                continue
            for u2 in vs:
                if u2 != u1 and g.degree(u2) == 3:
                    c2.add((u1, u2, next(w for w in vs if w not in (u1, u2))))
    return c1, c2


def _entries(work, kind: str) -> set:
    """Every pendant, C1 edge or C2 triple (``kind``) the worklists hold."""
    if kind != "pendant":
        work._redo()
    return set(filter(work._preds[kind], work._heaps[kind]))


def _check(emb) -> None:
    g = emb.graph
    # the blocks, patched along the driver's whole chain of removals,
    # equal a fresh recognition: cycles, chord order, faces and bridges
    fresh = recognize_embed(g)
    assert emb.blocks == fresh.blocks and emb.bridge_edges == fresh.bridge_edges
    assert [list(b.chords) for b in emb.blocks] == [list(b.chords) for b in fresh.blocks]
    assert [b.faces for b in emb.blocks] == [b.faces for b in fresh.blocks]
    degrees = [g.degree(v) for v in g.vertices]
    assert (g.min_degree(), g.max_degree()) == (min(degrees), max(degrees))
    assert g.m == len(g.edges) == sum(degrees) // 2
    pendants = {v for v in g.vertices if g.degree(v) == 1}
    work = emb.worklists()
    assert _entries(work, "pendant") == pendants
    assert work.first("pendant") == min(pendants, default=None)
    c1, c2 = _scanned_c1c2(emb)
    assert _entries(work, "C1") == c1 and _entries(work, "C2") == c2
    if min(degrees) == 2 and (c1 or c2):
        cfg = find_configuration(emb)
        assert (cfg.kind, cfg.witnesses) == (("C1", min(c1)) if c1 else ("C2", min(c2)))
    on = Counter(v for b in emb.blocks for v in b.cycle)
    on.update(v for e in emb.bridge_edges for v in e)
    cuts = {v for v, c in on.items() if c > 1}
    assert _cut_vertices(emb) == cuts == g.cut_vertices()
    assert emb._ncut == {key: len(cuts.intersection(b.vertices()))
                         for key, b in emb._block.items()}
    leaf = next((b for b in emb.blocks if len(cuts.intersection(b.cycle)) == 1), None)
    if leaf is None:
        assert emb.leaf_block() is None
    else:
        assert emb.leaf_block() == (leaf, *cuts.intersection(leaf.cycle))


def test_carried_state_equals_scans(monkeypatch):
    popped = []

    def checked(real):
        def step(emb, diag):
            _check(emb)
            popped.append(emb.graph.n)
            return real(emb, diag)
        return step

    monkeypatch.setattr(delta3, "step5", checked(delta3.step5))
    monkeypatch.setattr(delta4, "_step6", checked(delta4._step6))
    hosts = [_capped_polygon(96, 4, "carried"), gen.gen_strip(120),
             _bridged_hexagons(16), gen.gen_pentagon_leaves(12)]
    hosts += [gen.gen_glued_outerplanar(10 + s % 40, s, {"max_degree": 3 + s % 2})
              for s in range(200)]
    hosts += [g for n in range(4, 8) for g in gen.enumerate_dissections(n)
              if g.max_degree() in (3, 4)]
    for g in hosts:
        f = label_outerplanar(g)
        assert verify(f, 2) == [] and span(f) <= g.max_degree() + 2
    assert len(popped) > 3000


def _inside_remove() -> bool:
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code is embedding.OuterplanarEmbedding.remove.__code__:
            return True
        frame = frame.f_back
    return False


@pytest.mark.parametrize("family, size", [
    (gen.gen_strip, 480), (lambda n: _capped_polygon(n, 4, "work"), 960),
    (_bridged_hexagons, 160), (gen.gen_pentagon_leaves, 200),
], ids=["strip480", "capped960", "bridged160", "pentagon200"])
def test_reduction_work_is_linear(monkeypatch, family, size):
    # each family is labeled at ``size`` (480 to 1,200 vertices) and at 8
    # times that.  Six counts of the work done must grow no faster than 1.5
    # times the vertex count: block vertices read (``vertices()`` and
    # ``cycle`` reads, each weighted by its block's length, and the path a
    # chordless block opens into, which ``_open`` walks), vertices walked
    # by ``_cut_arc`` (what it leaves of a block), elements checked by
    # ``verify_around`` (a put-back checks none), elements written by an
    # ``extend_vertex`` hit (every put-back but a widened one),
    # completion-search nodes and Graph.degree calls.
    # sun_necklace stays out until closed-chain steps stop rebuilding every
    # block's ear map (quadratic there).
    # Besides, a removal traces no faces (the blocks it leaves trace theirs
    # when read), and the steps read degrees off the worklists and the
    # degree histogram instead of scanning the host: at most 10 Graph.degree
    # calls per vertex (about 4-7 today; the whole-host scans made
    # 86-1,205).  The finish rules write each label about once: at most 2
    # writes per element through TotalLabeling.set and update (1.0-1.7
    # today), also on pentagon200, whose every leaf attach meets a bridge
    # labeled 2 or less and writes only the complement of its own labels
    passes = []
    real_pass = embedding._face_pass

    def face_pass(*args):
        passes.append(_inside_remove())
        return real_pass(*args)

    work = Counter()

    def counting(name, real, weight):
        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            work[name] += weight(args, kwargs, out)
            return out
        return counted

    def length(args, kwargs, out):
        return len(args[0])

    monkeypatch.setattr(embedding, "_face_pass", face_pass)
    monkeypatch.setattr(BlockEmbedding, "cycle", property(counting(
        "block vertices read", BlockEmbedding.cycle.fget, length)))
    for owner, attr, name, weight in [
        (BlockEmbedding, "vertices", "block vertices read", length),
        (OuterplanarEmbedding, "_open", "block vertices read",
         lambda args, kwargs, out: len(out) + 2),
        (embedding, "_cut_arc", "walked by _cut_arc",
         lambda args, kwargs, out: len(out[0]) + sum(map(len, out[1]))),
        (delta3, "verify_around", "checked by verify_around",
         lambda args, kwargs, out: len(args[1])),
        (delta3, "extend_vertex", "written by extend_vertex",
         lambda args, kwargs, out: 1 + len(args[0].graph.neighbors(args[1])) if out else 0),
        (delta3, "extend_bounded", "completion nodes",
         lambda args, kwargs, out: kwargs["stats"].nodes),
        (Graph, "degree", "Graph.degree calls", lambda args, kwargs, out: 1),
        (TotalLabeling, "set", "label writes", lambda args, kwargs, out: 1),
        (TotalLabeling, "update", "label writes", lambda args, kwargs, out: len(args[1])),
    ]:
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr), weight))
    counts = []
    for g in (family(size), family(8 * size)):
        work.clear()
        f = label_outerplanar(g)
        assert verify(f, 2) == [] and span(f) <= g.max_degree() + 2
        assert True not in passes
        assert work["Graph.degree calls"] <= 10 * g.n
        assert work["label writes"] <= 2 * (g.n + g.m)
        counts.append((g.n, dict(work)))
    (n1, small), (n2, big) = counts
    for name in ("block vertices read", "walked by _cut_arc", "checked by verify_around",
                 "written by extend_vertex", "completion nodes", "Graph.degree calls"):
        assert big.get(name, 0) * n1 <= 1.5 * n2 * small.get(name, 0), (name, small, big)
