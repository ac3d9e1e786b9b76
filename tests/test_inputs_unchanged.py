"""The labelers work on their own copy: the caller's graph and embedding never change.

The reduction driver cuts vertices out of a working copy of the graph in
place and replays undo records; none of that may reach the objects the
caller passed in, whether the run finishes or raises part-way.
"""

from __future__ import annotations

from functools import partial

import pytest
from test_delta4 import _bridged_hexagons, _capped_polygon

from outerlabel import delta3, delta4
from outerlabel import generators as gen
from outerlabel.delta3 import InfeasibleTrace, put_back, reduce_and_extend
from outerlabel.embedding import recognize_embed
from outerlabel.graphs import Graph
from outerlabel.labeling import verify
from outerlabel.pipeline import label_outerplanar


def _state(g: Graph):
    """Everything a labeler could change: adjacency, edges, counts, degree histogram."""
    return ({v: g.neighbors(v) for v in g.vertices}, g.vertices, g.edges, g.n, g.m,
            list(g._histogram()))


def _union(a: Graph, b: Graph) -> Graph:
    shift = max(a.vertices) + 1
    return Graph.from_edges(list(a.edges) + [(u + shift, v + shift) for u, v in b.edges])


HOSTS = {
    "capped": _capped_polygon(96, 4, "unchanged"),
    "strip": gen.gen_strip(120),
    "bridged": _bridged_hexagons(16),
    "glued3": gen.gen_glued_outerplanar(40, 3, {"max_degree": 3}),
    "union": _union(gen.gen_strip(30), _capped_polygon(48, 4, "unchanged:union")),
    "union3": _union(_bridged_hexagons(4),
                     gen.gen_glued_outerplanar(30, 5, {"max_degree": 3})),
}


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_labeling_leaves_the_input_alone(name):
    g = HOSTS[name]
    before = _state(g)
    f = label_outerplanar(g)
    assert verify(f, 2) == [] and f.graph is g
    assert _state(g) == before
    again = label_outerplanar(g)
    assert again.assignment == f.assignment and _state(g) == before


def test_the_driver_leaves_a_passed_embedding_alone():
    g = HOSTS["union"]
    emb = recognize_embed(g)
    blocks, bridges, before = emb.blocks, emb.bridge_edges, _state(g)
    cycles = [(b.cycle, b.chords, b.faces) for b in blocks]
    f = reduce_and_extend(emb, partial(delta4._step6, diag=None))
    assert verify(f, 2) == []
    assert emb.graph is g and _state(g) == before
    assert emb.blocks == blocks and emb.bridge_edges == bridges
    assert [(b.cycle, b.chords, b.faces) for b in emb.blocks] == cycles


@pytest.mark.parametrize("name", ["capped", "bridged", "union"])
def test_a_failed_run_leaves_the_input_alone(monkeypatch, name):
    # a failed put-back raises part-way, with the working copy cut: each of
    # these hosts puts back more than 10 dropped vertices (15 pendants on
    # the bridged host, pendants and C1/C2 vertices on the other two)
    g = HOSTS[name]
    before = _state(g)
    calls = []

    def failing_put_back(u1, kind, diag, fh):
        calls.append(u1)
        if len(calls) == 10:
            raise InfeasibleTrace(f"{kind} at vertex {u1}: refused")
        return put_back(u1, kind, diag, fh)

    monkeypatch.setattr(delta3, "put_back", failing_put_back)
    with pytest.raises(InfeasibleTrace, match=r": refused$"):
        label_outerplanar(g)
    assert len(calls) == 10 and _state(g) == before
    monkeypatch.undo()
    assert verify(label_outerplanar(g), 2) == [] and _state(g) == before
