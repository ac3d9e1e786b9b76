"""White-box sweep of the leaf-block attachment tables.

The corpora mostly produce small leaf blocks, so the deeper branches (cut
vertex wedged between two chord endpoints whose chord-mate sits several
endpoints away) are driven here directly: the remainder's labeling is
pinned to every relevant bridge-edge/attachment label combination and the
attachment must come back verified.
"""

from __future__ import annotations

import pytest

from outerlabel.delta3 import Diagnostics, _attach_chorded_block, _label_span5
from outerlabel.embedding import recognize_embed
from outerlabel.exact import extend_bounded
from outerlabel.graphs import Graph, norm_edge
from outerlabel.labeling import TotalLabeling, span, verify


def tight_block(pprime: int, q2: int, q3: int, q_last: int):
    """Leaf block whose cut vertex sits alone between chord endpoints.

    ``pprime`` is how many chord endpoints away the mate of the run's start
    sits (2 or 4); the q values size the other runs of 2-vertices.
    """
    seq = []  # boundary after x1

    def fresh(k):
        start = len(seq) + 1
        seq.extend(range(start, start + k))
        return list(range(start, start + k))

    x1 = 0
    v_c = fresh(1)[0]
    x2 = fresh(1)[0]
    if pprime == 2:
        chords = [(x1, x2)]
        fresh(q_last)
    else:
        fresh(q2)
        x3 = fresh(1)[0]
        fresh(q3)
        x4 = fresh(1)[0]
        fresh(q_last)
        chords = [(x1, x4), (x2, x3)]
    boundary = [x1] + seq
    n = len(boundary)
    edges = [(boundary[i], boundary[(i + 1) % n]) for i in range(n)] + chords
    return Graph.from_edges(edges), v_c


def attach_case(pprime, q2, q3, q_last, few, fw):
    leaf, v_c = tight_block(pprime, q2, q3, q_last)
    w = max(leaf.vertices) + 1
    tail = w + 1
    g = leaf.add_edges([(v_c, w), (w, tail)])
    h = g.induced(v for v in g.vertices if v == v_c or not leaf.has_vertex(v))
    pinned = TotalLabeling(h, 5, {norm_edge(v_c, w): few, w: fw})
    base_h = extend_bounded(
        pinned, [el for el in h.elements() if el not in pinned.assignment], k=5
    )
    assert base_h is not None, "remainder must be labelable with pinned stubs"
    base = TotalLabeling(g, 5, dict(base_h.assignment))
    diag = Diagnostics()
    out = _attach_chorded_block(base, leaf, recognize_embed(leaf), v_c, w, diag)
    return g, out, diag


# every (bridge edge, attachment) label pair realizable within {0..5}
CONTEXTS = [(5, 3), (5, 0), (5, 1), (5, 2), (4, 0), (4, 1), (4, 2),
            (3, 0), (3, 1), (3, 5)]


@pytest.mark.parametrize("few,fw", CONTEXTS)
@pytest.mark.parametrize("q_last", [1, 2, 3])
def test_short_chord_tables(few, fw, q_last):
    g, out, diag = attach_case(2, 0, 0, q_last, few, fw)
    assert verify(out, 2) == [] and span(out) <= 5
    assert diag.records == []


@pytest.mark.parametrize("few,fw", CONTEXTS)
@pytest.mark.parametrize("q2,q3,q_last", [
    (1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2),
    (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1),
    (2, 2, 2), (1, 3, 1),
])
def test_far_chord_verses(few, fw, q2, q3, q_last):
    g, out, diag = attach_case(4, q2, q3, q_last, few, fw)
    assert verify(out, 2) == [] and span(out) <= 5
    assert diag.records == []


@pytest.mark.parametrize("few,fw", [(5, 3), (4, 1), (4, 0), (3, 1), (3, 0)])
def test_six_endpoint_block(few, fw):
    # chord mate three endpoints away, chords nested two deep
    seq = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    edges = [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]
    edges += [(0, 7), (2, 5), (3, 4)]
    # boundary: x1=0, v_c=1, x2=2, g2=(3?) ... build: runs shaped by chords
    leaf = Graph.from_edges(edges)
    # adjust: make (3,4) a proper chord by inserting a run vertex between
    leaf = Graph.from_edges(
        [(i, i + 1) for i in range(11)] + [(11, 0)]
        + [(0, 7), (2, 5), (3, 4)]
    )
    if leaf.max_degree() != 3:
        pytest.skip("construction drifted")
    v_c = 1
    w = 12
    g = leaf.add_edges([(v_c, w), (w, 13)])
    h = g.induced(v for v in g.vertices if v == v_c or not leaf.has_vertex(v))
    pinned = TotalLabeling(h, 5, {norm_edge(v_c, w): few, w: fw})
    base_h = extend_bounded(
        pinned, [el for el in h.elements() if el not in pinned.assignment], k=5
    )
    if base_h is None:
        pytest.skip("pinned remainder unlabelable")
    base = TotalLabeling(g, 5, dict(base_h.assignment))
    out = _attach_chorded_block(
        base, leaf, recognize_embed(leaf), v_c, w, Diagnostics())
    assert verify(out, 2) == [] and span(out) <= 5


def test_whole_driver_on_far_chord_host():
    leaf, v_c = tight_block(4, 1, 1, 2)
    w = max(leaf.vertices) + 1
    g = leaf.add_edges([(v_c, w), (w, w + 1), (w + 1, w + 2)])
    assert g.max_degree() == 3
    f = _label_span5(recognize_embed(g), None)
    assert verify(f, 2) == [] and span(f) <= 5
