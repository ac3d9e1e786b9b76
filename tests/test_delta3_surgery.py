"""White-box sweep of the leaf-block attachment tables.

The corpora mostly produce small leaf blocks, so the deeper rows of the
tight-gap table (cut vertex wedged between two chord endpoints whose
chord-mate sits several endpoints away) are driven here directly: the
remainder's labeling is pinned to every relevant bridge-edge/attachment
label combination and the attachment must come back verified, and the
shapes together must reach every row.
"""

from __future__ import annotations

import pytest

from outerlabel import delta3
from outerlabel.delta3 import Diagnostics, _attach_leaf_block, _label_span5
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


def join_leaf(leaf: Graph, v_c: int, host: Graph, at: int) -> Graph:
    """``leaf`` with ``v_c`` bridged to vertex ``at`` of ``host``, whose ids
    are shifted past the leaf's."""
    shift = max(leaf.vertices) + 1
    return Graph.from_edges(list(leaf.edges) + [(v_c, at + shift)]
                            + [(u + shift, v + shift) for u, v in host.edges])


def attach_case(leaf, v_c, few, fw):
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
    out = _attach_leaf_block(g, recognize_embed(leaf).blocks[0], v_c, w, diag, base)
    return g, out, diag


# every (bridge edge, attachment) label pair realizable within {0..5}
CONTEXTS = [(5, 3), (5, 0), (5, 1), (5, 2), (4, 0), (4, 1), (4, 2),
            (3, 0), (3, 1), (3, 5)]


SHORT_LASTS = [1, 2, 3]


@pytest.mark.parametrize("few,fw", CONTEXTS)
@pytest.mark.parametrize("q_last", SHORT_LASTS)
def test_short_chord_tables(few, fw, q_last):
    g, out, diag = attach_case(*tight_block(2, 0, 0, q_last), few, fw)
    assert verify(out, 2) == [] and span(out) <= 5
    assert diag.records == []


FAR_SHAPES = [
    (1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2),
    (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1),
    (2, 2, 2), (1, 3, 1),
]


@pytest.mark.parametrize("few,fw", CONTEXTS)
@pytest.mark.parametrize("q2,q3,q_last", FAR_SHAPES)
def test_far_chord_verses(few, fw, q2, q3, q_last):
    g, out, diag = attach_case(*tight_block(4, q2, q3, q_last), few, fw)
    assert verify(out, 2) == [] and span(out) <= 5
    assert diag.records == []


def six_endpoint_block(r1: int, r2: int, r3: int, r4: int, far: int):
    """Leaf block ``x1, v_c, x2, r1, x3, r2, x4, r3, x5, r4, x6, far`` with
    chords (x1, x6), (x2, x5) and (x3, x4): the chord mate of the run's
    start sits five endpoints away, with two chords nested inside its
    chord.  The r values and ``far`` size the runs of 2-vertices."""
    seq = [1]  # boundary after x1, from v_c

    def fresh(k):
        start = len(seq) + 1
        seq.extend(range(start, start + k))
        return list(range(start, start + k))

    xs = [0]
    for run in (r1, r2, r3, r4):
        xs += fresh(1)
        fresh(run)
    xs += fresh(1)
    fresh(far)
    boundary = [0] + seq
    n = len(boundary)
    edges = [(boundary[i], boundary[(i + 1) % n]) for i in range(n)]
    edges += [(xs[0], xs[5]), (xs[1], xs[4]), (xs[2], xs[3])]
    return Graph.from_edges(edges), 1


SIX_RUNS = [(1, 1, 1, 1), (1, 3, 1, 1), (2, 1, 2, 1), (1, 1, 1, 3), (3, 2, 3, 2)]
SIX_FARS = [1, 2, 3]


@pytest.mark.parametrize("few,fw", CONTEXTS)
@pytest.mark.parametrize("runs", SIX_RUNS)
@pytest.mark.parametrize("far", SIX_FARS)
def test_six_endpoint_block(few, fw, runs, far):
    leaf, v_c = six_endpoint_block(*runs, far)
    assert leaf.max_degree() == 3
    g, out, diag = attach_case(leaf, v_c, few, fw)
    assert verify(out, 2) == [] and span(out) <= 5


def test_every_tight_gap_row_is_reached(monkeypatch):
    # the shapes of the three sweeps above, in every context, reach every
    # row of the tight-gap table (and the flip attach, which is no row)
    seen = set()
    real = delta3.check

    def spy(f, touched, where):
        seen.add(where)
        return real(f, touched, where)

    monkeypatch.setattr(delta3, "check", spy)
    leaves = [tight_block(2, 0, 0, q_last) for q_last in SHORT_LASTS]
    leaves += [tight_block(4, *shape) for shape in FAR_SHAPES]
    leaves += [six_endpoint_block(*runs, far) for runs in SIX_RUNS for far in SIX_FARS]
    for leaf, v_c in leaves:
        for few, fw in CONTEXTS:
            attach_case(leaf, v_c, few, fw)
    rows = {row.name for row in delta3.TIGHT_GAP_ROWS}
    assert len(rows) == len(delta3.TIGHT_GAP_ROWS)
    assert seen == rows | {"tight-gap flip attach"}


def test_whole_driver_on_far_chord_host():
    leaf, v_c = tight_block(4, 1, 1, 2)
    w = max(leaf.vertices) + 1
    g = leaf.add_edges([(v_c, w), (w, w + 1), (w + 1, w + 2)])
    assert g.max_degree() == 3
    f = _label_span5(recognize_embed(g), None)
    assert verify(f, 2) == [] and span(f) <= 5
