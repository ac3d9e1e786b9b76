from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_embedding import _reversed

from outerlabel import delta3
from outerlabel import generators as gen
from outerlabel.delta3 import (
    Diagnostics,
    InfeasibleTrace,
    LabelK2Options,
    NotDelta,
    extend_lemma1,
    label_cycle_or_path,
    label_delta3,
    label_k2,
    pin_outer_edge,
    put_back,
)
from outerlabel.embedding import recognize_embed
from outerlabel.exact import extend_bounded, extend_vertex, lambda_exact
from outerlabel.graphs import Graph, norm_edge
from outerlabel.labeling import TotalLabeling, span, verify, verify_around
from outerlabel.pipeline import label_outerplanar


def c6_chord():
    return Graph.from_edges([(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])


def test_label_k2_fixture_bit_exact():
    f, _ = label_k2(recognize_embed(c6_chord()))
    assert [f.vertex(v) for v in range(6)] == [0, 1, 0, 1, 0, 1]
    assert f.edge(0, 3) == 3
    walk = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    assert [f.edge(u, v) for u, v in walk] == [4, 5, 4, 5, 4, 5]
    assert verify(f, 2) == [] and span(f) == 5


def test_label_k2_odd_run_even_boundary():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    f, tr = label_k2(recognize_embed(g))
    assert verify(f, 2) == []
    assert 2 in {f.vertex(v) for v in g.vertices}  # odd runs place one 2
    assert tr.seam_face is None  # even boundary needs no seam


def test_label_k2_odd_boundary_long_run():
    g = Graph.from_edges([(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    f, tr = label_k2(recognize_embed(g))
    assert verify(f, 2) == [] and span(f) <= 5
    assert tr.seam_face is not None
    assert any(f.get(e) == 3 for e in tr.patched if isinstance(e, tuple))


def test_label_k2_odd_boundary_tight_run():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    f, tr = label_k2(recognize_embed(g))
    assert verify(f, 2) == [] and span(f) <= 5
    # the lone run vertex of the repaired face takes label 5
    assert 5 in {f.vertex(v) for v in g.vertices}
    # and the face's chord was pulled off label 3
    assert f.edge(0, 2) in (4, 5)


def _sorted_fill_run(assign, a_label, run, opts, flip5=False):
    """``delta3._fill_run`` as it was when it sorted every odd run: the
    reference for the direct middle index."""
    q = len(run)
    if q % 2 == 0:
        labs = [(1 - a_label) if i % 2 == 0 else a_label for i in range(q)]
    else:
        mid = (q - 1) / 2
        order = sorted(range(q), key=lambda i: (
            run[i] in opts.avoid2_hard, run[i] in opts.avoid2_soft, abs(i - mid), i))
        j = order[0]
        labs = []
        pos = 0
        for i in range(q):
            if i == j:
                labs.append(2)
            else:
                labs.append((1 - a_label) if pos % 2 == 0 else a_label)
                pos += 1
    if flip5:
        labs = [5 - l for l in labs]
    for v, l in zip(run, labs):
        assign[v] = l


def test_fill_run_matches_the_sorted_run():
    # every run length and start label, flipped or not, with nothing avoided
    # and with each subset of a short run avoided hard or soft
    for q in range(14):
        run = [10 + 3 * i for i in range(q)]
        avoided = [frozenset()]
        if q <= 7:
            avoided += [frozenset(v for i, v in enumerate(run) if mask >> i & 1)
                        for mask in range(1, 1 << q)]
        for a_label in (0, 1):
            for flip5 in (False, True):
                for hard in avoided:
                    for soft in {frozenset(), hard, frozenset(run[q // 2 + 1:])}:
                        opts = LabelK2Options(avoid2_hard=hard, avoid2_soft=soft)
                        got, want = {"x": 9}, {"x": 9}
                        delta3._fill_run(got, a_label, run, opts, flip5)
                        _sorted_fill_run(want, a_label, run, opts, flip5)
                        assert list(got.items()) == list(want.items())


def test_label_k2_invariants_modulo_patches():
    for g in (c6_chord(),
              Graph.from_edges([(i, (i + 1) % 7) for i in range(7)] + [(0, 3)]),
              gen.gen_random_outerplanar(10, 0.35, seed=5,
                                         constraints={"max_degree": 3})):
        emb = recognize_embed(g)
        f, tr = label_k2(emb)
        assert verify(f, 2) == []
        for v in g.vertices:
            if v not in tr.patched:
                assert f.vertex(v) in (0, 1, 2)
        for e in emb.inner_edges:
            if e not in tr.patched:
                assert f.get(e) == 3
        for e in emb.outer_edges:
            if e not in tr.patched:
                assert f.get(e) in (3, 4, 5)


def test_label_k2_chord_ends_differ():
    for seed in range(20):
        try:
            g = gen.gen_random_outerplanar(
                10, 0.35, seed=seed, constraints={"max_degree": 3}, retries=40
            )
        except gen.ConstraintsUnsatisfiable:
            continue
        emb = recognize_embed(g)
        f, _ = label_k2(emb)
        assert verify(f, 2) == []
        for u, v in emb.inner_edges:
            assert f.vertex(u) != f.vertex(v)


def test_label_k2_seed_freedom():
    # every outer edge on the 4/5 alternation pins to 4 and to 5 clean; the
    # odd boundary's seam edge, labeled 3, is not on it
    c7_chord = Graph.from_edges([(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    for g, seams in ((c6_chord(), 0), (c7_chord, 1)):
        emb = recognize_embed(g)
        walk, _ = label_k2(emb)
        refused = set()
        for e in emb.outer_edges:
            for lab in (4, 5):
                f = TotalLabeling(g, 5, dict(walk.assignment))
                if walk.get(e) == 3:
                    with pytest.raises(InfeasibleTrace, match="not on the alternation walk"):
                        pin_outer_edge(f, e, lab)
                    refused.add(e)
                else:
                    pin_outer_edge(f, e, lab)
                    assert verify(f, 2) == [] and f.get(e) == lab
        assert len(refused) == seams


def test_label_k2_start_options():
    emb = recognize_embed(c6_chord())
    f, _ = label_k2(emb, LabelK2Options(start_vertex=3, start_parity=1))
    assert f.vertex(3) == 1
    assert verify(f, 2) == []


def test_cycle_path_examples():
    assert span(label_cycle_or_path(gen.gen_path(2))) == 3
    assert span(label_cycle_or_path(gen.gen_cycle(3))) == 4
    for n in range(3, 11):
        f = label_cycle_or_path(gen.gen_cycle(n))
        assert verify(f, 2) == [] and span(f) <= 4
    single = label_cycle_or_path(Graph([7], []))
    assert single.vertex(7) == 0


# -- closed-off reattachment ---------------------------------------------------

def _reattach_instance(chords, stub_labels):
    """Cycle on 8 vertices with the given chords, labeled but for the far
    side [4, 5, 6, 7] of chord (0, 3): the labeling of the stub host, where
    the far side's ends 4 and 7 are pendants, with the given stub labels."""
    g = Graph.from_edges([(i, (i + 1) % 8) for i in range(8)] + chords)
    stubs = g.working_copy()
    stubs.cut([5, 6])
    f = TotalLabeling(stubs, 5)
    for el, lab in stub_labels.items():
        f.set(el, lab)
    done = extend_bounded(f, [el for el in stubs.elements()
                              if el not in f.assignment], k=5)
    assert done is not None, "stub prelabeling should extend over the near side"
    return g, TotalLabeling(g, 5, dict(done.assignment))


FAR = [4, 5, 6, 7]


@pytest.mark.parametrize("eu,ev", [(5, 5), (4, 4), (4, 5), (5, 4)])
def test_extend_lemma_both_tips_degree_two(eu, ev):
    g, f = _reattach_instance(
        [(0, 3)],
        {7: 0, 4: 1, norm_edge(0, 7): eu, norm_edge(3, 4): ev},
    )
    out = extend_lemma1(f, 0, 3, FAR)
    assert out is f and out.graph is g
    assert verify(out, 2) == [] and span(out) <= 5


@pytest.mark.parametrize("eu,ev", [(5, 5), (4, 5)])
def test_extend_lemma_mixed_degrees(eu, ev):
    g, f = _reattach_instance(
        [(0, 3), (5, 7)],
        {7: 0, 4: 1, norm_edge(0, 7): eu, norm_edge(3, 4): ev},
    )
    out = extend_lemma1(f, 0, 3, FAR)
    assert verify(out, 2) == [] and span(out) <= 5


def test_extend_lemma_mirrored_form():
    # stub vertices high, stub edges low: the flipped precondition
    g, f = _reattach_instance(
        [(0, 3)],
        {7: 5, 4: 4, norm_edge(0, 7): 0, norm_edge(3, 4): 0},
    )
    out = extend_lemma1(f, 0, 3, FAR)
    assert verify(out, 2) == [] and span(out) <= 5


def test_extend_lemma_rejects_bad_labels():
    g, f = _reattach_instance(
        [(0, 3)],
        {7: 0, 4: 3, norm_edge(0, 7): 5, norm_edge(3, 4): 5},
    )
    before = dict(f.assignment)
    with pytest.raises(ValueError):
        extend_lemma1(f, 0, 3, FAR)
    assert f.assignment == before


def test_extend_lemma_fallback_candidate():
    # the one boundary walk of this host's reattachment misses a stub
    # vertex label at a tip, so the tips keep the stub labels and a
    # junction vertex is re-chosen
    g = gen.gen_glued_outerplanar(78, 6718, {"max_degree": 3})
    assert g.n == 20
    diag = Diagnostics()
    f = label_delta3(g, diag)
    assert verify(f, 2) == []
    assert span(f) <= 5
    assert [(r.get("event"), r.get("where")) for r in diag.records] == [
        ("junction-patch", "reattachment junction")
    ]


def test_extend_lemma_junction_second_free_set():
    # the boundary walk of one reattachment here fails its check, and so
    # does freeing its junction vertex u'; freeing v' completes it
    g = gen.gen_glued_outerplanar(76, 476, {"max_degree": 4})
    diag = Diagnostics()
    f = label_outerplanar(g, diag=diag)
    assert verify(f, 2) == [] and span(f) <= 6
    assert [(r.get("event"), r.get("where")) for r in diag.records] == [
        ("junction-patch", "reattachment junction")
    ] * 2


def test_reattachment_builds_only_local_graphs(monkeypatch):
    # each reattachment builds a closed-up copy of its far side and nothing
    # host-sized, so the vertices of all graphs built stay linear in n
    built = []
    init, of = Graph.__init__, Graph._of.__func__

    def counting_init(self, vertices, edges):
        init(self, vertices, edges)
        built.append(self.n)

    def counting_of(cls, adj, m, degrees):
        built.append(len(adj))
        return of(cls, adj, m, degrees)

    g = gen.gen_pentagon_leaves(200)
    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(Graph, "_of", classmethod(counting_of))
    f = label_delta3(g)
    assert verify(f, 2) == [] and span(f) <= 5
    assert sum(built) < 10 * g.n


def test_one_walk_per_wide_gap_attach(monkeypatch):
    # a wide-gap attach chooses its walk's start parity before the walk and
    # meets a bridge labeled 4 or 5 by pinning an edge after it
    attaches, parities, pins, inside = [], [], [], []
    wide, walk, pin = delta3._attach_wide_gap, delta3._walk_k2, delta3.pin_outer_edge

    def counted_attach(*args):
        attaches.append(args)
        inside.append(True)
        out = wide(*args)
        inside.pop()
        return out

    def counted_walk(emb, xs, ys, opts, diag=None):
        if inside:
            parities.append(opts.start_parity)
        return walk(emb, xs, ys, opts, diag)

    def counted_pin(*args):
        if inside:
            pins.append(args)
        return pin(*args)

    monkeypatch.setattr(delta3, "_attach_wide_gap", counted_attach)
    monkeypatch.setattr(delta3, "_walk_k2", counted_walk)
    monkeypatch.setattr(delta3, "pin_outer_edge", counted_pin)
    for s in range(300):
        g = gen.gen_glued_outerplanar(20 + s % 60, s, {"max_degree": 3})
        assert verify(label_outerplanar(g), 2) == []
    assert len(parities) == len(attaches)
    assert 1 in parities and pins


def test_one_decomposition_per_chorded_attach(monkeypatch):
    # a chorded leaf's boundary is decomposed once, by its attach; the
    # block's own walk (wide gap, tight-gap flip) reads the attach's lists
    attaches, decomposed, walked = [], [], []
    attach, decompose, walk = (delta3._attach_chorded_block, delta3.boundary_decompose,
                               delta3._walk_k2)

    def counted_attach(leaf, emb1, *args):
        attaches.append(emb1)
        return attach(leaf, emb1, *args)

    def counted_decompose(emb, start=None):
        decomposed.append(emb)
        return decompose(emb, start)

    def counted_walk(emb, *args):
        walked.append(emb)
        return walk(emb, *args)

    monkeypatch.setattr(delta3, "_attach_chorded_block", counted_attach)
    monkeypatch.setattr(delta3, "boundary_decompose", counted_decompose)
    monkeypatch.setattr(delta3, "_walk_k2", counted_walk)
    for s in range(300):
        g = gen.gen_glued_outerplanar(20 + s % 60, s, {"max_degree": 3})
        assert verify(label_outerplanar(g), 2) == []
    assert attaches
    assert [sum(emb is e for emb in decomposed) for e in attaches] == [1] * len(attaches)
    assert sum(any(emb is e for emb in walked) for e in attaches) > len(attaches) // 2


# -- whole-graph driver ------------------------------------------------------

def test_label_delta3_requires_degree_3():
    with pytest.raises(NotDelta):
        label_delta3(gen.gen_cycle(5))
    with pytest.raises(NotDelta):
        label_delta3(gen.gen_closed_chain(2, "merged"))


def test_net_graph():
    # triangle with a pendant edge at each corner
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    f = label_delta3(g)
    assert verify(f, 2) == [] and span(f) <= 5


def test_two_connected_branch_matches_label_k2():
    g = c6_chord()
    direct, _ = label_k2(recognize_embed(g))
    via_driver = label_delta3(g)
    assert via_driver.assignment == direct.assignment


def test_cut_vertex_cycle_block():
    # chordless leaf cycles at both ends of a bridge
    g = Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4),
         (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]
    )
    assert g.max_degree() == 3
    f = label_delta3(g)
    assert verify(f, 2) == [] and span(f) <= 5


def _pendant_host(degree: int, u1: int, u2: int) -> Graph:
    """``u2`` with the pendant ``u1`` and ``degree - 1`` more neighbours."""
    return Graph.from_edges([(u1, u2)] + [(u2, x) for x in range(10, 9 + degree)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pendant_rule_matches_the_search(data):
    # the pendant rule writes the completion search's first answer, in the
    # search's insertion order; where the search misses, the rule widens
    # once (logged) and labels the wider patch clean or leaves f unchanged
    degree = data.draw(st.integers(2, 4), label="degree of u2")
    u1, u2 = data.draw(st.sampled_from([(0, 1), (9, 0)]), label="u1, u2")
    g = _pendant_host(degree, u1, u2)
    k = data.draw(st.integers(max(1, degree - 1), degree + 2), label="k")
    near = st.one_of(st.none(), st.integers(-2, k + 2))  # kept labels may lie outside {0..k}
    e = norm_edge(u1, u2)
    labels = {}
    if data.draw(st.booleans(), label="stale pendant labels"):  # moved to the end
        labels[e], labels[u1] = data.draw(st.integers(0, k)), data.draw(st.integers(0, k))
    labels[u2] = data.draw(near, label="u2")
    for x in g.neighbors(u2):
        if x != u1:
            labels[norm_edge(u2, x)] = data.draw(near, label=f"edge to {x}")
            labels[x] = data.draw(near, label=f"vertex {x}")
    f = TotalLabeling(g, k, {z: lab for z, lab in labels.items() if lab is not None})
    before = dict(f.assignment)
    searched = TotalLabeling(g, k, dict(f.assignment))
    d = Diagnostics()
    found = extend_bounded(searched, [u1, e]) is not None
    filled = TotalLabeling(g, k, dict(f.assignment))
    assert extend_vertex(filled, u1) is found
    assert filled.assignment == (searched.assignment if found else before)
    if found:
        assert put_back(u1, "pendant", d, f) is f and d.records == []
        assert list(f.assignment.items()) == list(searched.assignment.items())
        return
    try:
        assert put_back(u1, "pendant", d, f) is f
    except InfeasibleTrace as exc:
        assert str(exc) == f"pendant at vertex {u1}: no verified completion"
        assert f.assignment == before
    else:
        assert verify_around(f, [u1, u2, *g.incident_edges(u2)]) == []
    assert d.records == [
        {"event": "widened-completion", "where": f"pendant at vertex {u1}", "freed": 2 + degree}]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_extend_vertex_hit_checks_clean(data):
    # put_back does not check an extend_vertex hit, as a hit is valid by
    # construction: on a random partial labeling of a pendant's or a
    # 2-vertex's surroundings, kept labels in or out of {0..k}, every hit
    # is clean around the vertex and its edges
    v = data.draw(st.sampled_from([0, 50]), label="v")
    ends = data.draw(st.sampled_from([(1,), (1, 2), (2, 60)]), label="neighbours")
    edges = [(v, x) for x in ends]
    if len(ends) == 2 and data.draw(st.booleans(), label="triangle"):
        edges.append(ends)
    fresh = 3
    for x in ends:
        for _ in range(data.draw(st.integers(0, 3), label=f"more at {x}")):
            edges.append((x, fresh))
            fresh += 1
    if len(ends) == 2 and data.draw(st.booleans(), label="common neighbour"):
        edges += [(ends[0], 40), (ends[1], 40)]
    g = Graph.from_edges(edges)
    k = data.draw(st.integers(1, g.max_degree() + 3), label="k")
    near = st.one_of(st.none(), st.integers(-2, k + 2))
    labels = {el: data.draw(near, label=f"{el}") for el in (*g.vertices, *g.edges)}
    f = TotalLabeling(g, k, {el: lab for el, lab in labels.items() if lab is not None})
    before = dict(f.assignment)
    if extend_vertex(f, v):
        assert verify_around(f, [v, *g.incident_edges(v)]) == []
    else:
        assert f.assignment == before


def test_extend_vertex_refuses_other_degrees():
    # a vertex of degree 3 would keep an edge unlabeled (no labeling of the
    # star exists here), and one of degree 0 has no edge to order: both
    # raise before anything is written
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 4)])
    labels = {1: 0, 2: 0, 3: 1, (1, 4): 5, 4: 2}
    f = TotalLabeling(g, 5, dict(labels))
    assert extend_bounded(TotalLabeling(g, 5, dict(labels)),
                          [0, *g.incident_edges(0)]) is None
    with pytest.raises(ValueError, match=r"^extend_vertex: vertex 0 has degree 3, not 1 or 2$"):
        extend_vertex(f, 0)
    assert f.assignment == labels
    lone = TotalLabeling(Graph.from_edges([(1, 2)], n=1), 5, {1: 0, 2: 2, (1, 2): 5})
    with pytest.raises(ValueError, match=r"^extend_vertex: vertex 0 has degree 0, not 1 or 2$"):
        extend_vertex(lone, 0)
    assert lone.assignment == {1: 0, 2: 2, (1, 2): 5}


def test_pendant_rule_misses_below_its_range():
    # at k = 3 < Δ+2 = 6 the edge back to u2 = 0 (labeled 0) has no label
    # left once u2's other edges hold 2 and 3; freeing u2 and its edges too
    # cannot help, as u2's four edges would take all of {0..3}
    g = _pendant_host(4, 9, 0)
    f = TotalLabeling(g, 3, {0: 0, (0, 10): 2, (0, 11): 3})
    assert extend_bounded(TotalLabeling(g, 3, dict(f.assignment)), [9, (0, 9)]) is None
    d = Diagnostics()
    with pytest.raises(InfeasibleTrace, match=r"^pendant at vertex 9: no verified completion$"):
        put_back(9, "pendant", d, f)
    assert f.assignment == {0: 0, (0, 10): 2, (0, 11): 3}
    assert d.records == [
        {"event": "widened-completion", "where": "pendant at vertex 9", "freed": 6}]


def _two_vertex_host(u1: int, a: int, b: int, deg_a: int, deg_b: int, chord: bool) -> Graph:
    """The 2-vertex ``u1`` between ``a`` and ``b`` of degrees ``deg_a`` and ``deg_b``.

    With the chord ``ab`` the dropped vertex sits on a triangle (C2's
    shape), without it on a path through ``a`` and ``b`` (C1's).
    """
    edges = [(u1, a), (u1, b)] + [(a, b)] * chord
    edges += [(a, x) for x in range(10, 10 + deg_a - 1 - chord)]
    edges += [(b, x) for x in range(20, 20 + deg_b - 1 - chord)]
    return Graph.from_edges(edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_two_vertex_rule_matches_the_search(data):
    # the rule writes the completion search's first answer for a freed
    # 2-vertex and its edges, in the search's insertion order, and misses
    # exactly where the search does
    u1, a, b = data.draw(st.sampled_from([(0, 1, 2), (9, 0, 5), (5, 9, 0)]), label="u1, a, b")
    chord = data.draw(st.booleans(), label="chord ab")
    deg_a = data.draw(st.integers(2, 4), label="degree of a")
    deg_b = data.draw(st.integers(2, 4), label="degree of b")
    g = _two_vertex_host(u1, a, b, deg_a, deg_b, chord)
    k = data.draw(st.integers(1, g.max_degree() + 2), label="k")
    near = st.one_of(st.none(), st.integers(-2, k + 2))  # kept labels may lie outside {0..k}
    freed = [u1, norm_edge(u1, a), norm_edge(u1, b)]
    labels = {}
    if data.draw(st.booleans(), label="stale freed labels"):  # moved to the end
        for z in freed:
            labels[z] = data.draw(st.integers(0, k))
    for x in (a, b):
        labels[x] = data.draw(near, label=f"vertex {x}")
        for y in g.neighbors(x):
            if y != u1:
                labels[norm_edge(x, y)] = data.draw(near, label=f"edge {x}-{y}")
    f = TotalLabeling(g, k, {z: lab for z, lab in labels.items() if lab is not None})
    searched = TotalLabeling(g, k, dict(f.assignment))
    found = extend_bounded(searched, freed) is not None
    assert extend_vertex(f, u1) is found
    assert list(f.assignment.items()) == list(searched.assignment.items())


# a hexagon with the chords (1, 3) and (1, 5): a Δ = 4 host whose C2 fill
# widens past the dropped vertex's own elements, so it searches
C2_WIDENING_HOST = Graph.from_edges(
    [(0, 1), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (3, 4), (4, 5)])


def test_completion_budget_raises(monkeypatch):
    # the widened C2 completion takes more than one search node on this host
    d = Diagnostics()
    assert verify(label_outerplanar(C2_WIDENING_HOST, diag=d), 2) == []
    assert [(r["event"], r["where"]) for r in d.records] == [
        ("widened-completion", "C2 completion")]
    monkeypatch.setattr(delta3, "COMPLETION_BUDGET", 1)
    with pytest.raises(InfeasibleTrace, match=(
        r"^C2 completion: completion search tried 2 nodes, past its budget of 1$"
    )):
        label_outerplanar(C2_WIDENING_HOST)


def test_disconnected_components():
    g = Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (0, 3)] + [(10, 11), (11, 12), (12, 10),
                                            (10, 13)]
    )
    f = label_delta3(g)
    assert verify(f, 2) == [] and span(f) <= 5


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 50_000))
def test_driver_over_random_corpus(seed):
    kind = seed % 2
    try:
        if kind == 0:
            g = gen.gen_random_outerplanar(
                4 + seed % 9, 0.35, seed=seed,
                constraints={"max_degree": 3}, retries=25,
            )
        else:
            g = gen.gen_glued_outerplanar(
                5 + seed % 9, seed=seed, constraints={"max_degree": 3},
                retries=25,
            )
    except gen.ConstraintsUnsatisfiable:
        return
    d = Diagnostics()
    f = label_delta3(g, d)
    assert verify(f, 2) == [] and span(f) <= 5
    assert all((r["event"], r["where"]) == ("junction-patch", "reattachment junction")
               for r in d.records)


def test_span_never_below_optimum():
    for seed in range(25):
        try:
            g = gen.gen_glued_outerplanar(
                8, seed=seed, constraints={"max_degree": 3}, retries=20
            )
        except gen.ConstraintsUnsatisfiable:
            continue
        if g.n + g.m > 26:
            continue
        lam, _ = lambda_exact(g, 2, 5)
        f = label_delta3(g)
        assert lam is not None and lam <= span(f) <= 5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20_000))
def test_label_k2_on_reversed_orientation(seed):
    try:
        g = gen.gen_random_outerplanar(
            9, 0.35, seed=seed, constraints={"max_degree": 3}, retries=25
        )
    except gen.ConstraintsUnsatisfiable:
        return
    emb = _reversed(recognize_embed(g))
    f, _ = label_k2(emb)
    assert verify(f, 2) == [] and span(f) <= 5


def test_pipeline_mixed_low_degree_components():
    from outerlabel.pipeline import label_outerplanar

    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7)])
    f = label_outerplanar(g)
    assert verify(f, 2) == [] and span(f) <= 4


@pytest.mark.parametrize(
    "n, edges, delta",
    [(1, [], 0), (2, [], 0), (2, [(0, 1)], 1), (3, [(0, 1)], 1)],
    ids=["K1", "2K1", "K2", "K2+K1"],
)
def test_pipeline_span_bound_below_degree_2(n, edges, delta):
    # k = max_degree + 2 holds at Δ ≤ 1 too
    from outerlabel.pipeline import label_outerplanar

    g = Graph.from_edges(edges, n=n)
    assert g.max_degree() == delta
    f = label_outerplanar(g)
    assert f.k == delta + 2
    assert verify(f, 2) == [] and span(f) <= delta + 2
