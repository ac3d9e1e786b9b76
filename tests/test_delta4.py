from __future__ import annotations

import importlib.util
import random
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_structure import _polygon_subsets

from outerlabel import delta3, delta4, embedding
from outerlabel import generators as gen
from outerlabel.delta3 import (
    Diagnostics,
    InfeasibleTrace,
    NotDelta,
    label_cycle_or_path,
    put_back,
    vertex_step,
)
from outerlabel.delta4 import (
    CASE_TARGETS,
    CLAIM_PAIRS,
    ChainCase,
    NoPair,
    apply_template,
    availability,
    availability_set,
    canonicalize,
    chain_template,
    claim_pair,
    label_delta4,
)
from outerlabel.embedding import recognize_embed
from outerlabel.exact import extend_vertex, lambda_exact
from outerlabel.graphs import Graph, norm_edge
from outerlabel.labeling import TotalLabeling, span, verify, verify_around
from outerlabel.pipeline import UnsupportedDegree, label_outerplanar
from outerlabel.structure import find_configuration


def test_availability_examples():
    assert availability_set(0, 6) == frozenset({1, 2, 3, 4})
    assert availability_set(3, 0) == frozenset({2, 4, 5, 6})
    for fw, few in product(range(7), repeat=2):
        assert len(availability_set(fw, few)) >= 3


def test_availability_from_labeling():
    g = Graph.from_edges([(0, 1)])
    f = TotalLabeling(g, 6, {0: 5, 1: 3, (0, 1): 0})
    assert availability(f, 0, 1) == frozenset({2, 4, 5, 6})
    with pytest.raises(ValueError):
        availability(TotalLabeling(g, 6), 0, 1)


def test_claim_pair_examples():
    full = frozenset(range(7))
    assert claim_pair(full, full) == (0, 6)
    assert claim_pair(frozenset({0, 2, 3}), frozenset({3, 4, 5})) == (2, 3)


def test_claim_pair_exhaustive():
    # acceptance-grade sweep: all realizable availability-set pairs
    sets = {availability_set(fw, few) for fw, few in product(range(7), repeat=2)}
    for l1 in sets:
        for l2 in sets:
            a, b = claim_pair(l1, l2)
            assert a in l1 and b in l2 and (a, b) in CLAIM_PAIRS


def test_claim_pair_failure_is_detectable():
    with pytest.raises(NoPair):
        claim_pair(frozenset({2}), frozenset({6}))


def test_canonicalize_examples():
    assert canonicalize((0, 6)) == ChainCase(1, (0, 6), False, False)
    assert canonicalize((6, 0)) == ChainCase(1, (0, 6), True, False)
    assert canonicalize((4, 3)) == ChainCase(4, (2, 3), False, True)
    assert canonicalize((3, 4)) == ChainCase(4, (2, 3), True, True)
    with pytest.raises(ValueError):
        canonicalize((2, 5))


def test_canonicalize_transform_roundtrip():
    for pair in CLAIM_PAIRS:
        cc = canonicalize(pair)
        a, b = pair
        if cc.complement:
            a, b = 6 - a, 6 - b
        if cc.reverse:
            a, b = b, a
        assert (a, b) == cc.pair == CASE_TARGETS[cc.case_id]


def test_template_case1_even_base_values():
    tmpl = chain_template(1, 2, (2, 4, 4, 2))
    assert tmpl[("v", 1)] == 0 and tmpl[("v", 5)] == 6
    assert tmpl[("v", 2)] == 6 and tmpl[("v", 3)] == 3 and tmpl[("v", 4)] == 0
    assert tmpl[("e", 2, 3)] == 1
    assert tmpl[("e", 1, 3)] == 6
    assert tmpl[("e", 3, 4)] == 5
    assert tmpl[("e", 3, 5)] == 0
    # completions drawn from {2,3,4} minus the stub-edge exclusions
    assert tmpl[("e", 1, 5)] == 3
    assert tmpl[("e", 1, 2)] == 2
    assert tmpl[("e", 4, 5)] == 4


def test_template_case1_even_extreme_stubs():
    tmpl = chain_template(1, 2, (2, 6, 4, 0))
    expected = {
        ("v", 1): 0, ("v", 2): 3, ("v", 3): 1, ("v", 4): 3, ("v", 5): 6,
        ("e", 1, 2): 5, ("e", 2, 3): 6, ("e", 1, 3): 4, ("e", 3, 4): 5,
        ("e", 4, 5): 1, ("e", 3, 5): 3, ("e", 1, 5): 2,
    }
    assert tmpl == expected


def test_template_case4_odd_base_values():
    tmpl = chain_template(4, 3, (4, 0, 0, 5))
    for idx, lab in {2: 1, 3: 0, 4: 1, 5: 6, 6: 2, 7: 3}.items():
        assert tmpl[("v", idx)] == lab
    for (i, j), lab in {(2, 3): 3, (1, 3): 4, (3, 4): 5, (4, 5): 3,
                        (3, 5): 2, (5, 6): 4, (6, 7): 0, (5, 7): 1}.items():
        assert tmpl[("e", i, j)] == lab


def test_template_rejects_inconsistent_context():
    with pytest.raises(ValueError):
        chain_template(1, 2, (0, 4, 4, 2))  # left attachment already labeled 0


def _stub_graph(t):
    g = gen.gen_closed_chain(t, "pendants")
    m = 2 * t + 1
    return g, tuple(range(m)), m, m + 1


def _contexts(a, b):
    for fw1, al in product(range(7), repeat=2):
        if abs(fw1 - al) < 2 or a not in availability_set(fw1, al):
            continue
        for fw2, be in product(range(7), repeat=2):
            if abs(fw2 - be) < 2 or b not in availability_set(fw2, be):
                continue
            yield fw1, al, fw2, be


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_template_sweep_small(case_id, t):
    g, spine, w1, w2 = _stub_graph(t)
    a, b = CASE_TARGETS[case_id]
    m = 2 * t + 1
    for fw1, al, fw2, be in _contexts(a, b):
        tmpl = chain_template(case_id, t, (fw1, al, fw2, be))
        ext = apply_template(tmpl, spine)
        ext[w1], ext[w2] = fw1, fw2
        ext[norm_edge(0, w1)] = al
        ext[norm_edge(m - 1, w2)] = be
        assert verify(TotalLabeling(g, 6, ext), 2) == []


def test_reduce_c1():
    # the step works in place on a copy of the graph, its record undoes it,
    # and its rule labels back exactly the dropped vertex and its edges
    g = gen.gen_cycle(5)
    emb = recognize_embed(g).working()
    cfg = find_configuration(emb)
    undo, finish = vertex_step(emb, cfg.witnesses[0], cfg.kind, None)
    assert emb.graph.n == 4 and emb.graph.m == 3 and g.n == 5
    fh = label_cycle_or_path(emb.graph, k=6)
    kept = dict(fh.assignment)
    emb.graph.put_back(undo)
    assert emb.graph == g
    assert finish(fh) is fh and verify(fh, 2) == []
    assert fh.assignment.keys() - kept.keys() == {0, (0, 1), (0, 4)}
    assert {z: fh.assignment[z] for z in kept} == kept


def test_reduce_c2():
    emb = recognize_embed(Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])).working()
    cfg = find_configuration(emb)
    assert cfg.witnesses[0] in (1, 3)
    vertex_step(emb, cfg.witnesses[0], cfg.kind, None)
    assert emb.graph.n == 3 and emb.graph.m == 3  # a triangle remains


def test_label_delta4_requires_degree_4():
    with pytest.raises(NotDelta):
        label_delta4(gen.gen_cycle(5))
    with pytest.raises(NotDelta):
        label_delta4(c6 := Graph.from_edges(
            [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
        ))


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_closed_chain_instances(t):
    d = Diagnostics()
    f = label_delta4(gen.gen_closed_chain(t, "merged"), d)
    assert verify(f, 2) == [] and span(f) <= 6
    assert d.records == []
    assert any("chain" in s for s in d.trace)


# Hosts whose chain steps reach template cases 2-4 through the driver, and
# the steps they take: (case, t, host context) in the canonical frame.
CHAIN_CASE_HOSTS = {
    2: ("0-14 0-15 1-5 1-7 1-12 2-3 2-9 2-10 2-13 3-6 3-9 3-12 4-5 4-11 4-14 "
        "4-15 5-15 6-12 7-8 7-12 7-13 8-13 10-13 11-14 14-15",
        [(1, 4, (4, 2, 4, 1)), (2, 2, (6, 4, 6, 3))]),
    3: ("0-1 0-9 0-15 0-18 1-5 1-15 1-18 2-7 2-10 2-11 2-21 3-17 3-20 4-8 4-12 "
        "4-14 4-20 5-15 6-10 6-21 7-9 7-21 8-14 8-16 8-19 9-13 9-15 10-11 10-21 "
        "12-20 13-16 13-17 16-17 16-19 17-20",
        [(1, 4, (4, 2, 4, 1)), (2, 2, (2, 6, 2, 5)), (3, 2, (0, 3, 0, 5))]),
    4: ("0-4 0-10 1-3 1-7 1-8 1-16 2-6 2-11 3-7 3-12 3-16 4-10 4-14 4-17 5-6 "
        "5-13 6-11 6-13 8-16 8-17 9-10 9-14 10-14 11-13 11-15 12-16 13-15 "
        "14-17 15-17",
        [(1, 2, (4, 2, 4, 1)), (2, 2, (6, 4, 6, 3)), (4, 2, (1, 6, 1, 5))]),
}


def chain_case_host(case_id: int) -> Graph:
    edges = CHAIN_CASE_HOSTS[case_id][0].split()
    return Graph.from_edges([tuple(map(int, e.split("-"))) for e in edges])


@pytest.mark.parametrize("case_id", sorted(CHAIN_CASE_HOSTS))
def test_driver_reaches_chain_cases_2_to_4(case_id, monkeypatch):
    steps = []

    def recording(cid, t, ctx):
        steps.append((cid, t, ctx))
        return chain_template(cid, t, ctx)

    monkeypatch.setattr(delta4, "chain_template", recording)
    d = Diagnostics()
    f = label_outerplanar(chain_case_host(case_id), diag=d)
    assert steps == CHAIN_CASE_HOSTS[case_id][1]
    assert steps[-1][0] == case_id
    assert verify(f, 2) == [] and span(f) <= 6
    assert d.records == []


def test_pendant_and_reduction_branches():
    d = Diagnostics()
    f = label_delta4(gen.gen_closed_chain(3, "pendants"), d)
    assert verify(f, 2) == [] and span(f) <= 6

    # a 4-fan: every dispatch goes through C2 here
    fan = gen.gen_fan(4)
    d = Diagnostics()
    f = label_delta4(fan, d)
    assert verify(f, 2) == [] and span(f) <= 6


def test_c1_reduction_branch():
    # closed chain with the tie-off vertex subdivided: adjacent 2-vertices
    g = Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4), (0, 4),
         (4, 5), (5, 6), (6, 0)]
    )
    assert g.max_degree() == 4
    cfg = find_configuration(recognize_embed(g))
    assert cfg.kind == "C1"
    f = label_delta4(g)
    assert verify(f, 2) == [] and span(f) <= 6


def test_c1_completion_widens_after_a_miss():
    # one C1 step on this host leaves no completion over the dropped
    # vertex's own elements; the neighbours' elements are freed as well
    g = gen.gen_glued_outerplanar(74, 954, {"max_degree": 4})
    d = Diagnostics()
    f = label_delta4(g, d)
    assert verify(f, 2) == [] and span(f) <= 6
    assert [(r.get("event"), r.get("where")) for r in d.records] == [
        ("widened-completion", "C1 completion")
    ]


def test_c1_fill_widens_when_the_rule_misses():
    # at k = 4, below Δ+2 = 5, each freed edge can take only 4 against its
    # kept neighbours, so the rule leaves the dropped vertex unlabeled; the
    # put-back widens once, logs it, and the wider search labels the patch
    g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    kept = {1: 0, (1, 3): 2, (1, 4): 3, 3: 4, 4: 1,
            2: 0, (2, 5): 2, (2, 6): 3, 5: 4, 6: 1}
    f = TotalLabeling(g, 4, dict(kept))
    assert extend_vertex(f, 0) is False and f.assignment == kept
    d = Diagnostics()
    out = put_back(0, "C1", d, f)
    assert out is f and verify(f, 2) == []
    assert d.records == [{"event": "widened-completion", "where": "C1 completion", "freed": 9}]


def _label_each(hosts):
    """Label each host: how many were labeled, how many refused (Δ >= 5),
    and the (event, where) records they logged."""
    labeled = refused = 0
    records = []
    for g in hosts:
        d = Diagnostics()
        try:
            f = label_outerplanar(g, diag=d)
        except UnsupportedDegree:
            assert g.max_degree() >= 5
            refused += 1
            continue
        assert verify(f, 2) == [] and span(f) <= g.max_degree() + 2
        labeled += 1
        records += [(r.get("event"), r.get("where")) for r in d.records]
    return labeled, refused, records


def test_every_small_polygon_subgraph():
    # every connected graph on n <= 7 vertices whose edges lie in a
    # triangulated n-gon: Δ <= 4 labels clean within Δ+2, Δ >= 5 is refused
    assert _label_each(_polygon_subsets()) == (
        8645, 1888, [("widened-completion", "C2 completion")] * 14)


def test_every_put_back_hit_checks_clean_in_the_driver(monkeypatch):
    # put_back does not check an extend_vertex hit.  In the states the
    # driver really reaches, every hit is clean around the vertex and its
    # edges: the Δ = 3 and 4 hosts of the n <= 7 polygon sweep and 200
    # glued hosts, each labeled through label_outerplanar
    real, hits = delta3.extend_vertex, []

    def checked(f, v):
        hit = real(f, v)
        if hit:
            assert verify_around(f, [v, *f.graph.incident_edges(v)]) == [], v
            hits.append(v)
        return hit

    monkeypatch.setattr(delta3, "extend_vertex", checked)
    hosts = [g for g in _polygon_subsets() if g.max_degree() in (3, 4)]
    hosts += [gen.gen_glued_outerplanar(20 + s % 60, s, {"max_degree": 3 + s % 2})
              for s in range(200)]
    for g in hosts:
        label_outerplanar(g)  # its own verify raises on any clash
    assert len(hits) >= 28_000  # 28,667 today


def test_small_polygon_subgraphs_under_permuted_ids():
    # the worklists pick by smallest id, and the polygon sweep numbers its
    # vertices in boundary order: the n <= 6 hosts again, the i-th with its
    # ids shuffled by random.Random(i), run other pick orders
    def permuted():
        for i, g in enumerate(_polygon_subsets()):
            if g.n > 6:
                return
            ids = list(g.vertices)
            random.Random(i).shuffle(ids)
            yield Graph(ids, [(ids[u], ids[v]) for u, v in g.edges])

    assert _label_each(permuted()) == (1245, 96, [])


def test_stars_label_through_the_pendant_rule():
    # K1,3 and K1,4 are the smallest hosts of maximum degree 3 and 4
    k13 = Graph.from_edges([(0, i) for i in range(1, 4)])
    k14 = Graph.from_edges([(0, i) for i in range(1, 5)])
    both = Graph.from_edges(list(k13.edges) + [(u + 4, v + 4) for u, v in k14.edges])
    for g in (k13, k14, both):
        f = label_outerplanar(g)
        assert verify(f, 2) == [] and span(f) <= g.max_degree() + 2


def test_template_miss_raises_without_search(monkeypatch):
    # a template is checked, not repaired: one wrong label ends the run
    # with the rule's name and the violations, and nothing is searched
    def wrong(*args):
        tmpl = chain_template(*args)
        tmpl[("v", 2)] = tmpl[("v", 3)]
        return tmpl

    def refuse(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(delta4, "chain_template", wrong)
    monkeypatch.setattr(delta3, "extend_bounded", refuse)
    with pytest.raises(InfeasibleTrace, match=(
        r"^chain template case \d t=2: labels fail their check: .*adjacent-vertices")):
        label_delta4(gen.gen_closed_chain(2, "merged"))


def test_chain_steps_run_no_c3_pass_and_no_check_chain(monkeypatch):
    # the labeler reads C1 and C2 off the worklists and a closed chain off
    # its block's chords: the C3 pairing is not on its path, and the
    # host-wide chain validator is a test reference (test_structure.py)
    def refuse(*args):
        raise AssertionError("called while labeling")

    monkeypatch.setattr(delta4, "find_configuration", refuse)
    chains = [gen.gen_closed_chain(t, "merged") for t in range(2, 7)]
    for g in (gen.gen_sun_necklace(6), *chains):
        d = Diagnostics()
        f = label_outerplanar(g, diag=d)
        assert verify(f, 2) == []
        assert any(line.startswith("degree-4 dispatch: closed chain") for line in d.trace)


def test_disconnected_components():
    left = gen.gen_closed_chain(2, "merged")
    shift = 20
    edges = list(left.edges) + [
        (u + shift, v + shift) for u, v in left.edges
    ]
    f = label_delta4(Graph.from_edges(edges))
    assert verify(f, 2) == [] and span(f) <= 6


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_reductions_keep_the_stack_flat():
    # a triangle strip takes one C1/C2 reduction per vertex, and a chain of
    # bridged chorded hexagons one leaf-block reduction per hexagon; neither
    # may deepen the call stack with the number of reductions
    strip = Graph.from_edges(
        [(i, i + 1) for i in range(119)] + [(i, i + 2) for i in range(118)]
    )
    hexagons = []
    for j in range(80):
        b = 6 * j
        hexagons += [(b + i, b + (i + 1) % 6) for i in range(6)] + [(b + 1, b + 4)]
        if j:
            hexagons.append((b - 3, b))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 200)
    try:
        for g in (strip, Graph.from_edges(hexagons)):
            f = label_outerplanar(g)
            assert verify(f, 2) == [] and span(f) <= g.max_degree() + 2
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 50_000))
def test_driver_over_random_corpus(seed):
    try:
        if seed % 2 == 0:
            g = gen.gen_random_outerplanar(
                5 + seed % 8, 0.5, seed=seed,
                constraints={"max_degree": 4}, retries=25,
            )
        else:
            g = gen.gen_glued_outerplanar(
                6 + seed % 8, seed=seed, constraints={"max_degree": 4},
                retries=25,
            )
    except gen.ConstraintsUnsatisfiable:
        return
    d = Diagnostics()
    f = label_delta4(g, d)
    assert verify(f, 2) == [] and span(f) <= 6
    assert all((r["event"], r["where"]) in {
        ("widened-completion", "C1 completion"),
        ("widened-completion", "C2 completion"),
        ("junction-patch", "reattachment junction"),
    } for r in d.records)


def test_span_never_below_optimum():
    for seed in range(20):
        try:
            g = gen.gen_random_outerplanar(
                7, 0.5, seed=seed, constraints={"max_degree": 4}, retries=20
            )
        except gen.ConstraintsUnsatisfiable:
            continue
        if g.n + g.m > 26:
            continue
        lam, _ = lambda_exact(g, 2, 6)
        f = label_delta4(g)
        assert lam is not None and lam <= span(f) <= 6


def test_outputs_close_under_complement():
    from outerlabel.labeling import complement

    for t in (2, 3):
        f = label_delta4(gen.gen_closed_chain(t, "merged"))
        assert verify(complement(f), 2) == []


def _bridged_hexagons(k: int) -> Graph:
    """k hexagons with chord (1, 4), vertex 3 of each bridged to vertex 0 of the next."""
    edges = [(6 * j + 3, 6 * j + 6) for j in range(k - 1)]
    for b in range(0, 6 * k, 6):
        edges += [(b + i, b + (i + 1) % 6) for i in range(6)] + [(b + 1, b + 4)]
    return Graph.from_edges(edges)


def _capped_polygon(n: int, cap: int, seed: str) -> Graph:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return Graph.from_edges(families.capped_polygon(n, cap, seed))


def test_one_full_verify_per_output(monkeypatch):
    # finish rules check only around what they change, a reattached far side
    # included: the whole input is verified once, by its labeler, and
    # nothing else is verified in full
    calls = []

    def counting(f, p=2):
        calls.append((f.graph, sys._getframe(1).f_code.co_name))
        return verify(f, p)

    monkeypatch.setattr(delta3, "verify", counting)
    monkeypatch.setattr(delta4, "verify", counting)
    for g in (_capped_polygon(96, 4, "one-verify"), gen.gen_strip(120),
              _bridged_hexagons(16),
              gen.gen_glued_outerplanar(78, 6718, {"max_degree": 3})):
        calls.clear()
        f = label_outerplanar(g)
        assert verify(f, 2) == [] and span(f) <= g.max_degree() + 2
        assert calls == [
            (g, "label_delta3" if g.max_degree() == 3 else "label_delta4")]


def test_one_recognition_per_component(monkeypatch):
    # the driver carries the input's embedding through every reduction: the
    # only recognitions are one of the whole input and extend_lemma1's of
    # its auxiliary closed-off piece
    calls = []

    def counting(g):
        calls.append((g, sys._getframe(1).f_code.co_name))
        return recognize_embed(g)

    monkeypatch.setattr(delta3, "recognize_embed", counting)
    monkeypatch.setattr(delta4, "recognize_embed", counting)
    for g in (_capped_polygon(96, 4, "one-recognition"), gen.gen_strip(120),
              _bridged_hexagons(16)):
        calls.clear()
        f = label_outerplanar(g)
        assert verify(f, 2) == [] and span(f) <= g.max_degree() + 2
        assert [caller for piece, caller in calls if piece is g] == [
            "label_delta3" if g.max_degree() == 3 else "label_delta4"]
        assert all(caller == "extend_lemma1"
                   for piece, caller in calls if piece is not g)
    # a disconnected input is recognized once, whole
    calls.clear()
    left = gen.gen_strip(30)
    two = Graph.from_edges(list(left.edges) + [(u + 40, v + 40) for u, v in left.edges])
    label_outerplanar(two)
    assert calls == [(two, "label_delta4")]


def test_driver_never_redecomposes(monkeypatch):
    # every reduction removes a pendant or one arc of a block's boundary
    # cycle (a C1/C2 2-vertex, a chain interior, a leaf block's non-cut
    # vertices), so ``remove`` never searches a boundary or a block again
    calls = []

    def counting(real):
        def inner(*args):
            calls.append(sys._getframe(1).f_code.co_name)
            return real(*args)
        return inner

    # a 2-connected host is recognized whole, by ``_boundary_cycle`` alone
    monkeypatch.setattr(embedding, "embed_block", counting(embedding.embed_block))
    monkeypatch.setattr(embedding, "_boundary_cycle", counting(embedding._boundary_cycle))
    monkeypatch.setattr(Graph, "_block_decomposition",
                        counting(Graph._block_decomposition))
    for g in (_capped_polygon(96, 4, "one-recognition"), gen.gen_strip(120),
              _bridged_hexagons(16)):
        calls.clear()
        f = label_outerplanar(g)
        assert verify(f, 2) == [] and span(f) <= g.max_degree() + 2
        assert calls and "remove" not in calls


def test_final_verify_catches_a_bad_kept_part(monkeypatch):
    # a host labeling that the finish rules keep is only re-checked by the
    # final verify; an invalid one must not slip through the local checks
    real = delta3.label_cycle_or_path

    def corrupt(g, k=5):
        f = real(g, k)
        v = max(g.vertices)
        f.assignment[v] = f.assignment[g.neighbors(v)[0]]
        return f

    monkeypatch.setattr(delta3, "label_cycle_or_path", corrupt)
    monkeypatch.setattr(delta4, "label_cycle_or_path", corrupt)
    # the pendants 30 and 31 at vertex 15 are reduced away, leaving the
    # cycle, whose corrupted labels at 29 and 0 no finish rule touches
    g = Graph.from_edges(
        [(i, (i + 1) % 30) for i in range(30)] + [(15, 30), (15, 31)]
    )
    with pytest.raises(InfeasibleTrace, match="driver produced an invalid"):
        label_delta4(g)


def test_each_finish_rule_runs_within_its_hosts_range(monkeypatch):
    # the driver sets the labeling's k to the Δ+2 of the host a finish rule
    # extends onto: 5 under the Δ = 3 hosts of a Δ = 4 run, 6 under Δ = 4
    seen = []

    def spy(rule):
        def run(*args):
            fh = args[-1]
            assert fh.k == fh.graph.max_degree() + 2, rule.__name__
            seen.append((rule.__name__, fh.k))
            return rule(*args)
        return run

    for module, name in ((delta3, "put_back"), (delta3, "_attach_leaf_block"),
                         (delta4, "_chain_surgery")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    hosts = [gen.gen_glued_outerplanar(30, s, {"max_degree": 4}) for s in range(20)]
    hosts += [chain_case_host(case_id) for case_id in sorted(CHAIN_CASE_HOSTS)]
    hosts += [gen.gen_closed_chain(4, "merged"), gen.gen_sun_necklace(3)]
    for g in hosts:
        f = label_delta4(g)
        assert f.k == 6 and verify(f, 2) == []
    assert {k for _, k in seen} == {5, 6}
    assert {name for name, _ in seen} == {"put_back", "_attach_leaf_block", "_chain_surgery"}


def test_a_smaller_degree_4_component_joins_at_the_inputs_range():
    # the largest component has Δ = 3, so the join keeps its labeling, made
    # within 5; the output is still the input's, within Δ+2 = 6
    big = gen.gen_pentagon_leaves(3)
    small = gen.gen_closed_chain(2, "merged")
    shift = big.n
    g = Graph(range(big.n + small.n),
              [*big.edges, *((u + shift, v + shift) for u, v in small.edges)])
    assert big.max_degree() == 3 and small.max_degree() == 4 and big.n > small.n
    f = label_delta4(g)
    assert f.k == 6 and f.graph is g and verify(f, 2) == []
    assert max(lab for z, lab in f.assignment.items()
               if (z if type(z) is int else z[0]) < shift) <= 5
