from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_delta4 import _capped_polygon

from outerlabel import generators as gen
from outerlabel.exact import lambda_exact
from outerlabel.graphs import Graph, norm_edge
from outerlabel.pipeline import label_outerplanar
from outerlabel.labeling import (
    TotalLabeling,
    Violation,
    complement,
    degree_lower_bound,
    incidence_graph,
    span,
    verify,
    verify_around,
)

K2 = Graph.from_edges([(0, 1)])


def pull_back(g, vertex_labels, mid_of, k) -> TotalLabeling:
    """Turn a vertex labeling of ``incidence_graph(g)`` into a total labeling of ``g``."""
    f = TotalLabeling(g, k)
    for v in g.vertices:
        f.set(v, vertex_labels[v])
    for mid, e in mid_of.items():
        f.set(e, vertex_labels[mid])
    return f


def k2_labeling(a, b, e, k=3):
    f = TotalLabeling(K2, k)
    f.set(0, a)
    f.set(1, b)
    f.set((0, 1), e)
    return f


def test_verify_ok_example():
    assert verify(k2_labeling(0, 1, 3), 2) == []


def test_verify_too_close():
    bad = verify(k2_labeling(0, 1, 2), 2)
    assert any(v.kind == "vertex-edge-too-close" for v in bad)
    wits = {v.witnesses for v in bad if v.kind == "vertex-edge-too-close"}
    assert (1, (0, 1)) in wits


def test_verify_partial_and_range():
    f = TotalLabeling(K2, 3)
    f.set(0, 0)
    kinds = {v.kind for v in verify(f, 2)}
    assert "unlabeled-element" in kinds
    g = k2_labeling(0, 1, 9, k=3)
    assert any(v.kind == "label-out-of-range" for v in verify(g, 2))


def test_verify_adjacent_vertices_and_edges():
    p3 = gen.gen_path(3)
    f = TotalLabeling(p3, 5, {0: 0, 1: 0, 2: 4, (0, 1): 2, (1, 2): 2})
    kinds = {v.kind for v in verify(f, 2)}
    assert "adjacent-vertices-equalish" in kinds
    assert "adjacent-edges-equalish" in kinds


def test_verify_deterministic():
    f = k2_labeling(0, 1, 2)
    assert verify(f, 2) == verify(f, 2)


def test_span():
    single = Graph([0], [])
    f = TotalLabeling(single, 0, {0: 0})
    assert span(f) == 0
    assert span(k2_labeling(0, 1, 3)) == 3
    with pytest.raises(ValueError):
        span(TotalLabeling(single, 0))


def test_complement():
    f = k2_labeling(0, 1, 3)
    fb = complement(f)
    assert fb.assignment == {0: 3, 1: 2, (0, 1): 0}
    assert verify(fb, 2) == []
    assert complement(fb).assignment == f.assignment


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5_000))
def test_complement_preserves_validity(seed):
    g = gen.gen_glued_outerplanar(7, seed=seed, constraints={}, retries=10)
    k, f = lambda_exact(g, 2, 8)
    assert f is not None
    fb = complement(f)
    assert verify(fb, 2) == []


def test_incidence_graph_path_and_cycle():
    ig, mids = incidence_graph(K2)
    assert ig.n == 3 and ig.m == 2 and len(mids) == 1
    for n in (3, 4, 5):
        cg, mids = incidence_graph(gen.gen_cycle(n))
        assert cg.n == 2 * n and cg.m == 2 * n
        assert all(cg.degree(v) == 2 for v in cg.vertices)


def test_incidence_graph_triangle():
    tri = gen.gen_cycle(3)
    ig, mids = incidence_graph(tri)
    # original vertices end up pairwise non-adjacent
    for u, v in itertools.combinations(tri.vertices, 2):
        assert not ig.has_edge(u, v)
    # every new vertex joins exactly the two endpoints of its source edge
    for mid, (u, v) in mids.items():
        assert sorted(ig.neighbors(mid)) == sorted((u, v))
    assert ig.m == 2 * tri.m


def brute_l21_span(g: Graph, kmax: int = 8) -> int | None:
    """Independent brute-force distance-2 labeling optimum."""
    vs = list(g.vertices)
    dist2 = set()
    for v in vs:
        for u in g.neighbors(v):
            for w in g.neighbors(u):
                if w != v and not g.has_edge(v, w):
                    dist2.add(norm_edge(v, w))
    for k in range(kmax + 1):
        for combo in itertools.product(range(k + 1), repeat=len(vs)):
            lab = dict(zip(vs, combo))
            if all(abs(lab[u] - lab[v]) >= 2 for u, v in g.edges) and all(
                lab[u] != lab[v] for u, v in dist2
            ):
                return k
    return None


@pytest.mark.parametrize("edges", [
    [(0, 1)],
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (0, 2)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
    [(0, 1), (1, 2), (0, 2), (2, 3)],
])
def test_incidence_pullback_matches(edges):
    g = Graph.from_edges(edges)
    lam, witness = lambda_exact(g, 2, 8)
    ig, mids = incidence_graph(g)
    assert brute_l21_span(ig) == lam
    # and the witness really is a distance-style labeling of the incidence graph
    vertex_labels = {v: witness.vertex(v) for v in g.vertices}
    for mid, e in mids.items():
        vertex_labels[mid] = witness.get(e)
    pulled = pull_back(g, vertex_labels, mids, witness.k)
    assert verify(pulled, 2) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5_000))
def test_degree_lower_bound_holds(seed):
    g = gen.gen_glued_outerplanar(7, seed=seed, constraints={}, retries=10)
    lam, f = lambda_exact(g, 2, 8)
    assert lam >= degree_lower_bound(g, 2)
    assert span(f) == lam


def test_verifier_catches_every_mutation():
    # exhaustiveness: perturbing any single element of a valid labeling in
    # any way is either still valid or reported with a correct witness
    g = gen.gen_closed_chain(2, "merged")
    from outerlabel.pipeline import label_outerplanar

    f = label_outerplanar(g)
    assert verify(f, 2) == []
    caught = 0
    for el in g.elements():
        original = f.assignment[el]
        for lab in range(f.k + 1):
            if lab == original:
                continue
            f.assignment[el] = lab
            bad = verify(f, 2)
            if bad:
                caught += 1
                # only one element changed, so it must be a witness somewhere
                assert any(el in v.witnesses for v in bad)
        f.assignment[el] = original
    assert caught > 0
    assert verify(f, 2) == []


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1))
def test_verify_around_is_verify_restricted(seed, pick):
    # random labels (some missing, some out of range) and a random subset S:
    # verify_around reports exactly the violations with a witness in S
    g = gen.gen_glued_outerplanar(9, seed=seed, constraints={}, retries=10)
    rng = random.Random(pick)
    k = 4
    f = TotalLabeling(g, k, {
        el: rng.randint(-1, k + 1) for el in g.elements() if rng.random() < 0.9
    })
    subset = [el for el in g.elements() if rng.random() < 0.25]
    near = [v for v in verify(f, 2) if set(v.witnesses) & set(subset)]
    got = verify_around(f, subset)
    assert (got == []) == (near == [])
    assert len(got) == len(set(got)) and set(got) == set(near)


def reference_verify(f: TotalLabeling, p: int = 2) -> list[Violation]:
    """``verify`` as four plain loops, one per run of its output."""
    g = f.graph
    a = f.assignment
    out: list[Violation] = []

    for el in g.elements():
        lab = a.get(el)
        if lab is None:
            out.append(Violation("unlabeled-element", (el,)))
        elif not (0 <= lab <= f.k):
            out.append(Violation("label-out-of-range", (el,)))

    for u, v in g.edges:
        lu, lv = a.get(u), a.get(v)
        if lu is not None and lv is not None and abs(lu - lv) < 1:
            out.append(Violation("adjacent-vertices-equalish", (u, v)))

    for e in g.edges:
        le = a.get(e)
        if le is None:
            continue
        for v in e:
            lv = a.get(v)
            if lv is not None and abs(lv - le) < p:
                out.append(Violation("vertex-edge-too-close", (v, e)))

    for v in g.vertices:
        inc = g.incident_edges(v)
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                le, lf = a.get(inc[i]), a.get(inc[j])
                if le is not None and lf is not None and abs(le - lf) < 1:
                    out.append(
                        Violation("adjacent-edges-equalish", (inc[i], inc[j]))
                    )
    return out


@functools.cache
def _dissections(n: int) -> list[Graph]:
    return list(gen.enumerate_dissections(n))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_verify_equals_reference_in_order(seed, pick, p):
    # partial labelings, with labels out of range and repeated at a vertex,
    # of glued hosts and dissections: verify lists what the four loops do,
    # in their order
    rng = random.Random(pick)
    if seed % 2:
        g = gen.gen_glued_outerplanar(6 + seed % 12, seed=seed, constraints={},
                                      retries=10)
    else:
        g = rng.choice(_dissections(4 + seed % 5))
    k = rng.randint(2, 7)
    top = rng.choice([k, 3 * k])  # a wide range repeats fewer labels
    f = TotalLabeling(g, k, {
        el: rng.randint(-1, top + 1) for el in g.elements() if rng.random() < 0.9
    })
    for v in rng.sample(g.vertices, min(3, g.n)):
        inc = g.incident_edges(v)
        if len(inc) > 1 and rng.random() < 0.7:  # repeat an edge label at v
            e, e2 = rng.sample(inc, 2)
            f.assignment[e2] = f.assignment.get(e, rng.randint(0, k))
    assert verify(f, p) == reference_verify(f, p)


def test_verify_equals_reference_on_valid_and_mutated():
    # a valid labeling, then one element changed at a time: every element of
    # a glued host, and a seeded sample of a block-sized host's elements
    glued = gen.gen_glued_outerplanar(14, seed=3, constraints={"max_degree": 4})
    block = _capped_polygon(300, 3, "verify")
    for g, sample in ((glued, None), (block, 40)):
        f = label_outerplanar(g)
        assert verify(f) == reference_verify(f) == []
        rng = random.Random(0)
        elements = list(g.elements())
        for el in rng.sample(elements, sample) if sample else elements:
            old = f.assignment[el]
            for lab in (None, -1, f.k + 1, rng.randint(0, f.k)):
                if lab is None:
                    del f.assignment[el]
                else:
                    f.assignment[el] = lab
                for p in (1, 2, 3):
                    assert verify(f, p) == reference_verify(f, p)
            f.assignment[el] = old
        assert verify(f) == []


def test_verify_around_normalizes_and_rejects_unknown():
    f = k2_labeling(0, 1, 1)
    assert verify_around(f, [(1, 0)]) == verify_around(f, [(0, 1)]) != []
    assert verify_around(k2_labeling(0, 1, 3), [0, 1, (0, 1)]) == []
    with pytest.raises(ValueError):
        verify_around(f, [2])
    with pytest.raises(ValueError):
        verify_around(f, [(0, 2)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_verify_around_near_a_valid_labeling(seed, pick, p):
    # a valid labeling with a few labels dropped, moved out of range or
    # redrawn: verify_around returns the violations of verify with a
    # witness in the subset, once each, whichever way its edges are written;
    # an element not in the graph raises
    rng = random.Random(pick)
    g = gen.gen_glued_outerplanar(6 + seed % 18, seed, {"max_degree": 3 + seed % 2})
    f = label_outerplanar(g)
    labels, k = dict(f.assignment), f.k
    for el in rng.sample(list(labels), rng.randrange(4)):
        how = rng.randrange(3)
        if how == 0:
            del labels[el]
        else:
            labels[el] = rng.choice((-1, k + 1)) if how == 1 else rng.randint(0, k)
    plain = TotalLabeling(g, k, labels)
    subset = [el[::-1] if type(el) is tuple and rng.random() < 0.3 else el
              for el in g.elements() if rng.random() < 0.3]
    got = verify_around(plain, subset, p)
    near = {norm_edge(*el) if type(el) is tuple else el for el in subset}
    assert set(got) == {v for v in verify(plain, p) if near & set(v.witnesses)}
    assert len(got) == len(set(got))
    subset.insert(rng.randrange(len(subset) + 1),
                  rng.choice((g.n + 5, (0, g.n + 5), (0, 0))))
    with pytest.raises(ValueError):
        verify_around(plain, subset, p)
