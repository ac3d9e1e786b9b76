from __future__ import annotations

import hashlib
import itertools
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerlabel import generators as gen
from outerlabel.exact import (
    SearchBudgetExceeded,
    SearchCapExceeded,
    SearchStats,
    _keep_masks,
    _plan,
    _search,
    extend_bounded,
    find_labeling_bounded,
    lambda_exact,
)
from outerlabel.graphs import Graph, norm_edge
from outerlabel.labeling import TotalLabeling, span, verify

K2 = Graph.from_edges([(0, 1)])


def enumerate_lambda(g: Graph, p: int = 2, kmax: int = 9) -> int | None:
    """Full enumeration from first principles (test-side oracle)."""
    elements = list(g.elements())
    pairs = []
    for u, v in g.edges:
        pairs.append((u, v, 1))
    for e in g.edges:
        for v in e:
            pairs.append((v, e, p))
    for v in g.vertices:
        inc = [norm_edge(v, u) for u in g.neighbors(v)]
        for a, b in itertools.combinations(inc, 2):
            pairs.append((a, b, 1))
    for k in range(kmax + 1):
        for combo in itertools.product(range(k + 1), repeat=len(elements)):
            lab = dict(zip(elements, combo))
            if all(abs(lab[x] - lab[y]) >= gap for x, y, gap in pairs):
                return k
    return None


def test_bounded_infeasible_then_feasible():
    assert find_labeling_bounded(K2, 2, 2) is None
    f = find_labeling_bounded(K2, 2, 3)
    assert f is not None and verify(f, 2) == []


def test_single_vertex():
    g = Graph([0], [])
    f = find_labeling_bounded(g, 2, 0)
    assert f is not None and f.assignment == {0: 0}


def test_known_exact_values():
    assert lambda_exact(K2, 2, 8)[0] == 3
    assert lambda_exact(gen.gen_path(3), 2, 8)[0] == 4
    assert lambda_exact(gen.gen_cycle(3), 2, 8)[0] == 4


@pytest.mark.parametrize("edges", [
    [(0, 1)],
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (0, 2)],
    [(0, 1), (1, 2), (2, 3)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
    [(0, 1), (0, 2), (0, 3)],
])
def test_agrees_with_full_enumeration(edges):
    g = Graph.from_edges(edges)
    assert g.n + g.m <= 8
    assert lambda_exact(g, 2, 9)[0] == enumerate_lambda(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5_000))
def test_symmetry_pruning_sound(seed):
    g = gen.gen_glued_outerplanar(7, seed=seed, constraints={}, retries=10)
    with_prune, _ = lambda_exact(g, 2, 8, symmetry=True)
    without, _ = lambda_exact(g, 2, 8, symmetry=False)
    assert with_prune == without


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000))
def test_outerplanar_sandwich(seed):
    g = gen.gen_glued_outerplanar(8, seed=seed, constraints={}, retries=10)
    lam, f = lambda_exact(g, 2, g.max_degree() + 2)
    assert lam is not None
    assert g.max_degree() + 1 <= lam <= g.max_degree() + 2
    assert verify(f, 2) == []


def test_cap_guard():
    big = gen.gen_cycle(20)
    with pytest.raises(SearchCapExceeded):
        find_labeling_bounded(big, 2, 4, cap=30)


def test_extend_bounded_noop_and_pendant():
    f = find_labeling_bounded(K2, 2, 3)
    done = extend_bounded(f, [], k=3)
    assert done is not None and done.assignment == f.assignment

    # pendant completion: label a path minus its tip, then put the tip back
    p4 = gen.gen_path(4)
    base = find_labeling_bounded(p4.induced([0, 1, 2]), 2, 5)
    grown = TotalLabeling(p4, 5, dict(base.assignment))
    done = extend_bounded(grown, [3, (2, 3)], k=5)
    assert done is not None and verify(done, 2) == []


def test_extend_bounded_respects_infeasibility():
    f = TotalLabeling(K2, 2, {0: 0, 1: 1})
    assert extend_bounded(f, [(0, 1)], k=2) is None


def test_extend_bounded_leaves_the_fixed_part_to_verify():
    # the kept labels clash at (2, 3); only the free 0 and (0, 1) are searched
    p4 = gen.gen_path(4)
    kept = {1: 2, (1, 2): 5, 2: 0, 3: 0, (2, 3): 3}
    done = extend_bounded(TotalLabeling(p4, 5, dict(kept)), [0, (0, 1)], k=5)
    assert done is not None
    assert set(done.assignment) == set(p4.elements())
    assert {el: done.assignment[el] for el in kept} == kept
    assert [(v.kind, v.witnesses) for v in verify(done, 2)] == [
        ("adjacent-vertices-equalish", (2, 3))
    ]

    # a kept label above k narrows its free neighbours and is left to verify
    kept = {1: 2, (1, 2): 7, 2: 0, 3: 4, (2, 3): 2}
    done = extend_bounded(TotalLabeling(p4, 5, dict(kept)), [0, (0, 1)], k=5)
    assert done is not None
    assert [(v.kind, v.witnesses) for v in verify(done, 2)] == [
        ("label-out-of-range", ((1, 2),))
    ]

    # so does one below 0: vertex 1 at -1 forbids only label 0 to (0, 1); a
    # table indexed by -1 would read label 5's row and forbid 4 and 5 instead
    kept = {1: -1, (1, 2): 1, 2: 3, 3: 0, (2, 3): 5}
    done = extend_bounded(TotalLabeling(p4, 5, dict(kept)), [0, (0, 1)], k=5)
    assert done is not None
    assert {0: done.assignment[0], (0, 1): done.assignment[(0, 1)]} == {0: 0, (0, 1): 2}
    assert [(v.kind, v.witnesses) for v in verify(done, 2)] == [
        ("label-out-of-range", (1,))
    ]


def test_witness_deterministic():
    g = gen.gen_glued_outerplanar(8, seed=11, constraints={}, retries=10)
    _, w1 = lambda_exact(g, 2, 8)
    _, w2 = lambda_exact(g, 2, 8)
    assert w1.assignment == w2.assignment


def test_lambda_le_constructive_span():
    from outerlabel.pipeline import label_outerplanar

    for seed in range(12):
        g = gen.gen_glued_outerplanar(8, seed=seed, constraints={}, retries=10)
        if g.max_degree() > 4 or g.n + g.m > 26:
            continue
        lam, _ = lambda_exact(g, 2, g.max_degree() + 2)
        f = label_outerplanar(g)
        assert lam <= span(f)


# sha256 over lambda_exact(g, 2, Δ+2, cap=33) on the seed-0 degree corpora of
# 60 entries on 4-9 vertices, Δ = 3 and Δ = 4: λ, the witness items in
# insertion order, and the search's nodes and calls.  It pins the search
# tree: the element and label order and the node accounting.
SEARCH_DIGEST = "e53bd99f70fc682af1fad7d0e26865650bab37b06c59d7a6853e8490082bcd0c"


def test_search_trees_pinned():
    h = hashlib.sha256()
    for delta in (3, 4):
        for entry in gen.build_degree_corpus(delta, 60, (4, 9), seed0=0):
            stats = SearchStats()
            lam, witness = lambda_exact(
                gen.corpus_graph(entry), 2, delta + 2, cap=33, stats=stats)
            h.update(repr((lam, list(witness.assignment.items()),
                           stats.nodes, stats.calls)).encode())
    assert h.hexdigest() == SEARCH_DIGEST


def test_budget_counts_from_each_calls_first_node():
    # a budget given to one call neither stays in the caller's SearchStats
    # nor counts the nodes of earlier calls
    stats = SearchStats()
    assert lambda_exact(gen.gen_cycle(5), 2, 6, stats=stats, budget=50) == (None, None)
    assert stats.budget is None and stats.nodes == 51
    lam, witness = lambda_exact(gen.gen_cycle(9), 2, 6, stats=stats)
    assert lam == 4 and verify(witness, 2) == []
    before = stats.nodes
    assert lambda_exact(gen.gen_cycle(9), 2, 6, stats=stats, budget=5) == (None, None)
    assert stats.nodes == before + 6


def test_spent_budget_counts_one_node_past_it():
    stats = SearchStats(budget=3)
    with pytest.raises(SearchBudgetExceeded):
        find_labeling_bounded(gen.gen_cycle(9), 2, 4, stats=stats)
    assert stats.nodes == 4

    stats = SearchStats()
    assert lambda_exact(gen.gen_cycle(9), 2, 4, stats=stats, budget=5) == (None, None)
    assert stats.nodes == 6


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_negative_range_returns_none(k):
    g = gen.gen_path(3)
    stats = SearchStats()
    assert find_labeling_bounded(g, 2, k, stats=stats) is None
    f = find_labeling_bounded(g, 2, 4)
    kept = dict(f.assignment)
    assert extend_bounded(f, [0, (0, 1)], k=k, stats=stats) is None
    assert f.assignment == kept and f.k == 4
    assert extend_bounded(TotalLabeling(g, k, {}), list(g.elements()), stats=stats) is None
    assert stats.nodes == 0 and stats.calls == 3
    assert lambda_exact(g, 2, -3) == (None, None)


def _trail_search(plan, k, domains, stats, symmetry, limit):
    """The search kernel as it was with an undo trail, kept as a reference.

    ``ahead[pos]`` pairs each later constrained position with whether its
    gap is p, as the plan listed them then: an edge's ends (gap p) before
    its neighbouring edges, a vertex's neighbours before its edges.
    """
    order, near_at, far_at, p = plan
    ahead = [
        [(i, True) for i in fs] + [(i, False) for i in ns] if isinstance(el, tuple)
        else [(i, False) for i in ns] + [(i, True) for i in fs]
        for el, ns, fs in zip(order, near_at, far_at)
    ]
    if not order:
        return []
    near = _keep_masks(1, k)
    far = _keep_masks(p, k)
    if not all(domains):
        return None
    if symmetry:
        half = (k + 1) // 2 + 1
        domains[0] &= (1 << half) - 1
    last = len(order) - 1
    assignment = [0] * len(order)
    untried = [0] * len(order)
    marks = [0] * len(order)
    trail = []
    nodes = stats.nodes
    pos = 0
    untried[0] = domains[0]
    try:
        while True:
            mark = marks[pos]
            while len(trail) > mark:
                i, old = trail.pop()
                domains[i] = old
            dom = untried[pos]
            if not dom:
                if not pos:
                    return None
                pos -= 1
                continue
            low = dom & -dom
            untried[pos] = dom ^ low
            lab = low.bit_length() - 1
            nodes += 1
            if limit is not None and nodes > limit:
                raise SearchBudgetExceeded(f"exceeded the node budget at {limit}")
            keep1 = near[lab]
            keepp = far[lab]
            for i, at_p in ahead[pos]:
                old = domains[i]
                new = old & (keepp if at_p else keep1)
                if new != old:
                    domains[i] = new
                    trail.append((i, old))
                    if not new:
                        break
            else:
                assignment[pos] = lab
                if pos == last:
                    break
                pos += 1
                untried[pos] = domains[pos]
                marks[pos] = len(trail)
    finally:
        stats.nodes = nodes
    return assignment


def _run(kernel, plan, k, domains, nodes, symmetry, budget):
    """(result or "budget", nodes after) of one kernel from ``nodes`` nodes in."""
    stats = SearchStats(nodes=nodes)
    limit = None if budget is None else nodes + budget
    try:
        out = kernel(plan, k, domains, stats, symmetry, limit)
    except SearchBudgetExceeded:
        out = "budget"
    return out, stats.nodes


@cache
def _triangulations(n):
    return [sorted(t.edges) for t in gen.enumerate_triangulations(n)]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_snapshot_kernel_matches_the_trail_kernel(data):
    if data.draw(st.booleans()):  # a subset of a triangulated polygon
        n = data.draw(st.integers(3, 8))
        edges = data.draw(st.sampled_from(_triangulations(n)))
        kept = [e for e in edges if data.draw(st.booleans())]
        g = Graph(range(n), kept)
    else:
        n = data.draw(st.integers(2, 8))
        g = gen.gen_glued_outerplanar(n, seed=data.draw(st.integers(0, 5_000)),
                                      constraints={}, retries=10)
    elements = list(g.elements())
    free = [el for el in elements if data.draw(st.integers(0, 3))]
    k = data.draw(st.integers(0, 7))
    p = data.draw(st.integers(1, 3))
    labels = {el: data.draw(st.integers(-2, k + 2)) for el in elements
              if el not in free and data.draw(st.integers(0, 4))}
    plan, domains = _plan(g, p, free, k, labels.get)
    symmetry = data.draw(st.booleans())
    nodes = data.draw(st.integers(0, 50))
    size = _run(_trail_search, plan, k, list(domains), 0, symmetry, None)[1]
    budget = data.draw(st.none() | st.integers(0, size + 2))
    given_domains = list(domains)
    assert _run(_search, plan, k, domains, nodes, symmetry, budget) == _run(
        _trail_search, plan, k, list(domains), nodes, symmetry, budget)
    assert domains == given_domains  # read, never written
