from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerlabel import generators as gen
from outerlabel.graphs import Graph, norm_edge


def bfs_connected(vertices: set[int], adj: dict[int, set[int]]) -> bool:
    if not vertices:
        return True
    seen = {next(iter(sorted(vertices)))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u in vertices and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen == vertices


def brute_cut_vertices(g: Graph) -> set[int]:
    out = set()
    for v in g.vertices:
        rest = set(g.vertices) - {v}
        adj = {u: {w for w in g.neighbors(u) if w != v} for u in rest}
        if len(rest) >= 1 and not bfs_connected(rest, adj):
            out.add(v)
    return out


def brute_bridges(g: Graph) -> set[tuple[int, int]]:
    out = set()
    vs = set(g.vertices)
    for e in g.edges:
        adj = {
            u: {w for w in g.neighbors(u) if norm_edge(u, w) != e}
            for u in vs
        }
        if not bfs_connected(vs, adj):
            out.add(e)
    return out


def _bridges(g: Graph) -> set[tuple[int, int]]:
    """The edges that are blocks of their own."""
    return {b.edges[0] for b in g.biconnected_components() if b.n == 2}


def test_degrees():
    star = Graph(range(5), [(0, i) for i in range(1, 5)])
    assert star.degree(0) == 4
    assert star.degree(3) == 1
    iso = Graph([0, 1], [])
    assert iso.degree(0) == 0
    c6 = gen.gen_cycle(6)
    assert all(c6.degree(v) == 2 for v in c6.vertices)


def test_max_min_degree():
    c5 = gen.gen_cycle(5)
    assert c5.max_degree() == 2 and c5.min_degree() == 2
    p4 = gen.gen_path(4)
    assert p4.max_degree() == 2 and p4.min_degree() == 1
    with pytest.raises(ValueError):
        Graph([], []).max_degree()


def test_chain_instance_degree():
    # fan of two triangles closed by the end-to-end chord
    g = gen.gen_closed_chain(2, "none")
    assert g.max_degree() == 4
    assert g.degree(2) == 4  # the shared spine vertex


def test_cut_vertices_examples():
    assert gen.gen_cycle(6).cut_vertices() == set()
    p5 = gen.gen_path(5)
    assert p5.cut_vertices() == {1, 2, 3}
    twotri = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert twotri.cut_vertices() == {2} == brute_cut_vertices(twotri)


def test_bridges_examples():
    assert _bridges(gen.gen_cycle(6)) == set()
    assert _bridges(gen.gen_path(5)) == {(0, 1), (1, 2), (2, 3), (3, 4)}
    tri_pend = Graph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert _bridges(tri_pend) == {(2, 3)} == brute_bridges(tri_pend)


def test_biconnected_components_examples():
    comps = gen.gen_cycle(6).biconnected_components()
    assert len(comps) == 1 and comps[0].n == 6
    twotri = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    sizes = sorted(b.n for b in twotri.biconnected_components())
    assert sizes == [3, 3]
    p3 = gen.gen_path(3)
    assert sorted(b.edges for b in p3.biconnected_components()) == [
        ((0, 1),), ((1, 2),)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_connectivity_against_brute_force(seed):
    g = gen.gen_glued_outerplanar(8, seed=seed, constraints={}, retries=10)
    assert g.cut_vertices() == brute_cut_vertices(g)
    assert _bridges(g) == brute_bridges(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_blocks_partition_edges(seed):
    g = gen.gen_glued_outerplanar(9, seed=seed, constraints={}, retries=10)
    blocks = g.biconnected_components()
    covered = list(itertools.chain.from_iterable(b.edges for b in blocks))
    assert sorted(covered) == list(g.edges)
    cuts = g.cut_vertices()
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            shared = set(blocks[i].vertices) & set(blocks[j].vertices)
            assert len(shared) <= 1
            assert all(v in cuts for v in shared)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_bridge_iff_no_cycle(seed):
    g = gen.gen_glued_outerplanar(8, seed=seed, constraints={}, retries=10)
    bridges = _bridges(g)
    for e in g.edges:
        # an edge lies on a cycle iff its endpoints stay connected without it
        vs = set(g.vertices)
        adj = {
            u: {w for w in g.neighbors(u) if norm_edge(u, w) != e} for u in vs
        }
        seen = {e[0]}
        frontier = [e[0]]
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        on_cycle = e[1] in seen
        assert (e in bridges) == (not on_cycle)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_leaf_block_exists_when_cut(seed):
    g = gen.gen_glued_outerplanar(10, seed=seed, constraints={}, retries=10)
    cuts = g.cut_vertices()
    if not cuts:
        return
    blocks = g.biconnected_components()
    assert any(len(set(b.vertices) & cuts) == 1 for b in blocks)


def test_remove_and_add():
    c4 = gen.gen_cycle(4)
    p3 = c4.working_copy()
    undo = p3.cut([3])
    assert p3.n == 3 and p3.m == 2
    p3.put_back(undo)
    assert p3 == c4
    p = gen.gen_path(3)
    c3 = p.add_edges([(0, 2)])
    assert c3.m == 3 and all(c3.degree(v) == 2 for v in c3.vertices)
    grown = p.add_edges([(2, 9)])
    assert grown.has_vertex(9) and grown.has_edge(2, 9)


def test_remove_edges():
    c4 = gen.gen_cycle(4)
    broken = c4.working_copy()
    broken.cut((), [(0, 1)])
    assert broken.m == 3 and not broken.has_edge(0, 1)
    assert broken.n == 4


def test_rejects_malformed():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 2)])
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph.from_edges([(0, 1), (2, 2), (3, 3)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12))
                .filter(lambda e: e[0] != e[1]), max_size=30),
       st.one_of(st.none(), st.integers(0, 16)), st.integers(0, 2**32 - 1))
def test_from_edges_equals_graph(edges, n, pick):
    # duplicates, reversed pairs and padding vertices 0..n-1 build the same
    # graph as the constructor, down to adjacency order and degrees; so do
    # edges in the order ``Graph.edges`` lists them, which take no sort, and
    # such a list with one edge repeated, or reversed, anywhere
    rng = random.Random(pick)
    kind = rng.randrange(3)
    if kind < 2:
        edges = sorted({norm_edge(*e) for e in edges})
        if kind and edges:
            u, v = rng.choice(edges)
            edges.insert(rng.randrange(len(edges) + 1), rng.choice([(u, v), (v, u)]))
    else:
        edges = edges + [(v, u) for u, v in edges if rng.random() < 0.3]
        rng.shuffle(edges)
    g = Graph.from_edges(edges, n)
    ref = Graph({x for e in edges for x in e} | set(range(n or 0)), edges)
    assert g.vertices == ref.vertices and g.edges == ref.edges
    assert g.m == ref.m and g.n == ref.n
    assert [g.neighbors(v) for v in g.vertices] == [
        ref.neighbors(v) for v in ref.vertices]
    if ref.n:
        assert g.min_degree() == ref.min_degree()
        assert g.max_degree() == ref.max_degree()
    assert g == ref and hash(g) == hash(ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1))
def test_induced_equals_rebuilt_graph(seed, pick):
    g = gen.gen_glued_outerplanar(12, seed=seed, constraints={}, retries=10)
    rng = random.Random(pick)
    keep = [v for v in g.vertices if rng.random() < 0.6]
    rng.shuffle(keep)
    sub = g.induced(keep)
    ks = set(keep)
    ref = Graph(keep, [e for e in g.edges if e[0] in ks and e[1] in ks])
    assert sub.vertices == ref.vertices
    assert [sub.neighbors(v) for v in sub.vertices] == [
        ref.neighbors(v) for v in ref.vertices
    ]
    assert sub.edges == ref.edges
    assert sub == ref and hash(sub) == hash(ref)
    unknown = max(g.vertices) + 1
    hub = max(g.vertices, key=g.degree)
    # (what is dropped, as ``cut`` is given it): one vertex takes its own branch
    for drop, given in (
        (ks, ks), (set(), set()), ({unknown} | set(keep[:2]),) * 2,
        ({hub}, (hub,)), ({hub}, {hub}), ({unknown}, (unknown,)),
        ({hub}, (v for v in (hub,))),
    ):
        rest = g.working_copy()
        record = rest.cut(given)
        ref = Graph(
            [v for v in g.vertices if v not in drop],
            [e for e in g.edges if e[0] not in drop and e[1] not in drop],
        )
        assert rest == ref and rest.vertices == ref.vertices
        assert rest.edges == ref.edges
        assert [rest.neighbors(v) for v in ref.vertices] == [
            ref.neighbors(v) for v in ref.vertices
        ]
        assert not rest.has_vertex(unknown)
        assert rest.m == ref.m
        if ref.n:
            assert rest.max_degree() == ref.max_degree()
            assert rest.min_degree() == ref.min_degree()
        rest.put_back(record)
        assert rest == g and rest.m == g.m
        assert all(rest.neighbors(v) is g.neighbors(v) for v in g.vertices)
        assert (rest.max_degree(), rest.min_degree()) == (g.max_degree(), g.min_degree())
    cut = [e[::-1] for e in g.edges if rng.random() < 0.3]
    thin = g.working_copy()
    thin.cut((), cut)
    ref = Graph(g.vertices, [e for e in g.edges if e[::-1] not in cut])
    assert thin == ref and [thin.neighbors(v) for v in g.vertices] == [
        ref.neighbors(v) for v in g.vertices
    ]


def test_induced_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        gen.gen_cycle(4).induced([0, 1, 9])
