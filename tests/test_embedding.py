from __future__ import annotations

import random
from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_delta4 import _bridged_hexagons, _capped_polygon
from test_structure import _polygon_subsets

from outerlabel import embedding
from outerlabel import generators as gen
from outerlabel.embedding import (
    NotOuterplanar,
    OuterplanarEmbedding,
    _finish_block,
    boundary_decompose,
    endfaces,
    recognize_embed,
)
from outerlabel.graphs import Graph, norm_edge
from outerlabel.structure import enumerate_chains


def c6_chord():
    return Graph.from_edges([(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])


def _reversed(emb):
    """The same embedding with every boundary cycle read the other way
    (the blocks sorted again by cycle)."""
    blocks = [_finish_block(b.cycle[::-1], b.chords) for b in emb.blocks]
    return OuterplanarEmbedding(
        emb.graph, sorted(blocks, key=attrgetter("cycle")), emb.bridge_edges)


def _cut_vertices(emb):
    """The cut vertices in the embedding's own vertex index."""
    emb._index()
    return frozenset(emb._cuts)


def test_recognize_cycle():
    emb = recognize_embed(gen.gen_cycle(5))
    assert len(emb.boundary) == 5
    assert len(emb.outer_edges) == 5
    assert not emb.inner_edges
    assert len(emb.inner_faces) == 1


def test_recognize_c6_chord():
    emb = recognize_embed(c6_chord())
    assert emb.inner_edges == {(0, 3)}
    assert sorted(f.key() for f in emb.inner_faces) == [
        (0, 1, 2, 3), (0, 3, 4, 5)
    ]
    assert all(f.inner_edge_count == 1 for f in emb.inner_faces)


def test_reject_k4_and_k23():
    k4 = Graph.from_edges(
        [(a, b) for a in range(4) for b in range(a + 1, 4)]
    )
    with pytest.raises(NotOuterplanar):
        recognize_embed(k4)
    k23 = Graph.from_edges([(a, b) for a in (0, 1) for b in (2, 3, 4)])
    with pytest.raises(NotOuterplanar):
        recognize_embed(k23)


def test_reject_disconnected_before_any_block():
    # connectivity is read off the block decomposition's search: a
    # disconnected graph gets one embedding, with a seed in each component
    # so that the driver splits it, and its blocks and bridges are those of
    # its components' own recognitions
    two = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g in (two, Graph.from_edges([], 2), Graph.from_edges([(0, 1), (2, 3)]),
              Graph.from_edges(list(c6_chord().edges) + [(5, 6), (7, 8), (8, 9)])):
        emb = recognize_embed(g)
        assert emb._seeds and emb.graph is g
        parts = [recognize_embed(g.induced(c)) for c in g.components()]
        assert emb.blocks == tuple(sorted((b for p in parts for b in p.blocks),
                                          key=lambda b: b.cycle))
        assert emb.bridge_edges == {e for p in parts for e in p.bridge_edges}
    assert not recognize_embed(c6_chord())._seeds
    k4_and_one = Graph.from_edges(
        [(a, b) for a in range(4) for b in range(a + 1, 4)], 5)
    with pytest.raises(NotOuterplanar):
        recognize_embed(k4_and_one)
    with pytest.raises(ValueError, match="empty"):
        recognize_embed(Graph([], []))
    one = recognize_embed(Graph.from_edges([], 1))
    assert one.blocks == () and one.bridge_edges == frozenset()


def test_reject_crossing_chords():
    g = Graph.from_edges(
        [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)]
    )
    with pytest.raises(NotOuterplanar):
        recognize_embed(g)


def test_bridges_and_blocks():
    # two triangles joined by a bridge
    g = Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    )
    emb = recognize_embed(g)
    assert emb.bridge_edges == {(2, 3)}
    assert len(emb.blocks) == 2
    assert (2, 3) in emb.outer_edges


def test_endfaces():
    emb = recognize_embed(c6_chord())
    assert len(endfaces(emb)) == 2
    assert endfaces(recognize_embed(gen.gen_cycle(5))) == []
    fan = gen.gen_fan(5)  # apex over a 5-path: extreme triangles are endfaces
    emb = recognize_embed(fan)
    ends = endfaces(emb)
    assert len(ends) == 2
    assert all(len(f.vertices) == 3 for f in ends)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_euler_face_count(seed):
    g = gen.gen_glued_outerplanar(10, seed=seed, constraints={}, retries=10)
    emb = recognize_embed(g)
    assert len(emb.inner_faces) == g.m - g.n + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_graphs_accepted(seed):
    g = gen.gen_random_outerplanar(9, 0.6, seed=seed)
    emb = recognize_embed(g)
    assert len(emb.boundary) == g.n
    its = _reversed(emb)
    assert len(its.inner_faces) == len(emb.inner_faces)
    assert its.inner_edges == emb.inner_edges


def test_face_edge_classification():
    emb = recognize_embed(gen.gen_closed_chain(3, "merged"))
    for face in emb.inner_faces:
        inner = sum(1 for e in face.edges() if e in emb.inner_edges)
        assert inner == face.inner_edge_count


def test_check_chords_nesting():
    cycle = range(8)  # position = vertex
    nested = [(0, 4), (1, 3), (4, 6), (0, 6), (6, 7), (1, 4)]
    blk = _finish_block(cycle, nested)
    assert blk.chords == set(nested) - {(6, 7)}  # (6, 7) is a boundary edge
    assert [f.vertices for f in blk.faces] == [
        (0, 4, 1), (0, 6, 4), (0, 7, 6), (1, 3, 2), (1, 4, 3), (4, 6, 5)
    ]
    assert [f.vertices for f in _finish_block(cycle, []).faces] == [
        (0, 7, 6, 5, 4, 3, 2, 1)
    ]
    for crossing in ([(0, 4), (2, 6)], [(1, 5), (0, 2)], [(0, 3), (1, 4), (5, 7)]):
        with pytest.raises(NotOuterplanar):
            _finish_block(cycle, crossing)


def _canonical(cycle):
    """Rotate to the smallest vertex and orient toward its smaller neighbor."""
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    return tuple(rot if rot[1] < rot[-1] else rot[:1] + rot[:0:-1])


def _assert_faces(blk):
    """The inner faces of one block, checked against the cycle and chords alone."""
    pos = {v: i for i, v in enumerate(blk.cycle)}
    assert len(blk.faces) == len(blk.chords) + 1
    on_faces = Counter(e for f in blk.faces for e in f.edges())
    assert on_faces == Counter(blk.outer_edges() + 2 * sorted(blk.chords))
    for f in blk.faces:
        ps = [pos[v] for v in f.vertices]
        assert ps[0] == min(ps) and ps[1:] == sorted(ps[1:], reverse=True)
        assert f.inner_edge_count == sum(e in blk.chords for e in f.edges())
    assert [f.key() for f in blk.faces] == sorted(f.key() for f in blk.faces)


@pytest.mark.parametrize("n", range(4, 9))
def test_every_dissection_recognized(n):
    """Every diagonal subset of every triangulated n-gon, under one relabeling.

    The boundary and the chords come back exactly, the faces check out in
    both orientations, and one more diagonal crossing any kept chord makes
    the graph non-outerplanar.
    """
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    ring = [(i, (i + 1) % n) for i in range(n)]
    boundary = _canonical([perm[i] for i in range(n)])
    dissections = list(gen.enumerate_dissections(n))
    for d in dissections:
        kept = [e for e in d.edges if (e[1] - e[0]) % n not in (1, n - 1)]
        edges = [norm_edge(perm[a], perm[b]) for a, b in ring + kept]
        emb = recognize_embed(Graph(range(n), edges))
        assert emb.boundary == boundary
        assert emb.inner_edges == set(edges[n:])
        _assert_faces(emb.blocks[0])
        _assert_faces(_reversed(emb).blocks[0])
        for a, b in kept:  # a < b, so (a+1, b+1) crosses (a, b)
            cross = norm_edge(perm[a + 1], perm[(b + 1) % n])
            with pytest.raises(NotOuterplanar):
                recognize_embed(Graph(range(n), edges + [cross]))
    assert len(dissections) == {4: 3, 5: 11, 6: 45, 7: 197, 8: 903}[n]


def test_boundary_decompose_examples():
    xs, ys, qs = boundary_decompose(recognize_embed(c6_chord()))
    assert xs == [0, 3]
    assert qs == [2, 2]
    assert ys == [[1, 2], [4, 5]]

    c4 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    xs, ys, qs = boundary_decompose(recognize_embed(c4))
    assert xs == [0, 2]
    assert qs == [1, 1]

    c8 = Graph.from_edges(
        [(i, (i + 1) % 8) for i in range(8)] + [(0, 3), (4, 7)]
    )
    xs, ys, qs = boundary_decompose(recognize_embed(c8))
    assert xs == [0, 3, 4, 7]
    assert qs == [2, 0, 2, 0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_decompose_covers_boundary(seed):
    try:
        g = gen.gen_random_outerplanar(
            9, 0.35, seed=seed, constraints={"max_degree": 3}, retries=30
        )
    except gen.ConstraintsUnsatisfiable:
        return
    xs, ys, qs = boundary_decompose(recognize_embed(g))
    assert sum(q + 1 for q in qs) == g.n
    assert all(q >= 0 for q in qs)
    assert len(xs) % 2 == 0  # chords perfectly match the 3-vertices


def test_decompose_rejects_wrong_degree():
    with pytest.raises(ValueError):
        boundary_decompose(recognize_embed(gen.gen_cycle(5)))
    with pytest.raises(ValueError):
        boundary_decompose(recognize_embed(gen.gen_closed_chain(2, "merged")))


@pytest.mark.parametrize("n", range(4, 10))
def test_faces_traced_on_first_read(n):
    # recognition leaves a block's faces untraced; when first read they are
    # one face pass over its cycle and chords, and they check out against
    # the cycle and chords alone, on every dissection of the n-gon
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    for d in gen.enumerate_dissections(n):
        (blk,) = recognize_embed(
            Graph.from_edges([(perm[a], perm[b]) for a, b in d.edges])).blocks
        assert blk._faces is None
        pos = {v: i for i, v in enumerate(blk.cycle)}
        assert blk.faces == embedding._face_pass(blk.cycle, pos, sorted(blk.chords))
        _assert_faces(blk)


def test_recognized_chords_iterate_in_sorted_fill_order():
    # the labelers iterate chord sets, and a frozenset's order depends on the
    # order it was filled in: recognition fills it sorted, as a linked block
    # does, whatever order the depth-first search lists the edges in
    hosts = [gen.gen_strip(60), gen.gen_sun_necklace(4)]
    hosts += [_capped_polygon(n, 4, f"chords:{n}") for n in (40, 90)]
    hosts += [gen.gen_glued_outerplanar(30, seed, {"max_degree": 4})
              for seed in range(20)]
    chords = 0
    for g in hosts:
        for b in recognize_embed(g).blocks:
            assert list(b.chords) == list(frozenset(sorted(b.chords)))
            chords += len(b.chords)
    assert chords > 150


def test_recognition_builds_no_graph(monkeypatch):
    # blocks are embedded straight off adjacency sets and edge lists, whether
    # the whole host is peeled or the depth-first search splits it
    hosts = [gen.gen_strip(40), _bridged_hexagons(6), gen.gen_path(5),
             _capped_polygon(30, 4, "no-graph"), Graph.from_edges([], 1)]
    k4 = Graph.from_edges([(a, b) for a in range(4) for b in range(a + 1, 4)])
    builds = 0
    real = Graph.__init__

    def counting(self, *args):
        nonlocal builds
        builds += 1
        real(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting)
    for g in hosts:
        recognize_embed(g)
    with pytest.raises(NotOuterplanar):
        recognize_embed(k4)
    assert builds == 0
    Graph([0], [])
    assert builds == 1  # the hook counts


def _outcome(recognize, g: Graph):
    """What ``recognize`` makes of ``g``: its embedding, or its error's message."""
    try:
        return recognize(g)
    except NotOuterplanar as exc:
        return str(exc)


def _assert_same_embedding(emb, by_search) -> None:
    assert emb.blocks == by_search.blocks  # cycles, chords, faces, order
    assert [b.faces for b in emb.blocks] == [b.faces for b in by_search.blocks]
    # the labelers iterate chord sets, so their order must match too
    assert [list(b.chords) for b in emb.blocks] == [list(b.chords) for b in by_search.blocks]
    assert emb.bridge_edges == by_search.bridge_edges
    assert bool(emb._seeds) == bool(by_search._seeds)


def _ladder(n: int) -> Graph:
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)]
                            + [(i, n - 1 - i) for i in range(1, n // 2 - 1)])


def test_whole_peel_equals_block_search(monkeypatch):
    # a 2-connected outerplanar host is recognized by one peel of the whole
    # graph, never by the depth-first search, and gets the search's embedding
    by_search = embedding._recognize_blocks

    def unused(g):
        raise AssertionError("the depth-first search ran on a 2-connected host")

    monkeypatch.setattr(embedding, "_recognize_blocks", unused)
    rng = random.Random(23)
    hosts = []
    for n in range(4, 10):
        perm = list(range(n))
        rng.shuffle(perm)
        hosts += [Graph(range(n), [norm_edge(perm[a], perm[b]) for a, b in d.edges])
                  for d in gen.enumerate_dissections(n)]
    hosts += [_ladder(n) for n in (100, 400, 1000)]
    hosts += [_capped_polygon(n, cap, f"peel:{n}") for n in (100, 400, 1000)
              for cap in (3, 4)]
    hosts += [gen.gen_strip(n) for n in (100, 400, 1000)]
    for g in hosts:
        emb = recognize_embed(g)
        assert len(emb.blocks) == 1 and not emb.bridge_edges
        _assert_same_embedding(emb, by_search(g))
    assert len(hosts) == 3 + 11 + 45 + 197 + 903 + 4279 + 12


def test_failed_peel_falls_back_to_block_search():
    # a 2-connected host that is not outerplanar, or a host of minimum degree
    # 2 with a cut vertex: the whole peel fails, and recognition raises or
    # returns what the depth-first search alone does
    ring8 = [(i, (i + 1) % 8) for i in range(8)]
    fan8 = [(0, i) for i in range(2, 7)]
    not_outerplanar = [
        Graph.from_edges([(a, b) for a in range(4) for b in range(a + 1, 4)]),
        Graph.from_edges([(a, b) for a in (0, 1) for b in (2, 3, 4)]),
        Graph.from_edges([(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)]),
        Graph.from_edges(ring8 + fan8 + [(1, 3)]),
    ]
    cut = [
        Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
        _bridged_hexagons(3),
        Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    ]
    for g in not_outerplanar + cut:
        assert g.min_degree() >= 2
        with pytest.raises(NotOuterplanar):
            embedding._boundary_cycle({v: set(g.neighbors(v)) for v in g.vertices}, g.m)
        got, want = _outcome(recognize_embed, g), _outcome(embedding._recognize_blocks, g)
        if g in cut:
            _assert_same_embedding(got, want)
        else:
            assert isinstance(got, str) and got == want


def _heap_boundary_cycle(adj, m):
    """``embedding._boundary_cycle`` as it was when it peeled the smallest-id
    2-vertex first, off a heap: the reference for the stack peel."""
    import heapq
    n = len(adj)
    if m > 2 * n - 3:
        raise NotOuterplanar("too many edges for an outerplane drawing")
    ready = [v for v, ns in adj.items() if len(ns) == 2]
    heapq.heapify(ready)
    removed = []
    for _ in range(n - 3):
        while ready and len(adj.get(ready[0], ())) != 2:
            heapq.heappop(ready)
        if not ready:
            raise NotOuterplanar("a block has minimum degree 3")
        v2 = heapq.heappop(ready)
        a, b = adj.pop(v2)
        if a > b:
            a, b = b, a
        removed.append((v2, a, b))
        na, nb = adj[a], adj[b]
        if type(na) is tuple:
            adj[a] = na = set(na)
        if type(nb) is tuple:
            adj[b] = nb = set(nb)
        na.discard(v2)
        na.add(b)
        nb.discard(v2)
        nb.add(a)
        if len(na) < 2 or len(nb) < 2:
            raise NotOuterplanar("a vertex is left with one neighbour")
        if len(na) == 2:
            heapq.heappush(ready, a)
        if len(nb) == 2:
            heapq.heappush(ready, b)
    if any(len(ns) != 2 for ns in adj.values()):
        raise NotOuterplanar("block does not reduce to a triangle")
    first, second, third = sorted(adj)
    nxt = {first: second, second: third, third: first}
    for v, a, b in reversed(removed):
        if nxt[a] != b:
            a, b = b, a
        if nxt[a] != b:
            raise NotOuterplanar("chords of a block interleave")
        nxt[a], nxt[v] = v, b
    cycle = [first]
    for _ in range(n - 1):
        cycle.append(nxt[cycle[-1]])
    return embedding._canonical_cycle(cycle)


def _peel_outcome(peel, adj, m):
    try:
        return peel({v: tuple(ns) for v, ns in adj.items()}, m)
    except NotOuterplanar:
        return NotOuterplanar


def _subdivided(edges, pattern):
    """``edges`` with edge i subdivided by ``pattern[i]`` new vertices."""
    out, fresh = [], 100
    for (u, v), extra in zip(edges, pattern):
        path = [u, *range(fresh, fresh + extra), v]
        fresh += extra
        out += zip(path, path[1:])
    return Graph.from_edges(out)


def test_stack_peel_finds_the_heap_peels_cycle():
    # the peel's order is free: each block of the n <= 7 polygon sweep, each
    # whole sweep host of minimum degree 2, every dissection of a 4- to 9-gon
    # under a relabeling, and K4, K2,3 and their subdivisions give the same
    # cycle as the smallest-first heap peel, or NotOuterplanar on both
    hosts = list(_polygon_subsets())
    rng = random.Random(31)
    for n in range(4, 10):
        perm = list(range(n))
        rng.shuffle(perm)
        for d in gen.enumerate_dissections(n):
            edges = [norm_edge(perm[a], perm[b]) for a, b in d.edges]
            hosts.append(Graph(range(n), edges))
            for a, b in d.edges:  # the first chord, and one crossing it
                if (b - a) % n not in (1, n - 1):
                    cross = norm_edge(perm[a + 1], perm[(b + 1) % n])
                    hosts.append(Graph(range(n), edges + [cross]))
                    break
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    k23 = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    rejected = [_subdivided(base, [(mask >> i) & 1 for i in range(6)])
                for base in (k4, k23) for mask in range(64)]
    outcomes = Counter()
    for g in hosts + rejected:
        parts = [(g._adj, g.m)] if g.min_degree() >= 2 else []
        for edges in g._block_decomposition()[0]:
            if len(edges) > 1:
                adj = {}
                for u, v in edges:
                    adj.setdefault(u, set()).add(v)
                    adj.setdefault(v, set()).add(u)
                parts.append((adj, len(edges)))
        for adj, m in parts:
            got = _peel_outcome(embedding._boundary_cycle, adj, m)
            assert got == _peel_outcome(_heap_boundary_cycle, adj, m), sorted(g.edges)
            outcomes[got is NotOuterplanar] += 1
    for g in rejected:
        with pytest.raises(NotOuterplanar):
            recognize_embed(g)
    assert outcomes[False] > 20000 and outcomes[True] > 10000, outcomes


def test_blocks_sorted_by_cycle():
    # both blocks have smallest vertex 0; the depth-first search meets the
    # square first, through its chord (0, 1), but its cycle sorts second
    g = Graph.from_edges(
        [(0, 3), (3, 1), (1, 4), (4, 0), (0, 1), (0, 2), (2, 5), (5, 0)]
    )
    assert [b.cycle for b in recognize_embed(g).blocks] == [(0, 2, 5), (0, 3, 1, 4)]


def _removal_hosts() -> list[Graph]:
    hosts = [gen.gen_closed_chain(t, mode) for t in (2, 3, 5)
             for mode in ("merged", "pendants")]
    hosts += [_capped_polygon(n, 4, f"without:{n}") for n in (16, 24, 40)]
    for seed in range(40):
        hosts.append(gen.gen_glued_outerplanar(
            10 + seed % 25, seed, {"max_degree": 3 + seed % 2}))
    return hosts


def _removals(emb, rng: random.Random):
    """(vertices, edges) removals of the kinds the reductions make, plus random ones."""
    g = emb.graph
    for v in g.vertices:
        if g.degree(v) <= 2:  # pendants, and every 2-vertex a C1/C2 can name
            yield [v], []
    cuts = _cut_vertices(emb)
    for b in emb.blocks:
        if len(cuts.intersection(b.cycle)) == 1:  # a leaf block
            yield [v for v in b.cycle if v not in cuts], []
    for ch in enumerate_chains(emb):
        if ch.closing_inner_edge is not None:
            yield ch.interior(), [ch.closing_inner_edge]
    for b in emb.blocks:  # arcs, some with chords into the rest of the cycle
        c = b.cycle
        for size in (2, 3):
            if size < len(c):
                for i in range(len(c)):
                    yield [c[(i + j) % len(c)] for j in range(size)], []
        if len(c) > 3:  # an arc and a boundary edge of what is left
            yield [c[0]], [(c[2], c[1])]
    for _ in range(10):
        yield rng.sample(g.vertices, rng.randrange(1, g.n)), []


def _one_arc(emb, vertices, edges) -> bool:
    """Whether each block the removal touches loses one arc of its cycle, or
    all of it, and chords at most."""
    gone = set(vertices)
    for b in emb.blocks:
        on = [v in gone for v in b.cycle]
        lost = [norm_edge(*e) for e in edges
                if set(e) <= set(b.cycle) and gone.isdisjoint(e)]
        arcs = sum(on[i] and not on[i - 1] for i in range(len(on)))
        if (any(on) or lost) and not all(on) and (
                arcs != 1 or any(e not in b.chords for e in lost)):
            return False
    return True


def test_without_equals_fresh_recognition(monkeypatch):
    rng = random.Random(0)
    splits = arcs = refused = 0
    embedded = []  # every embedded block passes through ``_finish_block`` once
    real = embedding._finish_block

    def counting(*args):
        embedded.append(args)
        return real(*args)

    monkeypatch.setattr(embedding, "_finish_block", counting)
    for g in _removal_hosts():
        embedded.clear()
        emb = recognize_embed(g)
        assert len(embedded) == len(emb.blocks)  # the hook sees recognition
        assert _cut_vertices(emb) == g.cut_vertices()
        for vertices, edges in _removals(emb, rng):
            embedded.clear()
            rest = emb.working()  # a copy: neither emb nor g changes
            if not _one_arc(emb, vertices, edges):
                with pytest.raises(ValueError):
                    rest.remove(vertices, edges)
                refused += 1
                continue
            undo = rest.remove(vertices, edges)
            arcs += 1
            assert embedded == []  # the one-arc rule searches no boundary
            gone = set(vertices)
            lost = {norm_edge(*e) for e in edges}
            assert rest.graph == Graph(
                [v for v in g.vertices if v not in gone],
                [e for e in g.edges if gone.isdisjoint(e) and e not in lost])
            comps = rest.graph.components()
            if not rest._seeds:
                assert len(comps) == 1
            graphs = [rest.graph.induced(c) for c in comps]
            parts, split_undo = rest.split()
            assert [p.graph for p in parts] == graphs
            splits += len(parts) > 1
            for part in parts:
                fresh = recognize_embed(part.graph)
                assert part.blocks == fresh.blocks  # cycles, chords, faces, order
                # blocks left by a removal trace their faces when first read
                assert [b.faces for b in part.blocks] == [b.faces for b in fresh.blocks]
                assert part.bridge_edges == fresh.bridge_edges
                # the labelers iterate chord sets, so their order must match too
                assert [list(b.chords) for b in part.blocks] == [
                    list(b.chords) for b in fresh.blocks]
            # the records put the working copy back as it was, in reverse order
            if split_undo is not None:
                rest.graph.put_back(split_undo)
            rest.graph.put_back(undo)
            assert rest.graph == g and rest.graph.max_degree() == g.max_degree()
            assert emb.blocks == recognize_embed(g).blocks
    assert splits > 0 and arcs > 0 and refused > 0
    # a reversed embedding keeps its blocks sorted by cycle, and removing
    # from a working copy of it cuts the right block
    g = Graph.from_edges([(0, 1), (1, 5), (0, 5), (1, 2), (2, 3), (1, 3)])
    its = _reversed(recognize_embed(g)).working()
    assert [b.cycle for b in its.blocks] == [(3, 2, 1), (5, 1, 0)]
    its.remove([2])
    assert [b.cycle for b in its.blocks] == [(5, 1, 0)]
    assert its.bridge_edges == {(1, 3)}


def _prime(emb):
    """Build the index, the leaves and the worklists of ``emb``, so that a
    removal patches them."""
    emb._index()
    emb.leaf_block()
    work = emb.worklists()
    for kind in ("pendant", "C1", "C2"):
        work.first(kind)


def _short_path_state(emb, undo):
    """What a removal leaves that later steps read: index, cut set and
    counts, leaf block, blocks, worklist picks, the graph and the undo record."""
    emb._index()
    fresh = set(emb._fresh)
    leaf = emb.leaf_block()
    work = emb.worklists()
    return (emb._at, emb._cuts, emb._ncut, emb._bridges, emb._seeds, fresh,
            leaf and (leaf[0].cycle, leaf[1]),
            {key: (b.cycle, list(b.chords)) for key, b in emb._block.items()},
            [b.cycle for b in emb.blocks], [b.faces for b in emb.blocks],
            [work.first(kind) for kind in ("pendant", "C1", "C2")],
            emb.graph._adj, emb.graph.m, undo)


def _vertex_kind(emb, v):
    """How ``remove([v])`` takes ``v``: on bridges alone (a pendant, a path
    vertex, or a hub of three or more), as a vertex of one block with a
    chord at it (a chord end), or as a 2-vertex of a triangle, of a
    chordless cycle, of a block whose chord joins its neighbours (an ear)
    or of another block with chords.  None for an isolated vertex and for
    a cut vertex on a block, which ``_cut_vertex`` leaves to ``_cut``."""
    ns, on = emb.graph.neighbors(v), emb._at[v]
    if not ns:
        return None
    if all(type(k) is not int for k in on):
        return "pendant" if len(ns) == 1 else "path" if len(ns) == 2 else "hub"
    if len(on) > 1:
        return None
    b = emb._block[on[0]]
    if len(ns) > 2:
        return "chord end"
    return ("triangle" if len(b) == 3 else "chordless" if not b._chords
            else "ear" if ns in b._chords else "chorded")


def _one_vertex_steps(emb, kinds):
    """The vertices of ``emb`` whose kind (``_vertex_kind``) is in ``kinds``,
    in vertex order: (vertex, kind)."""
    emb._index()
    for v in emb.graph.vertices:
        kind = _vertex_kind(emb, v)
        if kind in kinds:
            yield v, kind


def _one_vertex_removals(monkeypatch, prefer, blocks_only, once):
    """Remove vertices of every n <= 7 sweep host of maximum degree 3 or 4
    from two working copies, one by ``remove``'s one-vertex path and one by
    ``_cut``, compare the copies after every removal and check that
    ``_cut`` is never entered for one vertex.  A chain removes the first
    vertex of the kinds in ``prefer`` (groups of kinds, the first group
    first) until none is left, or, if ``blocks_only``, while a block is
    left; each other vertex of the host of a kind in ``once`` is removed
    alone.  Returns the count of removals by kind, and by ``"linked "`` and
    kind for those from a block that an earlier removal relinked."""
    general = []
    real = OuterplanarEmbedding._cut

    def cut(self, gone, edges):
        general.append(self)
        return real(self, gone, edges)

    def pick(emb):
        return next((step for kinds in prefer for step in _one_vertex_steps(emb, kinds)),
                    (None, None))

    monkeypatch.setattr(OuterplanarEmbedding, "_cut", cut)
    seen = Counter()
    for g in _polygon_subsets():
        if g.max_degree() not in (3, 4):
            continue
        emb = recognize_embed(g)
        head = pick(emb.working())
        for v, kind in _one_vertex_steps(emb.working(), once + sum(prefer, ())):
            chained = (v, kind) == head
            if not chained and kind not in once:
                continue
            short, other = emb.working(), emb.working()
            _prime(short)
            _prime(other)
            while v is not None:
                seen[kind] += 1
                on = short._at[v]
                if type(on[0]) is int:
                    seen["linked " + kind] += short._block[on[0]]._next is not None
                undo = short.remove([v])
                assert short not in general
                want = _short_path_state(other, real(other, {v}, ()))
                assert _short_path_state(short, undo) == want
                if not chained or blocks_only and not short._block:
                    break
                v, kind = pick(short)
    return seen


def test_short_paths_leave_what_cut_arc_does(monkeypatch):
    # the chain removes the first pendant or ear until neither is left, so
    # ears of linked blocks are spliced too, and pendants of the forest
    # left go as well; each other ear of the host is removed alone
    seen = _one_vertex_removals(monkeypatch, [("pendant", "ear")], False, ("ear",))
    assert seen["pendant"] > 20000 and seen["ear"] > 5000 and seen["linked ear"] > 900, seen


def test_every_one_vertex_kind_leaves_what_cut_does(monkeypatch):
    # the chain removes the first 2-vertex of any kind, else the first
    # pendant, while a block is left, so triangles, chordless cycles and
    # other blocks are cut once a removal relinked them; each other
    # chordless or chorded 2-vertex, chord end and hub of the host is
    # removed alone
    twos = ("path", "triangle", "chordless", "ear", "chorded")
    seen = _one_vertex_removals(monkeypatch, [twos, ("pendant",)], True,
                                ("chordless", "chorded", "chord end", "hub"))
    least = {"path": 1500, "triangle": 5000, "chordless": 2500, "chorded": 1500,
             "chord end": 1000, "hub": 100, "linked triangle": 2000,
             "linked chordless": 300, "linked chorded": 100}
    assert all(seen[kind] > n for kind, n in least.items()), seen
