from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerlabel import generators as gen
from outerlabel.embedding import recognize_embed
from outerlabel.graphs import Graph, norm_edge
from outerlabel.structure import (
    ChainNotFound,
    enumerate_chains,
    find_closed_chain,
    find_configuration,
)


def check_chain(g, emb, chain) -> list[str]:
    """Re-validate a chain against its structural invariants; [] when sound."""
    problems = []
    s = chain.spine
    inner = emb.inner_edges
    outer = emb.outer_edges
    if len(s) < 5 or len(s) % 2 == 0:
        problems.append("spine must have odd length >= 5")
        return problems
    if len(set(s)) != len(s):
        problems.append("spine vertices repeat")
    for i in range(chain.t):
        a, b, c = s[2 * i], s[2 * i + 1], s[2 * i + 2]
        if norm_edge(a, b) not in outer or norm_edge(b, c) not in outer:
            problems.append(f"face {i} is missing its two outer edges")
        if norm_edge(a, c) not in inner:
            problems.append(f"face {i} is missing its chord")
        if g.degree(b) != 2:
            problems.append(f"tip {b} is not a 2-vertex")
    for j in range(2, len(s) - 1, 2):
        if g.degree(s[j]) != 4:
            problems.append(f"interior spine vertex {s[j]} is not a 4-vertex")
    if chain.closing_inner_edge is not None:
        e = chain.closing_inner_edge
        if e != norm_edge(s[0], s[-1]):
            problems.append("closing edge does not join the spine ends")
        if e not in inner:
            problems.append("closing edge is not a chord")
        if chain.attachments is None:
            problems.append("closed chain lacks attachments")
        else:
            w1, w2 = chain.attachments
            inside = set(s)
            for end, w in ((s[0], w1), (s[-1], w2)):
                outsiders = [x for x in g.neighbors(end) if x not in inside]
                if outsiders != [w]:
                    problems.append(
                        f"end {end} must have exactly one outside neighbor"
                    )
    return problems


def bowtie_fan():
    # 5-cycle with two chords from the middle vertex: two triangles at one hub
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 4)]
    )


def test_c1_on_cycle():
    cfg = find_configuration(recognize_embed(gen.gen_cycle(5)))
    assert cfg.kind == "C1"
    assert cfg.witnesses == (0, 1)


def test_c2_on_banded_square():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    cfg = find_configuration(recognize_embed(g))
    assert cfg.kind == "C2"
    u1, u2, u3 = cfg.witnesses
    assert g.degree(u1) == 2 and g.degree(u2) == 3


def test_bowtie_fan_prefers_c2():
    # the open fan also carries a C2 (a 3-vertex on an inner triangle),
    # and reductions try C1/C2 before C3, so detection mirrors that order
    g = bowtie_fan()
    cfg = find_configuration(recognize_embed(g))
    assert cfg.kind == "C2"


def test_c3_on_merged_fan():
    g = gen.gen_closed_chain(2, "merged")
    cfg = find_configuration(recognize_embed(g))
    assert cfg.kind == "C3"
    u1, u2, u3, u4, u5 = cfg.witnesses
    assert g.degree(u3) == 4
    assert g.degree(u2) == 2 and g.degree(u4) == 2
    assert g.has_edge(u2, u3) and g.has_edge(u3, u4)


def test_configuration_requires_min_degree_2():
    with pytest.raises(ValueError):
        find_configuration(recognize_embed(gen.gen_path(4)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 20_000))
def test_every_min_degree_2_host_has_a_configuration(seed):
    try:
        g = gen.gen_random_outerplanar(
            9, 0.55, seed=seed, constraints={"min_degree": 2}, retries=20
        )
    except gen.ConstraintsUnsatisfiable:
        return
    cfg = find_configuration(recognize_embed(g))
    assert cfg.kind in ("C1", "C2", "C3")


def test_enumerate_chains_examples():
    assert enumerate_chains(recognize_embed(gen.gen_cycle(5))) == []

    # the merged fan is a cycle of chain faces: every arc dropping one
    # face is maximal, and each closes through a chord
    g = gen.gen_closed_chain(3, "merged")
    chains = enumerate_chains(recognize_embed(g))
    assert all(c.t == 3 for c in chains)
    assert any(c.spine == (0, 1, 2, 3, 4, 5, 6) for c in chains)
    assert all(c.closing_inner_edge is not None for c in chains)

    # two disjoint fans joined by a long path between their end vertices
    left = gen.gen_closed_chain(2, "none")
    shift = max(left.vertices) + 4
    right_edges = [(u + shift, v + shift) for u, v in left.edges]
    bridge = [(0, 5), (5, 6), (6, 7), (7, shift)]
    g = Graph.from_edges(list(left.edges) + right_edges + bridge)
    chains = enumerate_chains(recognize_embed(g))
    assert len(chains) == 2
    assert {c.t for c in chains} == {2}
    assert {c.spine for c in chains} == {(0, 1, 2, 3, 4), (8, 9, 10, 11, 12)}


def test_find_closed_chain_on_merged_instances():
    for t in range(2, 6):
        g = gen.gen_closed_chain(t, "merged")
        emb = recognize_embed(g)
        ch = find_closed_chain(emb)
        assert ch.t == t
        assert ch.closing_inner_edge == (0, 2 * t)
        assert ch.attachments == (2 * t + 1, 2 * t + 1)
        assert check_chain(g, emb, ch) == []


def test_find_closed_chain_preconditions():
    # the search checks no preconditions: beside adjacent 2-vertices (a C1)
    # the chain is still found structurally
    g = Graph.from_edges(
        [(i, (i + 1) % 7) for i in range(7)] + [(0, 2), (2, 4), (0, 4)]
    )
    ch = find_closed_chain(recognize_embed(g))
    assert ch.t == 2 and ch.closing_inner_edge == (0, 4)


def test_find_closed_chain_fig_style_t3():
    g = Graph.from_edges(
        [(i, (i + 1) % 9) for i in range(9)]
        + [(0, 2), (2, 4), (4, 6), (0, 6)]
    )
    ch = find_closed_chain(recognize_embed(g))
    assert ch.t == 3
    assert ch.spine == (0, 1, 2, 3, 4, 5, 6)
    assert ch.closing_inner_edge == (0, 6)


def test_closed_chain_absent():
    g = bowtie_fan()  # open fan: the end-to-end edge is on the boundary
    with pytest.raises(ChainNotFound):
        find_closed_chain(recognize_embed(g))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 30_000))
def test_closed_chain_whenever_no_c1_c2(seed):
    try:
        g = gen.gen_random_outerplanar(
            10, 0.6, seed=seed, constraints={"max_degree": 4, "min_degree": 2},
            retries=20,
        )
    except gen.ConstraintsUnsatisfiable:
        return
    emb = recognize_embed(g)
    cfg = find_configuration(emb)
    if cfg.kind in ("C1", "C2"):
        return
    ch = find_closed_chain(emb)
    assert ch.closing_inner_edge is not None
    assert check_chain(g, emb, ch) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20_000))
def test_chains_revalidate(seed):
    try:
        g = gen.gen_random_outerplanar(
            10, 0.5, seed=seed, constraints={"max_degree": 4}, retries=20
        )
    except gen.ConstraintsUnsatisfiable:
        return
    emb = recognize_embed(g)
    for ch in enumerate_chains(emb):
        assert len(ch.spine) == 2 * ch.t + 1
        for i in range(ch.t):
            a, b, c = ch.spine[2 * i], ch.spine[2 * i + 1], ch.spine[2 * i + 2]
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            assert g.degree(b) == 2


def _polygon_subsets():
    """Every connected graph on n = 4..7 vertices whose edges lie in a triangulated n-gon."""
    for n in range(4, 8):
        seen: set[frozenset] = set()
        for tri in gen.enumerate_triangulations(n):
            edges = sorted(tri.edges)
            for mask in range(1, 1 << len(edges)):
                kept = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
                if kept in seen:
                    continue
                seen.add(kept)
                g = Graph(range(n), sorted(kept))
                if g.min_degree() >= 1 and len(g.components()) == 1:
                    yield g


def _suns():
    """Suns whose ears form a ring, paths cut by inner chords, and a ring closed on a pendant."""
    for t in range(3, 11):
        yield gen.gen_sun(t)
        yield gen.gen_sun(t, [(0, 2 * t)])  # vertex 0 carries a pendant: a path closes on itself
        for j in range(2, t - 1):
            yield gen.gen_sun(t, [(0, 2 * j)])
            for k in range(1, t):
                if abs(k - j) >= 2:
                    yield gen.gen_sun(t, [(0, 2 * j), (2 * j, 2 * k)])


STRUCTURE_DIGEST = "8c71ca277104098f045fd0ffc0cbc59ca935864edd66d5bf3318f1f789cd38aa"


def test_structure_outputs_match_pinned_digest():
    # one sha256 over the chains, the configuration and the closed chain of
    # every input, so any change to what structure.py picks shows
    h = hashlib.sha256()
    for g in itertools.chain(_polygon_subsets(), _suns()):
        emb = recognize_embed(g)
        out = [enumerate_chains(emb)]
        if g.min_degree() == 2:
            out.append(find_configuration(emb))
        try:
            out.append(find_closed_chain(emb))
        except ChainNotFound:
            out.append(None)
        h.update(repr(out).encode())
    assert h.hexdigest() == STRUCTURE_DIGEST
