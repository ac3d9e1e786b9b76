from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerlabel import generators as gen
from outerlabel.embedding import recognize_embed
from outerlabel.graphs import norm_edge


def write_manifest(path, entries, note: str = "") -> None:
    """A manifest file as ``load_manifest`` reads it (the frozen corpora's format)."""
    payload = {"note": note, "entries": list(entries)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def test_cycle_and_path_shapes():
    assert gen.gen_cycle(3).m == 3
    assert gen.gen_cycle(6).m == 6
    assert gen.gen_path(2).edges == ((0, 1),)
    assert gen.gen_path(1).n == 1
    with pytest.raises(ValueError):
        gen.gen_cycle(2)
    with pytest.raises(ValueError):
        gen.gen_path(0)


def test_closed_chain_shapes():
    g = gen.gen_closed_chain(2, "none")
    assert g.n == 5 and g.m == 7
    merged = gen.gen_closed_chain(2, "merged")
    assert merged.n == 6 and merged.min_degree() == 2
    stubs = gen.gen_closed_chain(3, "pendants")
    assert stubs.min_degree() == 1 and stubs.max_degree() == 4
    for t in range(2, 6):
        for mode in ("none", "merged", "pendants"):
            recognize_embed(gen.gen_closed_chain(t, mode))


def test_closed_chain_matches_detector():
    from outerlabel.structure import find_closed_chain

    g = gen.gen_closed_chain(2, "merged")
    ch = find_closed_chain(recognize_embed(g))
    assert ch.spine == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("n,count", [(3, 1), (4, 2), (5, 5), (6, 14), (7, 42)])
def test_triangulation_counts(n, count):
    tris = gen.enumerate_triangulations(n)
    assert len(tris) == count
    assert len({t.edges for t in tris}) == count
    for t in tris:
        assert t.m == 2 * n - 3
        recognize_embed(t)


def test_triangulation_counts_to_ten():
    assert len(gen.enumerate_triangulations(10)) == gen.catalan(8) == 1430


def test_random_outerplanar_deterministic():
    a = gen.gen_random_outerplanar(9, 0.5, seed=42)
    b = gen.gen_random_outerplanar(9, 0.5, seed=42)
    assert a == b
    c = gen.gen_random_outerplanar(9, 0.5, seed=43)
    assert a != c  # overwhelmingly likely by construction


@lru_cache(maxsize=None)
def _recursive_catalan(n: int) -> int:
    if n <= 1:
        return 1
    return sum(_recursive_catalan(i) * _recursive_catalan(n - 1 - i) for i in range(n))


def _recursive_diagonals(n: int, rng: random.Random) -> list:
    """``generators._random_triangulation_diagonals`` as it was, recursing
    into each side: the reference for the explicit stack."""
    diags = []

    def split(i: int, j: int) -> None:
        gap = j - i
        if gap < 2:
            return
        pick = rng.randrange(_recursive_catalan(gap - 1))
        acc = 0
        for k in range(i + 1, j):
            acc += _recursive_catalan(k - i - 1) * _recursive_catalan(j - k - 1)
            if pick < acc:
                break
        if k - i > 1:
            diags.append(norm_edge(i, k))
        if j - k > 1:
            diags.append(norm_edge(k, j))
        split(i, k)
        split(k, j)

    split(0, n - 1)
    return diags


def test_triangulation_draws_match_the_recursive_ones():
    # the same diagonals in the same order, and the same draws left over
    assert [gen.catalan(n) for n in range(-1, 80)] == [
        _recursive_catalan(n) for n in range(-1, 80)]
    for n in range(3, 61):
        for seed in range(5):
            mine, theirs = random.Random(seed), random.Random(seed)
            drawn = gen._random_triangulation_diagonals(n, mine)
            assert drawn == _recursive_diagonals(n, theirs)
            assert mine.random() == theirs.random()
    big = gen._random_triangulation_diagonals(1000, random.Random(0))
    assert len(big) == 997 and len(set(big)) == 997


def test_random_outerplanar_keep_all():
    g = gen.gen_random_outerplanar(8, 1.0, seed=3)
    assert g.m == 2 * 8 - 3  # a full triangulation survives


def test_constraints_enforced():
    g = gen.gen_random_outerplanar(
        8, 0.5, seed=0, constraints={"max_degree": 4}
    )
    assert g.max_degree() == 4
    g = gen.gen_glued_outerplanar(9, seed=1, constraints={"min_degree": 1})
    assert g.min_degree() == 1
    with pytest.raises(gen.ConstraintsUnsatisfiable):
        gen.gen_random_outerplanar(
            4, 0.0, seed=0, constraints={"max_degree": 7}, retries=5
        )


def test_unreachable_max_degree_is_refused_before_any_draw(monkeypatch):
    def draw(*args):
        raise AssertionError("a refused request drew a sample")

    monkeypatch.setattr(gen, "_random_triangulation_diagonals", draw)
    monkeypatch.setattr(gen, "_glued_attempt", draw)
    for seed in range(3):
        with pytest.raises(gen.ConstraintsUnsatisfiable, match="needs more than 4"):
            gen.gen_random_outerplanar(4, 0.5, seed, {"max_degree": 4})
        with pytest.raises(gen.ConstraintsUnsatisfiable, match="needs more than 4"):
            gen.gen_glued_outerplanar(4, seed, {"max_degree": 4})
        # every sample holds a cycle, and has a vertex of degree 1 or 2 (2 for
        # the 2-connected sampler)
        for cap in (0, 1):
            with pytest.raises(gen.ConstraintsUnsatisfiable, match=f"max_degree {cap} is below 2"):
                gen.gen_random_outerplanar(1000, 0.5, seed, {"max_degree": cap})
            with pytest.raises(gen.ConstraintsUnsatisfiable, match=f"max_degree {cap} is below 2"):
                gen.gen_glued_outerplanar(1000, seed, {"max_degree": cap})
        for low in (0, 1, 3):
            with pytest.raises(gen.ConstraintsUnsatisfiable, match=f"min_degree {low}: .* 2$"):
                gen.gen_random_outerplanar(1000, 0.5, seed, {"min_degree": low})
        for low in (0, 3, 4):
            with pytest.raises(gen.ConstraintsUnsatisfiable, match=f"min_degree {low}: .* 1 or 2"):
                gen.gen_glued_outerplanar(1000, seed, {"min_degree": low})
    monkeypatch.undo()  # the bounds next to the refused ones are sampled
    assert gen.gen_random_outerplanar(6, 0.0, 0, {"max_degree": 2, "min_degree": 2}).m == 6
    assert gen.gen_glued_outerplanar(9, 1, {"min_degree": 1}).min_degree() == 1
    assert gen.gen_glued_outerplanar(9, 1, {"min_degree": 2}, 0.0).min_degree() == 2


def test_max_degree_one_below_the_refusal_is_sampled():
    assert gen.gen_random_outerplanar(5, 0.5, 0, {"max_degree": 4}).max_degree() == 4
    glued = gen.gen_glued_outerplanar(4, 0, {"max_degree": 3})
    assert glued.n == 4 and glued.max_degree() == 3
    # the glued sampler's first cycle has three vertices even when n is smaller
    triangle = gen.gen_glued_outerplanar(2, 0, {"max_degree": 2})
    assert triangle.edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(gen.ConstraintsUnsatisfiable):
        gen.gen_glued_outerplanar(2, 0, {"max_degree": 3})


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 20_000))
def test_generated_always_outerplanar(seed):
    g = gen.gen_random_outerplanar(8, 0.6, seed=seed)
    recognize_embed(g)
    h = gen.gen_glued_outerplanar(9, seed=seed, retries=10)
    recognize_embed(h)


def test_manifest_roundtrip(tmp_path):
    entries = gen.build_degree_corpus(3, count=8)
    path = tmp_path / "m.json"
    write_manifest(path, entries, "test")
    loaded = gen.load_manifest(path)
    assert loaded == entries
    for e in loaded:
        g = gen.corpus_graph(e)
        assert g.max_degree() == 3


def test_frozen_manifests_match_constraints():
    for delta, path in ((3, "corpus/delta3_manifest.json"),
                        (4, "corpus/delta4_manifest.json")):
        entries = gen.load_manifest(path)
        assert len(entries) >= 500
        sample = entries[::37]
        for e in sample:
            g = gen.corpus_graph(e)
            assert g.max_degree() == delta
            assert g.is_connected()
            recognize_embed(g)


def test_manifests_regenerate_exactly():
    # the frozen manifests must stay reproducible from the seeded builders;
    # drift here means the samplers changed under a fixed seed
    assert gen.build_degree_corpus(3, 520) == gen.load_manifest(
        "corpus/delta3_manifest.json"
    )
    assert gen.build_degree_corpus(4, 520) == gen.load_manifest(
        "corpus/delta4_manifest.json"
    )


# sha256 over the oracle workload's inputs, build_degree_corpus(d, 1040, (4, 9), 0):
# each entry's repr, then the (n, edges) of the graph it builds
ORACLE_INPUT_DIGESTS = {
    3: "3b7ed5824ced33871b25073424da214d0cb504f76a781711be36953a2fa57a85",
    4: "226fa90ed4e6f1ef7441c3a626cf8fd65094642144f01a6edaec6b36ac7792f0",
}


@pytest.mark.parametrize("delta", [3, 4])
def test_oracle_corpus_inputs_pinned(delta):
    h = hashlib.sha256()
    entries = gen.build_degree_corpus(delta, 1040, (4, 9), 0)
    assert len(entries) == 1048
    for e in entries:
        g = gen.corpus_graph(e)
        h.update(repr(e).encode())
        h.update(repr((g.n, g.edges)).encode())
    assert h.hexdigest() == ORACLE_INPUT_DIGESTS[delta]
