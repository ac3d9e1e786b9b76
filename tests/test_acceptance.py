"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import time
from itertools import combinations, product

from outerlabel import generators as gen
from outerlabel.delta3 import Diagnostics, label_delta3, label_k2
from outerlabel.delta4 import (
    CASE_TARGETS,
    CaseFault,
    apply_template,
    availability_set,
    chain_template,
    claim_pair,
    label_delta4,
)
from outerlabel.embedding import recognize_embed
from outerlabel.exact import lambda_exact
from outerlabel.graphs import Graph, norm_edge
from outerlabel.labeling import TotalLabeling, span, verify
from outerlabel.pipeline import label_outerplanar
from outerlabel.structure import find_closed_chain, find_configuration

DELTA3_MANIFEST = "corpus/delta3_manifest.json"
DELTA4_MANIFEST = "corpus/delta4_manifest.json"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _corpus(path):
    return [gen.corpus_graph(e) for e in gen.load_manifest(path)]


def test_criterion_1_delta3_bound():
    t0 = time.perf_counter()
    graphs = _corpus(DELTA3_MANIFEST)
    good = 0
    diag = Diagnostics()
    for g in graphs:
        f = label_delta3(g, diag)
        if not verify(f, 2) and span(f) <= 5:
            good += 1
    dt = time.perf_counter() - t0
    ok = good == len(graphs) >= 500 and dt < 60 and all(
        4 <= g.n <= 12 for g in graphs
    )
    _report(
        "criterion 1 (span <= 5 for max degree 3)",
        ok,
        f"{good}/{len(graphs)} verified, records={len(diag.records)}, {dt:.1f}s",
    )


def test_criterion_2_delta4_bound():
    t0 = time.perf_counter()
    graphs = _corpus(DELTA4_MANIFEST)
    good = 0
    diag = Diagnostics()
    for g in graphs:
        f = label_delta4(g, diag)
        if not verify(f, 2) and span(f) <= 6:
            good += 1
    dt = time.perf_counter() - t0
    ok = good == len(graphs) >= 500 and dt < 120 and all(
        4 <= g.n <= 12 for g in graphs
    )
    _report(
        "criterion 2 (span <= 6 for max degree 4)",
        ok,
        f"{good}/{len(graphs)} verified, records={len(diag.records)}, {dt:.1f}s",
    )


def test_criterion_3_oracle_sandwich():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for path in (DELTA3_MANIFEST, DELTA4_MANIFEST):
        for g in _corpus(path):
            if g.n + g.m > 22:
                continue
            delta = g.max_degree()
            lam, witness = lambda_exact(g, 2, delta + 2)
            f = label_outerplanar(g)
            checked += 1
            if not (
                lam is not None
                and delta + 1 <= lam <= span(f) <= delta + 2
                and verify(witness, 2) == []
                and verify(f, 2) == []
            ):
                ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 600 and checked > 0
    _report(
        "criterion 3 (oracle sandwich on small corpus instances)",
        ok,
        f"{checked} instances, {dt:.1f}s",
    )


def test_criterion_4_known_exact_values():
    vals = {
        "K2": lambda_exact(Graph.from_edges([(0, 1)]), 2, 8)[0],
        "P3": lambda_exact(gen.gen_path(3), 2, 8)[0],
        "C3": lambda_exact(gen.gen_cycle(3), 2, 8)[0],
    }
    ok = vals == {"K2": 3, "P3": 4, "C3": 4}
    cycles = {n: lambda_exact(gen.gen_cycle(n), 2, 4)[0] for n in range(3, 11)}
    ok = ok and all(v is not None and v <= 4 for v in cycles.values())
    _report(
        "criterion 4 (known exact values)",
        ok,
        f"{vals}, cycle optima {sorted(set(cycles.values()))}",
    )


def test_criterion_5_template_sweep():
    t0 = time.perf_counter()
    faults = 0
    contexts = 0
    for t in range(2, 10):
        g = gen.gen_closed_chain(t, "pendants")
        m = 2 * t + 1
        spine = tuple(range(m))
        w1, w2 = m, m + 1
        for case_id, (a, b) in CASE_TARGETS.items():
            for fw1, al in product(range(7), repeat=2):
                if abs(fw1 - al) < 2 or a not in availability_set(fw1, al):
                    continue
                for fw2, be in product(range(7), repeat=2):
                    if abs(fw2 - be) < 2 or b not in availability_set(fw2, be):
                        continue
                    contexts += 1
                    try:
                        tmpl = chain_template(case_id, t, (fw1, al, fw2, be))
                        ext = apply_template(tmpl, spine)
                        ext[w1], ext[w2] = fw1, fw2
                        ext[norm_edge(0, w1)] = al
                        ext[norm_edge(m - 1, w2)] = be
                        if verify(TotalLabeling(g, 6, ext), 2):
                            faults += 1
                    except CaseFault:
                        faults += 1
    dt = time.perf_counter() - t0
    ok = faults == 0 and dt < 300
    _report(
        "criterion 5 (template sweep)",
        ok,
        f"{contexts} contexts, {faults} faults, {dt:.1f}s",
    )


def test_criterion_6_claim_exhaustive():
    failures = 0
    pairs_checked = 0
    for fw1, few1 in product(range(7), repeat=2):
        l1 = availability_set(fw1, few1)
        for fw2, few2 in product(range(7), repeat=2):
            l2 = availability_set(fw2, few2)
            pairs_checked += 1
            try:
                a, b = claim_pair(l1, l2)
                assert a in l1 and b in l2
            except Exception:
                failures += 1
    ok = failures == 0 and pairs_checked == 49 * 49
    _report(
        "criterion 6 (claimed pair exists)",
        ok,
        f"{pairs_checked} set pairs, {failures} failures",
    )


def test_criterion_7_structural_properties():
    cfg_checked = cfg_ok = chain_checked = chain_ok = 0
    for path in (DELTA3_MANIFEST, DELTA4_MANIFEST):
        for g in _corpus(path):
            if g.min_degree() != 2:
                continue
            emb = recognize_embed(g)
            cfg_checked += 1
            try:
                cfg = find_configuration(emb)
                cfg_ok += 1
            except Exception:
                continue
            if g.max_degree() == 4 and cfg.kind == "C3":
                chain_checked += 1
                try:
                    ch = find_closed_chain(emb)
                    if ch.closing_inner_edge is not None:
                        chain_ok += 1
                except Exception:
                    pass
    ok = cfg_checked == cfg_ok > 0 and chain_checked == chain_ok > 0
    _report(
        "criterion 7 (structural properties over the corpus)",
        ok,
        f"configurations {cfg_ok}/{cfg_checked}, "
        f"closed chains {chain_ok}/{chain_checked}",
    )


def test_criterion_8_boundary_walk_fixture():
    g = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    f, _ = label_k2(recognize_embed(g))
    walk = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    ok = (
        [f.vertex(v) for v in range(6)] == [0, 1, 0, 1, 0, 1]
        and f.edge(0, 3) == 3
        and [f.edge(u, v) for u, v in walk] == [4, 5, 4, 5, 4, 5]
    )
    _report("criterion 8 (boundary-walk fixture)", ok, "bit-exact")


def test_criterion_9_tightness_witnesses():
    lam_c3, _ = lambda_exact(gen.gen_cycle(3), 2, 8)
    ok = lam_c3 == 4  # equals max degree + 2
    found = {3: [], 4: []}
    for path, delta in ((DELTA3_MANIFEST, 3), (DELTA4_MANIFEST, 4)):
        for entry, g in zip(gen.load_manifest(path), _corpus(path)):
            if g.n + g.m > 22:
                continue
            lam, _ = lambda_exact(g, 2, delta + 2)
            if lam == delta + 2:
                found[delta].append(entry.get("name", "?"))
    # reported, not gated: the bound is tight for max degree 2; witness
    # hunting for higher degrees is exploratory
    _report(
        "criterion 9 (tightness witnesses)",
        ok,
        f"cycle optimum 4 = 2+2 confirmed; forced-span witnesses found: "
        f"degree 3 -> {len(found[3])}, degree 4 -> {len(found[4])}"
        + (f" (e.g. {found[3][:2] + found[4][:2]})" if found[3] or found[4] else ""),
    )


def test_every_dissection_labeled():
    # every diagonal subset of a triangulated n-gon, n = 4..9, at degree 3 or 4
    t0 = time.perf_counter()
    diag = Diagnostics()
    checked = good = 0
    for n in range(4, 10):
        ring = [(i, (i + 1) % n) for i in range(n)]
        seen: set[frozenset] = set()
        for tri in gen.enumerate_triangulations(n):
            diagonals = [e for e in tri.edges if (e[1] - e[0]) % n not in (1, n - 1)]
            for r in range(len(diagonals) + 1):
                for kept in combinations(diagonals, r):
                    if frozenset(kept) in seen:
                        continue
                    seen.add(frozenset(kept))
                    g = Graph(range(n), ring + list(kept))
                    if g.max_degree() not in (3, 4):
                        continue
                    checked += 1
                    f = label_outerplanar(g, diag=diag)
                    if not verify(f, 2) and span(f) <= g.max_degree() + 2:
                        good += 1
    completions = len(diag.records)
    ok = good == checked == 2302 and completions <= 30
    _report(
        "exhaustive dissections (n = 4..9)",
        ok,
        f"{good}/{checked} verified, {completions} logged completions, "
        f"{time.perf_counter() - t0:.1f}s",
    )
