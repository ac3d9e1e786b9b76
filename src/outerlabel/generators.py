"""Deterministic test-corpus generators: named families and seeded samplers.

Random sampling draws a uniformly random triangulation of a convex polygon
(via the Catalan-weighted apex split) and then thins chords; block-glued
variants compose small pieces at cut vertices to reach prescribed maximum
and minimum degrees.  Everything is reproducible from the seed.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator

from .graphs import Edge, Graph, norm_edge


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def gen_fan(n: int) -> Graph:
    """Path 0..n-1 plus an apex adjacent to every path vertex."""
    if n < 2:
        raise ValueError("a fan needs a path of at least two vertices")
    apex = n
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, apex) for i in range(n)]
    return Graph(range(n + 1), edges)


def gen_closed_chain(t: int, attachments: str = "merged") -> Graph:
    """A fan of ``t`` triangles glued along chords.

    ``attachments`` selects how the spine ends are tied off:

    * ``"none"``    - just the odd cycle with the fan chords; the edge between
      the spine ends stays on the boundary.
    * ``"merged"``  - one extra vertex adjacent to both spine ends, which
      turns the end-to-end edge into a chord (minimum degree 2).
    * ``"pendants"``- one pendant stub at each spine end (used as labeled
      anchors in template sweeps).
    """
    if t < 2:
        raise ValueError("a chain needs at least two triangles")
    m = 2 * t + 1
    spine_edges = [(i, i + 1) for i in range(m - 1)]
    chords = [(2 * i, 2 * i + 2) for i in range(t)]
    if attachments == "none":
        return Graph(range(m), spine_edges + chords + [(0, m - 1)])
    if attachments == "merged":
        w = m
        edges = spine_edges + chords + [(0, m - 1), (0, w), (m - 1, w)]
        return Graph(range(m + 1), edges)
    if attachments == "pendants":
        w1, w2 = m, m + 1
        edges = spine_edges + chords + [(0, m - 1), (0, w1), (m - 1, w2)]
        return Graph(range(m + 2), edges)
    raise ValueError(f"unknown attachment mode {attachments!r}")


def gen_strip(n: int) -> Graph:
    """The path 0..n-1 plus the chords (i, i + 2): one block of maximum degree 4."""
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)]
                            + [(i, i + 2) for i in range(n - 2)])


def gen_sun(t: int, chords: Iterable[Edge] = ()) -> Graph:
    """t ears (2i, 2i + 1, 2i + 2 mod 2t) around the inner t-gon, plus ``chords``."""
    n = 2 * t
    ring = [(i, (i + 1) % n) for i in range(n)]
    gon = [(2 * i, (2 * i + 2) % n) for i in range(t)]
    return Graph.from_edges(ring + gon + list(chords))


def gen_sun_necklace(k: int) -> Graph:
    """k copies of sun(4), tip 1 of copy j bridged to tip 5 of copy j + 1: 8k vertices.

    Labeling takes k chain steps: each end copy holds a closed chain of three ears.
    """
    sun = gen_sun(4).edges
    edges = [(8 * j + u, 8 * j + v) for j in range(k) for u, v in sun]
    return Graph.from_edges(edges + [(8 * j + 1, 8 * j + 13) for j in range(k - 1)])


def gen_pentagon_leaves(k: int) -> Graph:
    """A k-cycle with a pentagon bridged to each of its vertices: Δ = 3, 6k vertices.

    Pentagon i is ``k + 5i .. k + 5i + 4`` with the chord (0, 2), and its vertex 1
    is bridged to cycle vertex i: every leaf is reattached across its chord.
    """
    edges = [(i, (i + 1) % k) for i in range(k)]
    for i in range(k):
        p = [k + 5 * i + j for j in range(5)]
        edges += [(p[j], p[(j + 1) % 5]) for j in range(5)] + [(p[0], p[2]), (i, p[1])]
    return Graph.from_edges(edges)


_CATALAN = [1, 1]


def catalan(n: int) -> int:
    """The n-th Catalan number, from a table grown by C(i+1) = C(i)·2(2i+1)/(i+2)."""
    while len(_CATALAN) <= n:
        i = len(_CATALAN) - 1
        _CATALAN.append(_CATALAN[i] * 2 * (2 * i + 1) // (i + 2))
    return _CATALAN[max(n, 0)]


def enumerate_triangulations(n: int) -> list[Graph]:
    """All triangulations of the labeled convex n-gon (Catalan(n-2) many)."""
    if not 3 <= n <= 12:
        raise ValueError("triangulation enumeration supports 3 <= n <= 12")

    def diagonals(i: int, j: int) -> list[list[Edge]]:
        if j - i < 2:
            return [[]]
        out: list[list[Edge]] = []
        for k in range(i + 1, j):
            left = diagonals(i, k)
            right = diagonals(k, j)
            extra: list[Edge] = []
            if k - i > 1:
                extra.append(norm_edge(i, k))
            if j - k > 1:
                extra.append(norm_edge(k, j))
            for ls in left:
                for rs in right:
                    out.append(ls + rs + extra)
        return out

    boundary = [(i, (i + 1) % n) for i in range(n)]
    graphs = []
    for diag in diagonals(0, n - 1):
        graphs.append(Graph(range(n), boundary + diag))
    return graphs


def enumerate_dissections(n: int) -> Iterator[Graph]:
    """Every dissection of the labeled convex n-gon once: the subsets of each
    triangulation's diagonals by size, in ``enumerate_triangulations`` order."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    seen: set[frozenset] = set()
    for tri in enumerate_triangulations(n):
        diagonals = [e for e in tri.edges if (e[1] - e[0]) % n not in (1, n - 1)]
        for r in range(len(diagonals) + 1):
            for kept in combinations(diagonals, r):
                if frozenset(kept) not in seen:
                    seen.add(frozenset(kept))
                    yield Graph(range(n), ring + list(kept))


def _random_triangulation_diagonals(n: int, rng: random.Random) -> list[Edge]:
    """Diagonals of a uniformly random triangulation of the convex n-gon.

    Each polygon ``(i, j)`` picks the apex ``k`` of the triangle on its
    side ``(i, j)``, then splits into ``(i, k)`` and ``(k, j)``; an explicit
    stack visits them in that preorder, so the draws come in a fixed order.
    """
    catalan(n)  # grows the table the weights are read from
    c = _CATALAN
    diags: list[Edge] = []
    todo = [(0, n - 1)]
    while todo:
        i, j = todo.pop()
        if j - i < 2:
            continue
        pick = rng.randrange(c[j - i - 1])
        acc = 0
        for k in range(i + 1, j):
            acc += c[k - i - 1] * c[j - k - 1]
            if pick < acc:
                break
        if k - i > 1:
            diags.append(norm_edge(i, k))
        if j - k > 1:
            diags.append(norm_edge(k, j))
        todo += ((k, j), (i, k))
    return diags


class ConstraintsUnsatisfiable(ValueError):
    pass


def _meets(g: Graph, constraints: dict) -> bool:
    if "max_degree" in constraints and g.max_degree() != constraints["max_degree"]:
        return False
    if "min_degree" in constraints and g.min_degree() != constraints["min_degree"]:
        return False
    if constraints.get("connected", True) and not g.is_connected():
        return False
    return True


def _refuse_unreachable(constraints: dict, most: int, lows: tuple[int, ...]) -> None:
    """Refuse degree bounds that no sample meets: a maximum degree that no
    graph on at most ``most`` vertices has, or below 2 (every sample holds
    a cycle), and a minimum degree outside ``lows``."""
    d = constraints.get("max_degree", 2)
    if d >= most:
        raise ConstraintsUnsatisfiable(f"max_degree {d} needs more than {most} vertices")
    if d < 2:
        raise ConstraintsUnsatisfiable(f"max_degree {d} is below 2: every sample has a cycle")
    low = constraints.get("min_degree", lows[-1])
    if low not in lows:
        each = " or ".join(map(str, lows))
        raise ConstraintsUnsatisfiable(f"min_degree {low}: every sample has minimum degree {each}")


def gen_random_outerplanar(
    n: int,
    edge_keep_prob: float = 0.5,
    seed: int = 0,
    constraints: dict | None = None,
    retries: int = 400,
) -> Graph:
    """Random 2-connected outerplanar graph on ``n`` vertices.

    A uniformly random polygon triangulation has each diagonal kept
    independently with ``edge_keep_prob``; the boundary cycle always stays.
    Rejection-samples until the (exact) degree constraints hold; a maximum
    degree of ``n`` or more or below 2, and a minimum degree other than 2,
    are refused before the first draw.
    """
    if n < 3:
        raise ValueError("need at least three vertices")
    rng = random.Random(seed)
    constraints = constraints or {}
    _refuse_unreachable(constraints, n, (2,))
    for _ in range(retries):
        diags = _random_triangulation_diagonals(n, rng)
        kept = [d for d in diags if rng.random() < edge_keep_prob]
        g = Graph(range(n), [(i, (i + 1) % n) for i in range(n)] + kept)
        if _meets(g, constraints):
            return g
    raise ConstraintsUnsatisfiable(
        f"no sample met {constraints} within {retries} tries"
    )


def gen_deep_leaf_host(
    q2: int = 1, q3: int = 1, q_last: int = 2, host_n: int = 5
) -> Graph:
    """A bridge host whose leaf block hides its cut vertex between two
    chord endpoints whose chord-mates sit two endpoints apart.

    The leaf's boundary runs x1, c, x2, <q2 2-vertices>, x3, <q3>, x4,
    <q_last>, with chords (x1, x4) and (x2, x3); c is tied over a bridge to
    a plain cycle on ``host_n`` vertices.  Maximum degree 3, minimum
    degree 2, one cut vertex on each side of the bridge.
    """
    seq: list[int] = [0]

    def fresh(k: int) -> list[int]:
        start = seq[-1] + 1 if seq else 0
        out = list(range(start, start + k))
        seq.extend(out)
        return out

    v_c = fresh(1)[0]
    x2 = fresh(1)[0]
    fresh(q2)
    x3 = fresh(1)[0]
    fresh(q3)
    x4 = fresh(1)[0]
    fresh(q_last)
    n_leaf = len(seq)
    edges = [(seq[i], seq[(i + 1) % n_leaf]) for i in range(n_leaf)]
    edges += [(0, x4), (x2, x3)]
    w = n_leaf
    ring = [w + i for i in range(host_n)]
    edges.append((v_c, w))
    edges += [(ring[i], ring[(i + 1) % host_n]) for i in range(host_n)]
    return Graph.from_edges(edges)


def gen_glued_outerplanar(
    n: int,
    seed: int = 0,
    constraints: dict | None = None,
    pendant_prob: float = 0.35,
    retries: int = 400,
) -> Graph:
    """Random connected outerplanar graph built from blocks glued at vertices.

    Pieces are pendant edges, plain cycles, and thinned polygons, attached at
    existing vertices whose degree leaves room under the target maximum.
    This reaches cut vertices, bridges, and minimum degree 1, which the
    2-connected sampler cannot.  Degree bounds that no sample meets are
    refused before the first draw.
    """
    constraints = constraints or {}
    # the first cycle has 3 vertices, and a connected outerplanar graph on
    # 3 or more has a vertex of degree 1 or 2
    _refuse_unreachable(constraints, max(n, 3), (1, 2))
    dmax = constraints.get("max_degree", 4)
    rng = random.Random(seed)
    for _ in range(retries):
        g = _glued_attempt(n, rng, dmax, pendant_prob)
        if g is not None and _meets(g, constraints):
            return g
    raise ConstraintsUnsatisfiable(
        f"no glued sample met {constraints} within {retries} tries"
    )


def _glued_attempt(
    n: int, rng: random.Random, dmax: int, pendant_prob: float
) -> Graph | None:
    size0 = rng.randrange(3, max(4, min(n, 7)))
    edges: list[Edge] = [(i, (i + 1) % size0) for i in range(size0)]
    deg: dict[int, int] = {i: 2 for i in range(size0)}
    if size0 >= 4 and rng.random() < 0.5:
        # one chord to vary the starting block
        a = rng.randrange(size0)
        b = (a + 2 + rng.randrange(size0 - 3)) % size0
        if b != a and norm_edge(a, b) not in {norm_edge(*e) for e in edges}:
            edges.append(norm_edge(a, b))
            deg[a] += 1
            deg[b] += 1
    nxt = size0
    guard = 0
    while nxt < n and guard < 200:
        guard += 1
        room1 = [v for v, d in deg.items() if d + 1 <= dmax]
        room2 = [v for v, d in deg.items() if d + 2 <= dmax]
        if rng.random() < pendant_prob and room1:
            v = rng.choice(sorted(room1))
            edges.append(norm_edge(v, nxt))
            deg[v] += 1
            deg[nxt] = 1
            nxt += 1
        elif room2:
            v = rng.choice(sorted(room2))
            size = rng.randrange(3, 8)
            size = min(size, n - nxt + 1)
            if size < 3:
                break
            ring = [v] + list(range(nxt, nxt + size - 1))
            for i in range(len(ring)):
                e = norm_edge(ring[i], ring[(i + 1) % len(ring)])
                edges.append(e)
            deg[v] += 2
            for u in ring[1:]:
                deg[u] = 2
            nxt += size - 1
            # sprinkle non-crossing chords into the fresh ring
            existing = {norm_edge(*e) for e in edges}
            spans: list[tuple[int, int]] = []
            for _ in range(rng.randrange(0, 3)):
                s = len(ring)
                i = rng.randrange(s)
                j = (i + 2 + rng.randrange(max(1, s - 3))) % s
                a, b = ring[i], ring[j]
                lo, hi = sorted((i, j))
                if hi - lo < 2 or hi - lo > s - 2:
                    continue
                if any(
                    (lo < c < hi) != (lo < d < hi)
                    for c, d in spans
                    if not {c, d} & {lo, hi}
                ):
                    continue
                if deg[a] + 1 > dmax or deg[b] + 1 > dmax:
                    continue
                e = norm_edge(a, b)
                if e in existing:
                    continue
                existing.add(e)
                edges.append(e)
                spans.append((lo, hi))
                deg[a] += 1
                deg[b] += 1
        else:
            break
    return Graph(range(nxt), edges)


# -- corpus manifests -------------------------------------------------------

def build_degree_corpus(
    delta: int,
    count: int = 500,
    n_range: tuple[int, int] = (4, 12),
    seed0: int = 0,
) -> list[dict]:
    """Deterministic manifest entries with the given exact maximum degree.

    Alternates 2-connected thinned polygons with block-glued graphs so the
    corpus exercises cut vertices, bridges, pendant vertices, and chordless
    leaf cycles; seeds are scanned from ``seed0`` until ``count`` samples
    satisfy their constraints.
    """
    lo, hi = n_range
    entries: list[dict] = []
    seed = seed0
    keep = {3: 0.35, 4: 0.5}.get(delta, 0.5)
    while len(entries) < count:
        n = lo + (seed % (hi - lo + 1))
        if n < 3:
            n = 3
        glued = seed % 2 == 1
        entry = {
            "kind": "glued" if glued else "random",
            "n": n,
            "seed": seed,
            "constraints": {"max_degree": delta},
        }
        if not glued:
            entry["edge_keep_prob"] = keep
        try:
            g = corpus_graph(entry)
        except ConstraintsUnsatisfiable:
            seed += 1
            continue
        if not lo <= g.n <= hi:
            seed += 1
            continue
        entry["name"] = f"{entry['kind']}-d{delta}-n{g.n}-s{seed}"
        assert g.max_degree() == delta
        entries.append(entry)
        seed += 1
    if delta == 3:
        for q2, q3, q_last, host_n in (
            (1, 0, 1, 4), (1, 0, 2, 4), (1, 1, 1, 4), (1, 1, 2, 3),
            (2, 0, 1, 4), (2, 1, 1, 3), (1, 2, 1, 3), (1, 0, 1, 5),
        ):
            entries.append(
                {
                    "kind": "deep_leaf",
                    "q2": q2, "q3": q3, "q_last": q_last, "host_n": host_n,
                    "name": f"deep-leaf-{q2}{q3}{q_last}-h{host_n}",
                }
            )
    if delta == 4:
        for t in range(2, 6):
            entries.append(
                {"kind": "closed_chain", "t": t, "name": f"closed-chain-t{t}"}
            )
        for t in range(2, 5):
            entries.append(
                {
                    "kind": "closed_chain",
                    "t": t,
                    "attachments": "pendants",
                    "name": f"stub-chain-t{t}",
                }
            )
        entries.append({"kind": "fan", "n": 4, "name": "fan-4"})
    return entries


def corpus_graph(entry: dict) -> Graph:
    """Materialize one manifest entry."""
    kind = entry["kind"]
    if kind == "cycle":
        return gen_cycle(entry["n"])
    if kind == "path":
        return gen_path(entry["n"])
    if kind == "fan":
        return gen_fan(entry["n"])
    if kind == "closed_chain":
        return gen_closed_chain(entry["t"], entry.get("attachments", "merged"))
    if kind == "deep_leaf":
        return gen_deep_leaf_host(
            entry.get("q2", 1), entry.get("q3", 1),
            entry.get("q_last", 2), entry.get("host_n", 5),
        )
    if kind == "random":
        return gen_random_outerplanar(
            entry["n"],
            entry.get("edge_keep_prob", 0.5),
            entry["seed"],
            entry.get("constraints"),
        )
    if kind == "glued":
        return gen_glued_outerplanar(
            entry["n"],
            entry["seed"],
            entry.get("constraints"),
            entry.get("pendant_prob", 0.35),
        )
    raise ValueError(f"unknown corpus kind {kind!r}")


def load_manifest(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{path}: a manifest is an object with a list of entries")
    return entries
