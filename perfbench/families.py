"""Seeded input families for the benchmark, as plain edge lists.

Every family takes a ``seed``.  The ladder and the bridged chain have a fixed
shape; their seed only permutes the vertex ids, which changes the order in
which the labelers meet vertices.  The capped polygon is random in its chords
and reaches the degree cap by construction instead of by rejection.
"""

from __future__ import annotations

import random

Edge = tuple[int, int]


def relabel(n: int, edges: list[Edge], rng: random.Random) -> list[Edge]:
    """The same graph under a random permutation of the ids ``0..n-1``."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def ladder(n: int, seed: int | str) -> list[Edge]:
    """n-cycle plus the chords (i, n-1-i) for 1 <= i < n/2 - 1: one block, max degree 3."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n - 1 - i) for i in range(1, n // 2 - 1)]
    return relabel(n, edges, random.Random(seed))


def bridged(k: int, seed: int | str) -> list[Edge]:
    """k hexagons with chord (1, 4); vertex 3 of each is bridged to vertex 0 of the next.

    Maximum degree 3; every hexagon but the last is a leaf block at some
    point of the leaf-block surgery.
    """
    edges: list[Edge] = []
    for j in range(k):
        b = 6 * j
        edges += [(b + i, b + (i + 1) % 6) for i in range(6)]
        edges.append((b + 1, b + 4))
        if j + 1 < k:
            edges.append((b + 3, b + 6))
    return relabel(6 * k, edges, random.Random(seed))


def capped_polygon(n: int, cap: int, seed: int | str) -> list[Edge]:
    """n-gon plus the diagonals of a random triangulation, kept while both ends stay below ``cap``.

    The triangulation comes from random ear removal, so the kept chords never
    cross and the graph is one 2-connected outerplanar block.  The first
    chord always fits, so cap 3 is always reached; a sample that misses a
    higher cap raises instead of being redrawn.
    """
    if cap < 3 or n < 4 * cap:
        raise ValueError(f"capped_polygon needs cap >= 3 and n >= {4 * cap}")
    rng = random.Random(seed)
    nxt = [(i + 1) % n for i in range(n)]
    prv = [(i - 1) % n for i in range(n)]
    alive = list(range(n))
    diagonals: list[Edge] = []
    while len(alive) > 3:
        i = rng.randrange(len(alive))
        v = alive[i]
        alive[i] = alive[-1]
        alive.pop()
        a, b = prv[v], nxt[v]
        diagonals.append((a, b))
        nxt[a], prv[b] = b, a
    rng.shuffle(diagonals)
    deg = [2] * n
    edges = [(i, (i + 1) % n) for i in range(n)]
    for a, b in diagonals:
        if deg[a] < cap and deg[b] < cap:
            edges.append((a, b))
            deg[a] += 1
            deg[b] += 1
    if max(deg) != cap:
        raise ValueError(f"capped_polygon({n}, {cap}, {seed}) missed its cap")
    return edges
