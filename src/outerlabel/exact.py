"""Exhaustive backtracking search for optimal (p,1)-total labelings.

Intended for desk-scale instances only: the element cap guards against
accidental exponential blowups.  Search order is fixed (elements by
decreasing constraint degree, labels ascending), so the first labeling
found, and hence every returned witness, is deterministic.

``extend_bounded`` searches only the elements it frees, against the labels
of their neighbours, and writes what it finds into the labeling it was
given.  Each freed element is seeded from every labeled element it
constrains, so only kept labels can clash: that is the caller's check
(``labeling.verify_around`` or ``verify``).  Without a plan, ``extend_vertex``
writes the same first answer for a freed vertex of degree 1 or 2 and its edges.

One search node costs table lookups and bit operations.  Domains are
bitmasks over {0..k}.  ``_keep_masks(gap, k)`` holds, for each label in
{0..k}, the mask of labels a neighbour at that gap may still take, so the
forward check of a label is one ``&`` per later constrained element; the
tables for gaps 1 and p are fetched once per search.  The pass that plans
the search order also seeds the starting domains from the kept labels,
through the same tables, or through ``_forbid_mask`` when they lie outside
{0..k}, where a table has no entry.  Each depth keeps the domains it was
entered with, and each label tried narrows a copy of them, so backing up
undoes nothing.  ``SearchStats.nodes`` counts every label tried.  A call
given a ``budget`` (or a ``SearchStats`` whose ``budget`` the caller set)
raises ``SearchBudgetExceeded`` at the first label past it, counted from
the call's own first node, so a spent budget leaves ``nodes`` one past the
budget more than the call found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

from .graphs import Element, Graph, is_edge_element, norm_edge
from .labeling import TotalLabeling, degree_lower_bound

DEFAULT_ELEMENT_CAP = 30


class SearchCapExceeded(ValueError):
    pass


class SearchBudgetExceeded(RuntimeError):
    """The node budget ran out before the search was decided."""


@dataclass
class SearchStats:
    nodes: int = 0
    calls: int = 0
    budget: int | None = None


def _forbid_mask(label: int, gap: int, k: int) -> int:
    lo = max(0, label - gap + 1)
    hi = min(k, label + gap - 1)
    if hi < lo:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


@cache
def _keep_masks(gap: int, k: int) -> tuple[int, ...]:
    """For each label in {0..k}, the mask of {0..k} a neighbour at ``gap`` may still take."""
    full = (1 << (k + 1)) - 1
    return tuple(full & ~_forbid_mask(lab, gap, k) for lab in range(k + 1))


class Plan(NamedTuple):
    """A search order and each element's forward checks, as built by ``_plan``."""

    order: list[Element]
    near: list[list[int]]  # the later positions each position constrains at gap 1
    far: list[list[int]]  # and at gap p
    p: int


def _plan(
    g: Graph, p: int, free: list[Element], k: int, get: Callable[[Element], int | None]
) -> tuple[Plan, list[int]]:
    """The search order of ``free``, its forward checks and its starting domains.

    Elements sort by decreasing constraint degree (the degree sum of an
    edge's ends, twice a vertex's degree), vertices before edges at equal
    degree, then by id.  A vertex constrains its neighbours at gap 1 and its
    edges at gap p; an edge constrains its ends at gap p and the edges next
    to it at gap 1.  ``near[pos]`` and ``far[pos]`` list the positions of
    the later free elements that ``order[pos]`` constrains at gap 1 and at
    gap p.  The plan does not depend on the range.  In the same pass, each
    free element's starting domain is the set of labels in ``{0..k}`` that
    the labels of its constrained elements that are not free (read by
    ``get``; None for unlabeled) leave open.  Only the vertices of the free
    elements are read, each once.
    """
    # is_edge_element and norm_edge are inlined here and below: these loops
    # are the whole set-up cost of a search
    nbrs: dict[int, tuple[int, ...]] = {}
    for el in free:
        for v in el if isinstance(el, tuple) else (el,):
            if v not in nbrs:
                nbrs[v] = g.neighbors(v)
    keyed = sorted(
        (-len(nbrs[el[0]]) - len(nbrs[el[1]]), 1, el) if isinstance(el, tuple)
        else (-2 * len(nbrs[el]), 0, (el, el))
        for el in free
    )
    order = [el if is_edge else el[0] for _, is_edge, el in keyed]
    index = {el: i for i, el in enumerate(order)}
    full = (1 << (k + 1)) - 1
    near_keep = _keep_masks(1, k)
    far_keep = _keep_masks(p, k)
    near: list[list[int]] = []
    far: list[list[int]] = []
    domains: list[int] = []
    for pos, el in enumerate(order):
        if isinstance(el, tuple):  # its ends at gap p, then the edges next to it
            u, v = el
            groups = ((el, True), ([(w, x) if w < x else (x, w) for w, y in ((u, v), (v, u))
                                    for x in nbrs[w] if x != y], False))
        else:  # its neighbours at gap 1, then its edges at gap p
            ns = nbrs[el]
            groups = ((ns, False), ([(el, w) if el < w else (w, el) for w in ns], True))
        dom = full
        for others, at_p in groups:
            keep, gap, later = (far_keep, p, []) if at_p else (near_keep, 1, [])
            (far if at_p else near).append(later)
            for other in others:
                i = index.get(other)
                if i is None:
                    lab = get(other)
                    if lab is not None:
                        dom &= keep[lab] if 0 <= lab <= k else ~_forbid_mask(lab, gap, k)
                elif i > pos:
                    later.append(i)
        domains.append(dom)
    return Plan(order, near, far, p), domains


def extend_vertex(f: TotalLabeling, v: int) -> bool:
    """``extend_bounded(f, [v, *edges])``'s first answer for a freed vertex
    ``v`` of degree 1 or 2 and its edges, at p = 2.

    The search written out for two or three elements: ``_plan``'s order and
    seeding, then labels ascending, depth first over the same masks (two
    edges keep ``near`` of each other's label, a vertex and an edge
    ``far``).  The answer is written into ``f`` in that order and True
    returned; on a miss (False) ``f`` is unchanged.  Other degrees raise.
    """
    k = f.k
    g = f.graph
    get = f.assignment.get
    near, far = _keep_masks(1, k), _keep_masks(2, k)
    nbrs = g.neighbors
    ends = nbrs(v)
    if not 0 < len(ends) < 3:
        raise ValueError(f"extend_vertex: vertex {v} has degree {len(ends)}, not 1 or 2")
    vertex_dom = full = (1 << (k + 1)) - 1
    keyed = []  # (-constraint degree, is an edge, element, starting domain)
    for x in ends:
        edge_dom = full
        lab = get(x)
        if lab is not None:
            in_range = 0 <= lab <= k
            vertex_dom &= near[lab] if in_range else ~_forbid_mask(lab, 1, k)
            edge_dom &= far[lab] if in_range else ~_forbid_mask(lab, 2, k)
        xs = nbrs(x)
        for y in xs:
            lab = get((x, y) if x < y else (y, x)) if y != v else None
            if lab is not None:
                edge_dom &= near[lab] if 0 <= lab <= k else ~_forbid_mask(lab, 1, k)
        keyed.append((-len(ends) - len(xs), True,
                      (v, x) if v < x else (x, v), edge_dom))
    keyed.append((-2 * len(ends), False, v, vertex_dom))  # before edges at equal degree
    keyed.sort()
    (_, e0, _, d0), (_, e1, _, d1), *last = keyed
    found = None
    while d0 and found is None:
        low = d0 & -d0
        l0 = low.bit_length() - 1
        d0 ^= low
        n1 = d1 & (near if e0 and e1 else far)[l0]
        if n1 and not last:
            found = [l0, (n1 & -n1).bit_length() - 1]
        for _, e2, _, d2 in last:  # the third element, if there is one
            n2 = d2 & (near if e0 and e2 else far)[l0]
            while n1 and n2:
                low = n1 & -n1
                l1 = low.bit_length() - 1
                n1 ^= low
                left = n2 & (near if e1 and e2 else far)[l1]
                if left:
                    found = [l0, l1, (left & -left).bit_length() - 1]
                    break
    if found is None:
        return False
    for (*_, el, _), lab in zip(keyed, found):
        f.assignment.pop(el, None)  # moved to the end, as the search writes it
        f.set(el, lab)
    return True


def _search(
    plan: Plan,
    k: int,
    domains: list[int],
    stats: SearchStats,
    symmetry: bool,
    limit: int | None,
) -> list[int] | None:
    """Depth-first search with forward checking over bitmask domains.

    Only the planned free elements are searched, each from its starting
    domain in ``domains``, which is read and never written; labels outside
    the plan are neither checked nor read.  ``symmetry`` is for a search
    with nothing fixed.  The result lists the labels of the free elements
    in search order.  Past ``limit`` nodes in all (counted by ``stats``)
    the search raises ``SearchBudgetExceeded``.
    """
    order, near_at, far_at, p = plan
    if not order:
        return []
    if not all(domains):
        return None
    near = _keep_masks(1, k)
    far = _keep_masks(p, k)

    last = len(order) - 1
    assignment = [0] * len(order)
    untried = [0] * len(order)  # labels left to try at each position on the path
    entered = [domains] * len(order)  # the domains each position was entered with
    untried[0] = domains[0]
    if symmetry:
        # the complement z -> k - f(z) preserves validity, so the first
        # branched element may be pinned to the lower half of the range
        untried[0] &= (1 << (k + 1) // 2 + 1) - 1  # labels 0..ceil(k/2)
    nodes = stats.nodes
    pos = 0
    # constraints are symmetric, so checking each label forward suffices
    try:
        while True:
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
            doms = entered[pos]
            ns, fs = near_at[pos], far_at[pos]
            if ns or fs:  # else the parent's domains pass on uncopied
                doms = doms.copy()
                new = 1  # no domain emptied yet
                keep = near[lab]
                for i in ns:
                    new = doms[i] = doms[i] & keep
                    if not new:
                        break
                else:
                    keep = far[lab]
                    for i in fs:
                        new = doms[i] = doms[i] & keep
                        if not new:
                            break
                if not new:
                    continue
            assignment[pos] = lab
            if pos == last:
                break
            pos += 1
            entered[pos] = doms
            untried[pos] = doms[pos]
    finally:
        stats.nodes = nodes
    return assignment


def _whole_plan(g: Graph, p: int, cap: int) -> Plan:
    """The plan that frees every element of ``g``, within the element cap."""
    n_elements = g.n + g.m
    if n_elements > cap:
        raise SearchCapExceeded(
            f"{n_elements} elements exceed the search cap {cap}"
        )
    # nothing lies outside a whole plan, so its domains are full at any range
    return _plan(g, p, list(g.elements()), 0, {}.get)[0]


def _labeling(
    g: Graph, k: int, plan: Plan, st: SearchStats, symmetry: bool, limit: int | None
) -> TotalLabeling | None:
    st.calls += 1
    if k < 0:  # an empty range, and no mask to build for it
        return None
    found = _search(plan, k, [(1 << (k + 1)) - 1] * len(plan.order), st, symmetry,
                    limit)
    if found is None:
        return None
    return TotalLabeling(g, k, dict(zip(plan.order, found)))


def find_labeling_bounded(
    g: Graph,
    p: int = 2,
    k: int = 6,
    cap: int = DEFAULT_ELEMENT_CAP,
    stats: SearchStats | None = None,
    symmetry: bool = True,
    budget: int | None = None,
) -> TotalLabeling | None:
    """A valid (p,1)-total labeling within ``{0..k}``, or None if none exists.

    The search is exhaustive, so a None answer is a proof of infeasibility;
    an exhausted node ``budget`` raises instead of guessing.  A negative
    ``k`` returns None.
    """
    st = stats if stats is not None else SearchStats()
    limit = st.budget if budget is None else st.nodes + budget
    return _labeling(g, k, _whole_plan(g, p, cap), st, symmetry, limit)


def lambda_exact(
    g: Graph,
    p: int = 2,
    kmax: int = 16,
    cap: int = DEFAULT_ELEMENT_CAP,
    stats: SearchStats | None = None,
    symmetry: bool = True,
    budget: int | None = None,
) -> tuple[int | None, TotalLabeling | None]:
    """Least k <= kmax admitting a labeling, with a witness.

    The search order and constraint lists are built once and reused for
    every k.  Returns (None, None) when no bound kmax suffices or the node
    budget ran out; a spent budget never produces a partial answer.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    ks = range(degree_lower_bound(g, p), kmax + 1)
    if not ks:  # nothing to search, so the element cap does not apply
        return None, None
    plan = _whole_plan(g, p, cap)
    st = stats if stats is not None else SearchStats()
    limit = st.budget if budget is None else st.nodes + budget  # from this call on
    try:
        for k in ks:
            f = _labeling(g, k, plan, st, symmetry, limit)
            if f is not None:
                return k, f
    except SearchBudgetExceeded:
        pass
    return None, None


def extend_bounded(
    f: TotalLabeling,
    free: list[Element],
    k: int | None = None,
    p: int = 2,
    stats: SearchStats | None = None,
) -> TotalLabeling | None:
    """Exhaustively complete ``f`` on the ``free`` elements within ``{0..k}``.

    Elements already assigned keep their labels.  The first completion the
    search finds is written into ``f`` (each free element moves to the end
    of the assignment, in search order) and ``f`` is returned; None, with
    ``f`` unchanged, only when the free elements cannot be labeled against
    their labeled neighbours, and always for a negative ``k``.  Only the
    free elements and their neighbours are read, so the result is not
    verified: a conflict among the kept labels, a kept label outside
    ``{0..k}``, or an element that is neither assigned nor free is left for
    the check that callers run on it (``complete`` checks around its
    touched elements with ``verify_around``).
    """
    kk = f.k if k is None else k
    g = f.graph
    norm_free: list[Element] = [
        norm_edge(*el) if is_edge_element(el) else el for el in free
    ]
    st = stats if stats is not None else SearchStats()
    st.calls += 1
    if kk < 0:  # an empty range, and no mask to build for it
        return None
    plan, domains = _plan(g, p, norm_free, kk, f.assignment.get)
    found = _search(plan, kk, domains, st, False, st.budget)
    if found is None:
        return None
    a = f.assignment
    for el in plan.order:
        a.pop(el, None)
    a.update(zip(plan.order, found))
    return f if kk == f.k else TotalLabeling(g, kk, a)
