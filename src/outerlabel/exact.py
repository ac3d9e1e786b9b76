"""Exhaustive backtracking search for optimal (p,1)-total labelings.

Intended for desk-scale instances only: the element cap guards against
accidental exponential blowups.  Search order is fixed (elements by
decreasing constraint degree, labels ascending), so the first labeling
found, and hence every returned witness, is deterministic.

``extend_bounded`` searches only the elements it frees, against the labels
of their neighbours; it does not check the labels it keeps, which is the
job of the caller's check (``labeling.verify_around`` or ``verify``).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def charge(self) -> None:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise SearchBudgetExceeded(f"exceeded {self.budget} search nodes")


def _constraint_degree(g: Graph, el: Element) -> int:
    if is_edge_element(el):
        u, v = el
        return g.degree(u) + g.degree(v)
    return 2 * g.degree(el)


def _element_order(g: Graph, elements: list[Element]) -> list[Element]:
    # vertices sort before edges at equal constraint degree; ids break ties
    def key(el: Element):
        if is_edge_element(el):
            return (-_constraint_degree(g, el), 1, el)
        return (-_constraint_degree(g, el), 0, (el, el))

    return sorted(elements, key=key)


def _constraints(g: Graph, el: Element, p: int) -> list[tuple[Element, int]]:
    """The elements ``el`` constrains, each with the gap it requires."""
    if is_edge_element(el):
        u, v = el
        near = [
            norm_edge(w, x) for w, y in ((u, v), (v, u)) for x in g.neighbors(w) if x != y
        ]
        return [(u, p), (v, p)] + [(e, 1) for e in near]
    ns = g.neighbors(el)
    return [(w, 1) for w in ns] + [(norm_edge(el, w), p) for w in ns]


def _forbid_mask(label: int, gap: int, k: int) -> int:
    lo = max(0, label - gap + 1)
    hi = min(k, label + gap - 1)
    if hi < lo:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


# (order, ahead, outside), as built by ``_plan``
Plan = tuple[
    list[Element], list[list[tuple[int, int]]], list[list[tuple[Element, int]]]
]


def _plan(g: Graph, p: int, free: list[Element]) -> Plan:
    """The search order of ``free``, and each element's constraints split two ways.

    ``ahead[pos]`` lists (position, gap) of each later free element that
    ``order[pos]`` constrains; ``outside[pos]`` lists (element, gap) of each
    constrained element that is not free.  None of it depends on the range.
    """
    order = _element_order(g, free)
    index = {el: i for i, el in enumerate(order)}
    ahead: list[list[tuple[int, int]]] = []
    outside: list[list[tuple[Element, int]]] = []
    for pos, el in enumerate(order):
        later = []
        kept = []
        for other, gap in _constraints(g, el, p):
            i = index.get(other)
            if i is None:
                kept.append((other, gap))
            elif i > pos:
                later.append((i, gap))
        ahead.append(later)
        outside.append(kept)
    return order, ahead, outside


def _search(
    plan: Plan,
    k: int,
    fixed: dict[Element, int],
    stats: SearchStats,
    symmetry: bool,
) -> dict[Element, int] | None:
    """Depth-first search with forward checking over bitmask domains.

    Only the planned free elements are searched: each starts from the labels
    its ``fixed`` neighbours leave open, and ``fixed`` itself is neither
    checked nor read at a free element.  The result lists the labels of
    ``fixed`` outside the free elements, then the free elements in search
    order.
    """
    order, ahead, outside = plan
    full = (1 << (k + 1)) - 1
    domains = []
    for kept in outside:
        dom = full
        for other, gap in kept:
            lab = fixed.get(other)
            if lab is not None:
                dom &= ~_forbid_mask(lab, gap, k)
        domains.append(dom)
    if not order:
        return dict(fixed)
    if any(d == 0 for d in domains):
        return None

    if symmetry and not fixed:
        # the complement z -> k - f(z) preserves validity, so the first
        # branched element may be pinned to the lower half of the range
        half = (k + 1) // 2 + 1  # labels 0..ceil(k/2)
        domains[0] &= (1 << half) - 1

    assignment: list[int | None] = [None] * len(order)

    def rec(pos: int) -> bool:
        if pos == len(order):
            return True
        dom = domains[pos]
        while dom:
            low = dom & -dom
            lab = low.bit_length() - 1
            dom ^= low
            stats.charge()
            touched: list[tuple[int, int]] = []
            ok = True
            for i, gap in ahead[pos]:
                old = domains[i]
                new = old & ~_forbid_mask(lab, gap, k)
                if new != old:
                    domains[i] = new
                    touched.append((i, old))
                    if new == 0:
                        ok = False
                        break
            if ok:
                assignment[pos] = lab
                if rec(pos + 1):
                    return True
            for i, old in touched:
                domains[i] = old
        assignment[pos] = None
        return False

    # constraints are symmetric, so checking each label forward suffices
    if not rec(0):
        return None
    out = dict(fixed)
    for el in order:
        out.pop(el, None)
    for i, el in enumerate(order):
        out[el] = assignment[i]  # type: ignore[assignment]
    return out


def _whole_plan(g: Graph, p: int, cap: int) -> Plan:
    """The plan that frees every element of ``g``, within the element cap."""
    n_elements = g.n + g.m
    if n_elements > cap:
        raise SearchCapExceeded(
            f"{n_elements} elements exceed the search cap {cap}"
        )
    return _plan(g, p, list(g.elements()))


def _labeling(
    g: Graph,
    k: int,
    plan: Plan,
    stats: SearchStats | None,
    symmetry: bool,
    budget: int | None,
) -> TotalLabeling | None:
    st = stats if stats is not None else SearchStats()
    if budget is not None:
        st.budget = budget
    st.calls += 1
    found = _search(plan, k, {}, st, symmetry)
    if found is None:
        return None
    return TotalLabeling(g, k, found)


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
    an exhausted node ``budget`` raises instead of guessing.
    """
    return _labeling(g, k, _whole_plan(g, p, cap), stats, symmetry, budget)


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
    try:
        for k in ks:
            f = _labeling(g, k, plan, stats, symmetry, budget)
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

    Elements already assigned keep their labels; returns the first
    completion the search finds, or None only when the free elements cannot
    be labeled against their labeled neighbours.  Only the free elements and
    their neighbours are read, and ``f.assignment`` is copied once, into the
    result, so the result is not verified: a conflict among the kept labels,
    a kept label outside ``{0..k}``, or an element that is neither assigned
    nor free is left for the check that callers run on it (``complete``
    checks around the touched and freed elements with ``verify_around``).
    """
    kk = f.k if k is None else k
    g = f.graph
    norm_free: list[Element] = [
        norm_edge(*el) if is_edge_element(el) else el for el in free
    ]
    st = stats if stats is not None else SearchStats()
    st.calls += 1
    found = _search(_plan(g, p, norm_free), kk, f.assignment, st, False)
    if found is None:
        return None
    return TotalLabeling(g, kk, found)

