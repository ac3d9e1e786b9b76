"""Top-level dispatch: label any outerplanar graph by its maximum degree."""

from __future__ import annotations

from .delta3 import (
    Diagnostics,
    InfeasibleTrace,
    label_cycle_or_path,
    label_delta3,
    reduce_and_extend,
)
from .delta4 import label_delta4
from .embedding import recognize_embed
from .exact import find_labeling_bounded
from .graphs import Graph
from .labeling import TotalLabeling, verify


class UnsupportedDegree(ValueError):
    def __init__(self, delta: int):
        super().__init__(
            f"no constructive labeler for maximum degree {delta}; "
            "use the bounded search fallback"
        )
        self.delta = delta


def label_outerplanar(
    g: Graph,
    fallback_search: bool = False,
    diag: Diagnostics | None = None,
) -> TotalLabeling:
    """Verified (2,1)-total labeling with span at most max_degree + 2.

    Dispatches on the maximum degree; degrees above 4 are only served by the
    exhaustive bounded search (experimental), and only when requested.
    Raises NotOuterplanar on a non-outerplanar host before any labeling:
    every path recognizes ``g`` once, whole, and the reduction
    driver carries that embedding through every reduction.  The Δ=3 and
    Δ=4 labelers verify their own output, so only the other results are
    verified here; like theirs, an invalid one raises InfeasibleTrace.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    delta = g.max_degree()
    if delta == 3:
        return label_delta3(g, diag)
    if delta == 4:
        return label_delta4(g, diag)
    emb = recognize_embed(g)  # raises NotOuterplanar before any search
    if delta <= 2:
        f = reduce_and_extend(emb, lambda host: label_cycle_or_path(host.graph, k=delta + 2))
    else:
        f = find_labeling_bounded(g, 2, delta + 2) if fallback_search else None
        if f is None:
            raise UnsupportedDegree(delta)
    bad = verify(f, 2)
    if bad:
        raise InfeasibleTrace(f"dispatcher produced an invalid labeling: {bad[:3]}")
    return f
