"""Span-5 labelings for outerplanar graphs of maximum degree 3.

The 2-connected case walks the boundary: chord endpoints get labels 0/1
alternately, runs of 2-vertices are filled with 0/1 plus a single 2 in
odd-length runs, chords get 3, and outer edges alternate 4/5 with a local
seam repair when the boundary is odd.  Graphs with cut vertices are peeled
one leaf block at a time; the labeling of the remainder is extended onto
the block by a case analysis on the bridge's edge label.  When the cut
vertex sits alone between two chord ends, one row of ``TIGHT_GAP_ROWS``
labels the near side of the chord from the run's start: keyed by the
bridge's labels, the chord's span, the last run, whether the far ends
merge and the near side's parity, it fills the runs and writes its fixed
labels as ops of the degree-4 chain templates' language, which
``run_ops`` interprets for both degrees.  The part of the block beyond
the chord is labeled last (``extend_lemma1``), from a boundary walk of a
closed-up copy built from that far side only.

Both this labeler and the degree-4 one run on one iterative driver,
``reduce_and_extend``, in place: one working copy of the input graph and of
its embedding (the input recognized once, whole), and one labeling per
component.  A per-degree step function either labels a connected host
directly (path or cycle, boundary walk) or removes what its reduction
drops (``OuterplanarEmbedding.remove``) and returns the graph's undo
record with the finish rule that extends the smaller host's labeling back;
the driver replays each record just before its rule runs and sets the
labeling's range to that host's Δ+2, so each rule works within its own
host's range.  This labeler's step, ``step5``, reads a host's extreme
degrees once and hands them to ``degree3_step``, which also takes every
host of a degree-4 run that has maximum degree 3 or less or a pendant.  A
pendant or the 2-vertex of a C1/C2 instance goes by one step,
``vertex_step``, and comes back by one rule, ``put_back``, in both
labelers; a leaf block comes back by ``_attach_leaf_block``.

Every finish rule extends its component's labeling in place and checks
what it changed with ``verify_around``, which is exact because the smaller
host's labeling was valid and the rest of it is kept.  A rule that meets
its context complemented (a leaf bridge labeled 2 or less, mirrored stubs)
reads it as z -> 5 - z and writes the complement of each label it picks.
A case table writes its labels and is only checked (``check``): a miss
raises InfeasibleTrace naming the rule or row.  ``complete`` is
the one place that searches: it relabels freed elements by bounded
search, checks and puts back, and frees a wider set only after a miss,
logging each widening.  ``label_delta3`` runs the one full ``verify`` on the finished
labeling, so the verifier has the last word on every output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from .embedding import (
    BlockEmbedding,
    Face,
    OuterplanarEmbedding,
    boundary_decompose,
    endfaces,
    recognize_embed,
)
from .exact import SearchBudgetExceeded, SearchStats, extend_bounded, extend_vertex
# find_labeling_bounded is unused here; perfbench/tracing.py patches this binding
from .exact import find_labeling_bounded  # noqa: F401
from .graphs import Edge, Element, Graph, norm_edge
from .labeling import TotalLabeling, verify, verify_around

# Node budget of each completion search.  The largest search measured took
# 17 nodes, over 175 completion searches (pendant and C1/C2 refills do not
# search): the seed-0 benchmark corpus and reduce inputs, the 2,302 single-block
# dissections of 4- to 9-gons at Δ = 3, 4, and
# gen_glued_outerplanar(40, s, {"max_degree": d}) for s < 2000, d = 3, 4.
COMPLETION_BUDGET = 10_000


class InfeasibleTrace(RuntimeError):
    """A case table produced an empty choice set or an invalid labeling."""


class CaseFault(InfeasibleTrace):
    """A case table left a choice empty or has no entry for its case."""


class NotDelta(ValueError):
    def __init__(self, want: int, got: int):
        super().__init__(f"labeler expects maximum degree {want}, got {got}")


@dataclass
class Diagnostics:
    """Collects repair records (widened completions, junction patches) and
    optional step traces."""

    records: list[dict] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)

    def note(self, **kw) -> None:
        self.records.append(kw)

    def step(self, msg: str) -> None:
        self.trace.append(msg)


@dataclass
class LabelK2Options:
    """Steering for the boundary-walk labeler.

    ``start_vertex`` picks which chord endpoint opens the walk and
    ``start_parity`` its label.  Odd runs place their single 2 on the vertex
    closest to the run's middle, skipping ``avoid2_hard`` when at all
    possible and ``avoid2_soft`` when an alternative exists.  When the
    boundary is odd, the repaired face is the first endface avoiding
    ``endface_avoid``.  The outer-edge alternation opens on 4; a caller
    that needs an outer edge on 4 or 5 pins it afterwards
    (``pin_outer_edge``).
    """

    start_vertex: int | None = None
    start_parity: int = 0
    avoid2_hard: frozenset[int] = frozenset()
    avoid2_soft: frozenset[int] = frozenset()
    endface_avoid: frozenset[int] = frozenset()


@dataclass
class LabelK2Trace:
    seam_face: tuple[int, ...] | None = None
    patched: set[Element] = field(default_factory=set)


def _fill_run(
    assign: dict[Element, int],
    a_label: int,
    run: Sequence[int],
    opts: LabelK2Options,
    flip5: bool = False,
) -> None:
    """Label one run of 2-vertices between chord endpoints.

    ``a_label`` is the label of the run's clockwise start endpoint.
    """
    q = len(run)
    labs = [1 - a_label, a_label] * (q // 2)
    if q % 2:
        hard, soft = opts.avoid2_hard, opts.avoid2_soft
        mid = q // 2
        if hard or soft:
            mid = min(range(q), key=lambda i: (
                run[i] in hard, run[i] in soft, abs(i - q // 2), i))
        labs.insert(mid, 2)
    if flip5:
        labs = [5 - l for l in labs]
    assign.update(zip(run, labs))


def _alternate(assign: dict[Element, int], edge_seq: list[tuple[int, int]]) -> None:
    lab = 4
    for u, v in edge_seq:
        assign[(u, v) if u < v else (v, u)] = lab
        lab = 9 - lab


def pin_outer_edge(f: TotalLabeling, edge: Edge, label: int) -> None:
    """Give ``edge`` the label ``label`` (4 or 5) in the boundary walk ``f``.

    Every 4/5 edge label of a walk follows its alternation, and nothing
    else the walk labels depends on where the alternation starts, so
    exchanging 4 and 5 on every edge gives the walk that starts it on the
    other label.
    """
    a = f.assignment
    e = norm_edge(*edge)
    if a.get(e) not in (4, 5):
        raise InfeasibleTrace(f"seed edge {e} not on the alternation walk")
    if a[e] != label:
        a.update({z: 9 - l for z, l in a.items() if type(z) is tuple and l in (4, 5)})


def _endface_arc(emb: OuterplanarEmbedding, face: Face) -> tuple[int, int, list[int]]:
    """Split one endface into (chord end, chord end, boundary run between them)."""
    boundary = emb.boundary
    pos = {v: i for i, v in enumerate(boundary)}
    n = len(boundary)
    inner = emb.inner_edges
    chord = next(e for e in face.edges() if e in inner)
    a, b = chord
    fv = set(face.vertices)
    for s, t in ((a, b), (b, a)):
        arc = []
        i = (pos[s] + 1) % n
        while boundary[i] != t:
            arc.append(boundary[i])
            i = (i + 1) % n
        if set(arc) | {s, t} == fv:
            return s, t, arc
    raise InfeasibleTrace("endface does not sit on a boundary arc")


def label_k2(
    emb: OuterplanarEmbedding,
    opts: LabelK2Options | None = None,
    diag: Diagnostics | None = None,
) -> tuple[TotalLabeling, LabelK2Trace]:
    """Boundary-walk labeling of a 2-connected host with maximum degree 3.

    Produces a labeling with vertex labels in {0,1,2}, chords at 3, and
    outer edges alternating 4/5 (up to the odd-boundary seam repair); the
    span never exceeds 5.  The result is not verified here: callers check
    it where they use it (``complete`` around an attached leaf block or a
    reattached far side, ``label_delta3`` on the whole output).
    """
    opts = opts or LabelK2Options()
    g = emb.graph
    if not emb.is_biconnected():
        raise ValueError("boundary-walk labeling needs a 2-connected host")
    if g.max_degree() != 3:
        raise NotDelta(3, g.max_degree())
    xs, ys, _ = boundary_decompose(emb, start=opts.start_vertex)
    return _walk_k2(emb, xs, ys, opts, diag)


def _walk_k2(
    emb: OuterplanarEmbedding,
    xs: list[int],
    ys: list[list[int]],
    opts: LabelK2Options,
    diag: Diagnostics | None = None,
) -> tuple[TotalLabeling, LabelK2Trace]:
    """``label_k2`` on the boundary decomposition ``xs, ys`` of ``emb``, as
    ``boundary_decompose`` gives it from ``xs[0]``."""
    g = emb.graph
    assign: dict[Element, int] = {}
    trace = LabelK2Trace()

    for i, x in enumerate(xs):
        assign[x] = (opts.start_parity + i) % 2
    for i, run in enumerate(ys):
        _fill_run(assign, assign[xs[i]], run, opts)
    for e in emb.inner_edges:
        assign[e] = 3

    boundary = emb.boundary
    n = len(boundary)
    i0 = boundary.index(xs[0])
    order = boundary[i0:] + boundary[:i0]
    cyc = list(zip(order, order[1:] + order[:1]))

    if n % 2 == 0:
        _alternate(assign, cyc)
    else:
        faces = [
            f
            for f in endfaces(emb)
            if not (set(f.vertices) & set(opts.endface_avoid))
        ]
        if not faces:
            raise InfeasibleTrace("no admissible endface for the odd-boundary seam")
        face = min(faces, key=lambda f: f.key())
        trace.seam_face = face.vertices
        a, b, arc = _endface_arc(emb, face)
        # read the run from the endpoint labeled 0
        if assign[a] == 0:
            zero_end, one_end, run = a, b, arc
        else:
            zero_end, one_end, run = b, a, arc[::-1]
        epos = {norm_edge(*e): j for j, e in enumerate(cyc)}
        if len(run) >= 2:
            seam = norm_edge(run[0], run[1])
            assign[seam] = 3
            trace.patched.add(seam)
            start = (epos[seam] + 1) % n
            path = [cyc[(start + j) % n] for j in range(n - 1)]
            _alternate(assign, path)
            if assign[run[0]] == 2 or assign[run[1]] == 2:
                assign[run[0]], assign[run[1]], assign[run[2]] = 1, 0, 2
                trace.patched.update(run[:3])
        else:
            y1 = run[0]
            e_low = norm_edge(zero_end, y1)
            e_high = norm_edge(y1, one_end)
            assign[y1], assign[e_low], assign[e_high] = 5, 2, 3
            trace.patched.update((y1, e_low, e_high))
            start = (max(epos[e_low], epos[e_high]) + 1) % n
            path = [cyc[(start + j) % n] for j in range(n - 2)]
            _alternate(assign, path)
            chord = norm_edge(zero_end, one_end)
            assign[chord] = 9 - assign[norm_edge(*path[-1])]
            trace.patched.add(chord)
            if assign[norm_edge(*path[0])] != assign[norm_edge(*path[-1])]:
                raise InfeasibleTrace("odd-boundary walk lost its parity")

    f = TotalLabeling(g, 5, assign)
    if diag is not None:
        diag.step(f"label_k2 xs={xs} qs={[len(run) for run in ys]}")
    return f, trace


# -- paths and cycles --------------------------------------------------------

_PATH_PATTERN = (0, 2, 4, 1, 3)


def label_cycle_or_path(g: Graph, k: int = 5) -> TotalLabeling:
    """Span <= 4 labeling of a connected graph with maximum degree <= 2.

    Equivalent to labeling the once-subdivided host along its path or cycle
    with gaps 2 at distance one and 1 at distance two.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if g.max_degree() > 2:
        raise NotDelta(2, g.max_degree())
    if not g.is_connected():
        raise ValueError("expects a connected graph")
    f = TotalLabeling(g, k)
    if g.n == 1:
        f.set(g.vertices[0], 0)
        return f
    deg1 = [v for v in g.vertices if g.degree(v) == 1]
    if deg1:  # path
        start = min(deg1)
        seq = [start]
        while True:
            nxt = [u for u in g.neighbors(seq[-1]) if len(seq) < 2 or u != seq[-2]]
            if not nxt:
                break
            seq.append(nxt[0])
        labs = _path_labels(2 * len(seq) - 1)
        for i, v in enumerate(seq):
            f.set(v, labs[2 * i])
            if i + 1 < len(seq):
                f.set_edge(v, seq[i + 1], labs[2 * i + 1])
        return f
    # cycle
    start = min(g.vertices)
    seq = [start, min(g.neighbors(start))]
    while True:
        nxt = [u for u in g.neighbors(seq[-1]) if u != seq[-2]]
        if nxt[0] == start:
            break
        seq.append(nxt[0])
    labs = _cycle_labels(2 * len(seq))
    for i, v in enumerate(seq):
        f.set(v, labs[2 * i])
        f.set_edge(v, seq[(i + 1) % len(seq)], labs[2 * i + 1])
    return f


def _path_labels(m: int) -> list[int]:
    if m == 1:
        return [0]
    if m == 3:
        return [0, 3, 1]
    return [(_PATH_PATTERN[i % 5]) for i in range(m)]


def _cycle_labels(m: int) -> list[int]:
    # tile with blocks (0,2,4) and (0,3,1,4); any block junction is safe
    if m % 3 == 0:
        a, b = m // 3, 0
    elif m % 3 == 1:
        a, b = (m - 4) // 3, 1
    else:
        a, b = (m - 8) // 3, 2
    if a < 0:
        raise ValueError(f"cannot tile a closed walk of length {m}")
    return [0, 2, 4] * a + [0, 3, 1, 4] * b


# -- the reduction driver ----------------------------------------------------


def reduce_and_extend(host: OuterplanarEmbedding, step: Callable) -> TotalLabeling:
    """Label ``host.graph`` within ``{0..Δ+2}`` by reducing it, then extending back.

    The paper's induction, run in place on an explicit stack, on
    ``host.working()``: neither the caller's graph nor its embedding
    changes.  ``step`` gets the embedding of a connected host and returns a
    labeling of it, or removes what its reduction drops
    (``OuterplanarEmbedding.remove``) and returns the graph's undo record
    with the finish rule that extends the smaller host's labeling back.
    The driver replays the record just before the rule runs, so each rule
    sees exactly its own host and extends its component's labeling in
    place, within its own host's range: the driver sets the labeling's
    ``k`` to that host's Δ+2 before the rule runs, as the paper's induction
    extends a labeling of G′ within Δ(G′)+2 to one of G within Δ(G)+2.  A
    host that may split is split into its components, labeled in vertex
    order and joined into the largest one's labeling.  Finish rules run in
    the post-order a recursive induction would give them.
    """
    graph = host.graph
    todo: list = [host.working()]  # hosts to label; (graph, record, rule or join)
    done: list[TotalLabeling] = []
    while todo:
        item = todo.pop()
        if type(item) is OuterplanarEmbedding:
            parts, undo = item.split()
            if undo is not None:
                todo.append((item.graph, undo, len(parts)))
                todo.extend(reversed(parts))
                continue
            out = step(item)
            if isinstance(out, TotalLabeling):
                done.append(out)
            else:
                undo, finish = out
                todo.append((item.graph, undo, finish))
                todo.append(item)
            continue
        g, undo, then = item
        g.put_back(undo)
        if type(then) is int:  # join the split's components into the kept one's
            parts = done[-then:]
            del done[-then:]
            f = next(part for part in parts if part.graph is g)
            for part in parts:
                if part is not f:
                    f.update(part.assignment)
            done.append(f)
        else:
            f = done.pop()
            f.k = g.max_degree() + 2
            done.append(then(f))
    return TotalLabeling(graph, graph.max_degree() + 2, done.pop().assignment)


def check(f: TotalLabeling, touched: Collection[Element], where: str) -> TotalLabeling:
    """``f``, once ``verify_around`` finds nothing around ``touched``.

    ``touched`` holds every element whose label may differ from the smaller
    host's valid labeling and every element that host lacks.  Raises
    InfeasibleTrace naming ``where`` and the violations.
    """
    bad = verify_around(f, touched)
    if bad:
        raise InfeasibleTrace(f"{where}: labels fail their check: {bad[:3]}")
    return f


def complete(f: TotalLabeling, touched: Collection[Element],
             frees: Iterable[list[Element]], where: str, diag: Diagnostics | None,
             event: str | None = None) -> TotalLabeling:
    """The first checked completion of ``f``, freeing each of ``frees`` in turn.

    ``f`` is as ``check`` needs it around ``touched`` and the freed
    elements, so a completion is valid exactly when ``verify_around`` finds
    nothing there; no full ``verify`` runs here.  ``extend_bounded``
    relabels each freed set (normalized), in place, within
    ``COMPLETION_BUDGET`` nodes.  A completion that does not check clean is
    put back.  ``frees`` is read one set at a time, so a wider set is built
    only after a miss; when ``event`` is given, each set is logged as
    ``event`` at ``where``.  Returns ``f``; raises InfeasibleTrace when no
    set gives a valid labeling or a search spends its budget.
    """
    a = f.assignment
    for free in frees:
        if event is not None and diag is not None:
            diag.note(event=event, where=where, freed=len(free))
        old = [(el, a[el]) for el in free if el in a]
        stats = SearchStats(budget=COMPLETION_BUDGET)
        try:
            if extend_bounded(f, free, stats=stats) is None:
                continue
        except SearchBudgetExceeded as exc:
            raise InfeasibleTrace(
                f"{where}: completion search tried {stats.nodes} nodes, "
                f"past its budget of {COMPLETION_BUDGET}") from exc
        if not verify_around(f, [*touched, *free]):
            return f
        for el in free:
            a.pop(el, None)
        a.update(old)
    raise InfeasibleTrace(f"{where}: no verified completion")


def vertex_step(host: OuterplanarEmbedding, u1: int, kind: str,
                diag: Diagnostics | None):
    """Drop ``u1``, a pendant or the 2-vertex of a ``kind`` (C1/C2) instance;
    ``put_back`` extends the smaller host's labeling back over it."""
    return host.remove([u1]), partial(put_back, u1, kind, diag)


def put_back(u1: int, kind: str, diag: Diagnostics | None,
             fh: TotalLabeling) -> TotalLabeling:
    """Put the dropped ``u1`` and its edges back by ``exact.extend_vertex``, then
    check them.

    At k = Δ+2 a pendant's edge keeps a label, and the pendant at least
    two, as the paper's pendant extension has it.  Only a miss or a failed
    check searches: ``complete`` frees ``u1``'s neighbours and their edges
    too (the host can force both edges of a 2-vertex into {3, 6}, say,
    leaving no vertex label) and logs the widening.
    """
    g = fh.graph
    freed = [u1, *g.incident_edges(u1)]
    if extend_vertex(fh, u1) and not verify_around(fh, freed):
        return fh
    wider = set(freed)
    for nb in g.neighbors(u1):
        wider.add(nb)
        wider.update(g.incident_edges(nb))
    where = f"pendant at vertex {u1}" if kind == "pendant" else f"{kind} completion"
    return complete(fh, freed, [sorted(wider, key=repr)], where, diag,
                    "widened-completion")


# -- leaf-block surgery ------------------------------------------------------

def extend_lemma1(
    f: TotalLabeling,
    u: int,
    v: int,
    far: Sequence[int],
    diag: Diagnostics | None = None,
) -> TotalLabeling:
    """Reattach the far side of the chord ``(u, v)``, in place.

    ``far`` is a boundary arc of a block of ``f.graph``, from ``v``'s
    neighbour ``v_prime`` to ``u``'s neighbour ``u_prime``; no vertex of it
    but these two has a neighbour off it.  ``f`` is a valid labeling of
    the host in which the far side is replaced by the two pendant stubs
    ``(u, u_prime)`` and ``(v, v_prime)``, so it labels no element of the
    far side but ``u_prime`` and ``v_prime``.  Requires the stub labels to
    sit at opposite extremes: stub vertices in {0,1} with stub edges in
    {4,5}, or the mirrored form, which is read complemented (z -> 5 - z)
    and gets the complement of each label the walk gives.

    Labels the far side from one boundary walk of a closed-up copy of it,
    built from the far side only.  The walk opens at whichever tip is a
    chord end of the copy, ``u_prime`` (the stub vertex read as 0) with 0,
    else ``v_prime`` with 1, so when both are chord ends their alternating
    labels meet the stub labels.  The tips keep the stub host's labels; if
    the walk's labels around them then fail the check, one junction vertex
    label is re-chosen (``complete``, logged as a junction patch).  Returns
    ``f``, checked around the stubs and the far side, the only elements
    where it can differ from the stub host's labeling.
    """
    g = f.graph
    u_prime, v_prime = far[-1], far[0]
    inside = set(far)
    far_edges = [(a, b) for a in far for b in g.neighbors(a) if a < b and b in inside]
    keep = {*far, *far_edges}
    around = [norm_edge(u, u_prime), norm_edge(v, v_prime), *keep]
    vu, vv = f.vertex(u_prime), f.vertex(v_prime)
    eu, ev = f.edge(u, u_prime), f.edge(v, v_prime)
    if None in (vu, vv, eu, ev) or vu == vv:
        raise ValueError("stub labels missing or equal")
    mirrored = {vu, vv} <= {4, 5} and {eu, ev} <= {0, 1}
    if mirrored:
        vu, vv, eu, ev = 5 - vu, 5 - vv, 5 - eu, 5 - ev
    if not ({vu, vv} <= {0, 1} and {eu, ev} <= {4, 5}):
        raise ValueError("stub labels do not meet the extension preconditions")
    if vu == 1:  # name the 0-labeled endpoint first
        u, v = v, u
        u_prime, v_prime = v_prime, u_prime
        vu, vv, eu, ev = vv, vu, ev, eu

    # the path vertices sort after the far side, as they would after the host
    next_id = max(far) + 1
    if eu == ev:
        x, y = next_id, next_id + 1
        path = [(u_prime, x), (x, y), (y, v_prime)]
        hidden = {x, y}
    else:
        x, y = next_id, None
        path = [(u_prime, x), (x, v_prime)]
        hidden = {x}
    far_degrees = [sum(w in inside for w in g.neighbors(z)) for z in (u_prime, v_prime)]
    if far_degrees == [1, 1] and not g.has_edge(u_prime, v_prime):
        path.append((u_prime, v_prime))  # both tips would have degree 2
    g3 = Graph([*far, *hidden], far_edges + path)
    if g3.max_degree() <= 2:
        # the far side is a single edge; complete it in place
        return complete(f, around, [[*far_edges, *far[1:-1]]], "tiny reattachment", diag)

    emb3 = recognize_embed(g3)
    start, parity = (u_prime, 0) if g3.degree(u_prime) == 3 else (v_prime, 1)
    if g3.degree(start) != 3:
        raise InfeasibleTrace("neither far-side tip is a chord end of the closed-up copy")
    soft = {x, u_prime, v_prime, *g3.neighbors(v_prime), *g3.neighbors(u_prime)}
    if y is not None:
        soft.add(y)
    f1, _ = label_k2(emb3, LabelK2Options(
        start_vertex=start,
        start_parity=parity,
        avoid2_soft=frozenset(soft),
        endface_avoid=frozenset(hidden),
    ))
    pin_outer_edge(f1, (u_prime, x), eu)
    # the tips keep the stub host's labels
    part = {z: 5 - l if mirrored else l for z, l in f1.assignment.items()
            if z in keep and z != u_prime and z != v_prime}
    f.update(part)
    # a walk whose tips already fit is only checked; re-choosing a junction
    # vertex label is the construction's own final move, logged as a patch
    if not verify_around(f, around):
        return f
    return complete(f, around, ([u_prime], [v_prime]), "reattachment junction", diag,
                    "junction-patch")


# -- whole-graph driver ------------------------------------------------------

_E = norm_edge


def label_delta3(g: Graph, diag: Diagnostics | None = None) -> TotalLabeling:
    """Verified span <= 5 labeling of an outerplanar graph with max degree 3.

    Disconnected inputs are labeled one component at a time.  Raises
    NotOuterplanar, before any labeling, if some component is not
    outerplanar.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if g.max_degree() != 3:
        raise NotDelta(3, g.max_degree())
    out = _label_span5(recognize_embed(g), diag)
    bad = verify(out, 2)
    if bad:
        raise InfeasibleTrace(f"driver produced an invalid labeling: {bad[:3]}")
    return out


def _label_span5(host: OuterplanarEmbedding, diag: Diagnostics | None) -> TotalLabeling:
    """Maximum degree <= 3, labeling within {0..Δ+2}."""
    return reduce_and_extend(host, partial(step5, diag=diag))


def step5(emb: OuterplanarEmbedding, diag: Diagnostics | None):
    """Label a connected host of maximum degree <= 3, or reduce it; any
    host with a pendant loses it."""
    g = emb.graph
    return degree3_step(emb, g.max_degree(), g.min_degree(), diag)


def degree3_step(emb: OuterplanarEmbedding, top: int, low: int,
                 diag: Diagnostics | None):
    """``step5`` on a host whose extreme degrees ``top`` and ``low`` the
    caller has read."""
    if top <= 2:
        return label_cycle_or_path(emb.graph, k=5)
    if low == 1:
        return vertex_step(emb, emb.worklists().first("pendant"), "pendant", diag)
    if emb.is_biconnected():
        f, _ = label_k2(emb, LabelK2Options(), diag)
        return f
    return _leaf_block_step(emb, diag)


def _leaf_block_step(emb: OuterplanarEmbedding, diag: Diagnostics | None):
    """Cut off the first leaf block; the finish rule attaches it back."""
    g = emb.graph
    leaf = emb.leaf_block()
    if leaf is None:
        raise InfeasibleTrace("no leaf block with a single cut vertex")
    blk, v_c = leaf
    members = set(blk.cycle)
    outside = [z for z in g.neighbors(v_c) if z not in members]
    if len(outside) != 1:
        raise InfeasibleTrace("cut vertex must leave its block by one bridge")
    w = outside[0]

    return emb.remove(members - {v_c}), partial(
        _attach_leaf_block, g, blk, v_c, w, diag)


def _attach_leaf_block(g: Graph, blk: BlockEmbedding, v_c: int, w: int,
                       diag: Diagnostics | None, base: TotalLabeling) -> TotalLabeling:
    """Label the leaf block ``blk`` of ``g`` back onto ``base`` at its cut vertex ``v_c``.

    The rule reads the bridge ``(v_c, w)`` and ``w``; a bridge labeled 2 or
    less is read complemented (z -> 5 - z), and then the rule's labels are
    complemented as they are written.  They are checked in place before a
    far side, if any, is labeled (``extend_lemma1``): the far side's
    interior and the edges tying its ends to the other chord end carry no
    label yet, and ``verify_around`` skips every pair with an unlabeled
    element, so the check reads exactly the stub host, in which each end is
    a pendant on its chord end.
    """
    few, fw = base.edge(v_c, w), base.vertex(w)
    low = few <= 2
    if low:
        few, fw = 5 - few, 5 - fw
    leaf = g.induced(blk.cycle)
    emb1 = OuterplanarEmbedding(leaf, (blk,), frozenset())
    if diag is not None:
        diag.step(
            f"leaf block n={leaf.n} chords={len(emb1.inner_edges)} "
            f"bridge-label={few}"
        )
    if emb1.inner_edges:
        where, ext, far = _attach_chorded_block(leaf, emb1, v_c, few, fw, diag)
    else:
        where, ext, far = _attach_cycle_block(emb1, v_c, few, fw)
    base.update({z: 5 - l for z, l in ext.items()} if low else ext)
    check(base, ext, where)
    return base if far is None else extend_lemma1(base, *far, diag)


def _rotate_to(seq: Sequence[int], first: int) -> list[int]:
    i = seq.index(first)
    return [seq[(i + j) % len(seq)] for j in range(len(seq))]


# Each attach gets the bridge label ``few`` and its far end's label ``fw``,
# as the leaf-block rule reads them, and returns the name of the rule it
# wrote, its labels of the block, and the chord ends and far side to reattach
# (``extend_lemma1``'s arguments), or None.

def _attach_cycle_block(emb1, v_c: int, few: int, fw: int) -> tuple:
    """Label a chordless leaf cycle against the already-labeled bridge."""
    order = _rotate_to(emb1.boundary, v_c)
    r = len(order)
    ext: dict[Element, int] = {}
    if few == 3 and r == 3:
        u2, u3 = order[1], order[2]
        if fw != 0:
            ext = {
                v_c: 0, u2: 1, u3: 5,
                _E(v_c, u2): 5, _E(u2, u3): 3, _E(u3, v_c): 2,
            }
        else:
            ext = {
                v_c: 5, u2: 2, u3: 0,
                _E(v_c, u2): 0, _E(u2, u3): 5, _E(u3, v_c): 2,
            }
    else:
        c0 = 0 if fw != 0 else 1
        ext[v_c] = c0
        for j, vtx in enumerate(order[1:]):
            ext[vtx] = (1 - c0) if j % 2 == 0 else c0
        if r % 2 == 1:
            ext[order[-1]] = 2
        start = 5 if few in (3, 4) else 4
        ext[_E(order[-1], v_c)] = start
        lab = 9 - start
        for i in range(r - 1, 0, -1):
            ext[_E(order[i], order[i - 1])] = lab
            lab = 9 - lab
        if few in (4, 5):
            ext[_E(order[1], v_c)] = 3
        elif few == 3 and r % 2 == 1:
            ext[_E(order[2], order[1])] = 3
            ext[_E(order[1], v_c)] = 4
    return "cycle-block attach", ext, None


def _attach_chorded_block(
    leaf: Graph,
    emb1,
    v_c: int,
    few: int,
    fw: int,
    diag: Diagnostics | None,
) -> tuple:
    xs, ys, _ = boundary_decompose(emb1)
    i = next(i for i, run in enumerate(ys) if v_c in run)
    xs, ys = xs[i:] + xs[:i], ys[i:] + ys[:i]
    if diag is not None:
        diag.step(f"cut vertex run length {len(ys[0])}")
    # a walk over xs, ys (from x1) that keeps v_c off the 2 of its run and
    # off the seam
    away = LabelK2Options(avoid2_hard=frozenset({v_c}),
                          avoid2_soft=frozenset(leaf.neighbors(v_c)),
                          endface_avoid=frozenset({v_c}))
    if len(ys[0]) > 1:
        return _attach_wide_gap(emb1, xs, ys, v_c, few, fw, away)
    return _attach_tight_gap(leaf, emb1, xs, ys, v_c, few, fw, away, diag)


def _attach_wide_gap(emb1, xs: list[int], ys: list[list[int]], v_c: int, few: int,
                     fw: int, away: LabelK2Options) -> tuple:
    """The cut vertex has a 2-vertex neighbor inside its run ``ys[0]``.

    One walk ``away`` from it, over the block's boundary decomposition
    ``xs, ys`` from ``xs[0]``: its start parity keeps ``v_c`` off the
    label ``fw``, and a bridge labeled 4 or 5 is matched by pinning the
    edge to a run neighbor of ``v_c`` not labeled 2, which then takes 3.
    """
    # the seam avoids v_c, so the walk gives v_c the label its run fill does
    run = ys[0]
    lab: dict[Element, int] = {}
    _fill_run(lab, 0, run, away)
    away.start_parity = int(lab[v_c] == fw)
    f1, _ = _walk_k2(emb1, xs, ys, away)
    if few in (4, 5):
        idx = run.index(v_c)
        good = [run[i] for i in (idx - 1, idx + 1)
                if 0 <= i < len(run) and f1.vertex(run[i]) != 2]
        if not good:
            raise InfeasibleTrace("both run neighbors of the cut vertex took 2")
        pin_outer_edge(f1, (good[0], v_c), few)
        f1.set_edge(good[0], v_c, 3)
    return "wide-gap attach", f1.assignment, None


# -- the tight-gap table -----------------------------------------------------


def run_ops(ops: Sequence[tuple], lab: dict, key: Callable[..., object],
            known: Mapping[str, int]) -> None:
    """Apply the case-table ops ``ops`` to ``lab``, in order.

    Ops name elements by the table's own names, which ``key`` maps to keys
    of ``lab``: ``key(a)`` for a vertex, ``key(a, b)`` for an edge.

      ("set_v", a, label)              ("set_e", a, b, label)
      ("choose_e", a, b, cands, excl)  the first of ``cands`` not excluded;
                                       an ``excl`` token is a name in
                                       ``known`` or ("e", a, b), that
                                       edge's label
      ("if_e", a, b, values, ops)      run ``ops`` when edge (a, b) took
                                       one of ``values``

    Raises CaseFault when a choice is left empty.
    """
    for op in ops:
        if op[0] == "set_v":
            lab[key(op[1])] = op[2]
        elif op[0] == "set_e":
            lab[key(op[1], op[2])] = op[3]
        elif op[0] == "choose_e":
            _, a, b, cands, excl = op
            banned = {known[tok] if tok in known else lab[key(*tok[1:])]
                      for tok in excl}
            pick = next((c for c in cands if c not in banned), None)
            if pick is None:
                raise CaseFault(f"empty choice for edge ({a},{b})")
            lab[key(a, b)] = pick
        elif op[0] == "if_e":
            if lab[key(op[1], op[2])] in op[3]:
                run_ops(op[4], lab, key, known)
        else:
            raise ValueError(f"unknown op {op[0]}")


class _Row(NamedTuple):
    """One row of ``TIGHT_GAP_ROWS``; see there."""

    name: str
    when: tuple  # (bridges, short chord, last run empty, ends merge, odd)
    vc: int
    ops: tuple
    trace: int | None = None
    mid: tuple[int, bool] = (1, False)
    chord: int = 3
    last: int | None = None
    run01: bool = False


_FAN, _LOW, _MID = ((5, 3), (4, 1), (4, 2)), ((4, 0),), ((3, 1), (3, 5))

# Rows of the tight-gap attach.  The near side of the chord (x1, xp) at the
# start x1 of the cut vertex's run is the boundary path x1, v_c, x2, ...,
# xm, [last run], xp: xm is the chord endpoint before xp (x1 when xp = x2)
# and y1 the vertex after xm.  The far side runs from v' (after xp) to u'
# (before x1).  The first row whose ``when`` matches the facts is written,
# None matching either value: bridge (few, fw), the labels of the bridge edge
# and of its far end; short chord, xp = x2; last run empty; ends merge,
# u' = v'; odd, the path has an odd number of edges.  Its fields fill runs:
#   chord  every near-side chord;
#   vc     v_c;
#   mid    (first, flip5): x2 .. xm alternate 0/1 from ``first``, the runs
#          between them are filled as a boundary walk fills them, and all
#          of it is complemented (z -> 5 - z) when ``flip5``;
#   trace  the path's edges from v_c to xp alternate within one pair (0/1
#          or 4/5) and end on ``trace``, or, when None, start on the bridge
#          label's partner (few ^ 1);
#   last   the last run alternates likewise and ends on ``last``, or, when
#          None, goes on from xm's label;
#   run01  the edges from y1 to v' alternate 0/1 from 0;
# then ``ops`` writes the fixed labels over the names x1, v_c, xm, y1, xp,
# v' and u' (``run_ops``).  The low-bridge rows split on the path's parity:
# the label their trace ends on changes their fills, not only fixed labels.
TIGHT_GAP_ROWS = (
    _Row("tight-gap fan", (_FAN, False, False, True, None), 0, (
        ("set_v", "x1", 5), ("set_v", "xp", 4), ("set_v", "u'", 3),
        ("set_e", "x1", "v_c", 3), ("set_e", "x1", "xp", 2), ("set_e", "xm", "y1", 2),
        ("if_e", "xp", "u'", (0,), [("set_e", "x1", "u'", 1)]),
        ("if_e", "xp", "u'", (1,), [("set_e", "x1", "u'", 0)])), last=5, run01=True),
    _Row("tight-gap fan stub", (_FAN, False, False, False, None), 0, (
        ("set_v", "x1", 5), ("set_v", "xp", 4), ("set_v", "u'", 4), ("set_v", "v'", 5),
        ("set_e", "x1", "v_c", 3), ("set_e", "x1", "xp", 2), ("set_e", "xm", "y1", 2),
        ("set_e", "x1", "u'", 1)), last=5, run01=True),
    _Row("tight-gap fan ends", (_FAN, False, True, True, None), 0, (
        ("set_v", "x1", 5), ("set_e", "x1", "v_c", 3), ("set_e", "x1", "u'", 2),
        ("if_e", "xm", "xp", (5,), [("set_v", "xp", 3), ("set_v", "u'", 4),
                                    ("set_e", "x1", "xp", 1), ("set_e", "xp", "u'", 0)]),
        ("if_e", "xm", "xp", (4,), [("set_v", "xp", 2), ("set_v", "u'", 0),
                                    ("set_e", "x1", "xp", 0), ("set_e", "xp", "u'", 5)]))),
    _Row("tight-gap fan-ends stub", (_FAN, False, True, False, None), 0, (
        ("set_v", "x1", 4), ("set_v", "xp", 5), ("set_v", "u'", 5), ("set_v", "v'", 4),
        ("set_e", "x1", "v_c", 2), ("set_e", "x1", "xp", 0), ("set_e", "xm", "xp", 2),
        ("set_e", "x1", "u'", 1), ("set_e", "xp", "v'", 1))),
    _Row("short-chord ends", (_FAN, True, None, True, None), 0, (
        ("set_v", "x1", 5), ("set_v", "xp", 2), ("set_v", "u'", 0),
        ("set_e", "x1", "v_c", 3), ("set_e", "x1", "xp", 0), ("set_e", "x1", "u'", 2),
        ("if_e", "v_c", "xp", (4,), [("set_e", "xp", "u'", 5)]),
        ("if_e", "v_c", "xp", (5,), [("set_e", "xp", "u'", 4)]))),
    _Row("short-chord stub", (_FAN, True, None, False, None), 0, (
        ("set_v", "x1", 5), ("set_v", "xp", 4), ("set_v", "u'", 4), ("set_v", "v'", 5),
        ("set_e", "x1", "v_c", 3), ("set_e", "x1", "xp", 0), ("set_e", "x1", "u'", 1),
        ("set_e", "xp", "v'", 1)), trace=2),
    # the trace (5, 4, ...) ends on 4 exactly when the path is odd
    _Row("tight-gap low-bridge ends, odd path", (_LOW, None, None, True, True), 2, (
        ("set_v", "x1", 3), ("set_v", "xp", 2), ("set_v", "u'", 5),
        ("set_e", "x1", "v_c", 0), ("set_e", "x1", "xp", 5), ("set_e", "x1", "u'", 1),
        ("set_e", "xp", "u'", 0))),
    _Row("tight-gap low-bridge stub, odd path", (_LOW, None, None, False, True), 2, (
        ("set_v", "x1", 3), ("set_v", "xp", 2), ("set_v", "u'", 4), ("set_v", "v'", 5),
        ("set_e", "x1", "v_c", 0), ("set_e", "x1", "xp", 5), ("set_e", "x1", "u'", 1),
        ("set_e", "xp", "v'", 0))),
    _Row("tight-gap low-bridge ends, even path", (_LOW, None, None, True, False), 1, (
        ("set_v", "x1", 5), ("set_v", "xp", 3), ("set_v", "u'", 4),
        ("set_e", "x1", "v_c", 3), ("set_e", "x1", "xp", 0), ("set_e", "x1", "u'", 2),
        ("set_e", "xp", "u'", 1)), mid=(0, False)),
    _Row("tight-gap low-bridge stub, even path", (_LOW, None, None, False, False), 1, (
        ("set_v", "x1", 5), ("set_v", "xp", 3), ("set_v", "u'", 4), ("set_v", "v'", 5),
        ("set_e", "x1", "v_c", 3), ("set_e", "x1", "xp", 0), ("set_e", "x1", "u'", 1),
        ("set_e", "xp", "v'", 1)), mid=(0, False)),
    _Row("tight-gap mid-bridge ends", (_MID, False, None, True, None), 0, (
        ("set_v", "x1", 5), ("set_v", "xp", 2), ("set_v", "u'", 0),
        ("set_e", "x1", "v_c", 2), ("set_e", "x1", "xp", 0), ("set_e", "x1", "u'", 3),
        ("set_e", "xp", "u'", 4)), trace=5),
    _Row("tight-gap mid-bridge stub", (_MID, False, None, False, None), 0, (
        ("set_v", "x1", 5), ("set_v", "xp", 3), ("set_v", "u'", 4), ("set_v", "v'", 5),
        ("set_e", "x1", "v_c", 2), ("set_e", "x1", "xp", 0), ("set_e", "x1", "u'", 1),
        ("set_e", "xp", "v'", 1)), trace=5),
    _Row("tight-gap flipped ends", (((3, 0),), False, None, True, None), 5, (
        ("set_v", "x1", 0), ("set_v", "xp", 2), ("set_v", "u'", 1),
        ("set_e", "x1", "v_c", 2), ("set_e", "x1", "xp", 4), ("set_e", "x1", "u'", 3),
        ("set_e", "xp", "u'", 5)), trace=0, mid=(1, True), chord=2),
    _Row("tight-gap flipped stub", (((3, 0),), False, None, False, None), 5, (
        ("set_v", "x1", 0), ("set_v", "xp", 2), ("set_v", "u'", 1), ("set_v", "v'", 0),
        ("set_e", "x1", "v_c", 2), ("set_e", "x1", "xp", 4), ("set_e", "x1", "u'", 5),
        ("set_e", "xp", "v'", 5)), trace=0, mid=(1, True), chord=2),
    _Row("short-chord ends, bridge 3", (((3, 0), (3, 1)), True, None, True, None), 5, (
        ("set_v", "x1", 0), ("set_v", "xp", 2), ("set_v", "u'", 1),
        ("set_e", "x1", "v_c", 2), ("set_e", "x1", "xp", 5), ("set_e", "x1", "u'", 3),
        ("set_e", "xp", "u'", 4)), trace=0),
    _Row("short-chord stub, bridge 3", (((3, 0), (3, 1)), True, None, False, None), 5, (
        ("set_v", "x1", 0), ("set_v", "xp", 2), ("set_v", "u'", 1), ("set_v", "v'", 0),
        ("set_e", "x1", "v_c", 2), ("set_e", "x1", "xp", 5), ("set_e", "x1", "u'", 4),
        ("set_e", "xp", "v'", 4)), trace=0),
    _Row("short-chord ends, bridge 3 at 5", (((3, 5),), True, None, True, None), 0, (
        ("set_v", "x1", 4), ("set_v", "xp", 2), ("set_v", "u'", 3),
        ("set_e", "x1", "v_c", 2), ("set_e", "x1", "xp", 0), ("set_e", "x1", "u'", 1),
        ("set_e", "xp", "u'", 5)), trace=4),
    _Row("short-chord stub, bridge 3 at 5", (((3, 5),), True, None, False, None), 0, (
        ("set_v", "x1", 3), ("set_v", "xp", 5), ("set_v", "u'", 5), ("set_v", "v'", 4),
        ("set_e", "x1", "v_c", 5), ("set_e", "x1", "xp", 0), ("set_e", "x1", "u'", 1),
        ("set_e", "xp", "v'", 1)), trace=2),
)


def _alternate_run(ext: dict[Element, int], seq: Sequence[Element], first: int,
                   last: int | None = None) -> None:
    """Label ``seq`` by one label pair in turn (0/1 or 4/5): from ``first``,
    or so that it ends on ``last`` when that is given."""
    if last is not None:
        first = last ^ ((len(seq) - 1) % 2)
    for i, z in enumerate(seq):
        ext[z] = first ^ (i % 2)


def _attach_tight_gap(
    leaf: Graph,
    emb1,
    xs: list[int],
    ys: list[list[int]],
    v_c: int,
    few: int,
    fw: int,
    away: LabelK2Options,
    diag: Diagnostics | None,
) -> tuple:
    """The cut vertex sits alone between two chord endpoints.

    A bridge labeled 5 whose neighbor is not labeled 3 takes the block's
    boundary walk ``away`` from ``v_c``, complemented; every other context
    writes the first ``TIGHT_GAP_ROWS`` row its facts match, and leaves
    the far side beyond the chord ``(x1, xp)`` to reattach unless its ends
    merge.
    """
    x1 = xs[0]
    inner = emb1.inner_edges
    xp = next(z for z in leaf.neighbors(x1) if _E(x1, z) in inner)
    pprime = xs.index(xp) + 1
    order = _rotate_to(emb1.boundary, x1)
    idx_z = order.index(xp)
    far = order[idx_z + 1:]  # the boundary beyond the chord (x1, xp)
    same = far[0] == far[-1]
    if diag is not None:
        diag.step(
            f"tight gap: bridge={few} attach={fw} span-to-mate={pprime} "
            f"ends-merge={same}"
        )

    if few == 5 and fw != 3:
        f1, _ = _walk_k2(emb1, xs, ys, away)
        return "tight-gap flip attach", {z: 5 - l for z, l in f1.assignment.items()}, None

    m1 = order.index(xs[pprime - 2])  # xm; x1 for a short chord
    last_run = order[m1 + 1:idx_z] if pprime > 2 else []
    facts = ((few, fw), pprime == 2, not last_run, same, idx_z % 2 == 1)
    row = next(r for r in TIGHT_GAP_ROWS if facts[0] in r.when[0] and all(
        want is None or want == fact for want, fact in zip(r.when[1:], facts[1:])))

    near = set(order[:idx_z + 1])
    ext: dict[Element, int] = {
        e: row.chord for e in inner if e[0] in near and e[1] in near}
    ext[v_c] = row.vc
    first, flip5 = row.mid
    mid_xs = xs[1:pprime - 1]
    for j, xv in enumerate(mid_xs):
        ext[xv] = 5 - (first ^ (j % 2)) if flip5 else first ^ (j % 2)
    for j, run in enumerate(ys[1:pprime - 2]):
        _fill_run(ext, first ^ (j % 2), run, LabelK2Options(), flip5=flip5)
    path = [_E(order[j], order[j + 1]) for j in range(idx_z + 1)]  # x1 to v'
    _alternate_run(ext, path[1:idx_z], few ^ 1, row.trace)
    if last_run:
        _alternate_run(ext, last_run, ext[order[m1]] ^ 1, row.last)
    if row.run01:
        _alternate_run(ext, path[m1 + 1:], 0)
    roles = {"x1": x1, "v_c": v_c, "xm": order[m1], "y1": order[m1 + 1], "xp": xp,
             "v'": far[0], "u'": far[-1]}

    def key(*names: str) -> Element:
        ids = [roles[name] for name in names]
        return ids[0] if len(ids) == 1 else _E(*ids)

    run_ops(row.ops, ext, key, {})
    return row.name, ext, None if same else (x1, xp, far)
