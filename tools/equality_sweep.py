"""Compare the labelings of two source trees, input by input.

    python tools/equality_sweep.py --parent OTHER/src --change src [--glued 2000]

Each ``SRC`` holds an ``outerlabel`` package; it is imported in a fresh
process, which labels every input with ``label_outerplanar`` and a
``Diagnostics`` and reports, per input, six digests:

* ``labels``: the assignment as sorted items, or the exception raised;
* ``records``: the ``(event, where)`` records;
* ``trace``: the step trace lines;
* ``json``: what ``outerlabel label`` prints for it: the graph is read
  back from its ``io.dump_edgelist`` text (or the exception raised is
  digested), and its ``io.dump_graph_json`` text is fed on stdin to
  ``cli.main(["label", "-", "--format", "json"])``, whose exit code,
  stdout and stderr are digested;
* ``search``: for an input of at most 33 elements (vertices and edges),
  ``lambda_exact(g, 2, Δ+2, cap=33)``'s λ, the witness items in
  insertion order, and the search's ``nodes`` and ``calls``, so the
  exact search's tree is compared input by input (a larger input digests
  an empty string);
* ``embedding``: ``json.dumps(io.embedding_to_json(recognize_embed(g)))``,
  or the ``NotOuterplanar`` message, so recognition's blocks, chords,
  faces and rejections are compared too.

``labels`` leaves insertion order out on purpose: the inputs must get
equal labels, not equal dict histories.  ``json`` keeps it, as the vertex
labels are written in the assignment's order, and sweeps the edge-list
parser and the bytes the CLI writes too.
The inputs:

* both corpus manifests (``corpus/delta{3,4}_manifest.json``);
* the seed-0 ``block`` and ``reduce`` inputs of the benchmark, built as
  ``perfbench/workloads.py`` builds them (read, not changed);
* every dissection of a 4- to 9-gon with maximum degree 3 or 4 (2,302),
  from this tree's ``generators.py``;
* ``--glued`` glued hosts, Δ = 3 and 4 in turn, and a disjoint union of
  two of them for every tenth;
* the glued Δ = 3 hosts whose reattachment re-chooses a junction vertex
  (``LEMMA1_SEEDS``), and the glued Δ = 4 hosts with a
  widened C1 completion or a junction patch on its second free set
  (``REPAIR_SEEDS``), which ``--glued 2000`` misses;
* bridged, capped(·, 4), strip, pentagon-leaf, sun and sun-necklace hosts
  on about 100 to 1,600 vertices, the last four from this tree's
  ``generators.py``;
* the ``tight`` group: 21 tight-gap leaf shapes
  (``tests/test_delta3_surgery.py::tight_block``), each with its cut vertex
  bridged to the smallest vertex of degree at most 2 of 60 small glued
  Δ = 3 hosts, keeping those of maximum degree 3 (1,260 hosts); they reach
  every row of the tight-gap attach table;
* the ``chains`` group: for each seed s < 2,000, 2 to 5 pieces, each a
  merged closed chain of 2 to 7 triangles (with probability 2/3) or a sun
  of 3 to 7 ears, each piece after the first bridged from a random earlier
  vertex of degree at most 3 to one of its own; the vertex ids are then
  shuffled, and the hosts of maximum degree 4 are kept.  Their chain steps
  reach all four chain template cases;
* the ``rejected`` group: K4, K2,3 and the 126 graphs made by subdividing
  some of their edges once, every dissection of a 4- to 9-gon that has a
  chord, plus a chord crossing its first one, under a seeded relabeling,
  and 500 glued Δ = 3 and 4 hosts, each plus one to three seeded random
  vertex pairs as edges.
  All but some of the last are not outerplanar, so every message that
  recognition raises is compared.

Both trees label the same hosts: those from this tree's ``generators.py``
are built by it whichever tree is imported, and the tight-gap leaves by
this tree's test module.  Prints the count of inputs
per group, with the mismatches of each part, and how many inputs the
``search`` part searched, then for each tree how many inputs it rejected
as not outerplanar, how many
inputs logged each repair event (its fallback rate), how many chain steps
ran each chain template case and how many lines its ``outerlabel`` package
has, then every mismatching input and its parts, and exits 1 if there is
one.  This is an opt-in check for
changes that must keep outputs, not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as textio
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEMMA1_SEEDS = (3442, 3992, 4224, 6402, 6718)  # glued seeds, Δ = 3
REPAIR_SEEDS = ((954, 4), (476, 4))  # glued (seed, Δ)
PARTS = ("labels", "records", "trace", "json", "search", "embedding")
SEARCH_CAP = 33  # elements


def inputs(glued: int):
    """(group, name, graph) for every input, built with the imported package."""
    import types

    from outerlabel import generators as gen
    from outerlabel import io
    from outerlabel.graphs import Graph

    sys.path.insert(0, str(ROOT / "perfbench"))
    import families
    import scaling_sweep  # beside this file
    import workloads
    here = scaling_sweep.local_generators()
    ol = types.SimpleNamespace(graphs=types.SimpleNamespace(Graph=Graph), generators=gen,
                               io=io)
    for delta in (3, 4):
        for entry in gen.load_manifest(ROOT / "corpus" / f"delta{delta}_manifest.json"):
            yield "manifests", entry["name"], gen.corpus_graph(entry)
    for group, make in (("block", workloads._block_ops),
                        ("reduce", workloads._reduce_ops)):
        with tempfile.TemporaryDirectory() as tmp:  # they also write edge lists
            for op in make(ol, 0, Path(tmp)):
                yield group, op.name, op.graph
    for n in range(4, 10):
        for d in here.enumerate_dissections(n):
            if d.max_degree() in (3, 4):
                kept = [e for e in d.edges if (e[1] - e[0]) % n not in (1, n - 1)]
                yield "dissections", f"n{n}:{kept}", Graph.from_edges(d.edges)
    for s in range(glued):
        g = gen.gen_glued_outerplanar(20 + s % 60, s, {"max_degree": 3 + s % 2})
        yield "glued", f"glued{s}", g
        if s % 10 == 0:
            h = gen.gen_glued_outerplanar(10 + s % 30, s + 1, {"max_degree": 3 + s % 2})
            shift = max(g.vertices) + 1
            yield "unions", f"union{s}", Graph.from_edges(
                list(g.edges) + [(u + shift, v + shift) for u, v in h.edges])
    for s in LEMMA1_SEEDS:
        yield "lemma1", f"glued{s}", gen.gen_glued_outerplanar(
            20 + s % 60, s, {"max_degree": 3})
    for s, d in REPAIR_SEEDS:
        yield "repairs", f"glued{s}", gen.gen_glued_outerplanar(
            20 + s % 60, s, {"max_degree": d})
    for n in (100, 400, 1600):
        yield "families", f"bridged{n}", Graph.from_edges(
            families.bridged(max(1, round(n / 6)), f"sweep:bridged:{n}"))
        yield "families", f"capped4-{n}", Graph.from_edges(
            families.capped_polygon(n, 4, f"sweep:capped4:{n}"))
        yield "families", f"strip{n}", Graph.from_edges(here.gen_strip(n).edges)
        yield "families", f"pentagon_leaves{n}", Graph.from_edges(
            here.gen_pentagon_leaves(round(n / 6)).edges)
        yield "families", f"sun{n}", Graph.from_edges(here.gen_sun(n // 2).edges)
        yield "families", f"sun_necklace{n}", Graph.from_edges(
            here.gen_sun_necklace(n // 8).edges)
    sys.path.insert(0, str(ROOT / "tests"))
    from test_delta3_surgery import join_leaf, tight_block
    shapes = [(2, 0, 0, f) for f in (1, 2, 3)] + [
        (4, q2, q3, f) for q2 in (1, 2) for q3 in (0, 1, 2) for f in (1, 2, 3)]
    for s in range(60):
        host = gen.gen_glued_outerplanar(8 + s % 10, s, {"max_degree": 3})
        at = min(v for v in host.vertices if host.degree(v) <= 2)
        for shape in shapes:
            g = join_leaf(*tight_block(*shape), host, at)
            if g.max_degree() == 3:
                yield "tight", f"tight{shape}@glued{s}", g
    for s in range(2000):
        g = chain_host(here, random.Random(s))
        if g.max_degree() == 4:
            yield "chains", f"chains{s}", Graph.from_edges(g.edges)
    yield from (("rejected", name, g) for name, g in rejected_hosts(here, gen))


def rejected_hosts(here, gen):
    """(name, graph) for the ``rejected`` group: ``here`` is this tree's
    ``generators.py``, ``gen`` the imported package's."""
    from outerlabel.graphs import Graph, norm_edge
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    k23 = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    for base, edges in (("K4", k4), ("K2,3", k23)):
        for mask in range(64):  # subdivide edge i once when bit i is set
            out, fresh = [], 5
            for i, (u, v) in enumerate(edges):
                if mask >> i & 1:
                    out += [(u, fresh), (fresh, v)]
                    fresh += 1
                else:
                    out.append((u, v))
            yield f"{base}:{mask}", Graph.from_edges(out)
    r = random.Random(34)
    for n in range(4, 10):
        perm = list(range(n))
        r.shuffle(perm)
        for d in here.enumerate_dissections(n):
            for a, b in d.edges:  # the first chord, and one crossing it
                if (b - a) % n not in (1, n - 1):
                    cross = (a + 1, (b + 1) % n)
                    yield f"n{n}:{sorted(d.edges)}+{cross}", Graph(range(n), [
                        norm_edge(perm[x], perm[y]) for x, y in [*d.edges, cross]])
                    break
    for s in range(500):
        g = gen.gen_glued_outerplanar(20 + s % 60, s, {"max_degree": 3 + s % 2})
        edges = set(g.edges)
        for _ in range(r.randint(1, 3)):
            edges.add(norm_edge(*r.sample(g.vertices, 2)))
        yield f"glued{s}+{len(edges) - g.m}", Graph(g.vertices, sorted(edges))


def chain_host(gen, r: random.Random):
    """Closed chains and suns bridged into a tree of pieces, ids shuffled."""
    edges: list[tuple[int, int]] = []
    degree: Counter = Counter()
    n = 0
    for i in range(r.randint(2, 5)):
        piece = (gen.gen_closed_chain(r.randint(2, 7), "merged") if r.randrange(3) < 2
                 else gen.gen_sun(r.randint(3, 7)))
        own = [(u + n, v + n) for u, v in piece.edges]
        if i:
            earlier = [v for v in range(n) if degree[v] <= 3]
            later = [v + n for v in piece.vertices if piece.degree(v) <= 3]
            own.append((r.choice(earlier), r.choice(later)))
        edges += own
        degree.update(v for e in own for v in e)
        n += piece.n
    ids = list(range(n))
    r.shuffle(ids)
    return gen.Graph.from_edges((ids[u], ids[v]) for u, v in edges)


def printed(cli, text: str) -> str:
    """``outerlabel label - --format json`` on ``text``: exit code, stdout, stderr."""
    out, err = textio.StringIO(), textio.StringIO()
    stdin, sys.stdin = sys.stdin, textio.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["label", "-", "--format", "json"])
    finally:
        sys.stdin = stdin
    return f"{code}\n{out.getvalue()}{err.getvalue()}"


def child(glued: int) -> None:
    from outerlabel import cli, delta4, io
    from outerlabel.delta3 import Diagnostics
    from outerlabel.embedding import NotOuterplanar, recognize_embed
    from outerlabel.exact import SearchStats, lambda_exact
    from outerlabel.pipeline import label_outerplanar

    template, cases = delta4.chain_template, []

    def recording(case_id, t, ctx):
        cases.append(case_id)
        return template(case_id, t, ctx)

    delta4.chain_template = recording
    for group, name, g in inputs(glued):
        diag = Diagnostics()
        cases.clear()
        try:
            f = label_outerplanar(g, diag=diag)
            out = repr(sorted(f.assignment.items(), key=repr))
        except Exception as exc:  # a raise must be the same on both sides
            out = f"{type(exc).__name__}: {exc}"
        records = repr([(r.get("event"), r.get("where")) for r in diag.records])
        steps = list(cases)
        try:
            h = io.parse_edgelist(io.dump_edgelist(g))
        except Exception as exc:
            written = f"{type(exc).__name__}: {exc}"
        else:
            written = printed(cli, io.dump_graph_json(h))
        searched = ""
        if g.n + g.m <= SEARCH_CAP:
            stats = SearchStats()
            lam, witness = lambda_exact(g, 2, g.max_degree() + 2, cap=SEARCH_CAP,
                                        stats=stats)
            searched = repr((lam, witness and list(witness.assignment.items()),
                             stats.nodes, stats.calls))
        try:
            embedded = json.dumps(io.embedding_to_json(recognize_embed(g)))
            rejected = False
        except NotOuterplanar as exc:
            embedded, rejected = f"NotOuterplanar: {exc}", True
        digests = [hashlib.sha256(part.encode()).hexdigest()
                   for part in (out, records, "\n".join(diag.trace), written, searched,
                                embedded)]
        events = sorted({str(r.get("event")) for r in diag.records})
        print(json.dumps([group, name, *digests, events, steps, rejected]))


def run(src: str, glued: int) -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(glued)],
        # no bytecode caches in either tree: a later benchmark run would
        # compare a compiled tree with an uncompiled one
        env={"PYTHONPATH": str(Path(src).resolve()), "PATH": "",
             "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.PIPE, check=True, text=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="source directory of the reference tree")
    ap.add_argument("--change", help="source directory of the changed tree")
    ap.add_argument("--glued", type=int, default=2000, help="glued hosts to label")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        child(args.child)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    parent, change = run(args.parent, args.glued), run(args.change, args.glued)
    if [row[:2] for row in parent] != [row[:2] for row in change]:
        print("the two trees built different inputs", file=sys.stderr)
        return 1
    counts = Counter(row[0] for row in parent)
    counts["total"] = len(parent)
    bad = []  # (group, name, the parts that differ)
    for p, c in zip(parent, change):
        parts = [part for part, a, b in zip(PARTS, p[2:], c[2:]) if a != b]
        if parts:
            bad.append((p[0], p[1], parts))
    for group, n in counts.items():
        wrong = [b[2] for b in bad if group in ("total", b[0])]
        each = "  ".join(f"{part} {sum(part in w for w in wrong):4d}" for part in PARTS)
        print(f"{group:12s} {n:6d} inputs {len(wrong):4d} mismatches: {each}")
    unsearched = hashlib.sha256(b"").hexdigest()
    searched = sum(row[2 + PARTS.index("search")] != unsearched for row in parent)
    print(f"inputs of at most {SEARCH_CAP} elements, searched exactly: {searched}")
    for side, src, rows in (("parent", args.parent, parent), ("change", args.change, change)):
        rejected = Counter(row[0] for row in rows if row[-1])
        each = "  ".join(f"{group} {n}" for group, n in sorted(rejected.items()))
        print(f"{side} inputs rejected as not outerplanar: {each or 'none'}")
        logged = Counter(event for row in rows for event in row[-3])
        each = "  ".join(f"{event} {n}" for event, n in sorted(logged.items()))
        print(f"{side} inputs logging each event: {each or 'none'}")
        steps = Counter(case for row in rows for case in row[-2])
        each = "  ".join(f"case {case} {n}" for case, n in sorted(steps.items()))
        print(f"{side} chain steps per template case: {each or 'none'}")
        lines = sum(len(p.read_text().splitlines())
                    for p in (Path(src) / "outerlabel").glob("*.py"))
        print(f"{side} lines in {src}/outerlabel/*.py: {lines}")
    for group, name, parts in bad:
        print(f"mismatch: {group} {name} ({', '.join(parts)})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
