"""Command-line interface.

JSON results go to stdout, human-readable summaries to stderr.  Exit codes:
0 success, 1 failed verification, 2 input/parse error (a file that cannot
be read or written too), 3 not outerplanar,
4 unsupported input: a maximum degree no labeler serves, or (``exact``) more
elements than the exhaustive search's element cap, 5 labeler fault: a
case table failed its check, or a labeler found no verified labeling or
spent a completion search's node budget (``delta3.InfeasibleTrace``), with
its message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import generators, io
from .delta3 import Diagnostics, InfeasibleTrace
from .embedding import NotOuterplanar, recognize_embed
from .exact import SearchCapExceeded, SearchStats, lambda_exact
from .graphs import Graph
from .labeling import span, verify
from .pipeline import UnsupportedDegree, label_outerplanar
from .structure import enumerate_chains, find_configuration

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_NOT_OUTERPLANAR = 3
EXIT_UNSUPPORTED = 4
EXIT_LABELER = 5


def _read_text(path: str) -> str:
    """A file's text, or stdin's for ``-``, without a leading byte-order mark."""
    if path == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    return Path(path).read_text(encoding="utf-8-sig")


def _load_graph(path: str, fmt: str) -> Graph:
    return io.parse_graph(_read_text(path), fmt)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_label(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    diag = Diagnostics() if args.emit_case_trace else None
    # raises NotOuterplanar on a non-outerplanar host, and never returns a
    # labeling that fails verification
    f = label_outerplanar(g, fallback_search=args.fallback_search, diag=diag)
    print(io.labeling_to_text(f))
    _say(
        f"labeled n={g.n} m={g.m} max_degree={g.max_degree()} "
        f"span={span(f)} verified=yes"
    )
    if diag is not None:
        for line in diag.trace:
            _say(f"trace: {line}")
        for rec in diag.records:
            _say(f"note: {rec}")
    if args.dot:
        try:
            Path(args.dot).write_text(io.to_dot(g, f), encoding="utf-8")
        except OSError as exc:
            _say(f"output error: cannot write the DOT rendering to {args.dot}: "
                 f"{exc.strerror or exc} (the labeling was printed)")
            return EXIT_PARSE
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    data = json.loads(_read_text(args.labeling))
    f = io.labeling_from_json(data, g)
    bad = verify(f, args.p)
    report = {"ok": not bad, "violations": [
        {"kind": v.kind, "witnesses": [list(w) if isinstance(w, tuple) else w
                                       for w in v.witnesses]}
        for v in bad
    ]}
    print(json.dumps(report))
    _say("ok" if not bad else f"{len(bad)} violations")
    return EXIT_OK if not bad else EXIT_INVALID


def cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    stats = SearchStats()
    t0 = time.perf_counter()
    value, witness = lambda_exact(g, args.p, args.kmax, stats=stats)
    dt = time.perf_counter() - t0
    out = {"lambda": value}
    if witness is not None:
        out["witness"] = io.labeling_to_json(witness)
    print(json.dumps(out))
    _say(f"search: nodes={stats.nodes} calls={stats.calls} time={dt:.3f}s")
    if value is None:
        _say(f"no labeling within kmax={args.kmax}")
    return EXIT_OK


def cmd_structure(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    emb = recognize_embed(g)
    out = {"embedding": io.embedding_to_json(emb)}
    if g.n and g.min_degree() == 2:
        cfg = find_configuration(emb)
        out["configuration"] = {"kind": cfg.kind, "witnesses": list(cfg.witnesses)}
    chains = enumerate_chains(emb)
    out["chains"] = [
        {
            "spine": list(c.spine),
            "t": c.t,
            "closing_inner_edge": list(c.closing_inner_edge)
            if c.closing_inner_edge
            else None,
            "attachments": list(c.attachments) if c.attachments else None,
        }
        for c in chains
    ]
    print(json.dumps(out))
    _say(f"blocks={len(emb.blocks)} chords={len(emb.inner_edges)} chains={len(chains)}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    entry = {
        "kind": args.kind,
        "n": args.n,
        "t": args.t,
        "seed": args.seed,
        "edge_keep_prob": args.edge_keep_prob,
    }
    if args.max_degree or args.min_degree:
        cons = {}
        if args.max_degree:
            cons["max_degree"] = args.max_degree
        if args.min_degree:
            cons["min_degree"] = args.min_degree
        entry["constraints"] = cons
    g = generators.corpus_graph(entry)
    if args.format == "json":
        print(io.dump_graph_json(g))
    elif not g.m:  # an empty edge list does not parse back
        raise ValueError(f"an edge list cannot hold a graph without edges (n={g.n}); "
                         "use --format json")
    else:
        sys.stdout.write(io.dump_edgelist(g))
    _say(f"generated n={g.n} m={g.m} max_degree={g.max_degree()}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    entries = generators.load_manifest(args.manifest)
    rows = []
    for entry in entries:
        g = generators.corpus_graph(entry)
        f = label_outerplanar(g)  # raises rather than return an invalid labeling
        row = {
            "name": entry.get("name", entry["kind"]),
            "n": g.n,
            "max_degree": g.max_degree(),
            "span": span(f),
            "verified": True,
        }
        if args.oracle and g.n + g.m <= args.oracle_cap:
            value, _ = lambda_exact(g, 2, g.max_degree() + 2, cap=args.oracle_cap)
            row["lambda"] = value
        rows.append(row)
    print(json.dumps({"rows": rows}))
    _say(f"{len(rows)}/{len(rows)} instances verified")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="outerlabel",
        description="(2,1)-total labeling of outerplanar graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="graph file, or - for stdin")
        p.add_argument(
            "--format", choices=("edgelist", "json"), default="edgelist"
        )

    p = sub.add_parser("label", help="construct a verified labeling")
    add_graph_opts(p)
    p.add_argument("--fallback-search", action="store_true",
                   help="allow exhaustive search for maximum degree >= 5 "
                        "(experimental)")
    p.add_argument("--emit-case-trace", action="store_true")
    p.add_argument("--dot", metavar="OUT", help="also write a DOT rendering")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="check a labeling file")
    add_graph_opts(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("labeling", help="labeling JSON file, or -")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exact optimum by exhaustive search")
    add_graph_opts(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("structure", help="embedding, configurations, chains")
    add_graph_opts(p)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("gen", help="emit a corpus graph")
    p.add_argument("--kind", default="random",
                   choices=("cycle", "path", "fan", "closed_chain", "random",
                            "glued"))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-keep-prob", type=float, default=0.5)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--min-degree", type=int)
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="label every manifest entry and report")
    p.add_argument("manifest")
    p.add_argument("--oracle", action="store_true",
                   help="also compute exact optima on small instances")
    p.add_argument("--oracle-cap", type=int, default=22)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (io.FormatError, OSError, json.JSONDecodeError) as exc:
        _say(f"input error: {exc}")
        return EXIT_PARSE
    except NotOuterplanar as exc:
        _say(f"not outerplanar: {exc}")
        return EXIT_NOT_OUTERPLANAR
    except (UnsupportedDegree, SearchCapExceeded) as exc:
        _say(str(exc))
        return EXIT_UNSUPPORTED
    except InfeasibleTrace as exc:
        _say(f"labeler fault: {exc}")
        return EXIT_LABELER
    except ValueError as exc:
        _say(f"error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
