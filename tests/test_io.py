from __future__ import annotations

import json
import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerlabel import generators as gen
from outerlabel import embedding, io
from outerlabel.embedding import recognize_embed
from outerlabel.exact import SearchStats, lambda_exact
from outerlabel.graphs import Graph
from outerlabel.labeling import TotalLabeling, verify
from outerlabel.pipeline import label_outerplanar


def test_edgelist_roundtrip():
    g = gen.gen_closed_chain(2, "merged")
    assert io.parse_edgelist(io.dump_edgelist(g)) == g


def test_edgelist_comments_and_errors():
    g = io.parse_edgelist("# a comment\n0 1\n1 2  # trailing\n\n")
    assert g.edges == ((0, 1), (1, 2))
    with pytest.raises(io.FormatError):
        io.parse_edgelist("0 1 2\n")
    with pytest.raises(io.FormatError):
        io.parse_edgelist("a b\n")
    with pytest.raises(io.FormatError):
        io.parse_edgelist("")


def _scanned_edgelist(text: str) -> Graph:
    """``io.parse_edgelist`` as it was, one line at a time: the reference for
    the one-pass read."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise io.FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise io.FormatError(f"line {lineno}: non-integer vertex id") from exc
        if u < 0 or v < 0:
            raise io.FormatError(f"line {lineno}: vertex ids must be nonnegative")
        edges.append((u, v))
    if not edges:
        raise io.FormatError("empty edge list")
    return Graph.from_edges(edges)


def _read(parse, text: str):
    """The graph ``parse`` reads from ``text``, or its error's type and message."""
    try:
        return parse(text)
    except ValueError as exc:  # a FormatError, or a self-loop from Graph.from_edges
        return type(exc), str(exc)


_ID = st.one_of(st.integers(0, 6).map(str), st.sampled_from(
    ["007", "12", "-1", "-0", "+3", "x", "1.5", "\u0663", "1_0", "#", "9" * 5000]))
_GAP = st.sampled_from([" ", "  ", "\t", " \t", "\x0b"])
_PAIR = st.tuples(_ID, _GAP, _ID).map("".join)
_LINE = st.one_of(
    _PAIR, _PAIR, _PAIR,
    st.tuples(st.sampled_from(["", " ", "\t"]), _PAIR, st.sampled_from(["", " ", "\t"]),
              st.sampled_from(["", "# note", " #1 2"])).map("".join),
    st.lists(_ID, min_size=1, max_size=4).map(" ".join),  # wrong token counts
    st.sampled_from(["", " ", "\t ", "# comment", "  # 1 2"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\n", "\r\n", "\r"])), max_size=8),
       st.booleans())
def test_one_pass_read_matches_the_line_scan(lines, closed):
    # comments, blank lines, CRLF, tabs, wrong token counts, non-integers
    # (an id longer than ``int`` converts too), negatives and self-loops: an
    # equal graph, or the same error and message
    text = "".join(line + end for line, end in lines)
    if not closed and text:
        text = text[:-1]
    got, want = _read(io.parse_edgelist, text), _read(_scanned_edgelist, text)
    assert got == want
    if isinstance(want, Graph):
        assert got.m == want.m and got._adj == want._adj


def test_written_edge_lists_take_the_one_pass_read(monkeypatch):
    def scan(text):
        raise AssertionError("a written edge list went to the line scan")

    hosts = [gen.gen_closed_chain(3, "merged"), gen.gen_strip(40),
             Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 10), (10, 11)])]
    texts = [io.dump_edgelist(g) for g in hosts]
    texts += [texts[0].replace("\n", "\r\n"), texts[1].rstrip("\n"),
              texts[2].replace(" ", " \t ") + "\n  \n"]
    monkeypatch.setattr(io, "_scan_edgelist", scan)
    for g, text in zip(hosts * 2, texts):
        assert io.parse_edgelist(text) == g


# The plain-line check as it was, one ``fullmatch`` per ``splitlines()`` line:
# the reference for the whole-text check.
_OLD_PLAIN_LINE = re.compile(r"[ \t]*(?:[0-9]+[ \t]+[0-9]+[ \t]*)?")
_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
_CHARS = st.sampled_from([*"0123456789", *"0123456789", " ", " ", " ", "\t", "\n", "\n",
                          *_SEPARATORS, "#", "-", "+", "\u0663", "a", "Z"])
_PIECES = st.sampled_from(["0 1\n", "1 2\n", "2 0\n", "12 3\n", "03 4\n", "5 5\n",
                           " 6\t7 ", "8  9", *_SEPARATORS])


@settings(max_examples=600, deadline=None)
@given(st.lists(st.one_of(_CHARS, _PIECES), max_size=40).map("".join))
def test_whole_text_check_equals_the_line_check(text):
    # digits, gaps, every line break ``splitlines`` knows, comments, signs, a
    # non-ASCII digit, letters and whole lines: the whole-text match accepts
    # a text exactly when each of its lines is plain, and the read that
    # follows gives the line scan's graph, or its error and message
    plain = all(map(_OLD_PLAIN_LINE.fullmatch, text.splitlines()))
    assert bool(io._PLAIN_TEXT.fullmatch(text)) == plain
    got, want = _read(io.parse_edgelist, text), _read(io._scan_edgelist, text)
    assert got == want
    if isinstance(want, Graph):
        assert got.m == want.m and got._adj == want._adj and got.edges == want.edges


def _ladder_text(n: int) -> str:
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n - 1 - i) for i in range(1, n // 2 - 1)]
    return io.dump_edgelist(Graph.from_edges(edges))


def test_whole_text_check_keeps_no_backtracking_state():
    # a greedy whole-text pattern grows its backtracking stack with the text
    # (tens of MB on this one); the possessive one allocates next to nothing
    text = _ladder_text(10**5)
    tracemalloc.start()
    try:
        assert io._PLAIN_TEXT.fullmatch(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 1_500_000 and peak < 64 * 1024


def test_parsed_pairs_are_the_graphs_edges():
    # a written edge list parses to the graph the constructor builds, its
    # edges the parsed pairs, sorted; so does one read through the line scan
    hosts = [gen.gen_closed_chain(3, "merged"), gen.gen_strip(40),
             Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 10), (10, 11)]),
             Graph.from_edges([(5, 7)])]
    for g in hosts:
        for text in (io.dump_edgelist(g), "# scanned\n" + io.dump_edgelist(g)):
            h = io.parse_edgelist(text)
            assert h._edges is not None and h._vertices is not None  # kept
            assert h == Graph(g.vertices, g.edges) and h.vertices == g.vertices
            assert list(h.edges) == sorted(h.edges) and h.m == len(h.edges)


def test_graph_json_roundtrip():
    g = Graph.from_edges([(0, 2), (2, 4)], n=6)  # keeps isolated vertices
    back = io.parse_graph_json(io.dump_graph_json(g))
    assert back == g
    with pytest.raises(io.FormatError):
        io.parse_graph_json('{"edges": []}')
    with pytest.raises(io.FormatError):
        io.parse_graph_json("not json")
    for bad in (
        '{"n": 2.9, "edges": [[0, 1.7], [0, -1]]}',
        '{"n": 2.9, "edges": []}',
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[0, 1.7]]}',
        '{"n": 2, "edges": [[0, -1]]}',
        '{"n": 2, "edges": [[0, true]]}',
        '{"n": 2, "edges": [[0, 1, 2]]}',
        '{"n": 2, "edges": {"0": 1}}',
        '{"n": 2, "edges": [[0, 5]]}',  # an endpoint not below n
        '{"n": 0, "edges": [[0, 1]]}',
        '{"n": -1, "edges": [[0, 1]]}',
    ):
        with pytest.raises(io.FormatError):
            io.parse_graph_json(bad)


def test_labeling_json_roundtrip():
    g = gen.gen_cycle(5)
    f = label_outerplanar(g)
    data = io.labeling_to_json(f)
    back = io.labeling_from_json(json.loads(json.dumps(data)), g)
    assert back.assignment == f.assignment and back.k == f.k
    with pytest.raises(io.FormatError):
        io.labeling_from_json({"k": 4, "vertices": {"9": 0}, "edges": []}, g)
    with pytest.raises(io.FormatError):
        io.labeling_from_json({"k": 4, "vertices": {}, "edges": [[0, 2, 1]]}, g)
    with pytest.raises(io.FormatError):
        io.labeling_from_json({"k": 4, "vertices": {}, "edges": [5]}, g)
    with pytest.raises(io.FormatError):
        io.labeling_from_json({"k": 4, "vertices": {"0": None}, "edges": []}, g)
    with pytest.raises(io.FormatError):
        io.labeling_from_json({"k": 4, "vertices": [], "edges": []}, g)
    for bad in (
        {"k": 4, "vertices": {"0": 2.7}, "edges": []},
        {"k": 4, "vertices": {"1": True}, "edges": []},
        {"k": 4.5, "vertices": {}, "edges": []},
        {"k": 4, "vertices": {}, "edges": [[0, 1, 2.0]]},
        {"k": 4, "vertices": {}, "edges": [[0, 1.0, 2]]},
        {"k": -1, "vertices": {}, "edges": []},
        # one element given twice: the last entry must not silently win
        {"k": 4, "vertices": {"0": 0, "00": 2}, "edges": []},
        {"k": 4, "vertices": {}, "edges": [[0, 1, 2], [1, 0, 3]]},
        {"k": 4, "vertices": {}, "edges": [[0, 1, 2], [0, 1, 2]]},
    ):
        with pytest.raises(io.FormatError):
            io.labeling_from_json(bad, g)


def _sorted_labeling_json(f):
    """``io.labeling_to_json`` as it was, sorting ``[u, v, label]`` lists: the
    reference for reading the edges off ``g.edges``."""
    labels = f.assignment.items()
    vertices = {str(v): lab for v, lab in labels if isinstance(v, int)}
    edges = [[e[0], e[1], lab] for e, lab in labels if isinstance(e, tuple)]
    edges.sort()
    return {"k": f.k, "vertices": vertices, "edges": edges}


def test_labeling_json_matches_the_sorted_emit():
    # complete labelings, and partial ones in shuffled insertion order, print
    # the same bytes; so does an edge key outside the graph (an edge it lacks
    # or a pair not normalized), which is written, sorted in with the rest
    hosts = [gen.gen_glued_outerplanar(10 + s, s, {"max_degree": 3 + s % 2})
             for s in range(12)]
    hosts += [gen.gen_strip(60), gen.gen_cycle(7), Graph.from_edges([(3, 9), (9, 4)])]
    rng = random.Random(7)
    for g in hosts:
        f = label_outerplanar(g)
        items = list(f.assignment.items())
        cases = [f]
        for _ in range(6):
            rng.shuffle(items)
            cases.append(TotalLabeling(g, f.k, dict(items[:rng.randrange(len(items) + 1)])))
        u, v = g.edges[0]
        for stray in ((v, u), (u, max(g.vertices) + 5)):
            cases.append(TotalLabeling(g, f.k, {**f.assignment, stray: 1}))
        for case in cases:
            out = json.dumps(io.labeling_to_json(case))
            assert out == json.dumps(_sorted_labeling_json(case))
            assert io.labeling_to_text(case) == out
        assert [v, u, 1] in io.labeling_to_json(cases[-2])["edges"]


def test_labeling_text_is_the_json_dump():
    # every corpus-manifest labeling, as the CLI prints it
    root = Path(__file__).resolve().parents[1] / "corpus"
    for delta in (3, 4):
        for entry in gen.load_manifest(root / f"delta{delta}_manifest.json"):
            f = label_outerplanar(gen.corpus_graph(entry))
            assert io.labeling_to_text(f) == json.dumps(io.labeling_to_json(f))
    # labelings the joined text does not serve: a bool, a float or a None
    # label, a string key, an edge whose end is unlabeled, a vertex outside
    # the graph; and graphs with no edges
    g = gen.gen_cycle(5)
    f = label_outerplanar(g)
    u, v = g.edges[0]
    cases = [TotalLabeling(g, f.k, {**f.assignment, u: True}),
             TotalLabeling(g, f.k, {**f.assignment, (u, v): 2.0}),
             TotalLabeling(g, f.k, {**f.assignment, v: None}),
             TotalLabeling(g, f.k, {**f.assignment, "x": 1}),
             TotalLabeling(g, f.k, {e: lab for e, lab in f.assignment.items() if e != u}),
             TotalLabeling(g, f.k, {**f.assignment, 99: 0}),
             TotalLabeling(Graph.from_edges([], 3), 2, {0: 0, 2: 1}),
             TotalLabeling(Graph.from_edges([], 1), 0),
             label_outerplanar(io.parse_graph_json('{"n": 4, "edges": []}'))]
    for case in cases:
        assert io.labeling_to_text(case) == json.dumps(io.labeling_to_json(case))


def test_dot_export():
    g = gen.gen_path(3)
    f = label_outerplanar(g)
    text = io.to_dot(g, f)
    assert text.startswith("graph G {")
    assert f'0 -- 1 [label="{f.edge(0, 1)}"]' in text
    bare = io.to_dot(g)
    assert "label" not in bare


def test_embedding_json():
    emb = recognize_embed(gen.gen_closed_chain(2, "merged"))
    data = io.embedding_to_json(emb)
    assert data["blocks"][0]["boundary"]
    assert sorted(map(tuple, data["inner_edges"])) == sorted(emb.inner_edges)
    assert len(data["blocks"][0]["faces"]) == len(emb.inner_faces)


def test_search_budget_is_clean():
    g = gen.gen_cycle(9)
    stats = SearchStats()
    lam, witness = lambda_exact(g, 2, 4, stats=stats, budget=3)
    assert (lam, witness) == (None, None)  # unknown, never partial
    lam, witness = lambda_exact(g, 2, 4)
    assert lam == 4 and verify(witness, 2) == []


def test_many_components_label_in_one_pass():
    # one edge and 10,000 isolated vertices from graph JSON label and verify
    g = io.parse_graph_json(json.dumps({"n": 10_002, "edges": [[0, 1]]}))
    assert len(g.components()) == 10_001
    f = label_outerplanar(g)
    assert verify(f, 2) == [] and len(f.assignment) == g.n + g.m

    # and the split names the small components in time linear in their
    # number: eight times as many take about eight times as long (64 times
    # when each search that ran out was looked up in a list)
    def took(n: int) -> float:
        h = Graph(range(n), [(0, 1)])
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            comps = embedding._small_components(h, set(range(1, n)))
            best = min(best, time.perf_counter() - t0)
        assert len(comps) == n - 2
        return best

    assert took(40_000) < 24 * took(5_000)
