from __future__ import annotations

import json
import time

import pytest

from outerlabel import generators as gen
from outerlabel import embedding, io
from outerlabel.embedding import recognize_embed
from outerlabel.exact import SearchStats, lambda_exact
from outerlabel.graphs import Graph
from outerlabel.labeling import verify
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
