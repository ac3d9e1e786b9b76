from __future__ import annotations

import json

import pytest
from test_generators import write_manifest

from outerlabel import generators as gen
from outerlabel.cli import main
from outerlabel.io import dump_edgelist, dump_graph_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.txt", fmt="edgelist"):
    p = tmp_path / name
    p.write_text(dump_edgelist(g) if fmt == "edgelist" else dump_graph_json(g))
    return str(p)


def test_label_cycle(tmp_path, capsys):
    path = write_graph(tmp_path, gen.gen_cycle(6))
    code, out, err = run(capsys, "label", path)
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 4
    assert max(
        list(data["vertices"].values()) + [e[2] for e in data["edges"]]
    ) <= 4
    assert "verified=yes" in err


def test_label_chorded(tmp_path, capsys):
    g = gen.gen_random_outerplanar(8, 0.35, seed=2, constraints={"max_degree": 3})
    path = write_graph(tmp_path, g, fmt="json")
    code, out, _ = run(capsys, "label", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    labels = list(data["vertices"].values()) + [e[2] for e in data["edges"]]
    assert max(labels) <= 5


def test_label_rejects_k4(tmp_path, capsys):
    k4 = gen.Graph.from_edges([(a, b) for a in range(4) for b in range(a + 1, 4)])
    path = write_graph(tmp_path, k4)
    code, _, err = run(capsys, "label", path)
    assert code == 3
    assert "not outerplanar" in err


def test_label_rejects_every_non_outerplanar_host(tmp_path, capsys):
    def clique(vs):
        return [(a, b) for a in vs for b in vs if a < b]

    k5 = gen.Graph.from_edges(clique(range(5)))  # Δ=4
    star_k4 = gen.Graph.from_edges(  # K_{1,5} and K_4: Δ=5, 21 elements
        [(0, i) for i in range(1, 6)] + clique(range(6, 10)))
    cycle_k4 = gen.Graph.from_edges(  # the outerplanar component comes first
        [(i, (i + 1) % 5) for i in range(5)] + clique(range(5, 9)))
    for g, extra in ((k5, ()), (star_k4, ()), (star_k4, ("--fallback-search",)),
                     (cycle_k4, ())):
        code, out, err = run(capsys, "label", write_graph(tmp_path, g), *extra)
        assert (code, out) == (3, "")
        assert "not outerplanar" in err


def test_label_unsupported_degree(tmp_path, capsys):
    star = gen.Graph.from_edges([(0, i) for i in range(1, 6)])
    path = write_graph(tmp_path, star)
    code, _, _ = run(capsys, "label", path)
    assert code == 4
    code, out, _ = run(capsys, "label", path, "--fallback-search")
    assert code == 0
    assert json.loads(out)["k"] == 7


def test_label_labeler_fault_exit_code(tmp_path, capsys, monkeypatch):
    # a spent completion budget is a labeler fault: exit 5, message on stderr
    from outerlabel import delta3

    monkeypatch.setattr(delta3, "COMPLETION_BUDGET", 1)
    # a hexagon with the chords (1, 3) and (1, 5), whose C2 fill widens and
    # so searches
    host = gen.Graph.from_edges(
        [(0, 1), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (3, 4), (4, 5)])
    code, out, err = run(capsys, "label", write_graph(tmp_path, host))
    assert (code, out) == (5, "")
    assert "labeler fault" in err and "past its budget of 1" in err


def test_label_template_fault_exit_code(tmp_path, capsys, monkeypatch):
    # a chain template fault is a labeler fault too: exit 5, no traceback
    from outerlabel import delta4

    def fault(*args):
        raise delta4.CaseFault("empty choice")

    monkeypatch.setattr(delta4, "chain_template", fault)
    code, out, err = run(capsys, "label", write_graph(tmp_path, gen.gen_sun_necklace(2)))
    assert (code, out) == (5, "")
    assert "labeler fault" in err and "empty choice" in err


def test_label_invalid_dispatcher_output_exit_code(tmp_path, capsys, monkeypatch):
    # an invalid labeling from the Δ <= 2 labeler is a labeler fault as well
    from outerlabel import pipeline
    from outerlabel.labeling import TotalLabeling

    monkeypatch.setattr(pipeline, "label_cycle_or_path",
                        lambda g, k: TotalLabeling(g, k, {z: 0 for z in g.elements()}))
    code, out, err = run(capsys, "label", write_graph(tmp_path, gen.gen_cycle(6)))
    assert (code, out) == (5, "")
    assert "labeler fault" in err


def test_label_dot_output(tmp_path, capsys):
    path = write_graph(tmp_path, gen.gen_cycle(4))
    dot = tmp_path / "out.dot"
    code, _, _ = run(capsys, "label", path, "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert "graph G {" in text and "--" in text


def test_label_verify_roundtrip(tmp_path, capsys):
    g = gen.gen_closed_chain(3, "merged")
    gpath = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "label", gpath)
    assert code == 0
    lpath = tmp_path / "lab.json"
    lpath.write_text(out)
    code, out, err = run(capsys, "verify", gpath, str(lpath))
    assert code == 0
    assert json.loads(out)["ok"] is True

    # tamper: give a vertex the label of its own incident edge
    data = json.loads(lpath.read_text())
    u, v, lab = data["edges"][0]
    data["vertices"][str(u)] = lab
    lpath.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", gpath, str(lpath))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["violations"]


def test_verify_partial(tmp_path, capsys):
    gpath = write_graph(tmp_path, gen.gen_cycle(3))
    lpath = tmp_path / "partial.json"
    lpath.write_text(json.dumps({"k": 4, "vertices": {"0": 0}, "edges": []}))
    code, out, _ = run(capsys, "verify", gpath, str(lpath))
    assert code == 1
    kinds = {v["kind"] for v in json.loads(out)["violations"]}
    assert kinds == {"unlabeled-element"}


def test_exact_command(tmp_path, capsys):
    path = write_graph(tmp_path, gen.gen_path(2))
    code, out, err = run(capsys, "exact", path, "--kmax", "6")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == 3
    assert "nodes=" in err


def test_exact_witness_verifies(tmp_path, capsys):
    gpath = write_graph(tmp_path, gen.gen_cycle(3))
    code, out, _ = run(capsys, "exact", gpath)
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == 4
    lpath = tmp_path / "witness.json"
    lpath.write_text(json.dumps(data["witness"]))
    code, out, _ = run(capsys, "verify", gpath, str(lpath))
    assert code == 0 and json.loads(out)["ok"] is True


def test_exact_past_the_element_cap(tmp_path, capsys):
    # a 17-cycle (maximum degree 2) has 34 elements, past the cap of 30
    path = write_graph(tmp_path, gen.gen_cycle(17))
    code, out, err = run(capsys, "exact", path)
    assert (code, out) == (4, "")
    assert "34 elements exceed the search cap 30" in err


def test_structure_command(tmp_path, capsys):
    path = write_graph(tmp_path, gen.gen_closed_chain(2, "merged"))
    code, out, _ = run(capsys, "structure", path)
    assert code == 0
    data = json.loads(out)
    assert data["configuration"]["kind"] == "C3"
    assert any(c["closing_inner_edge"] for c in data["chains"])
    assert data["embedding"]["blocks"][0]["boundary"]


def test_structure_disconnected(tmp_path, capsys):
    # ``label`` accepts a disconnected outerplanar graph, and so does ``structure``
    path = tmp_path / "g.txt"
    path.write_text("0 1\n2 3\n3 4\n4 2\n")
    code, out, _ = run(capsys, "structure", str(path))
    assert code == 0
    data = json.loads(out)
    assert [b["boundary"] for b in data["embedding"]["blocks"]] == [[2, 3, 4]]
    assert data["embedding"]["bridges"] == [[0, 1]]
    code, _, _ = run(capsys, "label", str(path))
    assert code == 0


def test_gen_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "--kind", "random", "--n", "8",
                         "--seed", "5")
    code2, out2, _ = run(capsys, "gen", "--kind", "random", "--n", "8",
                         "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_constraints(capsys):
    code, out, err = run(capsys, "gen", "--kind", "glued", "--n", "9",
                         "--seed", "3", "--max-degree", "3", "--format", "json")
    assert code == 0
    assert "max_degree=3" in err


def test_gen_random_draws_large_polygons(capsys):
    # the triangulation draw keeps an explicit stack, so no RecursionError
    code, out, err = run(capsys, "gen", "--kind", "random", "--n", "1000")
    assert code == 0
    assert err.startswith("generated n=1000 ")
    assert len(out.splitlines()) > 1000


def test_gen_refuses_unreachable_max_degree(capsys, monkeypatch):
    def draw(*args):
        raise AssertionError("a refused request drew a sample")

    monkeypatch.setattr(gen, "_random_triangulation_diagonals", draw)
    code, out, err = run(capsys, "gen", "--kind", "random", "--n", "4",
                         "--max-degree", "4")
    assert code == 2
    assert out == ""
    assert err == "error: max_degree 4 needs more than 4 vertices\n"


def test_gen_refuses_an_edge_list_without_edges(tmp_path, capsys):
    # an empty edge list does not parse back, so ``gen`` writes none; the
    # JSON form holds the vertex, and ``label`` reads it
    code, out, err = run(capsys, "gen", "--kind", "path", "--n", "1")
    assert code == 2
    assert out == ""
    assert err == ("error: an edge list cannot hold a graph without edges (n=1); "
                   "use --format json\n")
    code, out, _ = run(capsys, "gen", "--kind", "path", "--n", "1", "--format", "json")
    assert code == 0
    path = tmp_path / "one.json"
    path.write_text(out)
    code, out, _ = run(capsys, "label", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["vertices"] == {"0": 0}


def test_bench_command(tmp_path, capsys):
    entries = [
        {"kind": "cycle", "n": 6, "name": "c6"},
        {"kind": "closed_chain", "t": 2, "name": "chain"},
        {"kind": "random", "n": 7, "seed": 4, "edge_keep_prob": 0.35,
         "constraints": {"max_degree": 3}, "name": "rand"},
    ]
    mpath = tmp_path / "manifest.json"
    write_manifest(mpath, entries)
    code, out, err = run(capsys, "bench", str(mpath), "--oracle")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["name"] for r in rows] == ["c6", "chain", "rand"]
    assert all(r["verified"] for r in rows)
    assert rows[0]["lambda"] <= rows[0]["span"] <= 4
    assert "3/3" in err


def test_bench_oracle_cap(tmp_path, capsys):
    mpath = tmp_path / "manifest.json"
    write_manifest(mpath, [{"kind": "cycle", "n": 16, "name": "c16"}])
    code, out, _ = run(capsys, "bench", str(mpath), "--oracle", "--oracle-cap", "40")
    assert code == 0
    assert json.loads(out)["rows"][0]["lambda"] == 4  # 32 elements searched


def test_bench_empty(tmp_path, capsys):
    mpath = tmp_path / "empty.json"
    write_manifest(mpath, [])
    code, out, _ = run(capsys, "bench", str(mpath))
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    code, _, err = run(capsys, "label", str(bad))
    assert code == 2
    assert "input error" in err
    code, _, _ = run(capsys, "label", str(tmp_path / "missing.txt"))
    assert code == 2
    gpath = write_graph(tmp_path, gen.gen_cycle(4))
    lpath = tmp_path / "lab.json"
    lpath.write_text('{"k": 4, "vertices": {}, "edges": [5]}')
    code, _, err = run(capsys, "verify", gpath, str(lpath))
    assert code == 2
    assert "input error" in err
    loop = tmp_path / "loop.txt"
    loop.write_text("0 1\n1 2\n2 2\n2 0\n")
    code, out, err = run(capsys, "label", str(loop))
    assert (code, out) == (2, "")
    assert "self-loop at vertex 2" in err
    jpath = tmp_path / "bad.json"
    jpath.write_text('{"n": 2.9, "edges": [[0, 1.7], [0, -1]]}')
    code, _, err = run(capsys, "label", str(jpath), "--format", "json")
    assert code == 2
    assert "input error" in err
    for graph in ('{"n": 2, "edges": [[0, 5]]}', '{"n": -1, "edges": [[0, 1]]}'):
        jpath.write_text(graph)
        code, out, err = run(capsys, "structure", str(jpath), "--format", "json")
        assert (code, out) == (2, "")
        assert "input error" in err
    # the first label of edge (0, 1) is 2, within 1 of both ends' labels
    k2 = write_graph(tmp_path, gen.gen_path(2), name="k2.txt")
    for labeling in ('{"k": 3, "vertices": {"0": 0, "1": 1}, "edges": [[0, 1, 2], [1, 0, 3]]}',
                     '{"k": 3, "vertices": {"0": 0, "00": 3, "1": 1}, "edges": [[0, 1, 3]]}',
                     '{"k": -1, "vertices": {}, "edges": []}'):
        lpath.write_text(labeling)
        code, out, err = run(capsys, "verify", k2, str(lpath))
        assert (code, out) == (2, "")
        assert "input error" in err
    mpath = tmp_path / "manifest.json"
    for manifest in ("[]", '{"note": ""}', '{"entries": 5}', '{"entries": [5]}'):
        mpath.write_text(manifest)
        code, out, err = run(capsys, "bench", str(mpath))
        assert (code, out) == (2, "")
        assert "list of entries" in err


def test_p_only_where_it_is_read(tmp_path, capsys):
    path = write_graph(tmp_path, gen.gen_cycle(5))
    for command in ("label", "structure"):
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--p", "3"])
        assert exc.value.code == 2
    code, _, _ = run(capsys, "exact", path, "--p", "3", "--kmax", "8")
    assert code == 0
