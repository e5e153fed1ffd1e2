from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesreg import (
    ClassificationReport,
    Graph,
    InstanceTooLargeError,
    InternalInvariantError,
    OracleResult,
    RegularityStatus,
    build_report,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    paper_example,
    path,
    random_graph,
    regularity,
    tutte_berge_witness,
    write_graph,
)
from reesreg import cli, corpus, matching, polytope, rees
from reesreg.cli import main
from reesreg.corpus import (
    EXHAUSTIVE_N_LIMIT,
    CorpusFailure,
    CorpusSummary,
    check_graph,
    corpus_run,
    exhaustive_graphs,
    random_graphs,
)
from reesreg.report import write_json


def test_report_example_frozen_values():
    r = build_report(paper_example(), with_oracle=True, with_witness=True)
    assert (r.n, r.m, r.mat, r.deficiency) == (7, 9, 3, 1)
    assert not r.bipartite
    assert not r.perfect_matching
    assert not r.factor_critical
    assert not r.konig
    assert r.tutte_berge
    assert (r.ge_d, r.ge_a, r.ge_c) == ((1, 2), (3,), (4, 5, 6, 7))
    assert r.odd_cycle_condition
    assert r.rees_normal
    assert r.regularity.status is RegularityStatus.COMPUTED
    assert r.regularity.reg == 3
    assert r.tb_witness == (1, 2)
    assert r.oracle is not None
    assert (r.oracle.q0, r.oracle.reg) == (5, 3)
    assert r.oracle_note is None


def test_report_round_trip_and_timing_equality():
    r = build_report(paper_example(), with_oracle=True, with_witness=True)
    again = ClassificationReport.from_json(r.to_json())
    assert again == r
    rerun = build_report(paper_example(), with_oracle=True, with_witness=True)
    assert rerun == r
    assert set(r.timings) == {
        "matching",
        "decomposition",
        "regularity",
        "witness",
        "oracle",
    }


@pytest.mark.parametrize("with_witness", [False, True])
@pytest.mark.parametrize("with_oracle", [False, True])
@pytest.mark.parametrize(
    "g",
    [paper_example(), disjoint_union(cycle(3), cycle(3)), path(2)],
    ids=["computed", "not_normal", "too_few_edges"],
)
def test_report_round_trips_every_shape(g, with_oracle, with_witness):
    # Each status, with the oracle and the witness each present, skipped or
    # off, comes back field for field, timings and types included.
    r = build_report(g, with_oracle=with_oracle, with_witness=with_witness)
    again = ClassificationReport.from_dict(json.loads(r.to_json()))
    assert again == r
    assert again.timings == r.timings
    assert again.to_json() == r.to_json()


def test_report_from_dict_refuses_a_key_with_no_field():
    # A key that the report does not have is an error, not dropped; so is
    # one inside the nested regularity and oracle records.
    d = build_report(paper_example(), with_oracle=True).to_dict()
    with pytest.raises(TypeError, match="'extra'"):
        ClassificationReport.from_dict({**d, "extra": 1})
    for nested in ("regularity", "oracle"):
        with pytest.raises(TypeError, match="'extra'"):
            ClassificationReport.from_dict({**d, nested: {**d[nested], "extra": 1}})


def test_report_oracle_skip_notes():
    two_triangles = disjoint_union(cycle(3), cycle(3))
    r = build_report(two_triangles, with_oracle=True)
    assert r.oracle is None
    assert r.oracle_note == "oracle skipped: Rees algebra is not normal"
    tiny = build_report(path(2), with_oracle=True)
    assert tiny.oracle is None
    assert tiny.oracle_note == "oracle skipped: graph has fewer than two edges"
    plain = build_report(cycle(5))
    assert plain.oracle is None
    assert plain.oracle_note is None


def test_report_witness_option():
    r = build_report(cycle(6), with_witness=True)
    assert r.tb_witness == (1, 3, 5)
    r5 = build_report(cycle(5), with_witness=True)
    assert r5.tb_witness is None
    off = build_report(cycle(6))
    assert off.tb_witness is None


def test_report_consistency_on_families():
    for g in (path(4), cycle(5), cycle(6), complete(5), paper_example()):
        r = build_report(g, with_oracle=True, with_witness=True)
        assert r.deficiency == r.n - 2 * r.mat
        assert r.perfect_matching == (r.deficiency == 0)
        assert r.tutte_berge == (r.tb_witness is not None)
        if r.regularity.status is RegularityStatus.COMPUTED:
            assert r.regularity.reg == r.mat + (0 if r.tutte_berge else 1)
            assert r.oracle is not None
            assert r.oracle.reg == r.regularity.reg


def _write(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(write_graph(g), encoding="utf-8")
    return str(p)


def test_cli_gen_to_stdout(capsys):
    assert main(["gen", "cycle", "5"]) == 0
    assert capsys.readouterr().out == write_graph(cycle(5))


def test_cli_gen_paper_example(capsys):
    assert main(["gen", "paper-example"]) == 0
    assert capsys.readouterr().out == write_graph(paper_example())


def test_cli_gen_to_file_then_classify_json(tmp_path, capsys):
    target = str(tmp_path / "c5.txt")
    assert main(["gen", "cycle", "5", "-o", target]) == 0
    capsys.readouterr()
    assert main(["classify", target, "--json", "--oracle", "--witness"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 5
    assert data["regularity"]["reg"] == 3
    assert data["tutte_berge"] is False
    assert data["tb_witness"] is None
    assert data["oracle"]["q0"] == 3
    assert data["ge"]["d"] == [1, 2, 3, 4, 5]


def test_cli_gen_disjoint_union(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", cycle(3))
    b = _write(tmp_path, "b.txt", path(3))
    assert main(["gen", "disjoint-union", a, b]) == 0
    assert capsys.readouterr().out == write_graph(disjoint_union(cycle(3), path(3)))


@pytest.mark.parametrize(
    "g, expected",
    [
        (
            paper_example(),
            """\
n 7  m 9
matching number      3
deficiency           1
bipartite            False
perfect matching     False
factor critical      False
konig                False
tutte-berge          True
gallai-edmonds D     [1, 2]
gallai-edmonds A     [3]
gallai-edmonds C     [4, 5, 6, 7]
odd cycle condition  True
rees normal          True
regularity           3
tutte-berge witness  [1, 2]
oracle               q0 5, witness [1, 1, 1, 1, 1, 1, 1, 3], reg 3
""",
        ),
        (
            cycle(5),
            """\
n 5  m 5
matching number      2
deficiency           1
bipartite            False
perfect matching     False
factor critical      True
konig                False
tutte-berge          False
gallai-edmonds D     [1, 2, 3, 4, 5]
gallai-edmonds A     []
gallai-edmonds C     []
odd cycle condition  True
rees normal          True
regularity           3
tutte-berge witness  none (not tutte-berge)
oracle               q0 3, witness [1, 1, 1, 1, 1, 1], reg 3
""",
        ),
        (
            disjoint_union(cycle(3), cycle(3)),
            """\
n 6  m 6
matching number      2
deficiency           2
bipartite            False
perfect matching     False
factor critical      False
konig                False
tutte-berge          False
gallai-edmonds D     [1, 2, 3, 4, 5, 6]
gallai-edmonds A     []
gallai-edmonds C     []
odd cycle condition  False
rees normal          False
regularity           n/a (not_normal)
tutte-berge witness  none (not tutte-berge)
oracle               oracle skipped: Rees algebra is not normal
""",
        ),
    ],
    ids=["paper_example", "c5", "two_triangles"],
)
def test_cli_classify_text_with_witness_and_oracle(g, expected, tmp_path, capsys):
    assert main(["classify", _write(tmp_path, "g.txt", g), "--witness", "--oracle"]) == 0
    assert capsys.readouterr().out == expected


def test_cli_gen_disjoint_union_needs_two_files(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", cycle(3))
    assert main(["gen", "disjoint-union", a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: disjoint-union takes two graph files\n"


def test_cli_classify_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_graph(cycle(4))))
    assert main(["classify", "-"]) == 0
    out = capsys.readouterr().out
    assert "matching number      2" in out
    assert "tutte-berge          True" in out
    assert "regularity           2" in out


def test_cli_classify_reads_a_byte_order_mark(tmp_path, monkeypatch, capsys):
    # A graph file saved with a UTF-8 byte-order mark classifies as the same
    # file without one, read from its path and piped to "-".
    data = b"\xef\xbb\xbf" + write_graph(cycle(4)).encode()
    assert main(["classify", _write(tmp_path, "c4.txt", cycle(4))]) == 0
    expected = capsys.readouterr().out
    bom = tmp_path / "bom.txt"
    bom.write_bytes(data)
    assert main(["classify", str(bom)]) == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main(["classify", "-"]) == 0
    assert capsys.readouterr().out == expected


def test_cli_classify_plain_not_normal(tmp_path, capsys):
    g = disjoint_union(cycle(3), cycle(3))
    target = _write(tmp_path, "tt.txt", g)
    assert main(["classify", target]) == 0
    out = capsys.readouterr().out
    assert "rees normal          False" in out
    assert "regularity           n/a (not_normal)" in out


def test_cli_regularity_with_oracle(tmp_path, capsys):
    target = _write(tmp_path, "c5.txt", cycle(5))
    assert main(["regularity", target, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "status       computed" in out
    assert "reg          3" in out
    assert "agreement    True" in out


def test_cli_regularity_json(tmp_path, capsys):
    target = _write(tmp_path, "k2.txt", path(2))
    assert main(["regularity", target, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["regularity"]["status"] == "too_few_edges"
    assert data["regularity"]["reg"] is None
    assert "oracle" not in data


def test_cli_regularity_skips_report_only_stages(tmp_path, monkeypatch, capsys):
    def no_konig(*args):
        raise AssertionError("regularity must not run the Konig test")

    _patch_every_binding(monkeypatch, "reesreg.matching", "is_konig", no_konig)
    _patch_every_binding(monkeypatch, "reesreg.matching", "_first_max_independent", no_konig)
    target = _write(tmp_path, "c5.txt", cycle(5))
    assert main(["regularity", target, "--oracle"]) == 0
    assert capsys.readouterr().out == (
        "status       computed\n"
        "mat          2\n"
        "tutte-berge  False\n"
        "reg          3\n"
        "oracle       q0 3, reg 3\n"
        "agreement    True\n"
    )
    tt = _write(tmp_path, "tt.txt", disjoint_union(cycle(3), cycle(3)))
    assert main(["regularity", tt, "--oracle", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "regularity": {"status": "not_normal", "mat": 2, "tutte_berge": False, "reg": None},
        "oracle": None,
        "oracle_note": "oracle skipped: Rees algebra is not normal",
    }


def _patch_every_binding(monkeypatch, module: str, name: str, replacement) -> None:
    # Rebind `name` in every reesreg module that imported it from `module`.
    original = getattr(sys.modules[module], name)
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("reesreg") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def test_cli_classify_runs_no_independent_set_search(tmp_path, monkeypatch, capsys):
    # The Konig test, the witness and the odd cycle condition are all
    # polynomial on these 100-vertex inputs; a brute-force independent set
    # search would not finish.  The Konig test and the witness read GE's
    # matching on masks of G, so no induced subgraph is built either.
    def no_search(g, k):
        raise AssertionError("classify must not enumerate independent sets")

    def no_subgraph(g, labels):
        raise AssertionError("classify must not build induced subgraphs")

    _patch_every_binding(monkeypatch, "reesreg.graphs", "_independent_of_size", no_search)
    _patch_every_binding(monkeypatch, "reesreg.graphs", "induced_subgraph", no_subgraph)
    ex = _write(tmp_path, "ex_c4.txt", disjoint_union(paper_example(), cycle(4)))
    assert main(["classify", ex, "--json", "--witness"]) == 0
    assert json.loads(capsys.readouterr().out)["tb_witness"] == [1, 2, 8, 10]
    kab = _write(tmp_path, "k50_50.txt", complete_bipartite(50, 50))
    assert main(["classify", kab, "--json", "--witness"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["mat"], data["konig"], data["tutte_berge"]) == (50, True, True)
    assert data["tb_witness"] == list(range(1, 51))
    sparse = _write(tmp_path, "g100.txt", random_graph(100, 0.05, 7))
    assert main(["classify", sparse, "--json", "--witness"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 100


def test_regularity_builds_no_decomposition(monkeypatch):
    # The closed form and the witness read mat(G), D(G) and the Tutte-Berge
    # test off the stored blossom run; only the report and `ged` build the
    # full decomposition.
    expected = {g: build_report(g, with_witness=True) for g in exhaustive_graphs(5)}

    def no_decomposition(g):
        raise AssertionError("regularity and the witness must not build the decomposition")

    _patch_every_binding(monkeypatch, "reesreg.decomposition", "gallai_edmonds", no_decomposition)
    for g, want in expected.items():
        fresh = Graph(g.n, g.edges)
        assert regularity(fresh) == want.regularity, g
        w = tutte_berge_witness(fresh)
        assert (w.t_set if w is not None else None) == want.tb_witness, g
        if w is not None:
            assert w.deficiency == want.deficiency, g


def test_report_runs_the_blossom_once(monkeypatch):
    # The report asks the matching, D(G), mat(G), the Tutte-Berge test, the
    # Konig test, the witness and the two matching properties of their
    # owners; all of them read one stored blossom run.
    calls = []

    def counted(g):
        calls.append(g)
        return run_blossom(g)

    run_blossom = matching._blossom
    _patch_every_binding(monkeypatch, "reesreg.matching", "_blossom", counted)
    for g in (paper_example(), random_graph(30, 0.15, 1)):
        calls.clear()
        r = build_report(g, with_witness=True)
        assert len(calls) == 1, g
        assert r.tutte_berge == (r.tb_witness is not None)


def test_oracle_report_runs_the_odd_cycle_condition_once(tmp_path, monkeypatch, capsys):
    # The closed form has stored the odd cycle condition on the graph, so
    # the oracle's normality check reads that answer and decides nothing.
    calls = []

    def counted(g):
        calls.append(g)
        return decide(g)

    decide = rees._odd_cycle_condition
    _patch_every_binding(monkeypatch, "reesreg.rees", "_odd_cycle_condition", counted)
    for g in (paper_example(), cycle(5), random_graph(9, 0.4, 2)):
        calls.clear()
        r = build_report(g, with_oracle=True)
        assert len(calls) == 1, g
        assert r.oracle is not None and r.oracle.reg == r.regularity.reg
    target = _write(tmp_path, "ex.txt", paper_example())
    calls.clear()
    assert main(["regularity", target, "--oracle"]) == 0
    assert len(calls) == 1
    assert "agreement    True" in capsys.readouterr().out


def test_the_oracle_has_one_door(tmp_path, monkeypatch, capsys):
    # The report, the CLI and the corpus reach the lattice oracle through
    # compute_q0 alone, once a graph, and only when the closed form is
    # computed.
    calls = []

    def counted(g):
        calls.append(g)
        return search(g)

    search = polytope.compute_q0
    _patch_every_binding(monkeypatch, "reesreg.polytope", "compute_q0", counted)
    g = paper_example()
    assert build_report(g, with_oracle=True).oracle == search(g)
    assert calls == [g]
    target = _write(tmp_path, "ex.txt", g)
    calls.clear()
    assert main(["regularity", target, "--oracle"]) == 0
    assert "agreement    True" in capsys.readouterr().out
    assert len(calls) == 1
    calls.clear()
    assert check_graph(g).failures == ()
    assert calls == [g]
    for skipped in (disjoint_union(cycle(3), cycle(3)), path(2)):
        assert build_report(skipped, with_oracle=True).oracle is None
        assert main(["regularity", _write(tmp_path, "skip.txt", skipped), "--oracle"]) == 0
        assert "oracle skipped" in capsys.readouterr().out
        assert not check_graph(skipped).oracle_skipped
    assert calls == [g]


def test_check_graph_computes_each_fact_once(monkeypatch):
    # The closed form, the brute-force witness search and the oracle all
    # ask for the matching and the odd cycle condition; each is computed
    # once per graph, behind the memo.
    blossoms, occs = [], []

    def blossom(g):
        blossoms.append(g)
        return run_blossom(g)

    def occ(g):
        occs.append(g)
        return decide_occ(g)

    run_blossom, decide_occ = matching._blossom, rees._odd_cycle_condition
    _patch_every_binding(monkeypatch, "reesreg.matching", "_blossom", blossom)
    _patch_every_binding(monkeypatch, "reesreg.rees", "_odd_cycle_condition", occ)
    computed = 0
    for g in random_graphs(11, 300, seed=4):
        blossoms.clear()
        occs.clear()
        result = check_graph(g)
        assert not result.failures
        assert len(blossoms) == 1, g
        assert len(occs) == (g.m >= 2), g
        computed += regularity(g).status is RegularityStatus.COMPUTED
    assert computed >= 100


def test_cli_ged_json(tmp_path, capsys):
    target = _write(tmp_path, "ex.txt", paper_example())
    assert main(["ged", target, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "d": [1, 2],
        "a": [3],
        "c": [4, 5, 6, 7],
        "d_components": [[1], [2]],
    }


def test_cli_polytope_interior(tmp_path, capsys):
    target = _write(tmp_path, "k3.txt", complete(3))
    assert main(["polytope", target, "--q", "2", "--interior", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ambient_n"] == 4
    assert data["points"] == [[1, 1, 1, 1]]


def test_cli_polytope_plain(tmp_path, capsys):
    target = _write(tmp_path, "k3.txt", complete(3))
    assert main(["polytope", target, "--q", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "lattice points of 1P for the cone graph (6 found)"
    assert len(out) == 7


def test_cli_corpus_small(capsys):
    assert main(["corpus", "--max-n", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["graphs_tested"] == 75
    assert data["failures"] == []
    assert data["oracle_skipped"] == 0


def test_cli_corpus_random(capsys):
    assert main(["corpus", "--max-n", "6", "--random", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "graphs tested      50" in out
    assert "failures           0" in out
    assert "oracle skipped" not in out


def test_check_graph_runs_the_oracle_up_to_its_limit():
    # The cone of an 11-vertex graph has 12 vertices, the ambient limit.
    assert not check_graph(cycle(11)).oracle_skipped
    past = check_graph(cycle(13))
    assert past.oracle_skipped
    assert past.failures == ()
    # Only graphs the closed form computes would reach the oracle.
    assert not check_graph(path(1)).oracle_skipped


def test_check_graph_reports_each_failure(monkeypatch):
    # No graph makes the two routes disagree, so each check is made to
    # fail by a stand-in for its second route: a brute-force search that
    # finds no witness, then an oracle that certifies one more than the
    # closed form's reg = 3 (q0 = 5 on the cone of the paper example).
    g = paper_example()
    monkeypatch.setattr(corpus, "tutte_berge_bruteforce", lambda g: None)
    (failure,) = check_graph(g).failures
    assert failure == CorpusFailure(
        n=7, edges=g.edges, check="tutte_berge", detail="fast says True, brute-force witness is None"
    )
    monkeypatch.undo()
    wrong = OracleResult(q0=4, interior_witness=(1,) * 8, reg=4)
    monkeypatch.setattr(corpus, "run_oracle", lambda g, reg: (wrong, None))
    (failure,) = check_graph(g).failures
    assert failure == CorpusFailure(
        n=7, edges=g.edges, check="regularity", detail="formula says 3, oracle says 4 (q0=4)"
    )


def test_cli_corpus_skips_the_oracle_past_its_limit(capsys):
    # Six computed graphs have n >= 12, so their cone graphs are past the
    # ambient guard: the sweep counts them and still checks the rest.
    argv = ["corpus", "--max-n", "14", "--random", "40", "--seed", "1"]
    assert main(argv + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["graphs_tested"] == 40
    assert data["oracle_skipped"] == 6
    assert data["failures"] == []
    assert main(argv) == 0
    assert "oracle skipped     6" in capsys.readouterr().out


def test_corpus_asks_the_oracle_whether_it_runs(monkeypatch):
    # The corpus states no size rule of its own.  With the oracle's ambient
    # limit lowered to 8, the computed graphs with n >= 8 are the ones the
    # oracle refuses, and the sweep counts them instead of raising.
    monkeypatch.setattr(polytope, "ENUM_AMBIENT_LIMIT", 8)
    refused = sum(
        g.n >= 8 and regularity(g).status is RegularityStatus.COMPUTED
        for g in random_graphs(9, 60, seed=1)
    )
    summary = corpus_run(max_n=9, random_samples=60, seed=1)
    assert (summary.graphs_tested, summary.oracle_skipped, summary.failures) == (60, 15, ())
    assert summary.oracle_skipped == refused


def test_cli_corpus_text_prints_each_failure_and_exits_1(monkeypatch, capsys):
    failure = CorpusFailure(
        n=3, edges=((1, 2), (2, 3)), check="regularity", detail="formula says 2, oracle says 1"
    )
    summary = CorpusSummary(graphs_tested=4, normal_count=4, tutte_berge_count=3, failures=(failure,))
    monkeypatch.setattr(cli, "corpus_run", lambda **kwargs: summary)
    assert main(["corpus", "--max-n", "3"]) == 1
    assert capsys.readouterr().out == (
        "graphs tested      4\n"
        "normal             4\n"
        "tutte-berge        3\n"
        "failures           1\n"
        "  FAIL regularity on n=3 edges=[(1, 2), (2, 3)]: formula says 2, oracle says 1\n"
    )


def test_cli_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInvariantError("blossom lost a vertex")

    monkeypatch.setattr(cli, "build_report", broken)
    assert main(["classify", _write(tmp_path, "c5.txt", cycle(5))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: blossom lost a vertex\n"


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["classify", "ged"])
def test_cli_closed_stdout_exits_141_quietly(command, tmp_path, monkeypatch, capsys):
    # A reader that went away (`| head -1`) is not an input error: the exit
    # code is 128 + SIGPIPE and nothing is written to stderr.
    spec = _write(tmp_path, "c5.txt", cycle(5))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main([command, spec, "--json"]) == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "/nonexistent/graph.txt"],
        ["gen", "torus", "3"],
        ["gen", "cycle", "2"],
        ["gen", "cycle"],
        [],
        ["frobnicate"],
        ["corpus", "--random", "-3"],
        ["corpus", "--max-n", "-2"],
        ["corpus", "--max-n", "0", "--random", "5"],
        ["corpus", "--max-n", "30", "--random", "5", "--seed", "1"],
        ["corpus", "--max-n", "8"],
    ],
)
def test_cli_usage_errors_exit_2(argv, tmp_path, capsys):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "max_n, samples, named",
    [
        (6, -3, "-3"),
        (-2, None, "-2"),
        (0, 5, "0"),
        (30, 5, "30"),
        (21, None, "21"),
        (8, None, "8"),
    ],
)
def test_corpus_checks_its_arguments_before_drawing(max_n, samples, named, monkeypatch):
    def no_draw(*args):
        raise AssertionError("no graph may be drawn")

    monkeypatch.setattr("reesreg.corpus.random_graphs", no_draw)
    monkeypatch.setattr("reesreg.corpus.exhaustive_graphs", no_draw)
    with pytest.raises(ValueError, match=f"got {named}$"):
        corpus_run(max_n, samples, seed=1)


def test_exhaustive_corpus_past_its_limit_is_too_large(monkeypatch):
    # n = 8 alone is 2^28 labeled graphs; random mode still takes max_n = 8.
    monkeypatch.setattr("reesreg.corpus.exhaustive_graphs", None)
    with pytest.raises(InstanceTooLargeError, match=f"<= {EXHAUSTIVE_N_LIMIT} "):
        corpus_run(EXHAUSTIVE_N_LIMIT + 1)
    assert corpus_run(8, 3, seed=1).graphs_tested == 3


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 1\n", encoding="utf-8")
    assert main(["classify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "loop" in err


@pytest.mark.parametrize("command", ["classify", "regularity"])
@pytest.mark.parametrize("comment", ["", "# sent to the line walk\n"])
@pytest.mark.parametrize(
    "n,edges", [("10000000000000", "0\n"), ("99999999999999999999", "1\n1 2\n")]
)
def test_cli_vertex_count_past_the_limit_exits_2(command, comment, n, edges, tmp_path, capsys):
    # A vertex count no adjacency list can hold is an input error, not a
    # corpus failure: exit 2, with the count named on stderr.
    big = tmp_path / "big.txt"
    big.write_text(f"{comment}{n} {edges}", encoding="utf-8")
    assert main([command, str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: vertex count {n} exceeds VERTEX_LIMIT = 10000000\n"


def test_cli_polytope_needs_odd_cycle(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("3 0\n", encoding="utf-8")
    assert main(["polytope", str(empty), "--q", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_polytope_point_budget(tmp_path, capsys, monkeypatch):
    # Past ENUM_POINT_LIMIT points the command exits 2 and prints no point.
    target = _write(tmp_path, "k3.txt", complete(3))
    monkeypatch.setattr(polytope, "ENUM_POINT_LIMIT", 5)
    assert main(["polytope", target, "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ENUM_POINT_LIMIT = 5" in captured.err
    monkeypatch.setattr(polytope, "ENUM_POINT_LIMIT", 6)
    assert main(["polytope", target, "--q", "1"]) == 0
    assert "(6 found)" in capsys.readouterr().out


def test_cli_polytope_enum_guard(tmp_path, capsys):
    target = _write(tmp_path, "k12.txt", complete(12))
    assert main(["polytope", target, "--q", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["regularity", "{graph}", "--oracle"],
        ["classify", "{graph}", "--oracle"],
        ["polytope", "{graph}", "--q", "1"],
    ],
)
@pytest.mark.parametrize("g", [cycle(40), complete_bipartite(50, 50)], ids=["c40", "k50_50"])
def test_cli_oracle_guard_exits_2_at_once(argv, g, tmp_path, capsys):
    target = _write(tmp_path, "big.txt", g)
    start = time.perf_counter()
    assert main([a.format(graph=target) for a in argv]) == 2
    assert time.perf_counter() - start < 1.0
    assert "lattice enumeration limited" in capsys.readouterr().err


def test_cli_polytope_edgeless_keeps_odd_cycle_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("30 0\n", encoding="utf-8")
    assert main(["polytope", str(empty), "--q", "1"]) == 2
    assert "needs an odd cycle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "cycle"], "cycle takes k"),
        (["gen", "random", "10", "0.5"], "random takes n p seed"),
        (["gen", "complete-bipartite", "3"], "complete-bipartite takes a b"),
        (["gen", "paper-example", "7"], "paper-example takes no parameters"),
        (["gen", "cycle", "x"], "cycle parameter k must be an integer, got 'x'"),
        (["gen", "random", "5", "0.5", "1.7"], "random parameter seed must be an integer, got '1.7'"),
    ],
)
def test_cli_gen_names_the_parameters(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "classify" in capsys.readouterr().out


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    # Building the parser adds its subcommands once; parsing never does.
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    assert main(["gen", "cycle", "3"]) == 0
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    assert main(["gen", "cycle", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("3 3\n") == 2
    assert "classify" in out
    # At most once: an earlier test in this process may already have built it.
    assert built.count("reesreg") <= 1


_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(categories=["Cs"])
    | st.characters(max_codepoint=0x1F),
    max_size=8,
)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _TEXT,
    lambda children: st.lists(children, max_size=6)
    | st.lists(st.integers() | st.booleans())
    | st.dictionaries(_TEXT, children, max_size=6),
    max_leaves=20,
)


@settings(max_examples=200)
@given(_JSON_VALUES)
def test_write_json_is_json_dumps_indent_2(x):
    assert write_json(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize(
    "x, message",
    [
        ((1, 2), "Object of type tuple is not JSON serializable"),
        ({"a": [{1, 2}]}, "Object of type set is not JSON serializable"),
        ({1: 2}, "keys must be str, not int"),
        ([{"a": 1}, {None: 1}], "keys must be str, not NoneType"),
    ],
)
def test_write_json_refuses_other_types(x, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        write_json(x)


_DISPATCH_TABLE = [
    ["classify", "{g}"],
    ["gen", "cycle", "3"],
    ["regularity", "{g}", "--oracle"],
    ["ged", "{g}"],
    ["polytope", "{g}", "--q", "1"],
    ["corpus", "--max-n", "3"],
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["clas"],
    ["--json", "classify", "{g}"],
    ["classify", "--", "{g}"],
    ["classify", "{g}", "--bogus"],
    ["classify", "{g}", "extra"],
    ["classify", "-h"],
    ["polytope", "{g}", "--q", "x"],
    ["polytope", "{g}"],
    ["classify", "{g}", "--", "--json"],
    ["--", "classify", "{g}"],
    ["classify", "{g}", "-h"],
    ["gen", "cycle", "2"],
]
# Calls the command's table reads.  classify's JSON carries its timings,
# which differ from run to run, so its rows print text.
_TABLE_ROWS = [
    ["classify", "{g}", "--oracle", "--witness"],
    ["classify", "--witness", "{g}"],
    ["classify", "{g}", "--witness", "--witness"],
    ["polytope", "{g}", "--q", "1", "--q", "2"],
    ["corpus", "--max-n", "3", "--seed", "2", "--json"],
]
# Calls the table refuses, so that the command's parser reads them.
_REFUSED_ROWS = [
    ["classify", "{g}", "--wit"],
    ["polytope", "{g}", "--q=1"],
    ["polytope", "{g}", "--q", "-1"],
    ["corpus", "--seed", "-5", "--max-n", "3"],
    ["regularity", "{g}", "--oracle", "extra"],
]
_DISPATCH_TABLE += _TABLE_ROWS + _REFUSED_ROWS


@pytest.mark.parametrize("argv", _DISPATCH_TABLE, ids=" ".join)
def test_cli_dispatch_matches_the_full_parse(argv, tmp_path, monkeypatch, capsys):
    # With an empty command table every argv goes through the top-level
    # parser, as it did before `main` looked the command up itself.
    target = _write(tmp_path, "g.txt", paper_example())
    argv = [a.format(g=target) for a in argv]
    code = main(argv)
    dispatched = (code, *capsys.readouterr())
    parser, _ = cli._parsers()
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
    code = main(argv)
    assert dispatched == (code, *capsys.readouterr())


def test_cli_builds_each_command_table_once(tmp_path, monkeypatch, capsys):
    # Fresh parsers, so that every table is built in this test.  A table
    # is built by reading its parser's actions; later calls read them no more.
    parser, commands = cli._parsers.__wrapped__()
    passes = []

    class Counted(list):
        def __iter__(self):
            passes.append(self.name)
            return super().__iter__()

    for name, command in commands.items():
        command.arguments = Counted(command.arguments)
        command.arguments.name = name
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, commands))
    target = _write(tmp_path, "g.txt", paper_example())
    calls = [
        ["classify", target, "--json"],
        ["classify", target, "--wit"],
        ["regularity", target],
        ["ged", target, "--json"],
        ["polytope", target, "--q", "1"],
        ["polytope", target, "--q=1"],
        ["corpus", "--max-n", "2"],
        ["gen", "cycle", "3"],
    ]
    for argv in calls:
        assert main(argv) == 0
    built = sorted(passes)
    assert sorted(set(built)) == sorted(commands)
    for _ in range(2):
        for argv in calls:
            assert main(argv) == 0
    assert sorted(passes) == built

    # With an empty command table, as test_cli_dispatch_matches_the_full_parse
    # patches in, no table is read: every argv goes to argparse.
    def no_table(*args):
        raise AssertionError("an empty command table reads no table")

    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
    monkeypatch.setattr(cli, "_from_table", no_table)
    capsys.readouterr()
    for argv in calls:
        assert main(argv) == 0
    assert main(["classify", target, "--bogus"]) == 2
    assert capsys.readouterr().err.startswith("usage: reesreg ")
    assert sorted(passes) == built


# Words drawn for each command: each of its arguments none, one or two
# times (a required one once more often than not), in any order, as an
# option string with a value if it takes one; and among them at most one
# run that argparse treats apart (abbreviations, `--opt=value`, `--`, `-h`,
# negative numbers, missing values, other words).
_PLAIN_VALUES = st.sampled_from(["g.txt", "-", "0", "3", " 2", "x", ""])
_OTHER_VALUES = st.sampled_from(["--", "-1", "-5", "1.5", "-x", "-h", "--bogus"]) | st.text(max_size=3)


@st.composite
def _table_words(draw, command: argparse.ArgumentParser) -> list[str]:
    runs = []
    for action in command.arguments[1:]:  # after -h, which comes among the other runs
        for _ in range(draw(st.sampled_from((1, 1, 0, 2) if action.required else (0, 0, 1, 2)))):
            run = (draw(st.sampled_from(action.option_strings)),) if action.option_strings else ()
            runs.append(run + (draw(_PLAIN_VALUES),) * (action.nargs != 0))
    runs = list(draw(st.permutations(runs)))
    option = st.sampled_from([option for action in command.arguments for option in action.option_strings])
    other = st.one_of(
        st.tuples(_OTHER_VALUES),
        st.tuples(option, _OTHER_VALUES),
        st.tuples(option),
        option.map(lambda o: (o[:-1],)),
        st.tuples(option, _PLAIN_VALUES | _OTHER_VALUES).map(lambda ov: (f"{ov[0]}={ov[1]}",)),
    )
    for run in draw(st.lists(other, max_size=1)):
        runs.insert(draw(st.integers(0, len(runs))), run)
    return [word for run in runs for word in run]


@pytest.mark.parametrize("name", ["classify", "gen", "regularity", "ged", "polytope", "corpus"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_table_builds_the_namespace_of_parse_known_args(name, data):
    command = cli._parsers()[1][name]
    words = data.draw(_table_words(command))
    args = cli._from_table(command, words)
    if args is not None:
        expected, rest = command.parse_known_args(words)
        assert list(vars(args).items()) == list(vars(expected).items())
        assert rest == []


# The bench's classify argv, the README's examples and the CI steps' calls
# other than `gen`: the table must read each of them, or the gain is lost.
_DOCUMENTED_CALLS = [
    ["classify", "g.txt", "--json", "--witness"],
    ["classify", "c5.g"],
    ["regularity", "c5.g", "--oracle"],
    ["ged", "c5.g"],
    ["polytope", "c5.g", "--q", "3", "--interior"],
    ["corpus", "--max-n", "4"],
    ["classify", "g.txt", "--witness"],
    ["classify", "c.txt", "--witness", "--json"],
    ["regularity", "hub.txt", "--json"],
    ["regularity", "k50_50.txt", "--oracle"],
    ["ged", "c.txt", "--json"],
    ["polytope", "k11.txt", "--q", "4", "--json"],
    ["polytope", "k11.txt", "--q", "12"],
    ["corpus", "--max-n", "14", "--random", "40", "--seed", "1", "--json"],
    ["corpus", "--max-n", "11", "--random", "20000", "--seed", "2"],
    ["corpus", "--max-n", "6", "--json"],
]


@pytest.mark.parametrize(
    "argv, table",
    [(argv, True) for argv in _TABLE_ROWS + _DOCUMENTED_CALLS] + [(argv, False) for argv in _REFUSED_ROWS],
    ids=lambda x: " ".join(x) if isinstance(x, list) else str(x),
)
def test_cli_table_reads_the_calls_it_should(argv, table):
    command = cli._parsers()[1][argv[0]]
    words = [a.format(g="g.txt") for a in argv[1:]]
    args = cli._from_table(command, words)
    assert (args is not None) is table
    if table:
        assert args == command.parse_known_args(words)[0]


def test_cli_well_formed_call_skips_the_top_level_parser(monkeypatch, capsys):
    parser, _ = cli._parsers()

    def no_parse(*args):
        raise AssertionError("a well-formed call is parsed once, by its command")

    monkeypatch.setattr(parser, "parse_args", no_parse)
    assert main(["gen", "cycle", "3"]) == 0
    assert capsys.readouterr().out == "3 3\n1 2\n1 3\n2 3\n"


@pytest.mark.parametrize("argv", [["gen", "cycle", "3"], ["gen", "cycle", "3", "--bogus"], []])
def test_cli_main_reads_sys_argv(argv, monkeypatch, capsys):
    expected = (main(argv), *capsys.readouterr())
    monkeypatch.setattr(sys, "argv", ["reesreg", *argv])
    assert (main(), *capsys.readouterr()) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "{g}", "--json", "--witness", "--oracle"],
        ["regularity", "{g}", "--json", "--oracle"],
        ["ged", "{g}", "--json"],
        ["polytope", "{g}", "--q", "2", "--json"],
        ["corpus", "--max-n", "4", "--json"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_json_is_json_dumps_indent_2(argv, tmp_path, capsys):
    target = _write(tmp_path, "g.txt", paper_example())
    assert main([a.format(g=target) for a in argv]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reesreg", "gen", "cycle", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3 3\n1 2\n1 3\n2 3\n"


def _script_target() -> tuple[str, str]:
    # The module and function that pyproject.toml's `reesreg` script calls.
    root = Path(__file__).resolve().parents[1]
    scripts = (root / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
    target = scripts.split("reesreg = ", 1)[1].split("\n", 1)[0]
    module, function = json.loads(target).split(":")
    return module, function


def test_the_script_and_the_module_call_one_entry_function():
    # `python -m reesreg` runs `sys.exit(f())` for the f that it imports
    # from the module the script names, and the script calls that f too.
    module, function = _script_target()
    source = (Path(cli.__file__).parent / "__main__.py").read_text(encoding="utf-8")
    assert f"from .{module.split('.', 1)[1]} import {function}\n" in source
    assert source.endswith(f"sys.exit({function}())\n")


@pytest.mark.parametrize("form", ["module", "script"])
def test_entry_points_exit_141_on_a_closed_pipe(form, tmp_path):
    # The read end is closed before the child starts, and the child's
    # stdout is buffered, so the short report first meets the closed pipe
    # at a flush.  Both entry points must exit 128 + SIGPIPE with nothing
    # on stderr.  The script is run as the wrapper an install generates.
    module, function = _script_target()
    entry = {
        "module": ["-m", "reesreg"],
        "script": ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"],
    }[form]
    spec = _write(tmp_path, "c3.txt", cycle(3))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, *entry, "classify", spec], stdout=write, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def test_readme_command_line_examples_are_current(tmp_path, monkeypatch, capsys):
    # Each "$ reesreg ..." line of the README's "Command line" block must
    # print exactly the lines under it; "> FILE" sends the output to FILE.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        else:
            examples[-1][1].append(line)
    assert len(examples) == 6
    monkeypatch.chdir(tmp_path)
    for command, shown in examples:
        words = shlex.split(command)
        target = None
        if ">" in words:
            words, target = words[: words.index(">")], words[-1]
        assert words[0] == "reesreg"
        assert main(words[1:]) == 0, command
        out = capsys.readouterr().out
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")
            out = ""
        while shown and not shown[-1]:
            shown.pop()
        assert out == "".join(f"{x}\n" for x in shown), command
