"""End-to-end CLI tests over real artifact files."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nofmux
from nofmux import acceptance
from nofmux.cli import main


@pytest.fixture
def nine_party_files(tmp_path):
    cert = tmp_path / "filtering.json"
    cert.write_text(json.dumps({
        "kind": "filtering", "k": 9, "ell": 4,
        "triplets": [[1, 2, [3, 4]], [1, 5, [6]], [7, 8, [9]]],
    }))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"k": 9,
                                 "edges": [[1, 2], [1, 5], [7, 8]]}))
    return str(cert), str(graph)


def test_validate_filtering_certificate(nine_party_files, capsys):
    cert, graph = nine_party_files
    assert main(["validate", cert, "--graph", graph]) == 0
    out = capsys.readouterr().out
    assert "verdict=true" in out
    assert "R(1)=3" in out and "R(7)=1" in out


def test_validate_empty_certificate(tmp_path, capsys):
    cert = tmp_path / "empty.json"
    cert.write_text(json.dumps({"kind": "filtering", "k": 5, "ell": 2,
                                "triplets": []}))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"k": 5, "edges": []}))
    assert main(["validate", str(cert), "--graph", str(graph)]) == 0
    assert "verdict=true" in capsys.readouterr().out


def test_validate_invalid_certificate_exits_one(tmp_path, capsys):
    cert = tmp_path / "bad.json"
    # R(S) = 3 > ell - 1 = 1
    cert.write_text(json.dumps({"kind": "filtering", "k": 9, "ell": 2,
                                "triplets": [[1, 2, [3, 4, 5]]]}))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"k": 9, "edges": []}))
    assert main(["validate", str(cert), "--graph", str(graph)]) == 1
    out = capsys.readouterr().out
    assert "verdict=false" in out and "violated" in out


def test_validate_repetitive_certificate(tmp_path, capsys):
    cert = tmp_path / "rep.json"
    cert.write_text(json.dumps({
        "kind": "repetitive", "k": 5, "ell": 2,
        "triplets": [[2, 2, [1, 2]]],
        "permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3]],
    }))
    assert main(["validate", str(cert)]) == 0
    assert "verdict=true" in capsys.readouterr().out


def test_validate_missing_graph_is_usage_error(nine_party_files, capsys):
    cert, _ = nine_party_files
    assert main(["validate", cert]) == 2


def test_matrix_reproduces_pinned_entries(nine_party_files, tmp_path,
                                          capsys):
    cert, graph = nine_party_files
    out_path = tmp_path / "matrix.json"
    assert main(["matrix", cert, "--graph", graph,
                 "--out", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "row(1,1)=2" in printed and "row(3,1)=2" in printed
    data = json.loads(out_path.read_text())
    rows = data["rows"]
    assert rows[0] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert rows[1][1] == 3 and rows[2][1] == 4 and rows[3][4] == 6
    assert rows[1][7] == 9
    assert all(row[0] == 1 for row in rows)
    assert [2, 8] in data["fixed"]


def test_matrix_rejects_wrong_kind(tmp_path, capsys):
    cert = tmp_path / "rep.json"
    cert.write_text(json.dumps({"kind": "repetitive", "k": 5, "ell": 2,
                                "triplets": [[2, 2, [1, 2]]],
                                "permutations": [[1, 2, 3, 4, 5],
                                                 [4, 2, 5, 1, 3]]}))
    assert main(["matrix", str(cert)]) == 2


@pytest.fixture
def equality_pipeline_plan(tmp_path):
    cert = tmp_path / "filtering.json"
    cert.write_text(json.dumps({"kind": "filtering", "k": 5, "ell": 2,
                                "triplets": [[5, 2, [4]]]}))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "path": "t2", "k": 5, "n": 1, "ell": 2,
        "function": {"kind": "eq"},
        "protocol": {"family": "example3"},
        "graph": {"builtin": "example3", "k": 5},
        "certificate": str(cert),
    }))
    return str(plan)


def test_compile_equality_pipeline(equality_pipeline_plan, tmp_path, capsys):
    out = tmp_path / "compiled.json"
    assert main(["compile", equality_pipeline_plan, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["predicted_bound_total"] == 3
    assert data["path"] == "t2"
    assert data["permutations"][0] == [1, 2, 3, 4, 5]
    assert "predicted_bound=3" in capsys.readouterr().out


def test_verify_equality_pipeline(equality_pipeline_plan, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", equality_pipeline_plan, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["correct"] and data["exhaustive"]
    assert data["measured_worst_case"] == 3
    assert data["naive_baseline"] == 4
    assert data["domain_size"] == 1024


def test_verify_myopic_plan(tmp_path, capsys):
    cert = tmp_path / "rep.json"
    cert.write_text(json.dumps({
        "kind": "repetitive", "k": 5, "ell": 2,
        "triplets": [[2, 2, [1, 2]]],
        "permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3]],
    }))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "path": "t3", "k": 5, "n": 1, "ell": 2,
        "function": {"kind": "eq"},
        "protocols": [{"family": "myopic-eq", "pi": [1, 2, 3, 4, 5]},
                      {"family": "myopic-eq", "pi": [4, 2, 5, 1, 3]}],
        "certificate": str(cert),
    }))
    out = tmp_path / "report.json"
    assert main(["verify", str(plan), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["correct"] and data["measured_worst_case"] == 7


def test_verify_forwarding_plan(tmp_path, capsys):
    """The t1 forwarding pipeline, as a plan file: n + ell = 4 bits against
    ell * (n + 1) = 6 for separate runs."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "path": "t1", "k": 4, "n": 1, "ell": 3,
        "function": {"kind": "random", "seed": 5},
        "protocols": [{"family": "example1-variant", "i": i}
                      for i in (1, 2, 3)],
        "permutations": [[1, 2, 3, 4], [2, 3, 1, 4], [3, 1, 2, 4]],
        "graph": {"builtin": "example1"},
        "certificate": {"kind": "multiplexing", "k": 4, "ell": 3,
                        "triplets": [[4, 1, [2, 3]]]},
    }))
    assert main(["verify", str(plan)]) == 0
    out = capsys.readouterr().out
    assert "correct=True, worst_case=4 bits" in out
    assert "bound=4, naive=6" in out


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/cert.json"]) == 2


def test_malformed_json_is_usage_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["validate", str(broken)]) == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_directory_input_is_usage_error(tmp_path, capsys):
    _one_line_usage_error(["validate", str(tmp_path)], capsys)


def test_undecodable_input_is_usage_error(tmp_path, capsys):
    binary = tmp_path / "cert.json"
    binary.write_bytes(b"\xff\xfe{")
    _one_line_usage_error(["validate", str(binary)], capsys)


def test_unwritable_out_is_usage_error(nine_party_files, tmp_path, capsys):
    """The matrix is printed, then the failed write is one error line."""
    cert, graph = nine_party_files
    out = tmp_path / "missing" / "m.json"
    printed = _one_line_usage_error(
        ["matrix", cert, "--graph", graph, "--out", str(out)], capsys)
    assert printed and not out.exists()


def test_artifacts_are_deterministic(equality_pipeline_plan, tmp_path,
                                     capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["compile", equality_pipeline_plan, "--out", str(out1)])
    main(["compile", equality_pipeline_plan, "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def _one_line_usage_error(argv, capsys, error=None):
    """Exit 2 with one ``error:`` line, ``error: <error>`` when given."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    err = err.strip()
    assert err.startswith("error:") and "\n" not in err, err
    assert error is None or err == f"error: {error}", err
    return out


def test_plan_without_k_is_usage_error(equality_pipeline_plan, tmp_path,
                                       capsys):
    data = json.loads(Path(equality_pipeline_plan).read_text())
    del data["k"]
    plan = tmp_path / "no_k.json"
    plan.write_text(json.dumps(data))
    _one_line_usage_error(["verify", str(plan)], capsys)


def test_two_field_triplet_is_usage_error(tmp_path, capsys):
    cert = tmp_path / "short.json"
    cert.write_text(json.dumps({"kind": "filtering", "k": 5, "ell": 2,
                                "triplets": [[5, 2]]}))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"k": 5, "edges": []}))
    _one_line_usage_error(["validate", str(cert), "--graph", str(graph)],
                          capsys)


def test_graph_without_edges_is_usage_error(nine_party_files, tmp_path,
                                            capsys):
    cert, _ = nine_party_files
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"k": 9}))
    _one_line_usage_error(["validate", cert, "--graph", str(graph)], capsys)


def test_out_of_range_triplet_is_usage_error(tmp_path, capsys):
    cert = tmp_path / "pos0.json"
    cert.write_text(json.dumps({
        "kind": "repetitive", "k": 5, "ell": 2,
        "triplets": [[0, 2, [1, 2]]],
        "permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3]],
    }))
    _one_line_usage_error(["validate", str(cert)], capsys)


def test_certificate_shape_must_match_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "path": "t3", "k": 5, "n": 1, "ell": 2,
        "function": {"kind": "eq"},
        "protocols": [{"family": "myopic-eq", "pi": [1, 2, 3, 4, 5]},
                      {"family": "myopic-eq", "pi": [4, 2, 5, 1, 3]}],
        "certificate": {
            "kind": "repetitive", "k": 9, "ell": 7,
            "triplets": [[2, 2, [1, 2]]],
            "permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3]],
        },
    }))
    _one_line_usage_error(["verify", str(plan)], capsys)


# A certificate whose triplets, permutations or graph do not fit its own k
# and ell: each is a usage error before any output.
_NINE_PARTY_FILTERING = {"kind": "filtering", "k": 9, "ell": 4,
                         "triplets": [[1, 2, [3, 4]]]}
SHAPE_ERRORS = {
    "graph-of-other-k": ("validate", _NINE_PARTY_FILTERING,
                         {"k": 5, "edges": []}),
    "matrix-graph-of-other-k": ("matrix", _NINE_PARTY_FILTERING,
                                {"k": 5, "edges": []}),
    "party-out-of-range": (
        "validate", {"kind": "filtering", "k": 9, "ell": 4,
                     "triplets": [[1, 12, [3]]]}, {"k": 9, "edges": []}),
    "protocol-index-out-of-range": (
        "validate", {"kind": "multiplexing", "k": 4, "ell": 2,
                     "triplets": [[4, 1, [7]]],
                     "permutations": [[1, 2, 3, 4], [2, 3, 1, 4]]},
        {"builtin": "example1", "k": 4}),
    "position-without-successor": (
        "validate", {"kind": "repetitive", "k": 5, "ell": 2,
                     "triplets": [[5, 2, [1, 2]]],
                     "permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3]]},
        None),
    "multiplexing-permutation-count": (
        "validate", {"kind": "multiplexing", "k": 4, "ell": 7,
                     "triplets": [[4, 1, [2, 3]]],
                     "permutations": [[1, 2, 3, 4], [2, 3, 1, 4],
                                      [3, 1, 2, 4]]},
        {"builtin": "example1", "k": 4}),
    "repetitive-permutation-count": (
        "validate", {"kind": "repetitive", "k": 5, "ell": 9,
                     "triplets": [[2, 2, [1, 2]]],
                     "permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3]]},
        None),
    "permutation-arity": (
        "validate", {"kind": "repetitive", "k": 5, "ell": 2,
                     "triplets": [[2, 2, [1, 2]]],
                     "permutations": [[1, 2, 3], [2, 3, 1]]}, None),
}


@pytest.mark.parametrize("command,cert,graph", SHAPE_ERRORS.values(),
                         ids=list(SHAPE_ERRORS))
def test_certificate_shape_is_usage_error(command, cert, graph, tmp_path,
                                          capsys):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    argv = [command, str(cert_path)]
    if graph is not None:
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(graph))
        argv += ["--graph", str(graph_path)]
    assert _one_line_usage_error(argv, capsys) == ""


_T3_PLAN = {
    "path": "t3", "k": 5, "n": 1, "ell": 2,
    "function": {"kind": "eq"},
    "protocols": [{"family": "myopic-eq", "pi": [1, 2, 3, 4, 5]},
                  {"family": "myopic-eq", "pi": [4, 2, 5, 1, 3]}],
    "certificate": {"kind": "repetitive", "k": 5, "ell": 2,
                    "triplets": [[2, 2, [1, 2]]],
                    "permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3]]},
}
_T1_PLAN = {
    "path": "t1", "k": 4, "n": 1, "ell": 3,
    "function": {"kind": "random", "seed": 5},
    "protocols": [{"family": "example1-variant", "i": i} for i in (1, 2, 3)],
    "permutations": [[1, 2, 3, 4], [2, 3, 1, 4], [3, 1, 2, 4]],
    "graph": {"builtin": "example1"},
}
_T2_PLAN = {
    "path": "t2", "k": 5, "n": 1, "ell": 2,
    "function": {"kind": "eq"},
    "protocol": {"family": "example3"},
    "graph": {"builtin": "example3", "k": 5},
}
_T1_CERTIFICATE = {"kind": "multiplexing", "k": 4, "ell": 3,
                   "triplets": [[4, 1, [2, 3]]]}
# override of the t3 plan -> the pinned error, or None
PLAN_ERRORS = {
    "permutation-count": ({"permutations": [[1, 2, 3, 4, 5]]}, None),
    "unknown-theorem-path": ({"path": "t9"}, None),
    # checked before the certificate, which has no permutations here
    "unknown-theorem-path-first": (
        {"path": "t9", "certificate": {"kind": "filtering", "k": 5,
                                       "ell": 2, "triplets": []}},
        "unknown theorem path 't9'"),
    "null-function": ({"function": None},
                      "the plan's function must be a JSON object"),
    "list-function": ({"function": []},
                      "the plan's function must be a JSON object"),
    # open(0) would read standard input
    "function-path-not-a-string": (
        {"function": {"kind": "file", "path": 0}},
        "file path must be a string, not 0"),
    "function-of-other-shape": (
        {"function": {"kind": "file", "path": "k4.json"}},
        "function file has k=4, n=1; the plan has k=5, n=1"),
    # a certificate of a kind that its theorem path does not take
    "t1-with-filtering": ({**_T1_PLAN, "certificate": {
        "kind": "filtering", "k": 4, "ell": 3,
        "triplets": [[4, 1, [2, 3]]]}}, None),
    "t2-with-repetitive": ({**_T2_PLAN, "certificate": {
        "kind": "repetitive", "k": 5, "ell": 2,
        "triplets": [[2, 2, [1, 2]]]}}, None),
    "t3-with-multiplexing": ({"certificate": {
        "kind": "multiplexing", "k": 5, "ell": 2,
        "triplets": [[2, 3, [2]]],
        "permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3]]}}, None),
    # every number read from a file is a JSON integer, never truncated
    "ell-not-an-integer": ({"ell": 2.5}, "ell must be an integer, not 2.5"),
    "k-a-boolean": ({"k": True}, "k must be an integer, not True"),
    "n-zero": ({"n": 0}, "the plan needs n >= 1 and ell >= 1, not n=0, "
                         "ell=2"),
    # a t2 plan's ell reaches no plan check, only the filtering-set check
    "t2-ell-zero": ({**_T2_PLAN, "ell": 0, "certificate": {
        "kind": "filtering", "k": 5, "ell": 0, "triplets": []}},
        "the plan needs n >= 1 and ell >= 1, not n=1, ell=0"),
    "function-bit-not-an-integer": (
        {"function": {"kind": "constant", "bit": 1.0}},
        "bit must be an integer, not 1.0"),
    "function-seed-not-an-integer": (
        {"function": {"kind": "random", "seed": 1.5}},
        "seed must be an integer, not 1.5"),
    "function-file-entry-not-an-integer": (
        {"function": {"kind": "file", "path": "half.json"}},
        "truth table entry must be an integer, not 0.5"),
    "certificate-ell-not-an-integer": (
        {"certificate": {**_T3_PLAN["certificate"], "ell": 2.5}},
        "ell must be an integer, not 2.5"),
    "inline-permutation-entry-not-an-integer": (
        {"permutations": [[1, 2, 3, 4, 5], [4, 2, 5, 1, 3.0]]},
        "permutation entry must be an integer, not 3.0"),
    "chain-entry-not-an-integer": (
        {"protocols": [{"family": "myopic-eq", "pi": [1, 2, 3, 4, 5]},
                       {"family": "myopic-eq", "pi": [4, 2, 5, 1, 3.0]}]},
        "permutation entry must be an integer, not 3.0"),
    "variant-index-not-an-integer": (
        {**_T1_PLAN, "certificate": _T1_CERTIFICATE,
         "protocols": [{"family": "example1-variant", "i": i}
                       for i in (1, 2.0, 3)]},
        "i must be an integer, not 2.0"),
    "builtin-graph-k-not-an-integer": (
        {**_T2_PLAN, "graph": {"builtin": "example3", "k": 5.0}},
        "k must be an integer, not 5.0"),
    "graph-edge-not-an-integer": (
        {**_T1_PLAN, "certificate": _T1_CERTIFICATE,
         "graph": {"k": 4, "edges": [[1, 2.5]]}},
        "edge endpoint must be an integer, not 2.5"),
}


@pytest.mark.parametrize("override,error", PLAN_ERRORS.values(),
                         ids=list(PLAN_ERRORS))
def test_malformed_plan_is_usage_error(override, error, tmp_path, capsys,
                                       monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative function file paths
    Path("k4.json").write_text(json.dumps(
        {"k": 4, "n": 1, "values": [0] * 16}))
    Path("half.json").write_text(json.dumps(
        {"k": 5, "n": 1, "values": [0.5] + [0] * 31}))
    Path("plan.json").write_text(json.dumps({**_T3_PLAN, **override}))
    _one_line_usage_error(["verify", "plan.json"], capsys, error)


def test_plan_past_the_guard_fails_at_once(tmp_path, capsys):
    """A plan whose eq table would have 2^200 entries costs no sweep and
    no table: it is refused in well under a second of CPU time."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**_T3_PLAN, "n": 40}))
    start = time.process_time()
    _one_line_usage_error(["verify", str(plan)], capsys,
                          "the plan's function: 2^200 entries exceed the "
                          "materialization guard")
    assert time.process_time() - start < 0.5


def test_demo_prints_each_criterion_and_fails_on_any(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", (
        acceptance.Criterion("good", lambda budget: (True, "fine")),
        acceptance.Criterion("bad", lambda budget: (False, "broken"),
                             full=lambda budget: (True, "whole domain")),
    ))
    assert main(["demo"]) == 1
    assert capsys.readouterr().out == "[PASS] good: fine\n[FAIL] bad: broken\n"
    assert main(["demo", "--full"]) == 0
    assert capsys.readouterr().out == ("[PASS] good: fine\n"
                                       "[PASS] bad: whole domain\n")


def test_import_nofmux_loads_neither_cli_nor_acceptance():
    src = str(Path(nofmux.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import nofmux; "
            "print([m for m in ('nofmux.cli', 'nofmux.acceptance') "
            "if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_verify_reports_counterexample(tmp_path, capsys):
    """A protocol that disagrees with the plan's function exits 1 and names
    the first failing input, on stdout and in the report file."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**_T3_PLAN,
                                "function": {"kind": "constant", "bit": 0}}))
    out = tmp_path / "report.json"
    assert main(["verify", str(plan), "--out", str(out)]) == 1
    assert ("counterexample: input 0 instance 1: got 1, expected 0"
            in capsys.readouterr().out)
    data = json.loads(out.read_text())
    assert not data["correct"]
    assert data["counterexample"] == {
        "input_index": 0, "instance": 1, "protocol_output": 1,
        "expected": 0, "rows": [["0"] * 5, ["0"] * 5]}


@pytest.mark.parametrize("command", ["compile", "verify", "demo"])
@pytest.mark.parametrize("budget", ["0", "-1", "x"])
def test_budget_must_be_a_positive_integer(command, budget, tmp_path,
                                           capsys):
    """A budget below 1 is a usage error, exit 2 before anything runs, not
    a failed assertion (exit 1) from the first sweep it guards."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(_T3_PLAN))
    argv = [command] + ([] if command == "demo" else [str(plan)])
    assert main(argv + ["--budget", budget]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --budget: {budget!r} is not a positive integer" in err


def test_compile_t3_plan_within_a_small_budget(tmp_path, capsys):
    """The t3 bound enumerates one combination of cost rows here, so a
    budget that covers the chains' 32-input sweeps covers the bound."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(_T3_PLAN))
    out = tmp_path / "compiled.json"
    assert main(["compile", str(plan), "--budget", "500",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["predicted_bound_total"],
            data["predicted_bound_payload"]) == (7, 5)


def test_verify_c2_plan_writes_the_t3_report(tmp_path, capsys):
    """A c2 plan compiles as the t3 plan it is: same report, t3 name."""
    reports = []
    for path in ("t3", "c2"):
        plan, out = tmp_path / f"{path}.json", tmp_path / f"{path}-out.json"
        plan.write_text(json.dumps({**_T3_PLAN, "path": path}))
        assert main(["verify", str(plan), "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["protocol"].startswith("mux-t3[")


def test_compile_checks_a_t3_certificate_once(tmp_path, capsys,
                                              monkeypatch):
    """The combiner compiles the plan the file builds, so the plan's
    repetitive set is checked once, not again by the combiner."""
    calls = []
    check = nofmux.compiler.is_repetitive_set
    monkeypatch.setattr(nofmux.compiler, "is_repetitive_set",
                        lambda *args: calls.append(args) or check(*args))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(_T3_PLAN))
    assert main(["compile", str(plan)]) == 0
    assert len(calls) == 1
