"""Command-line front end: scenarios, reports, refusals, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nichols import cli

SCENARIOS = Path(cli.__file__).parent / "scenarios"
DATA = Path(__file__).parent / "data"
PERFBENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" \
    / "scenarios"

A2_CASE = {"label": "a2", "diagonal": [["z3^1", "1"], ["z3^2", "z3^1"]]}

FK3_GROUP = {"type": "permutation", "degree": 3,
             "generators": [[2, 1, 3], [2, 3, 1]]}
FK3_NUMERATION = {"members": [[2, 1, 3], [1, 3, 2], [3, 2, 1]],
                  "reps": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]}


def fk3_module_spec(name, numeration=True):
    spec = {"name": name, "class_rep": [2, 1, 3],
            "rho": {"values": {"2,1,3": "-1"}}}
    if numeration:
        spec["numeration"] = FK3_NUMERATION
    return spec


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- bundled scenarios


def test_bundled_fk3_scenario(capsys):
    code, report = run_json(capsys, ["hilbert", str(SCENARIOS / "s3_fk3.json")])
    assert code == 0
    assert report["spec_version"] == "1.0"
    assert report["task"] == "hilbert"
    assert report["scenario"] == "s3_fk3.json"
    assert len(report["scenario_sha256"]) == 64
    result, = report["results"]
    assert result["label"] == "fk3"
    assert result["dims"] == [1, 3, 4, 3, 1]
    assert result["finished"] is True
    assert result["total"] == 12


def test_bundled_s4_scenario_three_totals(capsys):
    code, report = run_json(capsys,
                            ["hilbert", str(SCENARIOS / "s4_all_three.json")])
    assert code == 0
    assert [r["label"] for r in report["results"]] == \
        ["transpositions-sign", "transpositions-mixed", "four-cycles"]
    for result in report["results"]:
        assert result["finished"] is True
        assert result["total"] == 576


def test_bundled_s4_pairs_scenario_at_cap_three(capsys):
    code, report = run_json(capsys, ["cartan", "--cap", "3",
                                     str(SCENARIOS / "s4_pairs.json")])
    assert code == 0
    assert [r["label"] for r in report["results"]] == [
        "sgn+sgn", "sgn+sgn-eps", "sgn+chi-minus", "sgn-eps+sgn-eps",
        "sgn-eps+chi-minus", "chi-minus+chi-minus"]
    unbounded = {"unbounded_at_cap": 3, "chain_reached": 3}
    for result in report["results"]:
        assert result["block_dims"] == [6, 6]
        assert result["cartan"] == [[2, unbounded], [unbounded, 2]]
        assert result["exact"] is False


def test_bundled_dn_obstruction_scenario(capsys):
    code, report = run_json(capsys,
                            ["derive", str(SCENARIOS / "dn_obstruction.json")])
    assert code == 0
    result, = report["results"]
    assert result["value"] == "-v5"
    assert result["is_zero"] is False
    assert result["degree"] == 1
    probe = result["cartan_probe"]
    assert probe["entry"] == {"unbounded_at_cap": 3, "chain_reached": 3}
    assert probe["verdict"] == "a[1,2] <= -2"


def test_reports_are_byte_identical(capsys):
    path = str(SCENARIOS / "s3_fk3.json")
    cli.main(["hilbert", path, "--json"])
    first = capsys.readouterr().out
    cli.main(["hilbert", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


# -- tasks on ad-hoc scenarios


def test_groupoid_report(tmp_path, capsys):
    path = write_scenario(tmp_path, {"task": "groupoid", "cap": 6,
                                     "cases": [A2_CASE]})
    code, report = run_json(capsys, ["groupoid", path])
    assert code == 0
    result, = report["results"]
    assert len(result["nodes"]) == 6
    assert len(result["edges"]) == 12
    assert result["partial"] is False
    assert result["standard"]["status"] == "standard"
    assert result["finite_type"] == {"finite": True, "label": "A2"}


def test_roots_report(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(A2_CASE, cap=6))
    code, report = run_json(capsys, ["roots", path])
    assert code == 0
    result, = report["results"]
    assert result["count"] == 6
    assert result["partial"] is False
    assert [tuple(r) for r in result["roots"]] == \
        sorted([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])


def test_cartan_report_and_csv(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(A2_CASE, cap=6))
    out = tmp_path / "report.json"
    code = cli.main(["cartan", path, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"][0]["cartan"] == [[2, -1], [-1, 2]]
    assert report["results"][0]["exact"] is True
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "label,row,col,entry"
    assert "a2,1,2,-1" in csv_text.splitlines()


def test_hilbert_csv_and_unfinished_total(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "group": FK3_GROUP, "field_conductor": 1,
        "modules": [fk3_module_spec("x")]})
    out = tmp_path / "fk3.json"
    code = cli.main(["hilbert", path, "--cap", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["cap"] == 2
    assert report["results"][0]["finished"] is False
    assert report["results"][0]["total"] is None
    lines = (tmp_path / "fk3.csv").read_text().splitlines()
    assert lines == ["label,degree,dim", "case1,0,1", "case1,1,3",
                     "case1,2,4", "case1,total,"]


def test_reflect_report(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(A2_CASE, cap=6, index=1))
    code, report = run_json(capsys, ["reflect", path])
    assert code == 0
    result, = report["results"]
    assert result["index"] == 1
    assert result["s_matrix"] == [[-1, 1], [0, 1]]
    assert result["reflected_block_dims"] == [1, 1]
    assert result["fingerprints"] != result["reflected_fingerprints"]


def test_derive_pinned_numeration_witness(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "task": "derive", "cap": 3,
        "group": FK3_GROUP, "field_conductor": 1,
        "modules": [fk3_module_spec("x"), fk3_module_spec("y")],
        "expression": "(d x3 (d y1 (ad x2 (ad x1 y2))))"})
    code, report = run_json(capsys, ["derive", path])
    assert code == 0
    assert report["results"][0]["value"] == "-x2"


def test_numeration_override_flag(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "task": "derive", "cap": 3,
        "group": FK3_GROUP, "field_conductor": 1,
        "modules": [fk3_module_spec("x", numeration=False),
                    fk3_module_spec("y", numeration=False)],
        "expression": "(d x3 (d y1 (ad x2 (ad x1 y2))))"})
    override = tmp_path / "numeration.json"
    override.write_text(json.dumps([FK3_NUMERATION, FK3_NUMERATION]))
    code, report = run_json(capsys,
                            ["derive", path, "--numeration", str(override)])
    assert code == 0
    assert report["results"][0]["value"] == "-x2"
    # a partial override list is allowed; entries must not outnumber modules
    override.write_text(json.dumps([FK3_NUMERATION, None, FK3_NUMERATION]))
    assert cli.main(["derive", path, "--numeration", str(override)]) == 2


# -- refusals and exit codes


def refusal_payload(capsys, argv):
    code = cli.main(argv + ["--json"])
    captured = capsys.readouterr()
    assert "refused" in captured.err
    return code, json.loads(captured.out)


def test_task_mismatch_is_refused(tmp_path, capsys):
    path = write_scenario(tmp_path, {"task": "groupoid", "cases": [A2_CASE]})
    code, payload = refusal_payload(capsys, ["roots", path])
    assert code == 2
    assert payload["error"] == "scenario-error"


def test_unknown_field_is_refused(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(A2_CASE, caps=6))
    code, payload = refusal_payload(capsys, ["hilbert", path])
    assert code == 2
    assert payload["details"]["field"] == "caps"


MALFORMED_RHO = {
    "values-missing": {},
    "matrices-missing": {"dim": 2},
    "rho-a-string": "-1",
    "values-a-list": {"values": ["-1"]},
    # a -1 matrix, so that without the check the run would not be trivial
    "dim-mismatch": {"dim": 2, "matrices": {"2,1,3": [["-1"]]}},
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_RHO))
def test_malformed_rho_is_refused(tmp_path, capsys, fault):
    scenario = json.loads((SCENARIOS / "s3_fk3.json").read_text())
    scenario["cases"][0]["modules"][0]["rho"] = MALFORMED_RHO[fault]
    path = write_scenario(tmp_path, scenario)
    code, payload = refusal_payload(capsys, ["hilbert", path])
    assert code == 2
    assert payload["error"] == "module-spec-error"


D3_GROUP = {"type": "dihedral", "n": 3}
D3_MODULE = {"class_rep": [1, 0], "rho": {"values": {"1,0": "-1"}}}


def fk3_fields(**spec_fields):
    """Inline fk3 scenario fields whose one module spec takes spec_fields."""
    return {"modules": [dict(fk3_module_spec("x"), **spec_fields)]}


MALFORMED_SPEC_FIELDS = {
    "class-rep-an-int": ("hilbert", fk3_fields(class_rep=5),
                         "module-spec-error"),
    "index-base-a-string": ("hilbert", fk3_fields(index_base="a"),
                            "module-spec-error"),
    "numeration-a-list": ("hilbert", fk3_fields(numeration=[1, 2]),
                          "module-spec-error"),
    "numeration-of-ints": ("hilbert",
                           fk3_fields(numeration={"members": 3, "reps": 4}),
                           "module-spec-error"),
    "cap-true": ("hilbert", {"cap": True}, "scenario-error"),
    "node-limit-true": ("groupoid", {"node_limit": True}, "scenario-error"),
    "index-true": ("reflect", {"index": True}, "scenario-error"),
    "probe-row-true": ("derive", {"modules": [fk3_module_spec("x"),
                                              fk3_module_spec("y")],
                                  "cap": 2, "expression": "x1",
                                  "cartan_probe": [True, 2, 3]},
                       "scenario-error"),
    "probe-col-a-string": ("derive", {"expression": "x1",
                                      "cartan_probe": [1, "2", 3]},
                           "scenario-error"),
    "conductor-a-string": ("hilbert", {"field_conductor": "x"},
                           "scenario-error"),
    "conductor-a-list": ("hilbert", {"field_conductor": [3]},
                         "scenario-error"),
    "conductor-a-float": ("hilbert", {"field_conductor": 1.5},
                          "scenario-error"),
    "conductor-true": ("hilbert", {"field_conductor": True},
                       "scenario-error"),
    "rho-dim-true": ("hilbert",
                     fk3_fields(rho={"dim": True,
                                     "values": {"2,1,3": "-1"}}),
                     "module-spec-error"),
    "abelian-orders-a-string": ("hilbert", {"group": {
        "type": "abelian", "orders": "ab"}}, "group-spec-error"),
    "abelian-orders-an-int": ("hilbert", {"group": {
        "type": "abelian", "orders": 5}}, "group-spec-error"),
    "permutation-degree-a-string": ("hilbert", {"group": {
        "type": "permutation", "degree": "x", "generators": [[2, 1, 3]]}},
        "group-spec-error"),
    "permutation-generators-an-int": ("hilbert", {"group": {
        "type": "permutation", "degree": 3, "generators": 5}},
        "group-spec-error"),
    "permutation-generators-of-ints": ("hilbert", {"group": {
        "type": "permutation", "degree": 3, "generators": [5]}},
        "group-spec-error"),
    "dihedral-n-a-string": ("hilbert", {"group": {"type": "dihedral",
                                                  "n": "x"}},
                            "group-spec-error"),
    # a float or a bool used to be truncated: n 3.9 ran as D3, orders
    # [true, 2.5] as Z1 x Z2, and class_rep [1.7, 0.2] as (1, 0); the
    # modules fit the truncated groups
    "dihedral-n-a-float": ("hilbert", {"group": {"type": "dihedral",
                                                 "n": 3.9},
                                       "modules": [D3_MODULE]},
                           "group-spec-error"),
    "abelian-orders-bool-and-float": ("hilbert", {"group": {
        "type": "abelian", "orders": [True, 2.5]}, "modules": [{
            "class_rep": [0, 1], "rho": {"values": {"0,1": "-1"}}}]},
        "group-spec-error"),
    "permutation-degree-a-float": ("hilbert", {"group": dict(
        FK3_GROUP, degree=3.0)}, "group-spec-error"),
    "permutation-image-a-float": ("hilbert", {"group": dict(
        FK3_GROUP, generators=[[2.0, 1, 3], [2, 3, 1]])},
        "group-spec-error"),
    "class-rep-of-floats": ("hilbert", {"group": D3_GROUP, "modules": [dict(
        D3_MODULE, class_rep=[1.7, 0.2])]}, "module-spec-error"),
    "class-rep-of-bools": ("hilbert", {"group": D3_GROUP, "modules": [dict(
        D3_MODULE, class_rep=[True, False])]}, "module-spec-error"),
    # a non-string name or label used to run, with labels like "['x']1"
    "name-a-list": ("hilbert", fk3_fields(name=["x"]), "module-spec-error"),
    "name-an-object": ("hilbert", fk3_fields(name={"a": 1}),
                       "module-spec-error"),
    "label-a-list": ("hilbert", {"label": [1]}, "scenario-error"),
    # a zero denominator or conductor used to exit 1 with a traceback
    "rho-zero-denominator": ("hilbert",
                             fk3_fields(rho={"values": {"2,1,3": "1/0"}}),
                             "scalar-parse-error"),
    "rho-zero-conductor": ("hilbert",
                           fk3_fields(rho={"values": {"2,1,3": "z0^1"}}),
                           "scalar-parse-error"),
    # so did a digit run past the interpreter's limit
    "rho-long-digit-run": ("hilbert",
                           fk3_fields(rho={"values": {"2,1,3": "1" * 5000}}),
                           "scalar-parse-error"),
    "expression-an-int": ("derive", {"expression": 5}, "scenario-error"),
    "expression-list-label": ("derive", {"expression": "(d (x1) x2)"},
                              "scenario-error"),
    "expression-list-ad-label": ("derive",
                                 {"expression": "(ad (x1 x2) x2)"},
                                 "scenario-error"),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_SPEC_FIELDS))
def test_malformed_spec_field_is_refused(tmp_path, capsys, fault):
    task, fields, error = MALFORMED_SPEC_FIELDS[fault]
    scenario = {"group": FK3_GROUP, "field_conductor": 1, **fk3_fields(),
                **fields}
    path = write_scenario(tmp_path, scenario)
    code, payload = refusal_payload(capsys, [task, path])
    assert code == 2
    assert payload["error"] == error


MALFORMED_DIAGONAL = {
    "diagonal-an-int": (5, "module-spec-error"),
    "diagonal-of-ints": ([5], "module-spec-error"),
    "zero-denominator": ([["1/0"]], "scalar-parse-error"),
    # a conductor past the interpreter's digit limit used to exit 1
    "long-conductor": ([["z" + "1" * 5000]], "scalar-parse-error"),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_DIAGONAL))
def test_malformed_diagonal_is_refused(tmp_path, capsys, fault):
    diagonal, error = MALFORMED_DIAGONAL[fault]
    path = write_scenario(tmp_path, {"diagonal": diagonal})
    code, payload = refusal_payload(capsys, ["hilbert", path])
    assert code == 2
    assert payload["error"] == error


def test_malformed_json_is_refused(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"task": "hilbert",}')
    code, payload = refusal_payload(capsys, ["hilbert", str(path)])
    assert code == 2
    assert payload["details"]["line"] == 1


# each used to exit 1 with a traceback, in either file
UNREADABLE_JSON = {"not-utf8": b"\x80\x81{}",
                   "number-past-digit-limit": b"[" + b"1" * 5000 + b"]"}


@pytest.mark.parametrize("which", ["scenario", "numeration"])
@pytest.mark.parametrize("fault", sorted(UNREADABLE_JSON))
def test_unreadable_json_is_refused(tmp_path, capsys, fault, which):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE_JSON[fault])
    argv = ["hilbert", str(bad)] if which == "scenario" else \
        ["hilbert", str(SCENARIOS / "s3_fk3.json"), "--numeration", str(bad)]
    code, payload = refusal_payload(capsys, argv)
    assert code == 2
    assert payload["error"] == "scenario-error"
    assert payload["message"] == f"{which} file is not valid JSON"


def test_missing_file_is_refused(capsys):
    code, payload = refusal_payload(capsys, ["hilbert", "/nonexistent.json"])
    assert code == 2
    assert payload["error"] == "scenario-error"


def test_uncertified_reflection_is_refused(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "cap": 3, "group": FK3_GROUP, "field_conductor": 1,
        "modules": [fk3_module_spec("x"), fk3_module_spec("y")]})
    code, payload = refusal_payload(capsys, ["reflect", path])
    assert code == 2
    assert payload["error"] == "reflection-not-certified"


def test_derive_without_expression_is_refused(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(A2_CASE))
    code, payload = refusal_payload(capsys, ["derive", path])
    assert code == 2
    assert payload["error"] == "scenario-error"


def test_derive_past_the_cap_is_refused_unless_finished(capsys):
    # the cap bounds the expression's peak degree; B of the D9 pair is not
    # finished by degree 2, so the adjoint to degree 3 is refused
    code, payload = refusal_payload(capsys, [
        "derive", str(SCENARIOS / "dn_obstruction.json"), "--cap", "2"])
    assert code == 2
    assert payload == {"details": {"computed": 2, "degree": 3},
                       "error": "degree-range",
                       "message": "product degree beyond the computed range"}


def test_derivative_past_the_top_of_a_finished_algebra_is_zero(tmp_path,
                                                               capsys):
    # B(fk3) ends in degree 4: an adjoint past the top is zero, and so is
    # its derivative, whether or not the cap reaches the peak degree 6
    path = write_scenario(tmp_path, {
        "task": "derive", "cap": 8,
        "group": FK3_GROUP, "field_conductor": 1,
        "modules": [fk3_module_spec("x")],
        "expression": "(d x1 (ad x1 (ad x2 (ad x3 (ad x1 (ad x2 x3))))))"})
    for cap in ([], ["--cap", "5"]):
        code, report = run_json(capsys, ["derive", path, *cap])
        assert code == 0
        result = report["results"][0]
        assert (result["degree"], result["value"], result["is_zero"]) == \
            (5, "0", True)
    code, payload = refusal_payload(capsys, ["derive", path, "--cap", "3"])
    assert code == 2
    assert payload["details"] == {"computed": 3, "degree": 4}


def test_mem_limit_env(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path, {
        "group": FK3_GROUP, "field_conductor": 1,
        "modules": [fk3_module_spec("x")]})
    monkeypatch.setenv("NICHOLS_MEM_LIMIT", "10")
    code, payload = refusal_payload(capsys, ["hilbert", path])
    assert code == 2
    assert payload["error"] == "memory-guard"
    monkeypatch.setenv("NICHOLS_MEM_LIMIT", "lots")
    code, payload = refusal_payload(capsys, ["hilbert", path])
    assert code == 2
    assert payload["error"] == "scenario-error"


def test_mem_limit_env_governs_verify_paper(capsys, monkeypatch):
    # every engine state reads the variable, so the matrix obeys it too
    monkeypatch.setenv("NICHOLS_MEM_LIMIT", "10")
    assert cli.main(["verify-paper", "--json"]) == 1
    rows = {row["check"]: row for row in
            json.loads(capsys.readouterr().out)["results"]}
    failed = [row for row in rows.values() if row["status"] == "FAIL"]
    assert failed
    assert all("candidate budget" in row["detail"] for row in failed)
    for name in ("multiplication-table", "finite-type-recognition"):
        assert rows[name]["status"] == "PASS"


def test_malformed_mem_limit_refuses_verify_paper(capsys, monkeypatch):
    # a configuration fault, not nine failed checks
    monkeypatch.setenv("NICHOLS_MEM_LIMIT", "lots")
    code, payload = refusal_payload(capsys, ["verify-paper"])
    assert code == 2
    assert payload["error"] == "scenario-error"


def test_bad_cap_is_refused(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(A2_CASE))
    code, payload = refusal_payload(capsys, ["hilbert", path, "--cap", "0"])
    assert code == 2
    assert payload["error"] == "scenario-error"


def test_interrupt_is_a_structured_exit(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path, dict(A2_CASE))

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_hilbert", interrupted)
    assert cli.main(["hilbert", path, "--json"]) == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "interrupted\n"


# -- the regression matrix


@pytest.fixture(scope="module")
def verify_paper_run(tmp_path_factory):
    """One `nichols verify-paper --out` run: exit code, stdout, report bytes."""
    out = tmp_path_factory.mktemp("verify_paper") / "verify_paper.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify-paper", "--out", str(out)])
    return code, stdout.getvalue(), out.read_bytes()


def test_verify_paper_all_pass(verify_paper_run):
    # The golden file is the report of `nichols verify-paper --out`; every
    # change to the program must leave it byte-identical unless the change
    # is to the matrix itself.
    code, _, report = verify_paper_run
    assert code == 0
    assert report == (DATA / "verify_paper.json").read_bytes()


def test_verify_paper_matrix_lines(verify_paper_run):
    code, out, _ = verify_paper_run
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 11


def test_verify_paper_fails_under_python_dash_o():
    # python -O strips assert statements, so a check must not rest on one:
    # with format_element writing every element wrongly, the three
    # witness checks fail there too, with the wrong text as their detail
    program = (
        "import sys\n"
        "from nichols import cli, verify\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not optimized')\n"
        "verify.format_element = lambda state, element: 'wrong'\n"
        "sys.exit(cli.main(['verify-paper', '--json']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", program], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    failed = {row["check"]: row["detail"] for row in report["results"]
              if row["status"] == "FAIL"}
    assert failed == {"s3-pair-obstruction": "wrong",
                      "d9-pair-obstruction": "wrong",
                      "s4-mixed-pair-obstruction": "wrong"}
    assert report["passed"] == 8


# name -> (task, scenario, golden report in tests/data, extra arguments),
# each golden the stdout of `nichols <task> <scenario> --json <arguments>`:
# the reports built on adjoint chains, one that runs only the engine (to
# degree 12 on three 576-dimensional algebras), and the groupoid reports,
# whose node order, edge order, uncertified rows and standardness witness
# are derived from the explored graph
GROUPOID_CASES = DATA / "groupoid_cases.json"
CHAIN_GOLDENS = {
    "cartan": ("cartan", SCENARIOS / "s4_pairs.json", "cartan_s4_pairs.json",
               []),
    "derive": ("derive", SCENARIOS / "dn_obstruction.json",
               "derive_dn_obstruction.json", []),
    "hilbert": ("hilbert", SCENARIOS / "s4_all_three.json",
                "hilbert_s4_all_three.json", []),
    "roots": ("roots", PERFBENCH_SCENARIOS / "diag_roots.json",
              "roots_diag_roots.json", []),
    "groupoid": ("groupoid", GROUPOID_CASES, "groupoid_groupoid_cases.json",
                 []),
    "groupoid-cap3": ("groupoid", GROUPOID_CASES,
                      "groupoid_groupoid_cases_cap3.json", ["--cap", "3"]),
    "groupoid-node-limit2": ("groupoid", GROUPOID_CASES,
                             "groupoid_groupoid_cases_node_limit2.json",
                             ["--node-limit", "2"]),
    "reflect": ("reflect", GROUPOID_CASES, "reflect_groupoid_cases.json", []),
}


@pytest.mark.parametrize("name", sorted(CHAIN_GOLDENS))
def test_chain_reports_match_golden(name, capsys):
    task, scenario, golden, extra = CHAIN_GOLDENS[name]
    assert cli.main([task, str(scenario), "--json", *extra]) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


# -- the CLI surface: human summaries, CSV files and --help text
#
# tests/data/cli_surface.json pins what a user reads.  "summary" and "csv"
# hold the stdout and the CSV file (null where the task writes none) of
# `nichols <argv> --out report.json` for each task below, and the stdout of
# `nichols verify-paper --out ...`; "help" holds the stdout of
# `nichols [command] --help` with COLUMNS=80, under "nichols" for the top
# level.
SURFACE_RUNS = {
    "hilbert": ["hilbert", SCENARIOS / "s3_fk3.json"],
    "cartan": ["cartan", "--cap", "3", SCENARIOS / "s4_pairs.json"],
    "reflect": ["reflect", GROUPOID_CASES],
    "groupoid": ["groupoid", GROUPOID_CASES],
    "roots": ["roots", PERFBENCH_SCENARIOS / "diag_roots.json"],
    "derive": ["derive", SCENARIOS / "dn_obstruction.json"],
}
# help entry -> the arguments before --help
HELP_ARGV = {"nichols": [], **{command: [command] for command in
                                [*SURFACE_RUNS, "verify-paper"]}}


@pytest.fixture(scope="module")
def cli_surface():
    return json.loads((DATA / "cli_surface.json").read_text())


@pytest.mark.parametrize("task", sorted(SURFACE_RUNS))
def test_summary_and_csv_match_golden(task, tmp_path, capsys, cli_surface):
    out = tmp_path / "report.json"
    assert cli.main([*map(str, SURFACE_RUNS[task]), "--out", str(out)]) == 0
    assert capsys.readouterr().out == cli_surface["summary"][task]
    csv_path = out.with_suffix(".csv")
    csv_text = csv_path.read_text() if csv_path.exists() else None
    assert csv_text == cli_surface["csv"][task]


def test_verify_paper_summary_matches_golden(verify_paper_run, cli_surface):
    _, out, _ = verify_paper_run
    assert out == cli_surface["summary"]["verify-paper"]


@pytest.mark.parametrize("command", sorted(HELP_ARGV))
def test_help_matches_golden(command, capsys, monkeypatch, cli_surface):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.main([*HELP_ARGV[command], "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == cli_surface["help"][command]
