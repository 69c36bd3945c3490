"""CLI workflows: exit codes, artifact files, determinism."""

from __future__ import annotations

import json
import math
import shutil

import numpy as np
import pytest

import dynbc.certificate as certificate
from dynbc.certificate import PsiSpec, check_hypotheses
from dynbc.cli import (
    RunManifest, cmd_certify, cmd_solve, cmd_sweep, cmd_verify, default_tol, json_dumps,
    main, preset_path, read_solution,
)
from dynbc.problem import ProblemSpec


def _manifest(spec, out, **kw):
    return RunManifest(spec_path=spec, command="x", out_dir=out, **kw)


def _write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


STEADY = {
    "ell": 1.0, "T": 1.0, "a": "1", "f": "0", "u0": "x",
    "bc_minus": {"kind": "dynamic", "b": "1", "g": "-1"},
    "bc_plus": {"kind": "dynamic", "b": "1", "g": "1"},
    "certificate": {"psi": "1", "q0": 1.0, "M": 2.0},
    "solver": {"nx": 33},
}


def test_json_dumps_formatting():
    s = json_dumps({"a": 0.1, "b": [1.0, float("inf")], "c": None, "d": True})
    assert '"a": 0.10000000000000001' in s
    assert '"inf"' in s
    assert '"c": null' in s


def test_missing_spec_file(tmp_path):
    assert main(["certify", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 1


def test_invalid_json_spec(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["certify", "--spec", str(p), "--out", str(tmp_path / "out")]) == 1


def test_certify_steady_artifacts(tmp_path):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["barrier"]["q1"] == pytest.approx(3.0, abs=1e-9)
    table = np.loadtxt(out / "h_table.csv", delimiter=",", skiprows=1)
    assert table[0, 0] == 0.0 and table[0, 1] == 0.0
    assert table[-1, 2] == pytest.approx(1.0, rel=1e-9)


def test_certify_violating_boundary_source(tmp_path):
    doc = dict(STEADY)
    doc["bc_plus"] = {"kind": "dynamic", "b": "1", "g": "2"}
    doc["u0"] = "0"
    doc["bc_minus"] = {"kind": "dynamic", "b": "1", "g": "2"}
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 2
    rep = json.loads((out / "certificate.json").read_text())
    names = [e["name"] for e in rep["conditions"]["entries"] if not e["satisfied"]]
    assert "(9bNEU)" in names
    entry = [e for e in rep["conditions"]["entries"] if e["name"] == "(9bNEU)"][0]
    assert entry["witness"]["p"] == pytest.approx(1.0)


def test_certify_delegates_budget_to_sup_bound(tmp_path):
    # no explicit M: the budget comes from the sup-bound construction, which
    # for Phi = 1, B = 1, T = 1 gives M_proof = 3 (minimum of 1/(l-1)+l)
    doc = {
        "ell": 1.0, "T": 1.0, "a": "1", "f": "-z^3", "u0": "0",
        "bc_minus": {"kind": "dynamic", "b": "1", "g": "0"},
        "bc_plus": {"kind": "dynamic", "b": "1", "g": "0"},
        "certificate": {"psi": "28", "q0": 0.5},
        "sup_bound": {"Phi": "1", "B": 1.0},
    }
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    rep = json.loads((out / "certificate.json").read_text())
    assert rep["M_source"] == "sup_bound.M_proof"
    assert rep["M"] == pytest.approx(rep["sup_bound"]["M_proof"])
    assert rep["sup_bound"]["M_proof"] == pytest.approx(3.0, abs=1e-5)
    # budget 2M = 6 with psi = 28: q1 = sqrt(q0^2 + 4 M c) under the constant gauge
    assert rep["barrier"]["q1"] == pytest.approx(math.sqrt(0.25 + 12 * 28), rel=1e-8)


def test_solve_steady_and_exit_codes(tmp_path):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"]["kind"] == "completed"
    assert summary["sup_u"] == pytest.approx(1.0, abs=1e-10)
    sol = read_solution(out)
    dev = np.max(np.abs(sol.grid.values - sol.grid.nodes[None, :]))
    assert dev <= 1e-10


def test_solution_roundtrip_exact(tmp_path):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    main(["solve", "--spec", str(spec), "--out", str(out)])
    sol = read_solution(out)
    from dynbc.cli import write_solution
    out2 = tmp_path / "run2"
    out2.mkdir()
    write_solution(sol, out2)
    shutil.copy(out / "summary.json", out2 / "summary.json")
    sol2 = read_solution(out2)
    assert np.array_equal(sol.grid.values, sol2.grid.values)
    assert np.array_equal(sol.grid.times, sol2.grid.times)


def test_verify_chain_exit_codes(tmp_path):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0
    rep = json.loads((out / "verification.json").read_text())
    assert rep["passed"] is True
    assert rep["report"]["gradient_slack"] == pytest.approx(2.0, abs=1e-8)


def test_manufactured_chain_comparison_below_grid_slack(tmp_path):
    out = tmp_path / "run"
    spec = str(preset_path("manufactured"))
    assert main(["certify", "--spec", spec, "--out", str(out)]) == 0
    assert main(["solve", "--spec", spec, "--out", str(out)]) == 0
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 0
    rep = json.loads((out / "verification.json").read_text())
    # the comparison maximum is strictly negative here; 1e-6 is the
    # documented discretization allowance
    assert rep["report"]["max_w_tilde"] <= 1e-6
    assert rep["report"]["max_w1_tilde"] <= 1e-6


def test_verify_missing_artifacts(tmp_path):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "empty"
    out.mkdir()
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1


def test_verify_mismatched_certificate(tmp_path):
    # certificate budgeted below sup|u| must be rejected as an input error
    doc = dict(STEADY)
    doc["certificate"] = {"psi": "1", "q0": 1.0, "M": 0.5}  # sup|u| = 1 > M
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1


def test_blowup_chain_and_inequality(tmp_path):
    out = tmp_path / "run"
    spec = str(preset_path("blowup_270"))
    assert main(["certify", "--spec", spec, "--out", str(out)]) == 2  # budget fails, by design
    assert main(["solve", "--spec", spec, "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"]["kind"] == "blowup"
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 0
    rep = json.loads((out / "verification.json").read_text())
    assert rep["blowup"]["lhs"] == pytest.approx(0.5, abs=1e-9)
    assert rep["blowup"]["consistent"] is True


def test_cubic_chain_populates_sup_slacks(tmp_path):
    out = tmp_path / "run"
    spec = str(preset_path("cubic_damping"))
    assert main(["certify", "--spec", spec, "--out", str(out)]) == 0
    assert main(["solve", "--spec", spec, "--out", str(out)]) == 0
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 0
    rep = json.loads((out / "verification.json").read_text())["report"]
    # sup|u| = 0.4 (attained at t = 0); budgets are M_proof = 3, M_paper = 0.4
    assert rep["sup_slack"] == pytest.approx(3.0 - 0.4, abs=1e-5)
    assert rep["sup_slack_paper"] == pytest.approx(0.0, abs=1e-6)


def test_solver_overrides_from_cli(tmp_path):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["solve", "--spec", str(spec), "--out", str(out), "--nx", "21"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nx"] == 21


def test_sweep_closed_form_column(tmp_path):
    doc = dict(STEADY)
    doc["sweep"] = {"psi": ["1"], "q0": [1.0, 2.0, 4.0], "M": [2.0]}
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["sweep", "--spec", str(spec), "--out", str(out), "--jobs", "2"]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    q1s = [float(r.split(",")[4]) for r in rows]
    for got, q0 in zip(q1s, (1.0, 2.0, 4.0)):
        assert got == pytest.approx(math.sqrt(q0 * q0 + 8.0), rel=1e-9)
    # u0 = x has K ~ 1: every swept q0 >= 1 covers it
    assert all(r.split(",")[6] == "True" for r in rows)


def test_sweep_rows_keep_the_first_error_of_a_point(tmp_path):
    doc = dict(STEADY)
    # q0 = -1 fails its positivity check before the barrier's q0 >= K check
    doc["sweep"] = {"psi": ["1"], "q0": [-1.0], "M": [2.0, -2.0]}
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert ",PreconditionFailed,nan,nan,False," in row
        assert row.endswith('"q0 must be positive, got -1.0"')


@pytest.mark.parametrize("changes, code, error", [
    # q0 = -1 fails find_q1's positivity check inside check_hypotheses: no report
    ({"q0": -1.0}, 1, "q0 must be positive, got -1.0"),
    ({"M": -2.0}, 1, "M must be positive, got -2.0"),
    # with pmax given check_hypotheses needs no q1; the barrier's q0 >= K check fails first
    ({"q0": -1.0, "pmax": 5.0}, 2, "K = 1.000001 exceeds q0 = -1.0"),
    ({"q0": 0.5, "psi": "(1+p^2)^1.5"}, 2, "K = 1.000001 exceeds q0 = 0.5"),
    ({"psi": "(1+p^2)^1.5"}, 2, "integral of rho/psi"),
])
def test_certify_keeps_the_first_error(tmp_path, capsys, changes, code, error):
    doc = dict(STEADY)
    doc["certificate"] = dict(STEADY["certificate"], **changes)
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == code
    if code == 1:
        assert capsys.readouterr().err == f"certify: {error}\n"
        assert not (out / "certificate.json").exists()
        return
    rep = json.loads((out / "certificate.json").read_text())
    assert rep["barrier"] is None and rep["barrier_error"].startswith(error)
    # without a finite q1 the conditions are sampled up to pmax = 100
    blk = doc["certificate"]
    want = check_hypotheses(ProblemSpec.from_dict(doc), M=blk["M"], q0=blk["q0"],
                            psi=PsiSpec.from_text(blk["psi"]), pmax=blk.get("pmax", 100.0),
                            compat_tol=default_tol())
    assert rep["conditions"] == json.loads(json_dumps(want.as_dict()))


def test_certify_finds_q1_once(tmp_path, monkeypatch):
    calls = []
    find_q1 = certificate.find_q1
    monkeypatch.setattr(certificate, "find_q1", lambda *a: calls.append(a) or find_q1(*a))
    spec = _write_spec(tmp_path, STEADY)
    assert main(["certify", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1


def test_sweep_empty_axes(tmp_path):
    doc = dict(STEADY)
    doc["sweep"] = {"psi": [], "q0": [], "M": []}
    spec = _write_spec(tmp_path, doc)
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    doc2 = dict(STEADY)
    doc2.pop("sweep", None)
    spec2 = _write_spec(tmp_path, doc2, name="s2.json")
    assert main(["sweep", "--spec", str(spec2), "--out", str(tmp_path / "o2")]) == 1


def test_sweep_records_per_point_failures(tmp_path):
    doc = dict(STEADY)
    # the cube-growth gauge cannot meet the 2M = 4 budget: a row, not an abort
    doc["sweep"] = {"psi": ["1", "(1+p^2)^1.5"], "q0": [1.0], "M": [2.0]}
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    assert "ok" in rows[0]
    assert "ConditionViolated" in rows[1]


def test_reports_are_byte_identical(tmp_path):
    spec = _write_spec(tmp_path, STEADY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
        assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
        assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0
    for name in ("certificate.json", "h_table.csv", "summary.json",
                 "solution.csv", "verification.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_csv_format_writes_tabular_mirrors(tmp_path):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out), "--format", "csv"]) == 0
    assert (out / "conditions.csv").is_file()
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["verify", "--spec", str(spec), "--out", str(out), "--format", "csv"]) == 0
    text = (out / "verification.csv").read_text()
    assert text.startswith("quantity,value")
    assert "witness.gradient.t," in text


def test_dynbc_tol_env_override(tmp_path, monkeypatch):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    monkeypatch.setenv("DYNBC_TOL", "100.0")
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0
    rep = json.loads((out / "verification.json").read_text())
    assert rep["tolerance_used"] == 100.0
    # tightening the tolerance must not break a genuinely passing chain
    monkeypatch.setenv("DYNBC_TOL", "1e-30")
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0


def test_preset_paths_exist():
    for name in ("steady", "manufactured", "burgers", "blowup_270",
                 "weakened_nagumo", "cubic_damping"):
        assert preset_path(name).is_file()
