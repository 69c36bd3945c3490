"""CLI workflows: exit codes, artifact files, determinism."""

from __future__ import annotations

import json
import math
import shutil

import numpy as np
import pytest

import dynbc.certificate as certificate
import dynbc.cli as cli
import dynbc.verify as verify
from dynbc.certificate import BarrierCertificate, PsiSpec, check_hypotheses
from dynbc.cli import (
    RunManifest, _csv_row, cmd_certify, cmd_solve, cmd_sweep, cmd_verify, default_tol,
    json_dumps, main, preset_path, read_solution, write_h_table,
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


@pytest.mark.parametrize("argv", [["certify"], ["certify", "--spec", "p.json", "--nx", "abc"],
                                  ["solve", "--spec", "p.json", "--bogus"], [],
                                  ["sweep", "--spec", "p.json", "--jobs", "2"],
                                  ["certify", "--spec", "p.json", "--nx", "5"],
                                  ["sweep", "--spec", "p.json", "--format", "csv"]])
def test_usage_errors_exit_1(argv, capsys):
    # exit 2 is reserved for violated conditions; a flag is parsed only by
    # the commands it acts on
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    assert "--spec" in capsys.readouterr().out


def test_invalid_json_spec(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["certify", "--spec", str(p), "--out", str(tmp_path / "out")]) == 1
    p.write_bytes(b"\xff\xfe{")  # not UTF-8
    for command in ("certify", "solve", "sweep"):
        assert main([command, "--spec", str(p), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("command, changes", [
    ("certify", {"ell": None}),
    ("solve", {"a": 1}),
    ("solve", {"bc_plus": "x"}),
    ("certify", []),
    ("sweep", []),
    ("certify", {"certificate": {"psi": "1", "q0": None, "M": 2.0}}),
    ("sweep", {"sweep": {"psi": ["1"], "q0": [None], "M": [1.0]}}),
    ("sweep", {"sweep": {"psi": [1], "q0": [1.0], "M": [1.0]}}),
    ("solve", {"solver": {"nx": 65.0}}),
    ("solve", {"solver": {"nx": "65"}}),
    ("solve", {"solver": {"theta": "0.5"}}),
    ("solve", {"solver": {"dt_max": None}}),
    ("solve", {"solver": {"newton_max_iter": 2.5}}),
    ("solve", {"solver": {"local_error_tol": -1e-8}}),
    ("solve", {"solver": {"dt0": math.nan}}),
    ("solve", {"solver": {"cutoff": math.nan}}),
    ("solve", {"solver": {"newton_tol": math.nan}}),
    ("sweep", {"ell": None, "sweep": {"psi": ["1"], "q0": [1.0], "M": [2.0]}}),
    ("certify", {"f": "exp(z)", "u0": "800"}),
    ("solve", {"f": "exp(z)", "u0": "800"}),
    ("certify", {"certificate": {"psi": "1+0*1e400", "q0": 1.0, "M": 2.0}}),
    ("solve", {"solver": {"nxx": 17}}),
    ("solve", {"solver": {"gradient_cutoff": 25.0}}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_a_malformed_spec_is_an_input_error(tmp_path, capsys, command, changes):
    # changes replace top-level fields of STEADY; a list is the whole file
    spec = _write_spec(tmp_path, STEADY | changes if isinstance(changes, dict) else changes)
    out = tmp_path / "out"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{command}: "), err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, env", [
    (["solve", "--cutoff", "nan"], {}),
    (["certify"], {"DYNBC_TOL": "nan"}),
], ids=["flag", "environment"])
def test_a_nan_flag_or_tolerance_is_an_input_error(tmp_path, capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert main([*argv, "--spec", str(_write_spec(tmp_path, STEADY)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{argv[0]}: "), err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, changes, code", [
    ("certify", {"f": "-z*p + 0*10^400"}, 1),
    ("certify", {"f": "-z*p + 0*(1/0)"}, 1),
    ("certify", {"bc_plus": {"kind": "dynamic", "b": "1", "g": "0/(x-1)"}}, 1),
    ("solve", {"bc_plus": {"kind": "dirichlet", "value": "0.1/t"}}, 1),
    ("solve", {"bc_plus": {"kind": "dynamic", "b": "1", "g": "0.1/t"}}, 4),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_a_singular_coefficient_ends_with_an_exit_code(tmp_path, capsys, command, changes, code):
    # burgers, non-strict so the solver meets the singular data itself
    doc = json.loads(preset_path("burgers").read_text()) | changes
    doc["solver"] = {"strict": False, "nx": 33}
    out = tmp_path / "out"
    assert main([command, "--spec", str(_write_spec(tmp_path, doc)), "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{command}: "), err


def test_a_constant_outside_a_functions_domain_is_an_input_error_naming_it(tmp_path, capsys):
    spec = _write_spec(tmp_path, STEADY | {"f": "sin(1e400)*p"})
    assert main(["certify", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["certify: sin(inf): math domain error"]


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
    for name in ("solution.csv", "solution.npy"):
        assert (out2 / name).read_bytes() == (out / name).read_bytes(), name
    shutil.copy(out / "summary.json", out2 / "summary.json")
    sol2 = read_solution(out2)
    assert np.array_equal(sol.grid.values, sol2.grid.values)
    assert np.array_equal(sol.grid.times, sol2.grid.times)


def test_verify_needs_the_binary_solution(tmp_path, capsys):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    (out / "solution.npy").unlink()
    capsys.readouterr()
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1
    assert "missing solution artifacts" in capsys.readouterr().err
    assert not (out / "verification.json").exists()


@pytest.mark.parametrize("order", ["shuffled", "node-major"])
def test_verify_needs_time_major_rows(tmp_path, capsys, order):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    data = np.load(out / "solution.npy")
    if order == "shuffled":
        data = data[np.random.default_rng(5).permutation(data.shape[0])]
    else:
        nx = STEADY["solver"]["nx"]
        data = data.reshape(-1, nx, 5).transpose(1, 0, 2).reshape(-1, 5)
    np.save(out / "solution.npy", data)
    capsys.readouterr()
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1
    assert "not a full rectangular grid" in capsys.readouterr().err
    assert not (out / "verification.json").exists()


def test_h_table_rows_are_the_csv_row_cells(tmp_path):
    col = np.array([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 0.1, -2.5e-7])
    cert = BarrierCertificate(q0=1.0, q1=2.0, kappa0=1.0, M=1.0, K=0.5,
                              xi=col, h=col[::-1].copy(), hp=np.roll(col, 3), psi_text="1")
    write_h_table(cert, tmp_path)
    rows = ["xi,h,hp"] + [_csv_row(r) for r in zip(cert.xi, cert.h, cert.hp)]
    assert (tmp_path / "h_table.csv").read_text(encoding="utf-8") == "\n".join(rows) + "\n"


def test_verify_builds_one_pair_table(tmp_path, monkeypatch):
    calls = []
    pair_mask = verify._pair_mask
    monkeypatch.setattr(verify, "_pair_mask", lambda *a: calls.append(a) or pair_mask(*a))
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert pair_mask(*calls[0])[0].size > 0     # both scans had pairs to read


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


def test_verify_mismatched_certificate(tmp_path, monkeypatch, capsys):
    # certificate budgeted below sup|u| must be rejected as an input error,
    # before any pair of the scans is formed
    doc = dict(STEADY)
    doc["certificate"] = {"psi": "1", "q0": 1.0, "M": 0.5}  # sup|u| = 1 > M
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    calls = []
    pair_mask = verify._pair_mask
    monkeypatch.setattr(verify, "_pair_mask", lambda *a: calls.append(a) or pair_mask(*a))
    capsys.readouterr()
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1
    assert calls == []
    assert "verify: certificate budget M = 0.5 below sup|u| = 1.0" in capsys.readouterr().err
    assert not (out / "verification.json").exists()


def test_verify_with_a_malformed_dynbc_tol_is_an_input_error(tmp_path, monkeypatch, capsys):
    spec = _write_spec(tmp_path, STEADY)
    out = tmp_path / "run"
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    monkeypatch.setenv("DYNBC_TOL", "abc")
    capsys.readouterr()
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1
    assert "verify: could not convert string to float: 'abc'" in capsys.readouterr().err
    assert not (out / "verification.json").exists()


def test_a_slope_past_the_float_range_ends_in_step_failure(tmp_path, capsys):
    # f = 1/z is infinite at the node x = 0, where u0 = x vanishes: the
    # first slope holds inf, the run reaches StepFailure, and its reports
    # are written with that inf in the u_t column
    doc = {"ell": 1.0, "T": 1.0, "a": "1", "f": "1/z", "u0": "x",
           "bc_minus": {"kind": "dirichlet", "value": "-1"},
           "bc_plus": {"kind": "dirichlet", "value": "1"},
           "certificate": {"psi": "1", "q0": 1.0, "M": 2.0},
           "solver": {"nx": 33}}
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "run"
    # condition (6) fails, since f is unbounded, but the barrier is written
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 2
    assert (out / "h_table.csv").is_file()
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 4
    assert "solve: step failure" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"]["kind"] == "stepfailure"
    rows = np.load(out / "solution.npy")
    assert np.isinf(rows[:, 4]).any()
    assert np.all(np.isfinite(rows[:, :4]))
    cells = [line.split(",")[4] for line in (out / "solution.csv").read_text().splitlines()[1:]]
    assert "inf" in cells or "-inf" in cells
    # verify reads the run back and refuses it: there is nothing to verify
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1
    assert "needs a completed solution, not stepfailure" in capsys.readouterr().err
    assert not (out / "verification.json").exists()


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
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
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


def test_certify_reads_a_noisy_phi_as_sup_bound_does(tmp_path):
    # Phi = 2 in exact arithmetic; in floating point it is noise around 2 for
    # large z.  sup_bound and condition (phi) read one tail integral of 1/Phi,
    # so both take it as divergent, and certify ends
    doc = json.loads(preset_path("cubic_damping").read_text())
    doc["sup_bound"]["Phi"] = "(1+z)^2 - z^2 - 2*z + 1"
    spec = _write_spec(tmp_path, doc)
    assert main(["certify", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 0
    rep = json.loads((tmp_path / "run" / "certificate.json").read_text())
    assert rep["sup_bound"] is not None and rep["sup_bound_error"] is None
    phi = next(e for e in rep["conditions"]["entries"] if e["name"] == "(phi)")
    assert phi["satisfied"] and phi["witness"]["classified"] == "divergent"


def test_certify_refuses_a_q0_past_the_float_range(tmp_path, capsys):
    doc = dict(STEADY)
    doc["certificate"] = {**STEADY["certificate"], "q0": 1e300}
    spec = _write_spec(tmp_path, doc)
    assert main(["certify", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 1
    assert "overflow a float" in capsys.readouterr().err


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
                 "solution.csv", "solution.npy", "verification.json"):
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


@pytest.mark.parametrize("command, report", [
    ("certify", "certificate.json"), ("certify", "h_table.csv"),
    ("solve", "solution.csv"), ("solve", "summary.json"), ("solve", "solution.npy"),
    ("verify", "verification.json"), ("sweep", "sweep.csv"),
])
def test_a_report_that_cannot_be_written_exits_1_with_one_line(
        tmp_path, monkeypatch, capsys, command, report):
    # solve forks its formatter when the first slice is stored; the fixtures
    # check that no child and no part file is left
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 1)
    doc = json.loads(preset_path("burgers").read_text())
    doc["solver"] = {"strict": False, "nx": 33}
    doc["sweep"] = {"psi": ["1"], "q0": [1.0], "M": [1.0]}
    spec = _write_spec(tmp_path, doc)
    out = tmp_path / "out"
    if command == "verify":
        for stage in ("certify", "solve"):
            assert main([stage, "--spec", str(spec), "--out", str(out)]) == 0
    (out / report).mkdir(parents=True)
    capsys.readouterr()
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"{command}: [Errno ") and err[0].endswith(f"{report}'")


def _burgers_run(tmp_path):
    """The burgers preset certified and solved into ``tmp_path / "out"``."""
    doc = json.loads(preset_path("burgers").read_text())
    doc["solver"] = {"strict": False, "nx": 33}
    out = tmp_path / "out"
    for stage in ("certify", "solve"):
        assert main([stage, "--spec", str(_write_spec(tmp_path, doc)), "--out", str(out)]) == 0
    return doc, out


def test_a_failed_solve_leaves_no_report_of_the_run_before(tmp_path):
    doc, out = _burgers_run(tmp_path)
    doc["solver"]["nx"] = 4
    spec = _write_spec(tmp_path, doc)
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "h_table.csv"]
    # verify refuses the directory instead of checking the earlier solution
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1


def test_a_failed_certify_leaves_no_report_of_the_run_before(tmp_path):
    doc, out = _burgers_run(tmp_path)
    doc["certificate"]["psi"] = "p^"
    spec = _write_spec(tmp_path, doc)
    assert main(["certify", "--spec", str(spec), "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "solution.csv", "solution.npy", "summary.json"]
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 1


def test_a_failed_verify_leaves_no_report_of_the_run_before(tmp_path):
    doc, out = _burgers_run(tmp_path)
    spec = _write_spec(tmp_path, doc)
    assert main(["verify", "--spec", str(spec), "--out", str(out), "--format", "csv"]) == 0
    assert json.loads((out / "verification.json").read_text())["passed"] is True
    doc["solver"]["nx"] = 4
    spec = _write_spec(tmp_path, doc)
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 1
    assert main(["verify", "--spec", str(spec), "--out", str(out), "--format", "csv"]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "h_table.csv"]


def test_a_failed_sweep_leaves_no_report_of_the_run_before(tmp_path):
    doc = dict(STEADY, sweep={"psi": ["1"], "q0": [1.0], "M": [2.0]})
    out = tmp_path / "run"
    assert main(["sweep", "--spec", str(_write_spec(tmp_path, doc)), "--out", str(out)]) == 0
    assert (out / "sweep.csv").is_file()
    doc["sweep"] = dict(doc["sweep"], q0=[])
    assert main(["sweep", "--spec", str(_write_spec(tmp_path, doc)), "--out", str(out)]) == 1
    assert list(out.iterdir()) == []
