"""Golden digests: every shipped preset through certify -> solve -> verify.

The SHA-256 digest of each deterministic report, and the exit code of each
stage, must match ``golden_digests.json``.  A refactor that keeps the numbers
and the bytes passes unchanged; any changed digit fails here, and so does a
verify whose report differs when certify never ran.  Reports a
stage does not write (``h_table.csv`` when certify finds no barrier) are
recorded as ``null``.  ``GRIDS`` adds problems derived from a preset: burgers
at nx = 257 and amplitude 0.47 is a grid where the verify scans' oscillation
bound skips most pairs.  ``burgers_newton_retry`` caps Newton at two
iterations from a large first step, so both the configured theta and the
theta = 1 retry fail and dt shrinks; ``burgers_implicit_fixed`` runs the
fully implicit scheme at a fixed step, and ``burgers_theta06`` an adaptive
theta = 0.6: both step-double, where a trapezoidal run pairs TR-AB2 half
steps after its first step.  ``burgers_pinned`` pins both ends:
a moving pin at +ell and a pin at exactly -0.0 at -ell, so the digests
also fix the sign of each zero the stage solve stores there.
``burgers_sqrt_floor`` drives u to -0.5, the edge of sqrt(z + 0.5)'s
domain: Newton meets non-finite start residuals and damped trials, and
the run ends in step failure at dt_min.  ``burgers_nan_jacobian`` holds
its mid node at exactly 0 up to t = 0.006, where the kernel of f_z
evaluates sign(0) times 1/sqrt(0) as nan, so Newton refuses those
Jacobians and rejects; once roundoff moves the node off 0, the run
completes.  Together they pin each non-finite refusal of the stage
solve.  For every problem ``solution.npy``
must also equal ``solution.csv`` parsed back, ``read_solution`` must build
the grids that sorting and scattering its rows builds, and verify must
write the same report from a ``solution.npy`` rebuilt from the CSV.

Record the digests again, from the root of a checkout, with

    PYTHONPATH=src python tests/test_golden.py

which prints each problem and report whose digest or exit codes it
changes, as short hashes old -> new.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import dynbc.cli as cli
from dynbc.cli import (
    RunManifest, cmd_certify, cmd_solve, cmd_verify, preset_path, read_solution,
)
from dynbc.solver import SolverConfig

PRESETS = ("steady", "manufactured", "burgers", "blowup_270",
           "weakened_nagumo", "cubic_damping")
REPORTS = ("certificate.json", "h_table.csv", "summary.json", "solution.csv",
           "verification.json", "solution.npy")
GRIDS = {
    "burgers_nx257": ("burgers", {"u0": "0.47*cos(pi*x/2)^3", "solver": {"nx": 257}}),
    "burgers_newton_retry": ("burgers", {"solver": {"nx": 65, "dt0": 0.05,
                                                    "newton_max_iter": 2}}),
    "burgers_implicit_fixed": ("burgers", {"solver": {"nx": 65, "theta": 1.0,
                                                      "dt_min": 0.01, "dt_max": 0.01}}),
    "burgers_pinned": ("burgers", {"bc_minus": {"kind": "dirichlet", "value": "-0.0*t"},
                                   "bc_plus": {"kind": "dirichlet",
                                               "value": "0.05*sin(3*t)"}}),
    "burgers_theta06": ("burgers", {"solver": {"nx": 33, "theta": 0.6,
                                               "local_error_tol": 1e-6}}),
    "burgers_sqrt_floor": ("burgers", {"f": "-8*sqrt(z + 0.5)",
                                       "solver": {"nx": 33, "dt0": 0.2, "dt_min": 1e-5,
                                                  "strict": False}}),
    "burgers_nan_jacobian": ("burgers", {"f": "-sign(z)*sqrt(abs(z))",
                                         "u0": "0.3*sin(pi*x)",
                                         "solver": {"nx": 33, "strict": False}}),
}
GOLDEN = Path(__file__).with_name("golden_digests.json")


def problem_file(name: str, out: Path) -> Path:
    """A shipped preset, or a ``GRIDS`` problem written under ``out``."""
    if name not in GRIDS:
        return preset_path(name)
    base, changes = GRIDS[name]
    raw = json.loads(preset_path(base).read_text(encoding="utf-8")) | changes
    out.mkdir(parents=True, exist_ok=True)
    spec = out / "spec.json"
    spec.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return spec


STAGES = {"certify": cmd_certify, "solve": cmd_solve, "verify": cmd_verify}


def run_chain(name: str, out: Path, stages: tuple[str, ...] = tuple(STAGES)) -> dict:
    """Exit codes and report digests of one problem's certify/solve/verify,
    or of the given ``stages``."""
    spec = problem_file(name, out)
    codes = [STAGES[stage](RunManifest(spec_path=spec, command=stage, out_dir=out))
             for stage in stages]
    digests = {}
    for report in REPORTS:
        path = out / report
        digests[report] = (hashlib.sha256(path.read_bytes()).hexdigest()
                           if path.is_file() else None)
    return {"exit": codes, "sha256": digests}


def scattered_grids(data: np.ndarray) -> list[np.ndarray]:
    """t, x and the u, ux, ut grids of solution.npy rows in any order: the
    sorted distinct t and x, and every row scattered to its (t, x) cell."""
    times, inverse = np.unique(data[:, 0], return_inverse=True)
    nodes = np.unique(data[:, 1])
    jidx = np.searchsorted(nodes, data[:, 1])
    grids = [np.empty((times.size, nodes.size)) for _ in range(3)]
    for k, grid in enumerate(grids, start=2):
        grid[inverse, jidx] = data[:, k]
    return [times, nodes, *grids]


@pytest.mark.parametrize("name", PRESETS + tuple(GRIDS))
def test_preset_reports_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("DYNBC_TOL", raising=False)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_chain(name, tmp_path / name) == want


@pytest.mark.parametrize("name", PRESETS + tuple(GRIDS))
def test_reports_match_golden_digests_when_each_slice_goes_to_a_formatter(
        name, tmp_path, monkeypatch):
    """The same digests when solve forks its CSV formatter as soon as one
    slice is stored, so the child formats every later slice as it is
    stored."""
    monkeypatch.delenv("DYNBC_TOL", raising=False)
    raw = json.loads(problem_file(name, tmp_path / name).read_text(encoding="utf-8"))
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", raw.get("solver", {}).get("nx", SolverConfig.nx))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_chain(name, tmp_path / name) == want


@pytest.mark.parametrize("name", PRESETS + tuple(GRIDS))
def test_verify_without_certify_matches_golden_digests(name, tmp_path, monkeypatch):
    """verify builds the barrier from the spec, so solve and verify in a
    directory that certify never ran in give the golden reports."""
    monkeypatch.delenv("DYNBC_TOL", raising=False)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = run_chain(name, tmp_path / name, ("solve", "verify"))
    assert got["exit"] == want["exit"][1:]
    assert got["sha256"] == want["sha256"] | {"certificate.json": None, "h_table.csv": None}


@pytest.mark.parametrize("name", PRESETS + tuple(GRIDS))
def test_verify_reads_the_numbers_of_the_csv(name, tmp_path, monkeypatch):
    monkeypatch.delenv("DYNBC_TOL", raising=False)
    out = tmp_path / name
    code = run_chain(name, out)["exit"][2]
    saved = np.load(out / "solution.npy")
    parsed = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    assert saved.shape == parsed.shape and saved.dtype == parsed.dtype == np.float64
    assert np.array_equal(saved.view(np.uint64), parsed.view(np.uint64))
    sol = read_solution(out)
    read = [sol.grid.times, sol.grid.nodes, sol.grid.values, sol.ux, sol.ut]
    for got, want in zip(read, scattered_grids(saved), strict=True):
        assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    # verify writes no report for a run that ended in step failure
    report = out / "verification.json"
    before = report.read_bytes() if report.is_file() else None
    (out / "solution.npy").unlink()
    np.save(out / "solution.npy", parsed)
    spec = problem_file(name, out)
    assert cmd_verify(RunManifest(spec_path=spec, command="verify", out_dir=out)) == code
    assert (report.read_bytes() if report.is_file() else None) == before


def record_changes(old: dict, new: dict) -> list[str]:
    """One line per problem and report whose digest or exit codes differ
    between two records, as short hashes (or exit codes) old -> new."""
    def short(digest):
        return "-" if digest is None else digest[:12]

    lines = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        if was.get("exit") != now.get("exit"):
            lines.append(f"{name} exit: {was.get('exit')} -> {now.get('exit')}")
        before, after = was.get("sha256", {}), now.get("sha256", {})
        for report in sorted(before.keys() | after.keys()):
            if before.get(report) != after.get(report):
                lines.append(f"{name}/{report}: {short(before.get(report))}"
                             f" -> {short(after.get(report))}")
    return lines


def test_a_re_record_prints_each_moved_digest_and_exit_code():
    old = {"a": {"exit": [0, 0, 0], "sha256": {"x.json": "1" * 64, "y.csv": None}},
           "b": {"exit": [2, 0, 0], "sha256": {"x.json": "2" * 64}}}
    new = {"a": {"exit": [0, 0, 0], "sha256": {"x.json": "3" * 64, "y.csv": None}},
           "b": {"exit": [2, 0, 1], "sha256": {"x.json": "2" * 64}}}
    assert record_changes(old, new) == ["a/x.json: 111111111111 -> 333333333333",
                                        "b exit: [2, 0, 0] -> [2, 0, 1]"]
    assert record_changes(new, new) == []


if __name__ == "__main__":
    os.environ.pop("DYNBC_TOL", None)
    with tempfile.TemporaryDirectory() as work:
        record = {name: run_chain(name, Path(work) / name) for name in PRESETS + tuple(GRIDS)}
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    print("\n".join(record_changes(previous, record)) or "no digest or exit code changed")
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
