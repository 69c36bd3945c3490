"""Workload inputs and the correctness oracle of the dynbc benchmark.

A workload turns a seed into problem files (JSON, the CLI's wire format) and
then, once per pass, into a list of operations.  An operation is one call of
a public CLI entry point (``dynbc.cli.cmd_*``) together with the exit code it
must return and a check of the reports it writes.  Every check returns a list
of failure descriptions; each description counts as one failed operation.

Input generation reads the shipped preset files directly and never imports
dynbc, so the set-up probe can time the package import on its own.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

PRESETS = ("steady", "manufactured", "burgers", "blowup_270",
           "weakened_nagumo", "cubic_damping")

# expected exit codes (certify, solve, verify) at the shipped nx
PRESET_EXIT = {
    "steady": (0, 0, 0),
    "manufactured": (0, 0, 0),
    "burgers": (0, 0, 0),
    "blowup_270": (2, 3, 0),
    "weakened_nagumo": (0, 0, 0),
    "cubic_damping": (0, 0, 0),
}

# blowup_270: detection time and the sup|u| bound (the preset's budget M)
BLOWUP_TIME = 3.17
BLOWUP_TIME_TOL = 0.03
BLOWUP_SUP_U = 1.2

# manufactured: u = exp(-t) cos x; second-order scheme at nx = 65
MMS_TOL = 1e-3

# fine-grid: amplitude A of u0 = A cos(pi x / 2)^3.  Every A here keeps
# sup|u| = A <= M = 1 and the Lipschitz constant A pi / sqrt(3) <= q0 = 1,
# and the zero-time compatibility residual is exactly zero.
FINE_NX = 1025
FINE_A = (0.45, 0.50)

# sweep: q0 and M drawn log-uniformly, one value from each third of the
# log-range.  M >= 0.5 makes every (1+p^2)^1.5 point violate the budget,
# since the integral of rho/psi over [q0, inf) is 1/sqrt(1+q0^2) < 1 <= 2M.
SWEEP_PSI = ("1", "1+p^2", "1+p", "(1+p^2)^1.5")
SWEEP_Q0 = (0.5, 2.0)
SWEEP_M = (0.5, 1.5)
# Measured sweep passes evaluate the points serially.  With --jobs 2 the
# GIL-bound thread pool's wall time follows the load on a shared host
# (2.4-3.5 s per pass against 1.8-2.1 s of CPU time, on 2 vCPUs), so traced
# runs time the pool against the serial passes instead.
SWEEP_JOBS = 1
POOL_JOBS = 2
SWEEP_REL_TOL = 1e-8

TINY_FINE_NX = 65


@dataclass
class Op:
    """One CLI call: ``cmd_<stage>(manifest)`` must return ``expect``."""

    stage: str                      # certify | solve | verify | sweep
    label: str
    out_dir: Path
    spec: Path
    expect: int
    check: Callable[[], list[str]] | None = None
    points: int = 0                 # sweep points evaluated by this call
    jobs: int = 1

    @property
    def attempted(self) -> int:
        return 1 + self.points


@dataclass
class Workload:
    name: str
    specs: list[Path] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)

    def ops(self, pass_dir: Path, extras: dict) -> list[Op]:
        """The pass's operations; checks may record values in ``extras``."""
        return _OPS[self.name](self, pass_dir, extras)


def preset_file(src: Path, name: str) -> Path:
    return src / "dynbc" / "presets" / f"{name}.json"


def make_workload(name: str, seed: int, src: Path, work: Path, tiny: bool = False) -> Workload:
    """Write the workload's problem files under ``work`` from ``seed``."""
    if name not in _OPS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(_OPS)}")
    wl = Workload(name)
    rng = random.Random(f"{name}:{seed}")
    specs_dir = work / "specs"
    specs_dir.mkdir(parents=True, exist_ok=True)
    if name == "presets":
        for p in PRESETS:
            wl.specs.append(preset_file(src, p))
    elif name == "fine-grid":
        amp = round(rng.uniform(*FINE_A), 6)
        nx = TINY_FINE_NX if tiny else FINE_NX
        raw = json.loads(preset_file(src, "burgers").read_text(encoding="utf-8"))
        raw["u0"] = f"{amp!r}*cos(pi*x/2)^3"
        raw["solver"] = {"nx": nx}
        wl.inputs = {"A": amp, "nx": nx}
        wl.specs.append(_dump(specs_dir / "fine_grid.json", raw))
    elif name == "sweep":
        q0s = _stratified_log(rng, *SWEEP_Q0)
        Ms = _stratified_log(rng, *SWEEP_M)
        if tiny:
            q0s, Ms = q0s[:1], Ms[:1]
        raw = json.loads(preset_file(src, "steady").read_text(encoding="utf-8"))
        raw["sweep"] = {"psi": list(SWEEP_PSI), "q0": q0s, "M": Ms}
        wl.inputs = {"psi": list(SWEEP_PSI), "q0": q0s, "M": Ms,
                     "points": len(SWEEP_PSI) * len(q0s) * len(Ms), "jobs": SWEEP_JOBS}
        wl.specs.append(_dump(specs_dir / "sweep.json", raw))
    return wl


def _dump(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return path


def _stratified_log(rng: random.Random, lo: float, hi: float, k: int = 3) -> list[float]:
    a, b = math.log(lo), math.log(hi)
    return [round(math.exp(a + (b - a) * (i + rng.random()) / k), 6) for i in range(k)]


# ---------------------------------------------------------------------------
# report readers used by the checks

def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _verified(out: Path) -> list[str]:
    path = out / "verification.json"
    if not path.is_file():
        return ["verification.json missing"]
    return [] if _json(path).get("passed") is True else ["verification did not pass"]


def mms_max_err(out: Path) -> float:
    """max |u - exp(-t) cos x| over the stored grid of solution.csv."""
    data = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2))
    return float(np.max(np.abs(data[:, 2] - np.exp(-data[:, 0]) * np.cos(data[:, 1]))))


# ---------------------------------------------------------------------------
# presets

def _solve_check(name: str, out: Path, extras: dict) -> Callable[[], list[str]]:
    def check() -> list[str]:
        s = _json(out / "summary.json")
        kind = s["status"]["kind"]
        if name == "blowup_270":
            if kind != "blowup":
                return [f"status {kind}, expected blowup"]
            t = float(s["status"]["time"])
            if abs(t - BLOWUP_TIME) > BLOWUP_TIME_TOL:
                return [f"blow-up at t = {t}, expected {BLOWUP_TIME} +- {BLOWUP_TIME_TOL}"]
            if not (float(s["sup_u"]) <= BLOWUP_SUP_U):
                return [f"sup|u| = {s['sup_u']} above {BLOWUP_SUP_U}"]
            return []
        if kind != "completed":
            return [f"status {kind}, expected completed"]
        if name == "manufactured":
            err = mms_max_err(out)
            extras["mms_max_err"] = err
            if not (err <= MMS_TOL):
                return [f"MMS error {err} above {MMS_TOL}"]
        if name == "cubic_damping":
            sup = _json(out / "certificate.json").get("sup_bound")
            if sup is None:
                return ["certificate carries no sup_bound block"]
            if not (float(s["sup_u"]) <= float(sup["M_proof"])):
                return [f"sup|u| = {s['sup_u']} above M_proof = {sup['M_proof']}"]
        return []
    return check


def _preset_ops(wl: Workload, pass_dir: Path, extras: dict) -> list[Op]:
    ops = []
    for name, spec in zip(PRESETS, wl.specs):
        out = pass_dir / name
        rc_c, rc_s, rc_v = PRESET_EXIT[name]
        ops += [
            Op("certify", name, out, spec, rc_c),
            Op("solve", name, out, spec, rc_s, _solve_check(name, out, extras)),
            Op("verify", name, out, spec, rc_v, lambda out=out: _verified(out)),
        ]
    return ops


# ---------------------------------------------------------------------------
# fine-grid

def _fine_ops(wl: Workload, pass_dir: Path, extras: dict) -> list[Op]:
    out = pass_dir / "fine_grid"
    spec = wl.specs[0]
    amp = wl.inputs["A"]

    def solve_check() -> list[str]:
        s = _json(out / "summary.json")
        if s["status"]["kind"] != "completed":
            return [f"status {s['status']['kind']}, expected completed"]
        if s["nx"] != wl.inputs["nx"]:
            return [f"nx = {s['nx']}, expected {wl.inputs['nx']}"]
        # the maximum principle keeps sup|u| at its t = 0 value u0(0) = A
        if abs(float(s["sup_u"]) - amp) > 1e-12:
            return [f"sup|u| = {s['sup_u']}, expected A = {amp}"]
        return []

    return [Op("certify", "burgers", out, spec, 0),
            Op("solve", "burgers", out, spec, 0, solve_check),
            Op("verify", "burgers", out, spec, 0, lambda: _verified(out))]


# ---------------------------------------------------------------------------
# sweep

def sweep_reference(psi: str, q0: float, M: float) -> tuple[float, float] | None:
    """Closed-form (q1, kappa0), or None where the budget cannot be met."""
    if psi == "1":
        q1 = math.sqrt(q0 * q0 + 4.0 * M)
        return q1, q1 - q0
    if psi == "1+p^2":
        q1 = math.sqrt((1.0 + q0 * q0) * math.exp(4.0 * M) - 1.0)
        return q1, math.atan(q1) - math.atan(q0)
    if psi == "(1+p^2)^1.5":
        return None
    raise KeyError(psi)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SWEEP_REL_TOL * abs(b)


def _sweep_row_problem(psi: str, q0: float, M: float, status: str,
                       q1: float, kappa0: float) -> str | None:
    if psi == "1+p":
        # integral of rho/(1+rho) and of 1/(1+rho) over [q0, q1]
        if status != "ok" or not q1 > q0:
            return f"{psi}: status {status}, q1 = {q1}"
        budget = (q1 - q0) - math.log((1.0 + q1) / (1.0 + q0))
        if not (_close(budget, 2.0 * M) and _close(kappa0, math.log((1.0 + q1) / (1.0 + q0)))):
            return f"{psi}: budget {budget} or kappa0 {kappa0} off the closed form"
        return None
    ref = sweep_reference(psi, q0, M)
    if ref is None:
        if status != "ConditionViolated":
            return f"{psi}: status {status}, expected ConditionViolated"
        return None
    if status != "ok":
        return f"{psi}: status {status}, expected ok"
    if not (_close(q1, ref[0]) and _close(kappa0, ref[1])):
        return f"{psi} q0={q0} M={M}: (q1, kappa0) = ({q1}, {kappa0}), closed form {ref}"
    return None


def _sweep_ops(wl: Workload, pass_dir: Path, extras: dict) -> list[Op]:
    out = pass_dir / "sweep"
    inp = wl.inputs
    expected = [(p, q, M) for p in inp["psi"] for q in inp["q0"] for M in inp["M"]]

    def check() -> list[str]:
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        if len(lines) != len(expected):
            return [f"sweep.csv has {len(lines)} rows, expected {len(expected)}"] * len(expected)
        problems = []
        for line, (psi, q0, M) in zip(lines, expected):
            cells = line.split(",")
            row_psi, row_q0, row_M = json.loads(cells[0]), float(cells[1]), float(cells[2])
            if (row_psi, row_q0, row_M) != (psi, q0, M):
                problems.append(f"row {cells[:3]} out of order")
                continue
            bad = _sweep_row_problem(psi, q0, M, cells[3], float(cells[4]), float(cells[5]))
            if bad:
                problems.append(bad)
        return problems

    return [Op("sweep", "sweep", out, wl.specs[0], 0, check,
               points=len(expected), jobs=inp["jobs"])]


_OPS = {"presets": _preset_ops, "fine-grid": _fine_ops, "sweep": _sweep_ops}
WORKLOADS = tuple(_OPS)
