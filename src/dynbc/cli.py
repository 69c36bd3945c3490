"""Command-line workflows: certify, solve, verify, sweep.

    dynbc certify --spec problem.json --out run/
    dynbc solve   --spec problem.json --out run/
    dynbc verify  --spec problem.json --out run/
    dynbc sweep   --spec problem.json --out run/

The problem file is JSON with expression strings (see docs/formats.md); the
optional blocks "certificate", "sup_bound", "solver" and "sweep" carry the
workflow parameters.  Reports are written with fixed field order and floats
at 17 significant digits, so identical inputs produce byte-identical files.
Sweeps evaluate their points serially: the work is pure Python holding the
interpreter lock, so ``--jobs`` is accepted and has no effect.

Exit codes: 0 success / all conditions satisfied; 1 input or artifact error;
2 condition violations or negative verification slacks; 3 gradient blow-up
detected by solve; 4 step failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .certificate import (
    BarrierCertificate, PsiSpec, SupBoundCertificate, build_barrier,
    check_hypotheses, estimate_lipschitz, sup_bound,
)
from .errors import (
    CertificateMismatch, ConditionViolated, ConfigError, DivergentIntegral,
    DynbcError, PreconditionFailed,
)
from .expr import compile_expr, parse
from .holder import GridFunction, parabolic_norm
from .problem import ProblemSpec
from .solver import (
    BlowUpDetected, Completed, Solution, SolverConfig, StepFailure, solve,
)
from .verify import blowup_inequality, bounds_check, doubling_check

__all__ = ["RunManifest", "cmd_certify", "cmd_solve", "cmd_verify", "cmd_sweep",
           "main", "preset_path", "json_dumps"]


def default_tol() -> float:
    """Base tolerance; the DYNBC_TOL environment variable overrides it."""
    return float(os.environ.get("DYNBC_TOL", "1e-8"))


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def json_dumps(obj, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and 17-significant-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [json_dumps(v, indent + 2) for v in obj]
        if not items:
            return "[]"
        inner = ",\n".join(" " * (indent + 2) + it for it in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {json_dumps(v, indent + 2)}" for k, v in obj.items()]
        if not items:
            return "{}"
        inner = ",\n".join(" " * (indent + 2) + it for it in items)
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8")


def _csv_row(values) -> str:
    out = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            out.append(f"{float(v):.17g}")
        else:
            out.append(str(v))
    return ",".join(out)


# ---------------------------------------------------------------------------
# manifest

@dataclass
class RunManifest:
    spec_path: Path
    command: str
    out_dir: Path
    report_format: str = "json"
    strict: bool | None = None
    jobs: int = 1
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        self.spec_path = Path(self.spec_path)
        self.out_dir = Path(self.out_dir)
        if not self.spec_path.is_file():
            raise ConfigError(f"spec file not found: {self.spec_path}")
        if self.report_format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.report_format!r}")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if not os.access(self.out_dir, os.W_OK):
            raise ConfigError(f"output directory not writable: {self.out_dir}")

    def load_spec(self) -> dict:
        try:
            return json.loads(self.spec_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec file is not valid JSON: {exc}") from None


def preset_path(name: str) -> Path:
    """Path of a shipped preset problem file (e.g. 'steady')."""
    base = resources.files("dynbc").joinpath("presets")
    p = Path(str(base.joinpath(f"{name}.json")))
    if not p.is_file():
        raise ConfigError(f"no preset named {name!r}")
    return p


def _solver_config(raw: dict, manifest: RunManifest) -> SolverConfig:
    blk = dict(raw.get("solver", {}))
    ov = manifest.overrides
    kwargs = {}
    for key, target in (("nx", "nx"), ("dt0", "dt0"), ("theta", "theta"),
                        ("dt_min", "dt_min"), ("dt_max", "dt_max"),
                        ("newton_tol", "newton_tol"), ("newton_max_iter", "newton_max_iter"),
                        ("cutoff", "gradient_cutoff"), ("gradient_cutoff", "gradient_cutoff"),
                        ("local_error_tol", "local_error_tol"), ("strict", "strict_compatibility")):
        if key in blk:
            kwargs[target] = blk[key]
    for key, target in (("nx", "nx"), ("dt0", "dt0"), ("cutoff", "gradient_cutoff")):
        if key in ov and ov[key] is not None:
            kwargs[target] = ov[key]
    if manifest.strict is not None:
        kwargs["strict_compatibility"] = manifest.strict
    kwargs.setdefault("compat_tol", default_tol())
    return SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# certify

def _certificate_params(raw: dict):
    blk = raw.get("certificate")
    if blk is None or "psi" not in blk or "q0" not in blk:
        raise ConfigError('spec needs a "certificate" block with "psi" and "q0"')
    return blk


def cmd_certify(manifest: RunManifest) -> int:
    try:
        raw = manifest.load_spec()
        problem = ProblemSpec.from_dict(raw)
        blk = _certificate_params(raw)
        psi = PsiSpec.from_text(blk["psi"])
        q0 = float(blk["q0"])

        sup_blk = raw.get("sup_bound")
        supc: SupBoundCertificate | None = None
        sup_error: str | None = None
        if sup_blk is not None:
            try:
                supc = sup_bound(parse(sup_blk["Phi"]), float(sup_blk["B"]),
                                 u0_sup=_u0_sup(problem), T=problem.T)
            except ConditionViolated as exc:
                sup_error = str(exc)
        if "M" in blk:
            M = float(blk["M"])
            m_source = "given"
        elif supc is not None:
            M = supc.M_proof
            m_source = "sup_bound.M_proof"
        elif sup_error is not None:
            print(f"certify: sup bound unavailable: {sup_error}", file=sys.stderr)
            return 2
        else:
            raise ConfigError('certificate block needs "M" (or a "sup_bound" block to derive it)')

        pmax = float(blk["pmax"]) if "pmax" in blk else None
        n_samples = int(blk.get("n_samples", 33))
        # the barrier goes first: its q1 gives the default pmax = 4 q1 that
        # check_hypotheses would otherwise find with a second find_q1
        cert: BarrierCertificate | None = None
        barrier_error = None
        try:
            cert = build_barrier(psi, q0=q0, M=M,
                                 K=estimate_lipschitz(problem.u0, problem.ell))
        except (ConditionViolated, PreconditionFailed) as exc:
            barrier_error = str(exc)
            # ConditionViolated is find_q1's "no finite q1", where
            # check_hypotheses uses pmax = 100; after a PreconditionFailed
            # it runs find_q1 itself and raises first, as before
            if pmax is None and isinstance(exc, ConditionViolated):
                pmax = 100.0
        if pmax is None and cert is not None:
            pmax = 4.0 * cert.q1
        report = check_hypotheses(
            problem, M=M, q0=q0, psi=psi, pmax=pmax, n_samples=n_samples,
            phi=parse(sup_blk["Phi"]) if sup_blk else None,
            B=float(sup_blk["B"]) if sup_blk else None,
            compat_tol=default_tol())
    except (DynbcError, KeyError, ValueError) as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return 1

    doc = {
        "command": "certify",
        "M": M,
        "M_source": m_source,
        "q0": q0,
        "psi": psi.text,
        "barrier": cert.as_dict() if cert else None,
        "barrier_error": barrier_error,
        "sup_bound": supc.as_dict() if supc else None,
        "sup_bound_error": sup_error,
        "conditions": report.as_dict(),
        "h_table": "h_table.csv" if cert else None,
    }
    _write(manifest.out_dir / "certificate.json", json_dumps(doc))
    if cert is not None:
        lines = ["xi,h,hp"]
        lines += [_csv_row((a, b, c)) for a, b, c in zip(cert.xi, cert.h, cert.hp)]
        _write(manifest.out_dir / "h_table.csv", "\n".join(lines))
    if manifest.report_format == "csv":
        lines = ["name,satisfied,worst_violation"]
        lines += [_csv_row((e.name, e.satisfied, e.worst_violation)) for e in report.entries]
        _write(manifest.out_dir / "conditions.csv", "\n".join(lines))

    if not report.all_satisfied or cert is None:
        for name in report.violated:
            print(f"certify: condition {name} violated", file=sys.stderr)
        if barrier_error:
            print(f"certify: {barrier_error}", file=sys.stderr)
        return 2
    return 0


def _u0_sup(problem: ProblemSpec) -> float:
    xs = np.linspace(-problem.ell, problem.ell, 10_001)
    vals = np.broadcast_to(np.asarray(compile_expr(problem.u0)(x=xs), float), xs.shape)
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# solve

def _status_dict(status) -> dict:
    if isinstance(status, Completed):
        return {"kind": "completed"}
    if isinstance(status, BlowUpDetected):
        return {"kind": "blowup", "time": status.time, "max_gradient": status.max_gradient}
    return {"kind": "stepfailure", "time": status.time, "reason": status.reason}


def _status_from_dict(d: dict):
    if d["kind"] == "completed":
        return Completed()
    if d["kind"] == "blowup":
        return BlowUpDetected(time=float(d["time"]), max_gradient=float(d["max_gradient"]))
    return StepFailure(time=float(d["time"]), reason=str(d.get("reason", "")))


def write_solution(sol: Solution, out_dir: Path) -> None:
    """Write ``solution.csv``, streamed one time slice at a time.

    One ``t,x,u,ux,ut`` row per node and stored time, every float at 17
    significant digits (``%.17g``, which prints ``nan``, ``inf`` and ``-0``
    as Python does).  The x cells are formatted once into a row template;
    each slice adds its t cell and fills the u, ux and ut cells with one
    ``%`` format, and is written before the next slice is built.
    """
    rows = [",%.17g,%%.17g,%%.17g,%%.17g\n" % x for x in sol.grid.nodes.tolist()]
    with open(out_dir / "solution.csv", "w", encoding="utf-8") as fh:
        fh.write("t,x,u,ux,ut\n")
        for t, u, ux, ut in zip(sol.grid.times.tolist(), sol.grid.values,
                                sol.ux.values, sol.ut.values):
            t_cell = "%.17g" % t
            template = t_cell + t_cell.join(rows)
            fh.write(template % tuple(np.column_stack((u, ux, ut)).ravel().tolist()))


def read_solution(out_dir: Path) -> Solution:
    csv_path = out_dir / "solution.csv"
    summary_path = out_dir / "summary.json"
    if not csv_path.is_file() or not summary_path.is_file():
        raise ConfigError(f"missing solution artifacts in {out_dir}")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    times, inverse = np.unique(data[:, 0], return_inverse=True)
    nodes = np.unique(data[:, 1])
    nt, nx = times.size, nodes.size
    if data.shape[0] != nt * nx:
        raise ConfigError("solution.csv is not a full rectangular grid")
    jidx = np.searchsorted(nodes, data[:, 1])
    cols = {}
    for k, name in ((2, "u"), (3, "ux"), (4, "ut")):
        grid = np.empty((nt, nx))
        grid[inverse, jidx] = data[:, k]
        cols[name] = grid
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    status = _status_from_dict(summary["status"])
    return Solution(
        grid=GridFunction(times, nodes, cols["u"]),
        ux=GridFunction(times, nodes, cols["ux"]),
        ut=GridFunction(times, nodes, cols["ut"]),
        status=status, step_log=dict(summary.get("step_log", {})))


def cmd_solve(manifest: RunManifest) -> int:
    try:
        raw = manifest.load_spec()
        problem = ProblemSpec.from_dict(raw)
        cfg = _solver_config(raw, manifest)
        sol = solve(problem, cfg)
    except (DynbcError, KeyError, ValueError) as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 1

    try:
        holder_block = parabolic_norm(sol.grid, 0, 0.5).as_dict()
    except DynbcError:
        holder_block = None
    summary = {
        "command": "solve",
        "status": _status_dict(sol.status),
        "sup_u": sol.sup_u,
        "sup_ux": sol.sup_ux,
        "final_time": float(sol.grid.times[-1]),
        "nx": int(sol.grid.nodes.size),
        "dx": sol.dx,
        "dt_max_accepted": sol.dt_max_accepted,
        "step_log": sol.step_log,
        "holder_norm": holder_block,
    }
    _write(manifest.out_dir / "summary.json", json_dumps(summary))
    write_solution(sol, manifest.out_dir)

    if isinstance(sol.status, Completed):
        return 0
    if isinstance(sol.status, BlowUpDetected):
        print(f"solve: gradient blow-up at t = {sol.status.time:.6g} "
              f"(max |u_x| = {sol.status.max_gradient:.6g})", file=sys.stderr)
        return 3
    print(f"solve: step failure at t = {sol.status.time:.6g}: {sol.status.reason}",
          file=sys.stderr)
    return 4


# ---------------------------------------------------------------------------
# verify

def read_certificate(out_dir: Path) -> tuple[BarrierCertificate, SupBoundCertificate | None]:
    cert_path = out_dir / "certificate.json"
    table_path = out_dir / "h_table.csv"
    if not cert_path.is_file():
        raise ConfigError(f"missing certificate.json in {out_dir}")
    doc = json.loads(cert_path.read_text(encoding="utf-8"))
    if doc.get("barrier") is None:
        raise ConfigError("certificate.json carries no barrier (certify failed?)")
    if not table_path.is_file():
        raise ConfigError(f"missing h_table.csv in {out_dir}")
    table = np.loadtxt(table_path, delimiter=",", skiprows=1)
    b = doc["barrier"]
    cert = BarrierCertificate(
        q0=float(b["q0"]), q1=float(b["q1"]), kappa0=float(b["kappa0"]),
        M=float(b["M"]), K=float(b["K"]),
        xi=table[:, 0], h=table[:, 1], hp=table[:, 2], psi_text=str(b["psi"]))
    supc = None
    if doc.get("sup_bound") is not None:
        s = doc["sup_bound"]
        supc = SupBoundCertificate(
            phi_text=str(s["Phi"]), B=float(s["B"]), u0_sup=float(s["u0_sup"]),
            T=float(s["T"]), M_paper=float(s["M_paper"]), M_proof=float(s["M_proof"]),
            lambda_star=float(s["lambda_star"]))
    return cert, supc


def cmd_verify(manifest: RunManifest) -> int:
    try:
        sol = read_solution(manifest.out_dir)
        if isinstance(sol.status, BlowUpDetected):
            # only the growth gauge matters for a blow-up run; a barrier
            # cannot exist when the budget condition fails
            cert_doc = json.loads((manifest.out_dir / "certificate.json").read_text())
            return _verify_blowup(manifest, sol, str(cert_doc["psi"]))
        cert, supc = read_certificate(manifest.out_dir)
    except (DynbcError, OSError, KeyError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 1

    if not isinstance(sol.status, Completed):
        print("verify: solution ended in step failure; nothing to verify", file=sys.stderr)
        return 1

    try:
        doubling = doubling_check(sol, cert)
    except CertificateMismatch as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 1
    report = bounds_check(sol, cert, sup_cert=supc, doubling=doubling)

    tol_env = os.environ.get("DYNBC_TOL")
    tolerance = float(tol_env) if tol_env is not None else report.tolerance
    slacks = {"max_w_tilde": -report.max_w_tilde, "max_w1_tilde": -report.max_w1_tilde,
              "gradient_slack": report.gradient_slack, "modulus_slack": report.modulus_slack}
    if report.sup_slack is not None:
        slacks["sup_slack"] = report.sup_slack
    ok = all(v >= -tolerance for v in slacks.values())

    doc = {
        "command": "verify",
        "report": report.as_dict(),
        "tolerance_used": tolerance,
        "passed": ok,
    }
    _write(manifest.out_dir / "verification.json", json_dumps(doc))
    if manifest.report_format == "csv":
        lines = ["quantity,value"]
        for k, v in report.as_dict().items():
            if isinstance(v, (int, float)):
                lines.append(_csv_row((k, float(v))))
        for kind, wit in report.witnesses.items():
            for fld, v in wit.items():
                if isinstance(v, (int, float)):
                    lines.append(_csv_row((f"witness.{kind}.{fld}", float(v))))
        _write(manifest.out_dir / "verification.csv", "\n".join(lines))
    if not ok:
        for k, v in slacks.items():
            if v < -tolerance:
                print(f"verify: {k} = {v:.6g} below -{tolerance:.6g}", file=sys.stderr)
        return 2
    return 0


def _verify_blowup(manifest: RunManifest, sol: Solution, psi_text: str) -> int:
    psi = PsiSpec.from_text(psi_text)
    try:
        chk = blowup_inequality(sol, psi)
        doc = {
            "command": "verify",
            "blowup": {**chk.as_dict(),
                       "time": sol.status.time, "max_gradient": sol.status.max_gradient},
            "passed": chk.consistent,
        }
        _write(manifest.out_dir / "verification.json", json_dumps(doc))
        return 0 if chk.consistent else 2
    except DivergentIntegral as exc:
        doc = {
            "command": "verify",
            "blowup": {"error": "DivergentIntegral", "detail": str(exc),
                       "time": sol.status.time, "max_gradient": sol.status.max_gradient},
            "passed": False,
        }
        _write(manifest.out_dir / "verification.json", json_dumps(doc))
        print(f"verify: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# sweep

def _sweep_point(args):
    psi_text, q0, M, K_est = args
    try:
        psi = PsiSpec.from_text(psi_text)
        cert = build_barrier(psi, q0=q0, M=M, K=min(K_est, q0))
        covers = K_est <= q0 * (1.0 + 1e-5)
        return (psi_text, q0, M, "ok", cert.q1, cert.kappa0, covers, "")
    except DynbcError as exc:
        return (psi_text, q0, M, type(exc).__name__, math.nan, math.nan, False, str(exc))


def cmd_sweep(manifest: RunManifest) -> int:
    try:
        raw = manifest.load_spec()
        blk = raw.get("sweep")
        if not blk:
            raise ConfigError('spec needs a non-empty "sweep" block')
        psis = list(blk.get("psi", []))
        q0s = [float(v) for v in blk.get("q0", [])]
        Ms = [float(v) for v in blk.get("M", [])]
        if not (psis and q0s and Ms):
            raise ConfigError('sweep block needs non-empty "psi", "q0" and "M" axes')
    except (DynbcError, ValueError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1

    # sampled Lipschitz constant of the problem's initial data, reported per
    # row so q0 choices can be screened against it
    try:
        problem = ProblemSpec.from_dict(raw)
        K_est = estimate_lipschitz(problem.u0, problem.ell)
    except DynbcError:
        K_est = math.nan

    rows = [_sweep_point((p, q, M, K_est)) for p in psis for q in q0s for M in Ms]

    lines = ["psi,q0,M,status,q1,kappa0,q0_covers_K,detail"]
    for row in rows:
        psi_text, q0, M, status, q1, kappa0, covers, detail = row
        lines.append(_csv_row((json.dumps(psi_text), q0, M, status, q1, kappa0,
                               covers, json.dumps(detail))))
    _write(manifest.out_dir / "sweep.csv", "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# entry point

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dynbc",
        description="certify / solve / verify workflows for 1-d quasilinear "
                    "parabolic problems with dynamical boundary conditions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("certify", "solve", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="problem file (JSON)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        p.add_argument("--strict", action="store_true", default=None,
                       help="require exact zero-time compatibility")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; sweeps run serially")
        p.add_argument("--nx", type=int, default=None)
        p.add_argument("--dt0", type=float, default=None)
        p.add_argument("--cutoff", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        manifest = RunManifest(
            spec_path=Path(args.spec), command=args.command, out_dir=Path(args.out),
            report_format=args.format, strict=args.strict, jobs=args.jobs,
            overrides={"nx": args.nx, "dt0": args.dt0, "cutoff": args.cutoff})
    except DynbcError as exc:
        print(f"dynbc: {exc}", file=sys.stderr)
        return 1

    cmd = {"certify": cmd_certify, "solve": cmd_solve,
           "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
    return cmd(manifest)


if __name__ == "__main__":
    sys.exit(main())
