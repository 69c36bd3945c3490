"""Command-line workflows: certify, solve, verify, sweep.

    dynbc certify --spec problem.json --out run/
    dynbc solve   --spec problem.json --out run/
    dynbc verify  --spec problem.json --out run/
    dynbc sweep   --spec problem.json --out run/

The problem file is JSON with expression strings (see docs/formats.md); the
optional blocks "certificate", "sup_bound", "solver" and "sweep" carry the
workflow parameters.  Reports are written with fixed field order and floats
at 17 significant digits, so identical inputs produce byte-identical files.
solve writes the solution twice: ``solution.csv`` to read, and
``solution.npy``, the same numbers as one float64 array, which verify reads.
Where ``os.fork`` exists, the CSV is formatted while the solver runs, by
one forked child that solve sends the slices through a pipe (``CsvWriter``);
the bytes are the same as one process writes.  Every command removes its
reports when it starts, so none from an earlier run outlives one that exits
1; certify and solve write ``certificate.json`` and ``summary.json`` last,
so verify refuses a directory where one exited 1.
A report that cannot be written exits 1.  Sweeps run serially.

Exit codes: 0 success / all conditions satisfied; 1 input or artifact error,
command-line usage errors included; 2 condition violations or negative
verification slacks; 3 gradient blow-up detected by solve; 4 step failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import signal
import sys
import threading
from contextlib import closing, suppress
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .certificate import (
    K_SLACK, BarrierCertificate, PsiSpec, SupBoundCertificate, build_barrier,
    check_hypotheses, estimate_lipschitz, sup_bound,
)
from .errors import (
    ConditionViolated, ConfigError, DivergentIntegral, DynbcError, PreconditionFailed,
)
from .expr import compile_expr, parse
from .holder import GridFunction, parabolic_norm
from .problem import ProblemSpec, spec_value
from .solver import (
    BlowUpDetected, Completed, Solution, SolverConfig, StepFailure, grid_nodes, solve,
)
from .verify import blowup_inequality, bounds_check

__all__ = ["RunManifest", "cmd_certify", "cmd_solve", "cmd_verify", "cmd_sweep",
           "main", "preset_path", "json_dumps"]


def default_tol() -> float:
    """Base tolerance; the DYNBC_TOL environment variable overrides it.
    Raises ValueError when it is not a number, nan included."""
    tol = float(os.environ.get("DYNBC_TOL", "1e-8"))
    if math.isnan(tol):  # every slack would pass a nan tolerance
        raise ValueError("DYNBC_TOL must be a number, got nan")
    return tol


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
    jobs: int = 1  # unused: sweeps run serially
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
            raw = json.loads(self.spec_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec file is not valid JSON: {exc}") from None
        return spec_value(raw, dict, "the spec file")


def preset_path(name: str) -> Path:
    """Path of a shipped preset problem file (e.g. 'steady')."""
    base = resources.files("dynbc").joinpath("presets")
    p = Path(str(base.joinpath(f"{name}.json")))
    if not p.is_file():
        raise ConfigError(f"no preset named {name!r}")
    return p


# the solver block's keys, each with its SolverConfig field and JSON type
_SOLVER_KEYS = {
    "nx": ("nx", int), "dt0": ("dt0", float), "theta": ("theta", float),
    "dt_min": ("dt_min", float), "dt_max": ("dt_max", float),
    "cutoff": ("gradient_cutoff", float), "strict": ("strict_compatibility", bool),
    "local_error_tol": ("local_error_tol", float), "newton_tol": ("newton_tol", float),
    "newton_max_iter": ("newton_max_iter", int),
}


def _solver_config(raw: dict, manifest: RunManifest) -> SolverConfig:
    blk = spec_value(raw.get("solver", {}), dict, "solver")
    kwargs = {}
    for key, value in blk.items():
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"unknown solver key {key!r}; the keys are {' '.join(_SOLVER_KEYS)}")
        target, kind = _SOLVER_KEYS[key]
        kwargs[target] = spec_value(value, kind, f"solver.{key}")
    # solve's flags, named as the keys they override
    for key, value in manifest.overrides.items():
        if value is not None:
            kwargs[_SOLVER_KEYS[key][0]] = value
    return SolverConfig(compat_tol=default_tol(), **kwargs)


# ---------------------------------------------------------------------------
# certify

CERTIFY_REPORTS = ("certificate.json", "h_table.csv", "conditions.csv")


def cmd_certify(manifest: RunManifest) -> int:
    try:
        for name in CERTIFY_REPORTS:  # none outlives a failed certify
            (manifest.out_dir / name).unlink(missing_ok=True)
        raw = manifest.load_spec()
        problem = ProblemSpec.from_dict(raw)
        blk = raw.get("certificate")
        if not isinstance(blk, dict) or "psi" not in blk or "q0" not in blk:
            raise ConfigError('spec needs a "certificate" block with "psi" and "q0"')
        psi = PsiSpec.from_text(spec_value(blk["psi"], str, "certificate.psi"))
        q0 = spec_value(blk["q0"], float, "certificate.q0")

        sup_blk = raw.get("sup_bound")
        supc: SupBoundCertificate | None = None
        sup_error: str | None = None
        phi = B = None
        if sup_blk is not None:
            sup_blk = spec_value(sup_blk, dict, "sup_bound")
            phi = parse(spec_value(sup_blk["Phi"], str, "sup_bound.Phi"))
            B = spec_value(sup_blk["B"], float, "sup_bound.B")
            try:
                supc = sup_bound(phi, B, u0_sup=_u0_sup(problem), T=problem.T)
            except ConditionViolated as exc:
                sup_error = str(exc)
        if "M" in blk:
            M = spec_value(blk["M"], float, "certificate.M")
            m_source = "given"
        elif supc is not None:
            M = supc.M_proof
            m_source = "sup_bound.M_proof"
        elif sup_error is not None:
            print(f"certify: sup bound unavailable: {sup_error}", file=sys.stderr)
            return 2
        else:
            raise ConfigError('certificate block needs "M" (or a "sup_bound" block to derive it)')

        pmax = spec_value(blk["pmax"], float, "certificate.pmax") if "pmax" in blk else None
        n_samples = spec_value(blk.get("n_samples", 33), int, "certificate.n_samples")
        # the barrier goes first: its q1 gives the default pmax = 4 q1 that
        # check_hypotheses would otherwise find again
        cert: BarrierCertificate | None = None
        barrier_error = None
        try:
            cert = build_barrier(psi, q0=q0, M=M,
                                 K=estimate_lipschitz(problem.u0, problem.ell))
        except (ConditionViolated, PreconditionFailed) as exc:
            barrier_error = str(exc)
            # ConditionViolated is find_q1's "no finite q1", where
            # check_hypotheses uses pmax = 100; after a PreconditionFailed
            # it refuses the same q0 or M itself and raises, as before
            if pmax is None and isinstance(exc, ConditionViolated):
                pmax = 100.0
        if pmax is None and cert is not None:
            pmax = 4.0 * cert.q1
        report = check_hypotheses(
            problem, M=M, q0=q0, psi=psi, pmax=pmax, n_samples=n_samples,
            phi=phi, B=B, compat_tol=default_tol())
    except (DynbcError, OSError, KeyError, ValueError) as exc:
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
    try:
        if cert is not None:
            write_h_table(cert, manifest.out_dir)
        if manifest.report_format == "csv":
            lines = ["name,satisfied,worst_violation"]
            lines += [_csv_row((e.name, e.satisfied, e.worst_violation)) for e in report.entries]
            _write(manifest.out_dir / "conditions.csv", "\n".join(lines))
        _write(manifest.out_dir / "certificate.json", json_dumps(doc))  # last: verify reads it
    except OSError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return 1

    if not report.all_satisfied or cert is None:
        for name in report.violated:
            print(f"certify: condition {name} violated", file=sys.stderr)
        if barrier_error:
            print(f"certify: {barrier_error}", file=sys.stderr)
        return 2
    return 0


def write_h_table(cert: BarrierCertificate, out_dir: Path) -> None:
    """Write ``h_table.csv``: an ``xi,h,hp`` header and one row per table
    row, every float at 17 significant digits, filled into one row template
    with one ``%`` format (the cells ``_csv_row`` writes)."""
    template = "xi,h,hp" + "\n%.17g,%.17g,%.17g" * cert.xi.size
    cells = np.column_stack((cert.xi, cert.h, cert.hp)).ravel().tolist()
    _write(out_dir / "h_table.csv", template % tuple(cells))


def _u0_sup(problem: ProblemSpec) -> float:
    xs = np.linspace(-problem.ell, problem.ell, 10_001)
    vals = np.broadcast_to(np.asarray(compile_expr(problem.u0)(x=xs), float), xs.shape)
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# solve

def _status_dict(status) -> dict:
    return {"kind": status.kind, **dataclasses.asdict(status)}


def _status_from_dict(d: dict):
    if d["kind"] == Completed.kind:
        return Completed()
    if d["kind"] == BlowUpDetected.kind:
        return BlowUpDetected(time=float(d["time"]), max_gradient=float(d["max_gradient"]))
    return StepFailure(time=float(d["time"]), reason=str(d.get("reason", "")))


# Once the stored slices hold this many rows, a forked child formats the
# CSV.  On a 2-vCPU Xeon, a fork costs a 50-75 MB solving process about
# 3-4 ms, its copy-on-write faults included, and 2**14 rows take about
# 40 ms to format, so a smaller table is formatted in-process.
SPLIT_MIN_ROWS = 2 ** 14

# The formatter's pipe where Linux allows it: about 40 slices at nx = 1025,
# so the sender thread seldom waits on the child.
PIPE_BYTES = 2 ** 20

SOLVE_REPORTS = ("summary.json", "solution.csv", "solution.npy")


class CsvWriter:
    """The time slices of ``solution.csv``, formatted while solve runs.

    ``store`` is solve's ``on_store`` hook.  When the stored slices first
    reach ``SPLIT_MIN_ROWS`` rows and ``os.fork`` exists, it opens
    ``solution.csv`` and forks one child at the lowest priority (nice 19),
    which writes to that file the header, the slices stored so far, then
    each later slice, which a sender thread writes to a pipe as raw float64
    bytes, so every float, NaN payloads included, arrives bit for bit; the
    solver never waits for a child that falls behind.  ``finish`` waits for
    both; a child that failed leaves no ``solution.csv`` and raises
    ``OSError`` with its exit status, from ``store`` or ``finish``.
    ``close`` kills a child still running and removes its partial CSV.
    """

    def __init__(self, out_dir: Path, nodes: np.ndarray):
        self.path, self.nodes = Path(out_dir) / "solution.csv", nodes
        self.stored: list[tuple] | None = []  # (t, u, ux, ut) of each slice, until the fork
        self.child: int | None = None         # the formatter's pid, until it is reaped

    def store(self, t, u, ux, ut) -> None:
        if self.stored is None:  # forked: the slice goes to the child
            if not self.sender.is_alive():  # the child has ended: finish says how
                self.finish()
            self.queue.put(([t], u, ux, ut))
            return
        self.stored.append((t, u, ux, ut))
        if len(self.stored) * u.size >= SPLIT_MIN_ROWS and hasattr(os, "fork"):
            self.fork()

    def fork(self) -> None:
        """Fork the formatter child, which exits 0, or 1 on any error."""
        import fcntl  # POSIX, as os.fork is
        import queue  # 2 ms to import, which a solve that never forks does not pay

        read_end, write_end = os.pipe()
        try:
            if hasattr(fcntl, "F_SETPIPE_SZ"):
                with suppress(OSError):  # refused above pipe-max-size: slower, not wrong
                    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            with open(self.path, "w", encoding="utf-8") as csv:  # the child writes it
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        # lowest priority: where the host gives both processes
                        # one CPU, the solver keeps it and this child fills the gaps
                        os.nice(19)
                        os.close(write_end)
                        with csv, open(read_end, "rb") as pipe:
                            csv.write("t,x,u,ux,ut\n")
                            _write_csv_slices(csv, self.nodes, self.stored)
                            _write_csv_slices(csv, self.nodes,
                                              _piped_slices(pipe, self.nodes.size))
                        code = 0
                    finally:
                        os._exit(code)  # never return into the caller's stack
        except BaseException:
            os.close(write_end)
            raise
        finally:
            os.close(read_end)
        self.child, self.stored, self.queue = pid, None, queue.SimpleQueue()
        self.sender = threading.Thread(target=self._send, args=(open(write_end, "wb"),),
                                       daemon=True)
        self.sender.start()

    def _send(self, pipe) -> None:
        """Write each queued slice to the pipe until ``None`` is queued."""
        with suppress(BrokenPipeError), pipe:  # a child that ended early: its status says why
            while (state := self.queue.get()) is not None:
                pipe.write(np.concatenate(state).tobytes())
                pipe.flush()  # each slice now: a child that has ended is seen at once

    def finish(self) -> None:
        """Wait for the sender and for the child to write the rest."""
        self.queue.put(None)
        self.sender.join()
        pid, self.child = self.child, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            self.path.unlink(missing_ok=True)
            raise OSError(f"solution.csv: the formatting process exited with status {code}")

    def close(self) -> None:
        if self.child is not None:
            os.kill(self.child, signal.SIGKILL)
            with suppress(OSError):  # its status: killed
                self.finish()


def write_solution(sol: Solution, out_dir: Path, *, writer: CsvWriter | None = None) -> None:
    """Write ``summary.json``, ``solution.csv`` and ``solution.npy``; all
    three are complete on return.

    ``solution.csv``: one ``t,x,u,ux,ut`` row per node and stored time,
    every float at 17 significant digits (``%.17g``, which prints ``nan``,
    ``inf`` and ``-0`` as Python does), written one time slice at a time.
    ``writer`` is the live ``CsvWriter`` that ``sol``'s slices were stored
    in.  If it forked a formatter, the summary (its Hölder block is the
    costly part) is computed while the child drains the pipe; otherwise
    this process writes the CSV, with the same bytes.  The ``.npy`` and
    then ``summary.json`` are written once the CSV is complete.

    ``solution.npy`` holds the same rows as one float64 array of shape
    (times * nodes, 5), the bytes ``np.save`` writes, and equals the CSV's
    numbers read back bit for bit: 17 digits round-trip every float, and
    NaN is stored as the one NaN that ``nan`` reads back as.  Writing it a
    slice at a time keeps the whole table out of memory.
    """
    summary = json_dumps(_summary(sol))
    if writer is not None and writer.child is not None:
        writer.finish()
    else:
        with open(out_dir / "solution.csv", "w", encoding="utf-8") as fh:
            fh.write("t,x,u,ux,ut\n")
            _write_csv_slices(fh, sol.grid.nodes, _slices(sol))
    _write_npy(sol, out_dir / "solution.npy")
    _write(out_dir / "summary.json", summary)


def _summary(sol: Solution) -> dict:
    try:
        holder_block = parabolic_norm(sol.grid, 0, 0.5).as_dict()
    except DynbcError:
        holder_block = None
    return {
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


def _slices(sol: Solution):
    """(t, u, ux, ut) of each time slice."""
    return zip(sol.grid.times.tolist(), sol.grid.values, sol.ux, sol.ut)


def _piped_slices(pipe, n: int):
    """(t, u, ux, ut) of each slice ``CsvWriter.store`` sent on ``n`` nodes."""
    size = 8 * (1 + 3 * n)
    while block := pipe.read(size):
        t, u, ux, ut = np.split(np.frombuffer(block, float), (1, 1 + n, 1 + 2 * n))
        yield t[0], u, ux, ut


def _write_csv_slices(fh, nodes: np.ndarray, slices) -> None:
    """Write the CSV rows of each (t, u, ux, ut) slice on ``nodes``.  The x
    cells are formatted once into a row template; each slice adds its t
    cell and fills the u, ux and ut cells with one ``%`` format."""
    rows = [",%.17g,%%.17g,%%.17g,%%.17g\n" % x for x in nodes.tolist()]
    for t, u, ux, ut in slices:
        t_cell = "%.17g" % t
        cells = np.column_stack((u, ux, ut))
        fh.write((t_cell + t_cell.join(rows)) % tuple(cells.ravel().tolist()))


def _write_npy(sol: Solution, path: Path) -> None:
    nodes = sol.grid.nodes
    header = {"descr": np.dtype(float).str, "fortran_order": False,
              "shape": (sol.grid.values.size, 5)}
    with open(path, "wb") as fb:
        np.lib.format.write_array_header_1_0(fb, header)
        for t, u, ux, ut in _slices(sol):
            block = np.column_stack((np.full(nodes.size, t), nodes, u, ux, ut))
            block[np.isnan(block)] = np.nan
            fb.write(block.tobytes())


def read_solution(out_dir: Path) -> Solution:
    """The solution of a run directory, from ``solution.npy`` and
    ``summary.json`` (``solution.csv`` is not read)."""
    npy_path = out_dir / "solution.npy"
    summary_path = out_dir / "summary.json"
    if not npy_path.is_file() or not summary_path.is_file():
        raise ConfigError(f"missing solution artifacts in {out_dir}")
    data = np.load(npy_path)
    if data.ndim != 2 or data.shape[1] != 5:
        raise ConfigError(f"solution.npy has shape {data.shape}, not (rows, 5)")
    slices = _time_slices(data)
    times, nodes = slices[:, 0, 0].copy(), slices[0, :, 1].copy()
    u, ux, ut = (np.ascontiguousarray(slices[:, :, k]) for k in (2, 3, 4))
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    status = _status_from_dict(summary["status"])
    return Solution(grid=GridFunction(times, nodes, u), ux=ux, ut=ut, status=status,
                    step_log=dict(summary.get("step_log", {})))


def _time_slices(data: np.ndarray) -> np.ndarray:
    """The rows of ``solution.npy`` as an array (times, nodes, 5).  The rows
    must be time-major: each slice the rows of one t, t strictly increasing,
    and every slice repeating the first slice's strictly increasing x."""
    rows = data.shape[0]
    nx = (int(np.argmax(data[:, 0] != data[0, 0])) or rows) if rows else 0
    if nx and rows % nx == 0:
        slices = data.reshape(-1, nx, 5)
        t, x = slices[:, :1, 0], slices[:1, :, 1]
        if (np.all(slices[:, :, 0] == t) and np.all(slices[:, :, 1] == x)
                and np.all(np.diff(t[:, 0]) > 0) and np.all(np.diff(x[0]) > 0)):
            return slices
    raise ConfigError("solution.npy is not a full rectangular grid")


def cmd_solve(manifest: RunManifest) -> int:
    try:
        for name in SOLVE_REPORTS:  # none outlives a failed solve
            (manifest.out_dir / name).unlink(missing_ok=True)
        raw = manifest.load_spec()
        problem = ProblemSpec.from_dict(raw)
        cfg = _solver_config(raw, manifest)
        # no child and no partial solution.csv outlives the block, whatever it raises
        with closing(CsvWriter(manifest.out_dir, grid_nodes(problem.ell, cfg.nx))) as writer:
            sol = solve(problem, cfg, on_store=writer.store)
            write_solution(sol, manifest.out_dir, writer=writer)
    except (DynbcError, OSError, KeyError, ValueError) as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 1

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
        for name in ("verification.json", "verification.csv"):  # none outlives a failed verify
            (manifest.out_dir / name).unlink(missing_ok=True)
        sol = read_solution(manifest.out_dir)
        if isinstance(sol.status, BlowUpDetected):
            # only the growth gauge matters for a blow-up run; a barrier
            # cannot exist when the budget condition fails
            cert_doc = json.loads((manifest.out_dir / "certificate.json").read_text())
            return _verify_blowup(manifest, sol, str(cert_doc["psi"]))
        cert, supc = read_certificate(manifest.out_dir)
        report = bounds_check(sol, cert, sup_cert=supc)
        # DYNBC_TOL, when set, replaces the grid-derived tolerance
        tolerance = default_tol() if "DYNBC_TOL" in os.environ else report.tolerance
    except (DynbcError, OSError, KeyError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 1

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
    try:
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
    except OSError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 1
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
        blowup, passed = chk.as_dict(), chk.consistent
    except DivergentIntegral as exc:
        blowup, passed = {"error": "DivergentIntegral", "detail": str(exc)}, False
        print(f"verify: {exc}", file=sys.stderr)
    doc = {
        "command": "verify",
        "blowup": {**blowup, "time": sol.status.time, "max_gradient": sol.status.max_gradient},
        "passed": passed,
    }
    _write(manifest.out_dir / "verification.json", json_dumps(doc))
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# sweep

def _sweep_point(psi_text: str, q0: float, M: float, K_est: float) -> str:
    """The ``sweep.csv`` row of one point: its barrier, or the error it raised."""
    try:
        cert = build_barrier(PsiSpec.from_text(psi_text), q0=q0, M=M, K=min(K_est, q0))
        cells, detail = ("ok", cert.q1, cert.kappa0, K_est <= q0 * (1.0 + K_SLACK)), ""
    except DynbcError as exc:
        cells, detail = (type(exc).__name__, math.nan, math.nan, False), str(exc)
    return _csv_row((json.dumps(psi_text), q0, M, *cells, json.dumps(detail)))


def cmd_sweep(manifest: RunManifest) -> int:
    try:
        (manifest.out_dir / "sweep.csv").unlink(missing_ok=True)  # none outlives a failed sweep
        raw = manifest.load_spec()
        blk = raw.get("sweep")
        if not blk:
            raise ConfigError('spec needs a non-empty "sweep" block')
        blk = spec_value(blk, dict, "sweep")

        def axis(name: str, kind: type) -> list:
            return [spec_value(v, kind, f"sweep.{name} entry")
                    for v in spec_value(blk.get(name, []), list, f"sweep.{name}")]

        psis, q0s, Ms = axis("psi", str), axis("q0", float), axis("M", float)
        if not (psis and q0s and Ms):
            raise ConfigError('sweep block needs non-empty "psi", "q0" and "M" axes')
        # sampled Lipschitz constant of the problem's initial data, reported
        # per row so q0 choices can be screened against it
        problem = ProblemSpec.from_dict(raw)
        K_est = estimate_lipschitz(problem.u0, problem.ell)
        rows = [_sweep_point(p, q, M, K_est) for p in psis for q in q0s for M in Ms]
        _write(manifest.out_dir / "sweep.csv",
               "\n".join(["psi,q0,M,status,q1,kappa0,q0_covers_K,detail", *rows]))
    except (DynbcError, OSError, ValueError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, the input-error code, not argparse's 2, which
    the CLI reserves for violated conditions."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="dynbc",
        description="certify / solve / verify workflows for 1-d quasilinear "
                    "parabolic problems with dynamical boundary conditions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("certify", "solve", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="problem file (JSON)")
        p.add_argument("--out", default="out", help="output directory")
        if name in ("certify", "verify"):
            p.add_argument("--format", default="json", choices=("json", "csv"))
        if name == "solve":
            p.add_argument("--strict", action="store_true", default=None,
                           help="require exact zero-time compatibility")
            p.add_argument("--nx", type=int)
            p.add_argument("--dt0", type=float)
            p.add_argument("--cutoff", type=float)
    # what is left after the common flags are solve's overrides
    flags = vars(parser.parse_args(argv))
    command = flags.pop("command")

    try:
        manifest = RunManifest(
            spec_path=Path(flags.pop("spec")), command=command, out_dir=Path(flags.pop("out")),
            report_format=flags.pop("format", "json"), overrides=flags)
    except DynbcError as exc:
        print(f"dynbc: {exc}", file=sys.stderr)
        return 1

    cmd = {"certify": cmd_certify, "solve": cmd_solve,
           "verify": cmd_verify, "sweep": cmd_sweep}[command]
    return cmd(manifest)


if __name__ == "__main__":
    sys.exit(main())
