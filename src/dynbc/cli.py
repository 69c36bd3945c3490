"""Command-line workflows: certify, solve, verify, sweep.

    dynbc certify --spec problem.json --out run/
    dynbc solve   --spec problem.json --out run/
    dynbc verify  --spec problem.json --out run/
    dynbc sweep   --spec problem.json --out run/

The problem file is JSON with expression strings (see docs/formats.md); the
optional blocks "certificate", "sup_bound", "solver" and "sweep" carry the
workflow parameters.  Reports are written with fixed field order and floats
at 17 significant digits, so identical inputs produce byte-identical files.
solve writes the solution twice: ``solution.npy``, one float64 array that
verify reads, filled as the solver stores each slice, and ``solution.csv``,
formatted from it to read; where ``os.fork`` exists, by one forked child
while the solver runs (``SolutionWriter``), with the bytes one process
writes.  Every command removes its reports when it starts, so none from an
earlier run outlives one that exits 1; solve writes ``summary.json`` last,
so verify refuses a directory where it exited 1.  verify builds the barrier
from the spec by certify's own path (``spec_barrier``) and reads none of
certify's reports.
A report that cannot be written exits 1.  Sweeps run serially.

Exit codes: 0 success / all conditions satisfied; 1 input or artifact error,
command-line usage errors included; 2 condition violations or negative
verification slacks; 3 gradient blow-up detected by solve; 4 step failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import signal
import sys
from contextlib import closing, suppress
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .certificate import (
    K_SLACK, BarrierCertificate, PsiSpec, SupBoundCertificate, budget_reading, build_barrier,
    check_hypotheses, estimate_lipschitz, find_q1, sup_bound, tail_integral,
)
from .errors import (
    ConditionViolated, ConfigError, DivergentIntegral, DynbcError, PreconditionFailed,
)
from .expr import Expr, compile_expr, parse
from .holder import GridFunction, parabolic_norm
from .problem import ProblemSpec, spec_keys, spec_value
from .solver import (
    BlowUpDetected, Completed, Solution, SolverConfig, StepFailure, grid_nodes, solve,
)
from .verify import blowup_inequality, bounds_check

__all__ = ["RunManifest", "cmd_certify", "cmd_solve", "cmd_verify", "cmd_sweep",
           "main", "preset_path", "json_dumps"]


def default_tol() -> float:
    """Base tolerance; the DYNBC_TOL environment variable replaces it.
    Raises ValueError when it is not a number, and ConfigError when it is
    not finite: every slack would pass an inf or nan tolerance."""
    return spec_value(float(os.environ.get("DYNBC_TOL", "1e-8")), float, "DYNBC_TOL")


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
    jobs: int = 1  # unused: sweeps run serially

    def __post_init__(self):
        self.spec_path = Path(self.spec_path)
        self.out_dir = Path(self.out_dir)

    def prepare(self) -> None:
        """Check the spec file and create the output directory."""
        if not self.spec_path.is_file():
            raise ConfigError(f"spec file not found: {self.spec_path}")
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


def _command(name: str, reports: tuple[str, ...]):
    """Decorate a command's body, which takes a RunManifest and returns the
    exit code.  The command prepares the manifest and removes ``reports``,
    so none of an earlier run outlives one that exits 1; an input or
    artifact error, raised anywhere in the body, prints one
    ``<name>: ...`` line and exits 1."""
    def decorate(body):
        @functools.wraps(body)
        def command(manifest: RunManifest) -> int:
            try:
                manifest.prepare()
                for report in reports:
                    (manifest.out_dir / report).unlink(missing_ok=True)
                return body(manifest)
            except (DynbcError, OSError, KeyError, ValueError) as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 1
        return command
    return decorate


# the solver block's keys, each with its SolverConfig field and JSON type
_SOLVER_KEYS = {
    "nx": ("nx", int), "dt0": ("dt0", float), "theta": ("theta", float),
    "dt_min": ("dt_min", float), "dt_max": ("dt_max", float),
    "cutoff": ("gradient_cutoff", float), "strict": ("strict_compatibility", bool),
    "local_error_tol": ("local_error_tol", float), "newton_tol": ("newton_tol", float),
    "newton_max_iter": ("newton_max_iter", int),
}
# the only numbers that may be infinite: inf is no blow-up detection and no
# step cap; SolverConfig refuses -inf and nan for both
_INFINITE_KEYS = ("cutoff", "dt_max")


def _solver_config(raw: dict) -> SolverConfig:
    blk = spec_keys(spec_value(raw.get("solver", {}), dict, "solver"), _SOLVER_KEYS, "solver")
    kwargs = {}
    for key, value in blk.items():
        target, kind = _SOLVER_KEYS[key]
        kwargs[target] = spec_value(value, kind, f"solver.{key}", infinite=key in _INFINITE_KEYS)
    return SolverConfig(compat_tol=default_tol(), **kwargs)


# ---------------------------------------------------------------------------
# certify

CERTIFY_REPORTS = ("certificate.json", "h_table.csv")

# the keys of the blocks that certify and verify read
_CERTIFICATE_KEYS = ("psi", "q0", "M", "pmax", "n_samples")
_SUP_BOUND_KEYS = ("Phi", "B")


@dataclass
class SpecBarrier:
    """The barrier a spec determines, read as certify reads it: the
    "certificate" and "sup_bound" blocks, M (given, or the sup bound's
    M_proof), and pmax (given, or 4 q1).  A sup bound or barrier that could
    not be built is None, beside its error; M is None when neither was given
    nor derived, and ``barrier_error`` then says why."""
    psi: PsiSpec
    q0: float
    M: float | None
    m_source: str | None
    pmax: float | None
    n_samples: int
    phi: Expr | None
    B: float | None
    supc: SupBoundCertificate | None
    sup_error: str | None
    cert: BarrierCertificate | None
    barrier_error: str | None


def spec_barrier(raw: dict, problem: ProblemSpec) -> SpecBarrier:
    """certify's barrier path, which verify takes too: the barrier is
    ``build_barrier`` on the spec's psi, q0 and M, with K the sampled
    Lipschitz constant of u0."""
    blk = raw.get("certificate")
    if not isinstance(blk, dict) or "psi" not in blk or "q0" not in blk:
        raise ConfigError('spec needs a "certificate" block with "psi" and "q0"')
    spec_keys(blk, _CERTIFICATE_KEYS, "certificate")
    psi = PsiSpec.from_text(spec_value(blk["psi"], str, "certificate.psi"))
    q0 = spec_value(blk["q0"], float, "certificate.q0")
    M = spec_value(blk["M"], float, "certificate.M") if "M" in blk else None
    pmax = spec_value(blk["pmax"], float, "certificate.pmax") if "pmax" in blk else None
    if pmax is not None and not pmax > q0:  # the sampled conditions need slopes past q0
        raise ConfigError(f"certificate.pmax must exceed certificate.q0 = {q0!r}, got {pmax!r}")
    n_samples = spec_value(blk.get("n_samples", 33), int, "certificate.n_samples")
    if n_samples < 2:
        raise ConfigError(f"certificate.n_samples must be at least 2, got {n_samples}")
    sup_blk = raw.get("sup_bound")
    phi = B = None
    if sup_blk is not None:
        sup_blk = spec_keys(spec_value(sup_blk, dict, "sup_bound"), _SUP_BOUND_KEYS, "sup_bound")
        phi = parse(spec_value(sup_blk.get("Phi"), str, "sup_bound.Phi"))
        B = spec_value(sup_blk.get("B"), float, "sup_bound.B")

    supc = sup_error = None
    if phi is not None:
        try:
            supc = sup_bound(phi, B, u0_sup=_u0_sup(problem), T=problem.T)
        except ConditionViolated as exc:
            sup_error = str(exc)
    if M is not None:
        m_source = "given"
    elif supc is not None:
        M, m_source = supc.M_proof, "sup_bound.M_proof"
    elif sup_error is not None:
        return SpecBarrier(psi, q0, None, None, pmax, n_samples, phi, B, None, sup_error,
                           None, f"sup bound unavailable: {sup_error}")
    else:
        raise ConfigError('certificate block needs "M" (or a "sup_bound" block to derive it)')

    # the barrier goes first: its q1 gives the default pmax = 4 q1 that
    # check_hypotheses would otherwise find again
    cert = barrier_error = None
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
    return SpecBarrier(psi, q0, M, m_source, pmax, n_samples, phi, B, supc, sup_error,
                       cert, barrier_error)


@_command("certify", CERTIFY_REPORTS)
def cmd_certify(manifest: RunManifest) -> int:
    raw = manifest.load_spec()
    problem = ProblemSpec.from_dict(raw)
    b = spec_barrier(raw, problem)
    if b.M is None:
        print(f"certify: {b.barrier_error}", file=sys.stderr)
        return 2
    cert = b.cert
    report = check_hypotheses(
        problem, M=b.M, q0=b.q0, psi=b.psi, pmax=b.pmax, n_samples=b.n_samples,
        phi=b.phi, B=b.B, compat_tol=default_tol())

    doc = {
        "command": "certify",
        "M": b.M,
        "M_source": b.m_source,
        "q0": b.q0,
        "psi": b.psi.text,
        "barrier": cert.as_dict() if cert else None,
        "barrier_error": b.barrier_error,
        "sup_bound": b.supc.as_dict() if b.supc else None,
        "sup_bound_error": b.sup_error,
        "conditions": report.as_dict(),
        "h_table": "h_table.csv" if cert else None,
    }
    if cert is not None:
        write_h_table(cert, manifest.out_dir)
    _write(manifest.out_dir / "certificate.json", json_dumps(doc))

    if not report.all_satisfied or cert is None:
        for name in report.violated:
            print(f"certify: condition {name} violated", file=sys.stderr)
        if b.barrier_error:
            print(f"certify: {b.barrier_error}", file=sys.stderr)
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


def _status_from_dict(d) -> Completed | BlowUpDetected | StepFailure:
    """The run status of ``summary.json``; its block and ``kind`` must be
    what ``_status_dict`` writes."""
    label = "summary.json status"
    d = spec_value(d, dict, label)
    kind = d.get("kind")
    if kind == Completed.kind:
        return Completed()
    if kind == BlowUpDetected.kind:
        return BlowUpDetected(time=_field(d, label, "time"),
                              max_gradient=_field(d, label, "max_gradient"))
    if kind == StepFailure.kind:
        return StepFailure(time=_field(d, label, "time"), reason=_field(d, label, "reason", str))
    kinds = ", ".join(c.kind for c in (Completed, BlowUpDetected, StepFailure))
    raise ConfigError(f"{label}.kind must be one of {kinds}, got {json.dumps(kind)}")


# Once the stored slices hold this many rows, a forked child formats the
# CSV.  On a 2-vCPU Xeon, a fork costs a 50-75 MB solving process about
# 3-4 ms, its copy-on-write faults included, and 2**14 rows take about
# 40 ms to format, so a smaller table is formatted in-process.
SPLIT_MIN_ROWS = 2 ** 14

SOLVE_REPORTS = ("summary.json", "solution.csv", "solution.npy")


class SolutionWriter:
    """``solution.npy`` and ``solution.csv``, written while solve runs.

    ``store`` is solve's ``on_store`` hook: it appends each slice's rows to
    ``solution.npy``, whose header ``finish`` writes last.  When the stored
    slices first reach ``SPLIT_MIN_ROWS`` rows and ``os.fork`` exists, it
    opens ``solution.csv`` and forks one child at the lowest priority
    (nice 19), which formats the rows stored so far, then a slice more for
    each byte ``store`` writes to a pipe once that slice's rows are in the
    file, so the solver never waits for a child that falls behind.
    ``finish`` writes the header, then waits for the child, or formats the
    CSV itself, with the same bytes.  A child that failed raises
    ``OSError`` with its exit status, from ``store`` or ``finish``.
    ``close`` kills a child still running and removes unfinished files.
    """

    def __init__(self, out_dir: Path, nodes: np.ndarray):
        self.csv_path, self.nodes = Path(out_dir) / "solution.csv", nodes
        self.npy = open(Path(out_dir) / "solution.npy", "wb")
        self.unfinished = [Path(self.npy.name)]  # removed by close
        self._header(0)  # a placeholder of the final header's length
        self.start, self.slices = self.npy.tell(), 0
        self.child = self.pipe = None  # the formatter's pid and pipe, until it is reaped

    def _header(self, rows: int) -> None:
        np.lib.format.write_array_header_1_0(
            self.npy, {"descr": np.dtype(float).str, "fortran_order": False, "shape": (rows, 5)})

    def store(self, t, u, ux, ut) -> None:
        block = np.column_stack((np.full(u.size, t), self.nodes, u, ux, ut))
        block[np.isnan(block)] = np.nan  # the one NaN that the CSV's nan reads back as
        self.npy.write(block.tobytes())
        self.npy.flush()  # the rows are in the file before the child hears of them
        self.slices += 1
        if self.pipe is not None:
            try:
                os.write(self.pipe, b"\1")
            except BrokenPipeError:  # the child has ended: its status says why
                self._reap()
                raise
        elif self.slices * u.size >= SPLIT_MIN_ROWS and hasattr(os, "fork"):
            self.fork()

    def fork(self) -> None:
        """Fork the formatter child, which exits 0, or 1 on any error."""
        read_end, write_end = os.pipe()
        try:
            with open(self.csv_path, "w", encoding="utf-8") as csv:  # the child writes it
                self.unfinished.append(self.csv_path)
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        # lowest priority: where the host gives both processes
                        # one CPU, the solver keeps it and this child fills the gaps
                        os.nice(19)
                        os.close(write_end)
                        with csv, open(read_end, "rb", buffering=0) as pipe:
                            self._write_csv(csv, self.slices, pipe)
                        code = 0
                    finally:
                        os._exit(code)  # never return into the caller's stack
        except BaseException:
            os.close(write_end)
            raise
        finally:
            os.close(read_end)
        self.child, self.pipe = pid, write_end

    def finish(self) -> None:
        """Complete both files: the ``.npy`` header, then the CSV's rest."""
        self.npy.seek(0)
        self._header(self.slices * self.nodes.size)
        if self.npy.tell() != self.start:  # 128 bytes for any (rows, 5) float64 table
            raise OSError("solution.npy: the header outgrew its placeholder")
        self.npy.close()
        if self.child is not None:
            self._reap()
        else:
            with open(self.csv_path, "w", encoding="utf-8") as csv:
                self.unfinished.append(self.csv_path)
                self._write_csv(csv, self.slices)
        self.unfinished = []

    def _write_csv(self, csv, slices: int, pipe=None) -> None:
        """Write to ``csv`` the header and the rows of ``solution.npy``, one
        slice at a time: the first ``slices``, then one more for each byte
        read from ``pipe`` until ``store``'s end of it is closed.  The x
        cells are formatted once into a row template; each slice adds its t
        cell and fills the u, ux and ut cells with one ``%`` format."""
        n = self.nodes.size
        rows = [",%.17g,%%.17g,%%.17g,%%.17g\n" % x for x in self.nodes.tolist()]
        csv.write("t,x,u,ux,ut\n")
        with open(self.npy.name, "rb") as npy:
            npy.seek(self.start)
            while slices:
                for _ in range(slices):
                    block = np.frombuffer(npy.read(40 * n), float).reshape(n, 5)
                    t_cell = "%.17g" % block[0, 0]
                    csv.write((t_cell + t_cell.join(rows)) % tuple(block[:, 2:].ravel().tolist()))
                slices = len(pipe.read(2 ** 16)) if pipe else 0

    def _reap(self) -> None:
        """Close the pipe, so the child formats the rest, and wait for it."""
        os.close(self.pipe)
        pid, self.child, self.pipe = self.child, None, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            raise OSError(f"solution.csv: the formatting process exited with status {code}")

    def close(self) -> None:
        if self.child is not None:
            os.kill(self.child, signal.SIGKILL)
            with suppress(OSError):  # its status: killed
                self._reap()
        self.npy.close()
        for path in self.unfinished:
            path.unlink(missing_ok=True)
        self.unfinished = []


def write_solution(sol: Solution, out_dir: Path, *,
                   writer: SolutionWriter | None = None) -> None:
    """Write ``summary.json``, ``solution.csv`` and ``solution.npy``; all
    three are complete on return.

    ``writer`` is the live ``SolutionWriter`` that ``sol``'s slices were
    stored in; without one, the slices are stored in a new writer here.
    If it forked a formatter, the summary (its Hölder block is the costly
    part) is computed while the child formats the rest of the CSV.
    ``summary.json`` is written once the other two are complete.

    ``solution.csv``: one ``t,x,u,ux,ut`` row per node and stored time,
    every float at 17 significant digits (``%.17g``, which prints ``nan``,
    ``inf`` and ``-0`` as Python does), formatted from ``solution.npy``.

    ``solution.npy`` holds the same rows as one float64 array of shape
    (times * nodes, 5), the bytes ``np.save`` writes, and equals the CSV's
    numbers read back bit for bit: 17 digits round-trip every float, and
    NaN is stored as the one NaN that ``nan`` reads back as.
    """
    with closing(writer if writer is not None else
                 SolutionWriter(out_dir, sol.grid.nodes)) as live:
        if writer is None:
            for state in _slices(sol):
                live.store(*state)
        summary = json_dumps(_summary(sol))
        live.finish()
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


def read_solution(out_dir: Path) -> Solution:
    """The solution of a run directory, from ``solution.npy`` and
    ``summary.json`` (``solution.csv`` is not read)."""
    npy_path = out_dir / "solution.npy"
    if not npy_path.is_file():
        raise ConfigError(f"missing solution artifacts in {out_dir}")
    summary = _read_report(out_dir, "summary.json")
    status = _status_from_dict(summary.get("status"))
    step_log = spec_value(summary.get("step_log", {}), dict, "summary.json step_log")
    data = np.load(npy_path)
    if data.ndim != 2 or data.shape[1] != 5:
        raise ConfigError(f"solution.npy has shape {data.shape}, not (rows, 5)")
    slices = _time_slices(data)
    times, nodes = slices[:, 0, 0].copy(), slices[0, :, 1].copy()
    u, ux, ut = (np.ascontiguousarray(slices[:, :, k]) for k in (2, 3, 4))
    return Solution(grid=GridFunction(times, nodes, u), ux=ux, ut=ut, status=status,
                    step_log=step_log)


def _time_slices(data: np.ndarray) -> np.ndarray:
    """The rows of ``solution.npy`` as an array (times, nodes, 5).  The rows
    must be time-major: each slice the rows of one t, t strictly increasing,
    and every slice repeating the first slice's strictly increasing x.  The
    ends of both, and so every t and x, must be finite."""
    rows = data.shape[0]
    nx = (int(np.argmax(data[:, 0] != data[0, 0])) or rows) if rows else 0
    if nx and rows % nx == 0:
        slices = data.reshape(-1, nx, 5)
        t, x = slices[:, :1, 0], slices[:1, :, 1]
        if (np.all(slices[:, :, 0] == t) and np.all(slices[:, :, 1] == x)
                and np.all(np.diff(t[:, 0]) > 0) and np.all(np.diff(x[0]) > 0)
                and np.all(np.isfinite((t[0, 0], t[-1, 0], x[0, 0], x[0, -1])))):
            return slices
    raise ConfigError("solution.npy is not a full rectangular grid of finite t and x")


@_command("solve", SOLVE_REPORTS)
def cmd_solve(manifest: RunManifest) -> int:
    raw = manifest.load_spec()
    problem = ProblemSpec.from_dict(raw)
    cfg = _solver_config(raw)
    # no child and no unfinished solution file outlives the block, whatever it raises
    with closing(SolutionWriter(manifest.out_dir, grid_nodes(problem.ell, cfg.nx))) as writer:
        sol = solve(problem, cfg, on_store=writer.store)
        write_solution(sol, manifest.out_dir, writer=writer)

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

def _read_report(out_dir: Path, name: str) -> dict:
    """The JSON object of the run directory's report ``name``; a ConfigError
    naming it when it is missing, is not JSON or holds no object."""
    path = out_dir / name
    if not path.is_file():
        raise ConfigError(f"missing {name} in {out_dir}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name} is not valid JSON: {exc}") from None
    return spec_value(doc, dict, name)


# the strings _fmt_float writes for the floats JSON has no number for
_FLOAT_WORDS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _field(block: dict, label: str, key: str, kind: type = float):
    """``block[key]`` of a report read as ``kind``, a float as ``_fmt_float``
    wrote it, or a ConfigError naming ``<label>.<key>``."""
    value = block.get(key)
    if kind is float and isinstance(value, str):
        value = _FLOAT_WORDS.get(value, value)
    return spec_value(value, kind, f"{label}.{key}", infinite=True)


VERIFY_REPORTS = ("verification.json",)


@_command("verify", VERIFY_REPORTS)
def cmd_verify(manifest: RunManifest) -> int:
    sol = read_solution(manifest.out_dir)
    raw = manifest.load_spec()
    b = spec_barrier(raw, ProblemSpec.from_dict(raw))
    if isinstance(sol.status, BlowUpDetected):
        # only the growth gauge matters for a blow-up run; a barrier
        # cannot exist when the budget condition fails
        return _verify_blowup(manifest, sol, b.psi)
    if b.cert is None:
        raise ConfigError(f"the spec gives no barrier: {b.barrier_error}")
    report = bounds_check(sol, b.cert, sup_cert=b.supc)
    # DYNBC_TOL, when set, replaces the grid-derived tolerance
    tolerance = default_tol() if "DYNBC_TOL" in os.environ else report.tolerance
    failing = report.failing(tolerance)

    doc = {
        "command": "verify",
        "report": report.as_dict(),
        "tolerance_used": tolerance,
        "passed": not failing,
    }
    _write(manifest.out_dir / "verification.json", json_dumps(doc))
    for name, v in failing.items():
        print(f"verify: {name} = {v:.6g} below -{tolerance:.6g}", file=sys.stderr)
    return 2 if failing else 0


def _verify_blowup(manifest: RunManifest, sol: Solution, psi: PsiSpec) -> int:
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

def _gauge_points(text: str, q0s: list, points: list) -> list:
    """Each (q0, M) point's (q1, kappa0) under the gauge ``text``, or the
    error the point raises alone: from the gauge's parse, its budget
    reading or ``find_q1``.  The width reading of a q0 that crosses cannot
    fail, since its budget reading from the same q0 did not."""
    try:
        psi = PsiSpec.from_text(text)
    except DynbcError as exc:
        return [exc] * len(points)
    budgets = dict(zip(q0s, budget_reading(psi, q0s)))
    q1s = find_q1(psi, [q0 for q0, _ in points], [M for _, M in points],
                  [budgets[q0] for q0, _ in points])
    crossed = list(dict.fromkeys(q0 for (q0, _), q1 in zip(points, q1s)
                                 if not isinstance(q1, DynbcError)))
    width = psi.width_integrand()
    widths = dict(zip(crossed, tail_integral(width, crossed))) if crossed else {}
    return [q1 if isinstance(q1, DynbcError) else (q1, widths[q0].upto(width, q1))
            for (q0, _), q1 in zip(points, q1s)]


def _sweep_rows(psis: list, q0s: list, Ms: list, K_est: float) -> list[str]:
    """The ``sweep.csv`` rows of the grid, psi-major: each point's q1 and
    kappa0, or the error it raised.

    The grid is read one gauge at a time: the gauge is parsed once, its
    tails of rho/psi from every q0 are read in one pass, and one
    ``find_q1`` call searches all of its points' q1 in lockstep.  Only when
    some point crosses are the tails of 1/psi read, in one more pass from
    the q0 that cross, and a point's kappa0 is its tail of 1/psi up to its
    q1 (``TailReading.upto``), the width of the barrier arc, which is not
    built.  A gauge listed twice is read once.  A row is the row that
    point gives alone, bit for bit and error for error: a gauge that does
    not parse, or a q0 whose reading overflows, fails each of its rows
    alike.
    """
    points = [(q0, M) for q0 in q0s for M in Ms]
    distinct = list(dict.fromkeys(q0s))
    read = {text: _gauge_points(text, distinct, points) for text in dict.fromkeys(psis)}
    rows = []
    for text in psis:
        for (q0, M), got in zip(points, read[text]):
            # build_barrier's K > q0 check has no sweep counterpart: with
            # K = min(K_est, q0) it cannot fire
            if isinstance(got, DynbcError):
                cells, detail = (type(got).__name__, math.nan, math.nan, False), str(got)
            else:
                cells, detail = ("ok", *got, K_est <= q0 * (1.0 + K_SLACK)), ""
            rows.append(_csv_row((json.dumps(text), q0, M, *cells, json.dumps(detail))))
    return rows


SWEEP_REPORTS = ("sweep.csv",)
_SWEEP_KEYS = ("psi", "q0", "M")


@_command("sweep", SWEEP_REPORTS)
def cmd_sweep(manifest: RunManifest) -> int:
    raw = manifest.load_spec()
    blk = raw.get("sweep")
    if not blk:
        raise ConfigError('spec needs a non-empty "sweep" block')
    blk = spec_keys(spec_value(blk, dict, "sweep"), _SWEEP_KEYS, "sweep")

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
    _write(manifest.out_dir / "sweep.csv", "\n".join(
        ["psi,q0,M,status,q1,kappa0,q0_covers_K,detail", *_sweep_rows(psis, q0s, Ms, K_est)]))
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
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # with the subcommand's usage, which lists the flags it takes
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    manifest = RunManifest(spec_path=args.spec, command=args.command, out_dir=args.out)
    cmd = {"certify": cmd_certify, "solve": cmd_solve,
           "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
    return cmd(manifest)


if __name__ == "__main__":
    sys.exit(main())
