"""Layer spans for the dynbc benchmark, recorded from outside the package.

``instrument(tracer)`` replaces the public functions of each dynbc module
with wrappers that record a span around every call, and restores the
originals on exit.  A wrapper is bound wherever the package holds the
function: the defining module and every ``dynbc`` module that imported it
by name.  Kernels handed out by ``expr.compile_expr`` are wrapped too, so
each kernel call is an ``expr.kernel`` span.  A target the package no longer
has is skipped and its metrics read 0.

Spans are aggregated in memory per name (calls, inclusive seconds, self
seconds, and the spans called below).  Self time is a span's duration minus
the time of the spans it called.  The reported times have the spans' own
cost, measured on an empty function next to each traced pass, taken out: on
the sweep there are millions of kernel spans, each costing about as much as
the kernel.  Traced passes run on one thread: the sweep's thread pool is only
ever timed untraced.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# module -> public functions wrapped as "<module>.<span>" spans
TARGETS = {
    "expr": ("parse", "diff", "compile_expr"),
    "numerics": ("adaptive_simpson", "brent", "tail_probe", "golden_section", "thomas"),
    "certificate": ("find_q1", "build_barrier", "check_hypotheses", "sup_bound",
                    "estimate_lipschitz", "check_compatibility"),
    "solver": ("solve", "semidiscretize"),
    "holder": ("parabolic_norm", "holder_seminorm", "interpolation_diagnostic", "sup_norm"),
    "verify": ("doubling_check", "bounds_check", "blowup_inequality"),
    "cli": ("cmd_certify", "cmd_solve", "cmd_verify", "cmd_sweep",
            "write_solution", "read_solution", "read_certificate"),
}
METHODS = {"solver": (("SemiDiscretization", "rhs"), ("SemiDiscretization", "rhs_jacobian"))}
SPAN_NAMES = {"compile_expr": "compile"}
LAYERS = tuple(TARGETS)
# one calibration takes about 0.1 s
CALIBRATION_CALLS = 20_000
CALIBRATION_LOOPS = 5


class Tracer:
    """Span and counter aggregation for a pass that runs on one thread."""

    def __init__(self):
        # [child seconds, direct child calls, descendant calls] of each open span
        self._stack: list[list] = []
        # name -> [calls, seconds, self seconds, direct child calls, descendant calls]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.costs: list[tuple[float, float]] = []
        self._later: list = []

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def count_later(self, name: str, thunk) -> None:
        """Count ``thunk()`` at ``settle``, outside the timed pass."""
        self._later.append((name, thunk))

    def calibrate(self) -> None:
        """Measure the span cost once more; call it next to the traced pass,
        since the cost follows the load on the host."""
        self.costs.append(span_cost())

    def settle(self) -> None:
        for name, thunk in self._later:
            self.count(name, thunk())
        self._later.clear()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a ``name`` span; ``after(result, args)`` may count."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([0.0, 0, 0])
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child, direct, below = stack.pop()
                if stack:
                    top = stack[-1]
                    top[0] += dt
                    top[1] += 1
                    top[2] += below + 1
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                rec[3] += direct
                rec[4] += below
            if after is not None:
                after(out, args)
            return out
        return wrapper


def span_cost() -> tuple[float, float]:
    """Seconds one span costs: ``(added, inside)``.

    ``added`` is what a wrapped call adds to the time of its caller;
    ``inside`` is the part of it that falls inside the span's own recorded
    time.  Both are medians over ``CALIBRATION_LOOPS`` loops of
    ``CALIBRATION_CALLS`` calls of an empty function inside an open span,
    against the same loop unwrapped.
    The call passes one keyword argument, as the package calls its
    expression kernels, which are nearly all of the spans.
    """
    def empty(p=0.0):
        return p

    tracer = Tracer()
    wrapped = tracer.wrap("empty", empty)
    loop = range(CALIBRATION_CALLS)
    added, inside = [], []
    tracer._stack.append([0.0, 0, 0])
    for _ in range(CALIBRATION_LOOPS):
        before = tracer.spans.get("empty", [0, 0.0])[1]
        t0 = perf_counter()
        for _ in loop:
            empty(p=0.0)
        t1 = perf_counter()
        for _ in loop:
            wrapped(p=0.0)
        t2 = perf_counter()
        plain = (t1 - t0) / CALIBRATION_CALLS
        added.append((t2 - t1) / CALIBRATION_CALLS - plain)
        inside.append((tracer.spans["empty"][1] - before) / CALIBRATION_CALLS - plain)
    return max(statistics.median(added), 0.0), max(statistics.median(inside), 0.0)


def _hooks(tracer: Tracer, verify_mod) -> dict:
    """Counters recorded from the results and arguments of some spans."""
    def solve(sol, args):
        for key, name in (("accepted", "solver.steps.accepted"),
                          ("rejected", "solver.steps.rejected"),
                          ("newton_failures", "solver.newton_failures")):
            tracer.count(name, sol.step_log.get(key, 0))

    def build_barrier(cert, args):
        tracer.count("certificate.barrier_rows", cert.xi.size)

    pair_mask = getattr(verify_mod, "_pair_mask", None)
    time_subsample = getattr(verify_mod, "_time_subsample", None)

    def doubling_check(res, args):
        # in-band pairs x scanned slices, by the scan's own helpers
        if pair_mask is None or time_subsample is None:
            return
        nodes, times, kappa0 = args[0].grid.nodes, args[0].grid.times, args[1].kappa0
        tracer.count_later("verify.pairs_scanned", lambda: (
            pair_mask(nodes, kappa0)[0].size * time_subsample(times).size))

    def write_solution(res, args):
        tracer.count("cli.solution_csv_bytes", (Path(args[1]) / "solution.csv").stat().st_size)

    return {"solver.solve": solve, "certificate.build_barrier": build_barrier,
            "verify.doubling_check": doubling_check, "cli.write_solution": write_solution}


@contextmanager
def instrument(tracer: Tracer):
    """Bind span wrappers into the loaded dynbc modules; restore on exit."""
    mods = {name: sys.modules[f"dynbc.{name}"] for name in TARGETS}
    holders = [m for k, m in sys.modules.items() if k == "dynbc" or k.startswith("dynbc.")]
    hooks = _hooks(tracer, mods["verify"])
    undo = []

    try:
        for layer, names in TARGETS.items():
            for name in names:
                orig = getattr(mods[layer], name, None)
                if orig is None:
                    continue
                span = f"{layer}.{SPAN_NAMES.get(name, name)}"
                wrapper = tracer.wrap(span, orig, hooks.get(span))
                if name == "compile_expr":
                    # functools.wraps keeps the kernel's attributes (its .expr)
                    wrapper = _returning(wrapper, lambda k: tracer.wrap("expr.kernel", k))
                for mod in holders:
                    if mod.__dict__.get(name) is orig:
                        undo.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        for layer, pairs in METHODS.items():
            for cls_name, meth in pairs:
                cls = getattr(mods[layer], cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    continue
                undo.append((cls, meth, orig))
                setattr(cls, meth, tracer.wrap(f"{layer}.{meth}", orig))
        yield tracer
    finally:
        for obj, name, orig in reversed(undo):
            setattr(obj, name, orig)


def _returning(fn, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return post(fn(*args, **kwargs))
    return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

# (span, fields): "calls" and "s" (inclusive seconds) or "self_s"
SPAN_METRICS = (
    ("expr.kernel", ("calls", "s")),
    ("expr.compile", ("calls",)),
    ("numerics.thomas", ("calls", "s")),
    ("numerics.adaptive_simpson", ("calls", "s")),
    ("numerics.brent", ("calls", "s")),
    ("numerics.tail_probe", ("calls", "s")),
    ("certificate.check_hypotheses", ("s",)),
    ("certificate.sup_bound", ("s",)),
    ("certificate.find_q1", ("calls", "s")),
    ("certificate.build_barrier", ("calls", "s")),
    ("solver.solve", ("calls", "s", "self_s")),
    ("solver.rhs", ("calls", "s")),
    ("solver.rhs_jacobian", ("calls", "s")),
    ("holder.parabolic_norm", ("s",)),
    ("verify.doubling_check", ("s",)),
    ("verify.bounds_check", ("s",)),
    ("verify.blowup_inequality", ("s",)),
    ("cli.cmd_certify", ("s",)),
    ("cli.cmd_solve", ("s",)),
    ("cli.cmd_verify", ("s",)),
    ("cli.cmd_sweep", ("s",)),
    ("cli.write_solution", ("s",)),
    ("cli.read_solution", ("s",)),
    ("cli.read_certificate", ("s",)),
)
COUNTERS = ("solver.steps.accepted", "solver.steps.rejected", "solver.newton_failures",
            "certificate.barrier_rows", "verify.pairs_scanned", "cli.solution_csv_bytes")
# spans whose inclusive time is also given as a share of the pass
SHARE_SPANS = ("numerics.thomas", "cli.write_solution", "certificate.build_barrier",
               "certificate.find_q1", "solver.solve")
_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def layer_metrics(tracer: Tracer, total_s: float, points: int) -> dict:
    """``{name: (value, unit)}`` for one traced pass of ``total_s`` seconds
    that evaluated ``points`` sweep points.

    Times are net of the spans' own cost (the mean of the ``Tracer.calibrate``
    measurements, at least one): a span's seconds
    lose ``inside`` per call of it and ``added`` per span below it, its self
    seconds lose ``inside`` per call and ``added - inside`` per direct child,
    and the pass loses ``added`` per span.  Shares are of that net pass time.
    """
    added, inside = (statistics.fmean(c) for c in zip(*tracer.costs))
    spans, counters = tracer.spans, tracer.counters
    net = {}
    for name, (n, t, st, direct, below) in spans.items():
        net[name] = (n, t - n * inside - below * added,
                     st - n * inside - direct * (added - inside))
    net_total = total_s - added * sum(rec[0] for rec in spans.values())

    def span(name):
        return net.get(name, (0, 0.0, 0.0))

    out = {}
    for name, fields in SPAN_METRICS:
        n, t, st = span(name)
        for fld in fields:
            out[f"{name}.{fld}"] = ({"calls": n, "s": t, "self_s": st}[fld], _UNITS[fld])
    for name in COUNTERS:
        out[name] = (counters.get(name, 0), "bytes" if name.endswith("_bytes") else "count")
    for layer in LAYERS:
        self_s = sum(v[2] for k, v in net.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / net_total, "ratio")
    for name in SHARE_SPANS:
        out[f"{name}.share"] = (span(name)[1] / net_total, "ratio")

    accepted = counters.get("solver.steps.accepted", 0)
    attempted = accepted + counters.get("solver.steps.rejected", 0)
    out["solver.accept_ratio"] = (accepted / attempted if attempted else 0.0, "ratio")
    out["solver.jacobians_per_accepted"] = (
        span("solver.rhs_jacobian")[0] / accepted if accepted else 0.0, "ratio")
    out["certificate.find_q1.calls_per_point"] = (
        span("certificate.find_q1")[0] / points if points else 0.0, "ratio")
    out["trace.net_total_s"] = (net_total, "s")
    out["trace.span_cost_s"] = (added, "s")
    return out
