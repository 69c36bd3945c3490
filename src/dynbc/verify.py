"""Numerical verification of the comparison-function conclusions on solutions.

The doubled-variable scan forms, over grid triples (t, x, y) with
0 < x - y <= kappa0,

    w~(t,x,y)  = exp(-t) (u(t,x) - u(t,y) - h(x-y))
    w~1(t,x,y) = exp(-t) (u(t,y) - u(t,x) - h(x-y))

where h is the barrier arc interpolated from its certificate table.  For a
solution within the certificate's budget both maxima stay below a grid
tolerance (the continuum statement is <= 0); on the diagonal x = y the
comparison value is exactly 0 because h(0) = 0 exactly.

Derived slacks: gradient_slack = q1 - sup|u_x|, modulus_slack =
min h(|x-y|) - |u(t,x) - u(t,y)| over in-range pairs, sup_slack = budget
minus sup|u|.  Negative slacks are findings, not errors.

Both pair scans skip pairs that cannot reach the running extreme, with the
same values and witnesses as a scan of every pair.  Let osc = fl(max u -
min u) on a slice.  Rounding is monotone and u_j - u_k <= max u - min u, so
every pair has fl(u_j - u_k) <= osc and fl(u_k - u_j) <= osc; hence

    w~, w~1 <= fl(damp * fl(osc - h))    and    slack >= fl(h - osc).

Both bounds are monotone in h.  With the pairs sorted by h, the pairs whose
bound is strictly worse than the best so far form a suffix; they can
neither beat nor tie the best, so only the prefix before it is evaluated.
A NaN bound compares false and skips nothing, and a NaN in h makes every
slice's extreme NaN, so no best is ever set; where exp(-t) underflows to 0
no value can beat a positive best.  Among equal extremes the witness is the
first in (t, then x, then y) order, the pair a full argmax/argmin returns.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .certificate import BarrierCertificate, PsiSpec, SupBoundCertificate
from .errors import CertificateMismatch, DivergentIntegral, PreconditionFailed
from .numerics import tail_probe
from .solver import BlowUpDetected, Completed, Solution

__all__ = [
    "DoublingResult", "VerificationReport", "BlowupCheck",
    "doubling_check", "bounds_check", "blowup_inequality",
    "MAX_TIME_SLICES",
]

MAX_TIME_SLICES = 128


@dataclass
class DoublingResult:
    max_w_tilde: float
    max_w1_tilde: float
    witness_w: dict
    witness_w1: dict

    def as_dict(self) -> dict:
        return {"max_w_tilde": self.max_w_tilde, "max_w1_tilde": self.max_w1_tilde,
                "witness_w": self.witness_w, "witness_w1": self.witness_w1}


@dataclass
class VerificationReport:
    max_w_tilde: float | None
    max_w1_tilde: float | None
    gradient_slack: float
    modulus_slack: float
    sup_slack: float | None
    sup_slack_paper: float | None
    blowup_lhs: float | None
    witnesses: dict
    tolerance: float

    def as_dict(self) -> dict:
        return {"max_w_tilde": self.max_w_tilde, "max_w1_tilde": self.max_w1_tilde,
                "gradient_slack": self.gradient_slack, "modulus_slack": self.modulus_slack,
                "sup_slack": self.sup_slack, "sup_slack_paper": self.sup_slack_paper,
                "blowup_lhs": self.blowup_lhs, "witnesses": self.witnesses,
                "tolerance": self.tolerance}


@dataclass
class BlowupCheck:
    lhs: float
    rhs: float
    consistent: bool

    def as_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "consistent": self.consistent}


def _time_subsample(times: np.ndarray, cap: int = MAX_TIME_SLICES) -> np.ndarray:
    if times.size <= cap:
        return np.arange(times.size)
    idx = np.linspace(0, times.size - 1, cap).round().astype(int)
    return np.unique(idx)


def _pair_mask(nodes: np.ndarray, kappa0: float):
    """Indices (j, k) with 0 < x_j - x_k <= kappa0; includes the corner pair
    (+ell, -ell) when kappa0 >= 2 ell and the near-band pairs otherwise."""
    dm = nodes[:, None] - nodes[None, :]
    mask = (dm > 0.0) & (dm <= kappa0 * (1.0 + 1e-12))
    jj, kk = np.nonzero(mask)
    return jj, kk, dm[jj, kk]


def _scan(sol: Solution, cert: BarrierCertificate, tidx: np.ndarray,
          damped: bool) -> list[tuple[float, dict]] | None:
    """Extremes over the in-band pairs on the slices ``tidx``, in time order,
    each with its witness: max w~ and max w~1 when ``damped``, otherwise the
    min modulus slack; None when kappa0 leaves no pair.  Each slice
    evaluates only the pairs its oscillation bound leaves in reach of the
    running best (see the module docstring)."""
    jj, kk, offsets = _pair_mask(sol.grid.nodes, cert.kappa0)
    if jj.size == 0:
        return None
    h = cert.h_curve()(offsets)
    # sorted by h, each pair with its row-major rank; one table at a time
    rank = np.argsort(h, kind="stable")
    del offsets
    jj = jj[rank]
    kk = kk[rank]
    h = h[rank]
    h_seq = memoryview(h)   # Python floats for bisect, without a copy
    times = sol.grid.times
    best = [-math.inf, -math.inf] if damped else [math.inf]
    wits: list[dict] = [{} for _ in best]
    for i in tidx:
        row = sol.grid.values[i]
        osc = float(row.max() - row.min())
        if damped:
            damp, floor = math.exp(-times[i]), min(best)
            n = bisect.bisect_left(h_seq, True, key=lambda hv: damp * (osc - hv) < floor)
        else:
            n = bisect.bisect_left(h_seq, True, key=lambda hv: hv - osc > best[0])
        if n == 0:
            continue
        diffs = row.take(jj[:n]) - row.take(kk[:n])
        if damped:
            terms = (damp * (diffs - h[:n]), damp * (-diffs - h[:n]))
        else:
            terms = (h[:n] - np.abs(diffs),)
        for q, vals in enumerate(terms):
            top = vals.max() if damped else vals.min()
            if (top > best[q]) if damped else (top < best[q]):
                # the witness is the first extreme in row-major pair order
                tied = np.flatnonzero(vals == top)
                m = tied[np.argmin(rank[tied])]
                best[q] = float(vals[m])
                wits[q] = {"t": float(times[i]), "x": float(sol.grid.nodes[jj[m]]),
                           "y": float(sol.grid.nodes[kk[m]])}
    return list(zip(best, wits))


def doubling_check(sol: Solution, cert: BarrierCertificate,
                   max_time_slices: int = MAX_TIME_SLICES) -> DoublingResult:
    """Scan the doubled domain for positive comparison values.

    Requires a completed run and a certificate that covers it
    (M >= sup|u|); otherwise the comparison has no claim to check.
    """
    if not isinstance(sol.status, Completed):
        raise PreconditionFailed("doubling_check needs a completed solution")
    sup_u = sol.sup_u
    if sup_u > cert.M * (1.0 + 1e-9) + 1e-12:
        raise CertificateMismatch(
            f"certificate budget M = {cert.M} below sup|u| = {sup_u}")

    nodes = sol.grid.nodes
    times = sol.grid.times
    scan = _scan(sol, cert, _time_subsample(times, max_time_slices), damped=True)
    if scan is None:
        # kappa0 below the grid spacing: only the diagonal remains, where
        # the comparison value is exactly 0
        zero = {"t": float(times[0]), "x": float(nodes[0]), "y": float(nodes[0])}
        return DoublingResult(0.0, 0.0, dict(zero), dict(zero))
    (best_w, wit_w), (best_w1, wit_w1) = scan
    return DoublingResult(best_w, best_w1, wit_w, wit_w1)


def bounds_check(sol: Solution, cert: BarrierCertificate,
                 sup_cert: SupBoundCertificate | None = None,
                 doubling: DoublingResult | None = None) -> VerificationReport:
    """Assemble the slack report; negative slacks are findings, not errors.

    The comparison maxima are filled from `doubling` when given, computed
    when the certificate covers the solution, and left None otherwise.
    sup_slack compares against the amplified budget (M_proof);
    sup_slack_paper against the bare-infimum variant (M_paper).
    """
    if not isinstance(sol.status, Completed):
        raise PreconditionFailed("bounds_check needs a completed solution")

    times = sol.grid.times
    nodes = sol.grid.nodes
    values = sol.grid.values
    witnesses: dict = {}

    it, ix = np.unravel_index(int(np.argmax(np.abs(sol.ux.values))), sol.ux.values.shape)
    gradient_slack = cert.q1 - float(np.abs(sol.ux.values[it, ix]))
    witnesses["gradient"] = {"t": float(times[it]), "x": float(nodes[ix]),
                             "ux": float(sol.ux.values[it, ix])}

    # every stored slice enters the modulus scan (the slice cap applies
    # only to the doubled scan); the wide guard is for pathological runs
    scan = _scan(sol, cert, _time_subsample(times, cap=32_768), damped=False)
    if scan is not None:
        ((modulus_slack, wit),) = scan
        if wit:     # none when every slice's slack has a NaN
            witnesses["modulus"] = wit
    else:
        modulus_slack = 0.0
        witnesses["modulus"] = {"note": "kappa0 below grid spacing; diagonal only"}

    sup_u = sol.sup_u
    iu, ju = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    witnesses["sup"] = {"t": float(times[iu]), "x": float(nodes[ju]), "u": float(values[iu, ju])}
    sup_slack = sup_cert.M_proof - sup_u if sup_cert is not None else None
    sup_slack_paper = sup_cert.M_paper - sup_u if sup_cert is not None else None

    max_w = max_w1 = None
    if doubling is None and sup_u <= cert.M * (1.0 + 1e-9) + 1e-12:
        doubling = doubling_check(sol, cert)
    if doubling is not None:
        max_w = doubling.max_w_tilde
        max_w1 = doubling.max_w1_tilde
        witnesses["w"] = doubling.witness_w
        witnesses["w1"] = doubling.witness_w1

    tolerance = 5.0 * (sol.dx + sol.dt_max_accepted) * (1.0 + cert.q1)
    return VerificationReport(
        max_w_tilde=max_w, max_w1_tilde=max_w1,
        gradient_slack=gradient_slack, modulus_slack=modulus_slack,
        sup_slack=sup_slack, sup_slack_paper=sup_slack_paper,
        blowup_lhs=None, witnesses=witnesses, tolerance=tolerance)


def blowup_inequality(sol: Solution, psi: PsiSpec, tol: float = 1e-9) -> BlowupCheck:
    """Check half the (convergent) budget integral against sup|u| at blow-up.

    A divergent budget integral contradicts gradient blow-up of a bounded
    solution, so that case raises DivergentIntegral rather than returning
    a report.
    """
    if not isinstance(sol.status, BlowUpDetected):
        raise PreconditionFailed("blowup_inequality needs a blow-up run")
    fn = psi.fn()
    probe = tail_probe(lambda r: r / fn(r), 0.0)
    if not probe.converged:
        raise DivergentIntegral(
            "budget integral of rho/psi diverges: gradient blow-up of a bounded "
            "solution is inconsistent with the mixed-boundary gradient bound")
    lhs = 0.5 * probe.value
    rhs = sol.sup_u
    return BlowupCheck(lhs=lhs, rhs=rhs, consistent=bool(lhs <= rhs + tol))
