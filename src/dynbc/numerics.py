"""Shared numerical kernels: quadrature, root finding, tail probes, linear algebra.

Everything here is deterministic and dependency-free beyond numpy; the
heavier modules (certificate, solver, verify) build on these kernels.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DynbcError

__all__ = [
    "adaptive_simpson", "brent", "expand_bracket", "tail_probe", "TailProbe",
    "golden_section", "thomas", "pchip_slopes", "PchipCurve",
]


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature

def _simpson(f, a, fa, b, fb, m, fm) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-12, max_depth: int = 48) -> float:
    """Adaptive Simpson integral of f over [a, b] with Richardson correction.

    tol acts as an absolute tolerance and, through the recursive halving,
    as an effective relative one for well-scaled integrands.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(f, a, fa, b, fb, m, fm)
    # the /15 keeps the achieved error near tol even though acceptance tests 15*tol
    scaled = max(tol, tol * abs(whole)) / 15.0
    return sign * _adaptive(f, a, fa, b, fb, m, fm, whole, scaled, max_depth)


# ---------------------------------------------------------------------------
# root finding

def brent(f: Callable[[float], float], a: float, b: float,
          xtol: float = 1e-14, ftol: float = 0.0, max_iter: int = 200) -> float:
    """Root of f in the sign-change interval [a, b] (Brent's method)."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise DynbcError(f"brent: no sign change on [{a}, {b}]")
    c, fc = a, fa
    d = e = b - a
    eps = np.finfo(float).eps
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0 or abs(fb) <= ftol:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p_ = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p_ = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p_ > 0.0:
                q = -q
            else:
                p_ = -p_
            s, e = e, d
            if 2.0 * p_ < 3.0 * m * q - abs(tol * q) and p_ < abs(0.5 * s * q):
                d = p_ / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0 else -tol)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b


def expand_bracket(f: Callable[[float], float], lo: float, step: float,
                   hi_limit: float = 1e18, factor: float = 2.0):
    """Walk right from lo in geometric steps until f changes sign.

    Returns (a, b) with f(a) <= 0 <= f(b), or None if no sign change was
    found before hi_limit.  f(lo) must be <= 0.
    """
    a = lo
    fa = f(a)
    if fa > 0.0:
        return (a, a)
    while True:
        b = a + step
        if b > hi_limit:
            return None
        fb = f(b)
        if fb >= 0.0:
            return (a, b)
        a, fa = b, fb
        step *= factor


# ---------------------------------------------------------------------------
# improper-integral tail probe

class TailProbe:
    """Classification of an integral over [a, infinity).

    converged      -- True when successive doubling windows stopped contributing
    value          -- accumulated integral up to the last probed limit
    upper          -- last probed upper limit
    crossed_target -- probing ended early because the accumulated integral
                      passed the caller's stop_above threshold (unclassified)
    """

    def __init__(self, converged: bool, value: float, upper: float,
                 crossed_target: bool = False):
        self.converged = converged
        self.value = value
        self.upper = upper
        self.crossed_target = crossed_target

    @property
    def classification(self) -> str:
        if self.crossed_target:
            return "crossed_target"
        return "convergent" if self.converged else "divergent"


def tail_probe(f: Callable[[float], float], a: float,
               rel_tol: float = 1e-14, max_doublings: int = 60,
               stop_above: float | None = None) -> TailProbe:
    """Probe whether the improper integral of f over [a, inf) converges.

    Upper limits double from max(1, a); convergence is declared when the
    increment of a doubling window drops below rel_tol relative to the
    accumulated value.  With stop_above set, probing ends early once the
    accumulated integral exceeds that target (the caller only needed to
    know the integral gets that far).
    """
    upper = max(1.0, abs(a)) * 2.0
    total = adaptive_simpson(f, a, upper)
    for _ in range(max_doublings):
        if stop_above is not None and total > stop_above:
            return TailProbe(False, total, upper, crossed_target=True)
        nxt = upper * 2.0
        inc = adaptive_simpson(f, upper, nxt)
        total += inc
        upper = nxt
        if abs(inc) <= rel_tol * (1.0 + abs(total)):
            return TailProbe(True, total, upper)
    return TailProbe(False, total, upper)


# ---------------------------------------------------------------------------
# scalar minimization

def golden_section(f: Callable[[float], float], a: float, b: float,
                   tol: float = 1e-10, max_iter: int = 200) -> tuple[float, float]:
    """Minimum of a unimodal f on [a, b]; returns (argmin, min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if (b - a) <= tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


# ---------------------------------------------------------------------------
# tridiagonal solve (Thomas algorithm)

def thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system.

    lower[i] multiplies x[i-1] in row i (lower[0] unused); upper[i]
    multiplies x[i+1] (upper[-1] unused).  No pivoting: rows must be
    diagonally usable, which the implicit-step matrices here are; a zero
    pivot raises ZeroDivisionError.

    The bands may be numpy arrays or lists of floats.  The sweep runs over
    Python floats: the same IEEE double operations, in the same order, as
    the element-by-element loop over float64 arrays, so the result is
    bit-identical to it at a fraction of the interpreter cost.
    """
    lower, diag, upper, rhs = (v.tolist() if isinstance(v, np.ndarray) else v
                               for v in (lower, diag, upper, rhs))
    n = len(diag)
    c = [0.0] * n
    d = [0.0] * n
    cp = c[0] = upper[0] / diag[0]
    dp = d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        lo = lower[i]
        denom = diag[i] - lo * cp
        cp = c[i] = upper[i] / denom
        dp = d[i] = (rhs[i] - lo * dp) / denom
    x = dp
    for i in range(n - 2, -1, -1):
        x = d[i] = d[i] - c[i] * x
    return np.array(d)


# ---------------------------------------------------------------------------
# monotone cubic interpolation (Fritsch-Carlson limited slopes)

def pchip_slopes(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Node slopes for a shape-preserving cubic Hermite interpolant."""
    h = np.diff(xs)
    delta = np.diff(ys) / h
    n = xs.size
    m = np.zeros(n)
    for i in range(1, n - 1):
        if delta[i - 1] * delta[i] <= 0.0:
            m[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            m[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i])
    # one-sided ends, clipped to preserve monotonicity on the edge interval
    for idx, (hi, hj, di, dj) in ((0, (h[0], h[1] if n > 2 else h[0],
                                        delta[0], delta[1] if n > 2 else delta[0])),
                                  (n - 1, (h[-1], h[-2] if n > 2 else h[-1],
                                           delta[-1], delta[-2] if n > 2 else delta[-1]))):
        m_end = ((2.0 * hi + hj) * di - hi * dj) / (hi + hj)
        if m_end * di <= 0.0:
            m_end = 0.0
        elif di * dj < 0.0 and abs(m_end) > 3.0 * abs(di):
            m_end = 3.0 * di
        m[idx] = m_end
    return m


class PchipCurve:
    """Monotone cubic interpolant of tabulated (x, y); optionally with exact
    tabulated derivatives instead of estimated slopes."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, dys: np.ndarray | None = None):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.size < 2:
            raise DynbcError("PchipCurve needs at least two nodes")
        if np.any(np.diff(self.xs) <= 0):
            raise DynbcError("PchipCurve abscissae must be strictly increasing")
        self.ms = np.asarray(dys, dtype=float) if dys is not None else pchip_slopes(self.xs, self.ys)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        idx = np.clip(np.searchsorted(self.xs, q, side="right") - 1, 0, self.xs.size - 2)
        x0 = self.xs[idx]
        h = self.xs[idx + 1] - x0
        s = (q - x0) / h
        y0, y1 = self.ys[idx], self.ys[idx + 1]
        m0, m1 = self.ms[idx] * h, self.ms[idx + 1] * h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h10 * m0 + h01 * y1 + h11 * m1
