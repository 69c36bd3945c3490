"""Shared numerical kernels: minimization, linear algebra, interpolation.

Everything here is deterministic and dependency-free beyond numpy; the
heavier modules (certificate, solver, verify) build on these kernels.
The package's own integrals are Gauss sums in ``certificate``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DynbcError

__all__ = [
    "golden_section", "thomas", "PchipCurve",
]


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
# cubic Hermite interpolation

class PchipCurve:
    """Cubic Hermite interpolant of tabulated (x, y) with exact tabulated
    derivatives dys at the nodes."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, dys: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.size < 2:
            raise DynbcError("PchipCurve needs at least two nodes")
        if np.any(np.diff(self.xs) <= 0):
            raise DynbcError("PchipCurve abscissae must be strictly increasing")
        self.ms = np.asarray(dys, dtype=float)

    def __call__(self, q):
        # the Hermite basis in place, with (1 - s)^2 and s^2 formed once:
        # each operation has the operands, in the order, of the plain formula
        #   h00 y0 + h10 m0 + h01 y1 + h11 m1,  h00 = (1 + 2s)(1 - s)^2,
        #   h10 = s (1 - s)^2,  h01 = s^2 (3 - 2s),  h11 = s^2 (s - 1),
        # so the values are bit-identical to it with far fewer temporaries
        q = np.asarray(q, dtype=float)
        shape, q = q.shape, q.ravel()
        idx = np.searchsorted(self.xs, q, side="right") - 1
        np.clip(idx, 0, self.xs.size - 2, out=idx)
        x0 = self.xs[idx]
        h = self.xs[idx + 1]
        h -= x0
        s = np.subtract(q, x0, out=x0)
        s /= h
        a = np.subtract(1.0, s)
        a *= a                              # (1 - s)^2
        r = np.multiply(2.0, s)
        np.add(1.0, r, out=r)
        r *= a
        r *= self.ys[idx]                   # h00 y0
        np.multiply(s, a, out=a)
        m = self.ms[idx]
        m *= h
        a *= m                              # h10 m0
        r += a
        np.multiply(s, s, out=a)            # s^2
        np.multiply(2.0, s, out=m)
        np.subtract(3.0, m, out=m)
        np.multiply(a, m, out=m)
        m *= self.ys[idx + 1]               # h01 y1
        r += m
        s -= 1.0
        np.multiply(a, s, out=s)
        np.multiply(self.ms[idx + 1], h, out=m)
        s *= m                              # h11 m1
        r += s
        return r.reshape(shape)[()]
