"""Adaptive Simpson quadrature: the scalar oracle the tests check the
package's Gauss sums against, and psi as the scalar function it integrates."""

from __future__ import annotations

from typing import Callable

from dynbc.certificate import PsiSpec
from dynbc.expr import compile_expr


def psi_fn(psi: PsiSpec) -> Callable[[float], float]:
    """psi as a scalar function of one slope."""
    f = compile_expr(psi.expr)
    return lambda rho: float(f(p=float(rho)))


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
