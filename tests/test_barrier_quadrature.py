"""Property tests of the slope-space barrier table against an independent
adaptive-Simpson oracle.

The table tabulates xi(q) = integral_q^{q1} d rho / psi and h(q) =
integral_q^{q1} rho / psi d rho on a descending slope grid.  Gauges are
polynomials, 1 + p, and 1 + abs(p - c) with the kink c inside [q0, q1];
q1 / q0 reaches about 1e9.  Every comparison is held to 1e-11 (1 + 2M), ten
times the oracle's own tolerance; the kink gets no extra room.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynbc.certificate import PsiSpec, build_barrier
from simpson import adaptive_simpson, psi_fn

TOL = 1e-11
# rows whose slope-midpoints are checked against the oracle
CHECKED_ROWS = 6


@st.composite
def barriers(draw):
    """(psi, its scalar function, q0, M)."""
    q0 = 10.0 ** draw(st.floats(-8.0, 0.3))
    kind = draw(st.sampled_from(["polynomial", "linear", "kinked"]))
    if kind == "polynomial":
        # at most quadratic: the budget integral must diverge
        c = [draw(st.floats(1.0, 3.0))] + [draw(st.floats(0.0, 2.0)) for _ in range(2)]
        text = f"{c[0]!r} + {c[1]!r}*p + {c[2]!r}*p^2"
        M = draw(st.floats(0.01, 3.0))
    elif kind == "linear":
        text = "1+p"
        M = draw(st.floats(0.01, 3.0))
    else:
        kink = q0 + draw(st.floats(0.01, 3.0))
        text = f"1+abs(p-{kink!r})"
        # the budget up to the kink, (1 + c) ln(1 + c - q0) - (c - q0), plus more
        below = (1.0 + kink) * math.log(1.0 + kink - q0) - (kink - q0)
        M = 0.5 * (below + draw(st.floats(0.01, 5.0)))
    psi = PsiSpec.from_text(text)
    return psi, psi_fn(psi), q0, M


@settings(deadline=None, max_examples=50)
@given(barriers(), st.randoms(use_true_random=False))
def test_quadrature_barrier_matches_simpson_oracle(case, rnd):
    psi, fn, q0, M = case
    cert = build_barrier(psi, q0=q0, M=M, K=0.0)
    xi, h, hp, q1 = cert.xi, cert.h, cert.hp, cert.q1
    tol = TOL * (1.0 + 2.0 * M)

    assert np.all(np.diff(xi) > 0.0)  # PchipCurve needs strictly increasing nodes
    assert hp[0] == q1 and hp[-1] == q0
    assert xi[0] == 0.0 and h[0] == 0.0
    assert cert.kappa0 == xi[-1]

    def width(a, b):
        return adaptive_simpson(lambda r: 1.0 / fn(r), a, b)

    def budget(a, b):
        return adaptive_simpson(lambda r: r / fn(r), a, b)

    assert abs(budget(q0, q1) - 2.0 * M) <= tol
    assert abs(cert.kappa0 - width(q0, q1)) <= tol
    assert abs(h[-1] - budget(q0, q1)) <= tol

    # the curve verify evaluates, at slope midpoints of a few rows: the oracle
    # integrals from q1 down to each midpoint, accumulated in pieces
    rows = sorted(rnd.sample(range(xi.size - 1), CHECKED_ROWS))
    curve = cert.h_curve()
    top, xi_top, h_top = q1, 0.0, 0.0
    for i in rows:
        mid = 0.5 * (hp[i] + hp[i + 1])
        xi_top += width(mid, top)
        h_top += budget(mid, top)
        top = mid
        assert abs(float(curve(xi_top)) - h_top) <= tol, (i, xi.size)


@pytest.mark.parametrize("q0, M", [(1.0, 1.0), (1e-3, 3.0), (1e-9, 3.0), (1e-3, 5.0)])
def test_barrier_curve_matches_closed_form_at_every_row_midpoint(q0, M):
    # psi = 1 + p^2: the slope at xi is tan(arctan(q1) - xi), and
    # h = ln((1 + q1^2) / (1 + q^2)) / 2.  q1 / q0 runs from 10 to 4e11; the
    # geometric half of the grid keeps the low slopes resolved
    cert = build_barrier(PsiSpec.from_text("1+p^2"), q0=q0, M=M, K=0.0)
    mids = 0.5 * (cert.xi[1:] + cert.xi[:-1])
    slope = np.tan(math.atan(cert.q1) - mids)
    exact = 0.5 * np.log((1.0 + cert.q1 ** 2) / (1.0 + slope ** 2))
    assert np.max(np.abs(cert.h_curve()(mids) - exact)) <= TOL * 2.0 * M
