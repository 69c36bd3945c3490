"""Quadrature / probe / minimization / linear-algebra kernel tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbc import certificate
from dynbc.certificate import tail_integral
from dynbc.numerics import PchipCurve, golden_section, thomas
from simpson import adaptive_simpson


def test_simpson_polynomial_exact():
    assert adaptive_simpson(lambda r: r ** 3, 0, 2) == pytest.approx(4.0, abs=1e-13)


def test_simpson_transcendental():
    assert adaptive_simpson(math.sin, 0, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert adaptive_simpson(lambda r: math.exp(-r), 0, 50) == pytest.approx(1.0, abs=1e-11)


def test_simpson_orientation_and_empty():
    assert adaptive_simpson(lambda r: r, 1, 0) == pytest.approx(-0.5, abs=1e-13)
    assert adaptive_simpson(lambda r: r, 2, 2) == 0.0


# the tail probe: certificate.tail_integral, whose Gauss sums are decided
# at doubling window ends and checked here on closed forms

def test_tail_probe_convergent():
    # integral of rho*(1+rho^2)^(-3/2) over [0, inf) equals 1
    tail = tail_integral(lambda r: r * (1 + r * r) ** -1.5, 0.0).decide()
    assert tail.classified == "convergent"
    assert tail.value == pytest.approx(1.0, abs=1e-13)


def test_tail_probe_divergent():
    # integrand rho/(1+rho) has a divergent tail
    tail = tail_integral(lambda r: r / (1 + r), 0.0).decide()
    assert tail.classified == "divergent"
    assert tail.upper == 2.0 ** 61


def test_tail_probe_crosses_a_target():
    # integral of rho over [1, 2^j] is (4^j - 1) / 2: first past 10 at 2^3
    tail = tail_integral(lambda r: r, 1.0).decide(10.0)
    assert tail.classified == "crossed_target"
    assert tail.upper == 8.0
    assert tail.value == pytest.approx(31.5, rel=1e-14)


@pytest.mark.parametrize("q0", [10.0 ** (k / 4.0) for k in range(-36, 13, 3)] + [0.1, 0.3, 3.0])
def test_tail_cells_increase_to_the_first_window_end(q0, monkeypatch):
    # rho (1+rho^2)^(-3/2) from q0 integrates to 1/sqrt(1+q0^2)
    seen = []
    cells = certificate._cells
    monkeypatch.setattr(certificate, "_cells", lambda fn, lo, hi, root=None: (
        root is None and seen.append((lo, hi))) or cells(fn, lo, hi, root))  # calls, not halvings
    tail = tail_integral(lambda r: r * (1 + r * r) ** -1.5, q0).decide()
    lo = np.concatenate([c[0] for c in seen])
    hi = np.concatenate([c[1] for c in seen])
    assert lo[0] == q0 and np.all(lo < hi) and np.array_equal(lo[1:], hi[:-1])
    assert 2.0 * max(1.0, q0) in hi
    assert tail.classified == "convergent"
    assert tail.value == pytest.approx(1.0 / math.sqrt(1.0 + q0 * q0), rel=1e-13)


def test_golden_section():
    xm, fm = golden_section(lambda s: (s - 1.3) ** 2 + 0.25, 0.0, 4.0)
    assert xm == pytest.approx(1.3, abs=1e-7)
    assert fm == pytest.approx(0.25, abs=1e-12)


def test_thomas_vs_dense():
    rng = np.random.default_rng(5)
    n = 40
    lower = rng.uniform(-1, 1, n)
    upper = rng.uniform(-1, 1, n)
    diag = 4.0 + rng.uniform(0, 1, n)  # diagonally dominant
    rhs = rng.uniform(-2, 2, n)
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = diag[i]
        if i > 0:
            dense[i, i - 1] = lower[i]
        if i < n - 1:
            dense[i, i + 1] = upper[i]
    x = thomas(lower, diag, upper, rhs)
    assert np.allclose(x, np.linalg.solve(dense, rhs), atol=1e-12)


def test_pchip_with_exact_derivatives():
    xs = np.linspace(0, 2, 21)
    ys = 3 * xs - xs ** 2 / 2  # cubic Hermite is exact on quadratics
    curve = PchipCurve(xs, ys, dys=3 - xs)
    fine = np.linspace(0, 2, 501)
    assert np.allclose(curve(fine), 3 * fine - fine ** 2 / 2, atol=1e-13)


def plain_hermite(curve, q):
    """``PchipCurve.__call__`` as one expression per basis function, from
    before it worked in place; the reference for bit-identity."""
    q = np.asarray(q, dtype=float)
    idx = np.clip(np.searchsorted(curve.xs, q, side="right") - 1, 0, curve.xs.size - 2)
    x0 = curve.xs[idx]
    h = curve.xs[idx + 1] - x0
    s = (q - x0) / h
    y0, y1 = curve.ys[idx], curve.ys[idx + 1]
    m0, m1 = curve.ms[idx] * h, curve.ms[idx + 1] * h
    # (1 - s)^2 as a product: numpy squares an array as x * x but a float64
    # scalar through pow, which can round the other way in the last bit
    h00 = (1 + 2 * s) * ((1 - s) * (1 - s))
    h10 = s * ((1 - s) * (1 - s))
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * m0 + h01 * y1 + h11 * m1


_coord = st.floats(-100.0, 100.0, allow_subnormal=True)
_value = st.floats(-1e6, 1e6, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(_coord, min_size=2, max_size=12, unique=True).map(sorted), data=st.data())
def test_pchip_in_place_equals_the_plain_formula(xs, data):
    n = len(xs)
    ys = data.draw(st.lists(_value, min_size=n, max_size=n))
    dys = data.draw(st.lists(_value, min_size=n, max_size=n))
    curve = PchipCurve(np.array(xs), np.array(ys), dys=np.array(dys))
    # inside, at and off the table, and both zeros
    queries = data.draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=True), max_size=20))
    q = np.array(queries + xs + [0.0, -0.0, xs[0] - 1.0, xs[-1] + 1.0])
    with np.errstate(all="ignore"):
        got, want = curve(q), plain_hermite(curve, q)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for scalar in (q[0], -0.0):
            one = curve(scalar)
            assert np.ndim(one) == 0
            assert np.array_equal(np.float64(one).view(np.uint64),
                                  np.float64(plain_hermite(curve, scalar)).view(np.uint64))
        pairs = q[:q.size // 2 * 2].reshape(-1, 2)
        assert np.array_equal(curve(pairs).view(np.uint64), got[:pairs.size].reshape(-1, 2).view(np.uint64))
