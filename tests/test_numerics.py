"""Quadrature / probe / minimization / linear-algebra kernel tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dynbc.numerics import (
    PchipCurve, adaptive_simpson, golden_section, tail_probe, thomas,
)


def test_simpson_polynomial_exact():
    assert adaptive_simpson(lambda r: r ** 3, 0, 2) == pytest.approx(4.0, abs=1e-13)


def test_simpson_transcendental():
    assert adaptive_simpson(math.sin, 0, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert adaptive_simpson(lambda r: math.exp(-r), 0, 50) == pytest.approx(1.0, abs=1e-11)


def test_simpson_orientation_and_empty():
    assert adaptive_simpson(lambda r: r, 1, 0) == pytest.approx(-0.5, abs=1e-13)
    assert adaptive_simpson(lambda r: r, 2, 2) == 0.0


def test_tail_probe_convergent():
    # integral of rho*(1+rho^2)^(-3/2) over [0, inf) equals 1
    probe = tail_probe(lambda r: r * (1 + r * r) ** -1.5, 0.0)
    assert probe.converged
    assert probe.value == pytest.approx(1.0, abs=1e-9)


def test_tail_probe_divergent():
    # integrand rho/(1+rho) has a divergent tail
    probe = tail_probe(lambda r: r / (1 + r), 0.0)
    assert not probe.converged


def test_tail_probe_stop_above():
    probe = tail_probe(lambda r: r, 1.0, stop_above=10.0)
    assert not probe.converged
    assert probe.value > 10.0


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
