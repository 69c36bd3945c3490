"""Property tests of the Newton stage solve: Thomas sweep and bordered system."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynbc.numerics import thomas
from dynbc.solver import _solve_bordered

PROPERTY = settings(max_examples=150, deadline=None)


def reference_thomas(lower, diag, upper, rhs):
    """The element-by-element sweep over float64 arrays that ``thomas``
    replaced, kept verbatim as the bit-level reference."""
    n = diag.size
    c = np.empty(n)
    d = np.empty(n)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / denom if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def _dense(lower, diag, upper, corner_right=0.0, corner_left=0.0):
    n = diag.size
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    if corner_right:
        dense[0, 2] += corner_right
    if corner_left:
        dense[n - 1, n - 3] += corner_left
    return dense


_entry = st.floats(-10.0, 10.0)
_corner = st.floats(-1.0, 1.0).filter(bool)


@st.composite
def dominant_systems(draw, min_n=1, corners=False):
    """(lower, diag, upper, corner_right, corner_left, rhs) with every row,
    corners included, strictly diagonally dominant by at least 1.

    With corners, the band entries they are eliminated against (upper[1]
    and lower[n-2]) are at least 1 in size and the corners at most 1, as in
    the stage systems, whose corners come from the one-sided boundary
    stencils and whose interior couplings carry a/dx^2.
    """
    n = draw(st.integers(min_n, 300))
    lower, upper, rhs, spare = draw(hnp.arrays(np.float64, (4, n), elements=_entry))
    cr = draw(_corner) if corners else 0.0
    cl = draw(_corner) if corners else 0.0
    lower[0] = 0.0
    upper[-1] = 0.0
    if corners:
        upper[1] = math.copysign(1.0 + abs(upper[1]), upper[1])
        lower[n - 2] = math.copysign(1.0 + abs(lower[n - 2]), lower[n - 2])
    off = np.abs(lower) + np.abs(upper)
    off[0] += abs(cr)
    off[-1] += abs(cl)
    # the spare row sets each diagonal's sign and its margin in [1, 11]
    diag = np.where(spare < 0.0, -1.0, 1.0) * (off + 1.0 + np.abs(spare))
    return lower, diag, upper, cr, cl, rhs


@PROPERTY
@given(dominant_systems())
def test_thomas_bit_equal_to_array_sweep(system):
    lower, diag, upper, _, _, rhs = system
    assert np.array_equal(thomas(lower, diag, upper, rhs),
                          reference_thomas(lower, diag, upper, rhs))


@PROPERTY
@given(dominant_systems())
def test_thomas_matches_dense_solve(system):
    lower, diag, upper, _, _, rhs = system
    x = thomas(lower, diag, upper, rhs)
    ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
    assert np.allclose(x, ref, rtol=1e-10, atol=1e-10 * (1.0 + np.max(np.abs(ref))))


@PROPERTY
@given(dominant_systems(min_n=3, corners=True))
def test_bordered_solve_with_both_corners_matches_dense(system):
    lower, diag, upper, cr, cl, rhs = system
    x = _solve_bordered(lower, diag, upper, cr, cl, rhs)
    ref = np.linalg.solve(_dense(lower, diag, upper, cr, cl), rhs)
    assert np.allclose(x, ref, rtol=1e-9, atol=1e-9 * (1.0 + np.max(np.abs(ref))))


def test_bordered_solve_leaves_inputs_unchanged():
    rng = np.random.default_rng(3)
    bands = [rng.uniform(-1, 1, 9), 4.0 + rng.uniform(0, 1, 9),
             rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9)]
    before = [b.copy() for b in bands]
    _solve_bordered(bands[0], bands[1], bands[2], 0.5, -0.5, bands[3])
    assert all(np.array_equal(a, b) for a, b in zip(bands, before))


def test_bordered_solve_one_corner_eliminated_other_dense():
    """One corner eliminates and the other cannot (zero adjacent band
    entry): the dense fallback must solve the original system."""
    rng = np.random.default_rng(0)
    n = 8
    lower = rng.uniform(-1, 1, n)
    upper = rng.uniform(-1, 1, n)
    diag = 4.0 + rng.uniform(0, 1, n)
    rhs = rng.uniform(-1, 1, n)
    for zero_upper in (True, False):
        lo, up = lower.copy(), upper.copy()
        if zero_upper:
            up[1] = 0.0          # right corner cannot be eliminated
        else:
            lo[n - 2] = 0.0      # left corner cannot be eliminated
        x = _solve_bordered(lo, diag, up, 0.7, -0.3, rhs)
        ref = np.linalg.solve(_dense(lo, diag, up, 0.7, -0.3), rhs)
        assert np.allclose(x, ref, rtol=1e-12, atol=1e-12)


def test_thomas_accepts_lists():
    lower, diag, upper, rhs = [0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0], [1.0, 2.0, 3.0]
    arrays = [np.array(v) for v in (lower, diag, upper, rhs)]
    assert np.array_equal(thomas(lower, diag, upper, rhs), reference_thomas(*arrays))


def test_bordered_solve_tiny_elimination_pivot():
    """A corner larger than the band entry it would be divided by is not
    eliminated (the multiplier would be about 5e97): the dense solve runs."""
    lower = np.array([0.0, 2.0149948e-98, 3.0])
    diag = np.array([8.0, 7.0, 8.0])
    upper = np.array([3.0, 3.0, 0.0])
    rhs = np.array([3.0, 3.0, 3.0])
    x = _solve_bordered(lower, diag, upper, 1.0, 1.0, rhs)
    ref = np.linalg.solve(_dense(lower, diag, upper, 1.0, 1.0), rhs)
    assert np.allclose(x, ref)
