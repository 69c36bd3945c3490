"""Property tests of the Newton stage solve: Thomas sweep and bordered system."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynbc.cli import preset_path
from dynbc.numerics import thomas
from dynbc.problem import ProblemSpec
from dynbc.solver import SemiDiscretization, _solve_bordered

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
def dominant_systems(draw, min_n=1, corners=False, large_corners=False):
    """(lower, diag, upper, corner_right, corner_left, rhs) with every row,
    corners included, strictly diagonally dominant by at least 1.

    With corners, the band entries they are eliminated against (upper[1]
    and lower[n-2]) are at least 1 in size and the corners at most 1, as in
    the stage systems, whose corners come from the one-sided boundary
    stencils and whose interior couplings carry a/dx^2.

    With large_corners, the corners may reach 10 and outweigh those band
    entries, so that the end rows may swap.  Each end row couples its neighbour
    with -4 times its corner, the one-sided stencil's weights, as in a stage
    system.  lower[1] takes the sign that keeps lower[1] - upper[1] *
    diag[0] / corner_right at least 1 in size: every tridiagonal form of
    rows 0 and 1 starts with a multiple of it, and the sweep does not pivot
    (see test_bordered_solve_raises_on_a_zero_first_pivot).
    """
    n = draw(st.integers(min_n, 300))
    lower, upper, rhs, spare = draw(hnp.arrays(np.float64, (4, n), elements=_entry))
    corner = _entry.filter(bool) if large_corners else _corner
    cr = draw(corner) if corners or large_corners else 0.0
    cl = draw(corner) if corners or large_corners else 0.0
    lower[0] = 0.0
    upper[-1] = 0.0
    if corners:
        upper[1] = math.copysign(1.0 + abs(upper[1]), upper[1])
        lower[n - 2] = math.copysign(1.0 + abs(lower[n - 2]), lower[n - 2])
    # the spare row sets each diagonal's sign and its margin in [1, 11]
    signs = np.where(spare < 0.0, -1.0, 1.0)
    if large_corners:
        upper[0], lower[-1] = -4.0 * cr, -4.0 * cl
        lower[1] = -math.copysign(1.0 + abs(lower[1]), upper[1] * signs[0] * cr)
    off = np.abs(lower) + np.abs(upper)
    off[0] += abs(cr)
    off[-1] += abs(cl)
    diag = signs * (off + 1.0 + np.abs(spare))
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


@PROPERTY
@given(dominant_systems(min_n=5, large_corners=True))
def test_bordered_solve_with_swapped_rows_matches_dense(system):
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


def test_bordered_solve_one_corner_eliminated_other_swapped():
    """One corner is eliminated against its adjacent row and the other,
    whose adjacent band entry is zero, is removed by swapping its end rows;
    no dense solve runs, and the result solves the original system."""
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
    eliminated against it (the multiplier would be about 5e97): the last two
    rows swap instead, with a multiplier of about 2e-98, and no dense solve
    runs."""
    lower = np.array([0.0, 2.0149948e-98, 3.0])
    diag = np.array([8.0, 7.0, 8.0])
    upper = np.array([3.0, 3.0, 0.0])
    rhs = np.array([3.0, 3.0, 3.0])
    x = _solve_bordered(lower, diag, upper, 1.0, 1.0, rhs)
    ref = np.linalg.solve(_dense(lower, diag, upper, 1.0, 1.0), rhs)
    assert np.allclose(x, ref)


def test_bordered_solve_raises_on_a_zero_first_pivot():
    """Row 1 does not couple to row 0's corner unknown, so every corner-free
    combination of rows 0 and 1 is a multiple of row 1, whose entry for x[0]
    is 0: the sweep, which does not pivot, raises ZeroDivisionError, and the
    Newton loop reports a failed linear solve.  A dense solve would solve
    this system."""
    zeros = np.zeros(5)
    with pytest.raises(ZeroDivisionError):
        _solve_bordered(zeros, np.array([2.0, 1.0, 1.0, 1.0, 2.0]), zeros, 1.0, 0.0, np.ones(5))


@pytest.mark.parametrize("h", [1e-1, 1e-3, 1e-6, 1e-9, 1e-12])
def test_bordered_solve_of_a_convective_stage_system_matches_dense(h):
    """Burgers stage systems I - h J at a = 0.01, where both corners
    outweigh the band entries next to them.  At a small step the last row
    moved up by the swap couples its neighbour with only 4 corners, about
    64 h here, against a diagonal of about 1; it must not become the pivot."""
    raw = json.loads(preset_path("burgers").read_text())
    raw["a"] = "0.01"
    disc = SemiDiscretization(ProblemSpec.from_dict(raw), 65)
    lower, diag, upper, cr, cl = disc.rhs_jacobian(0.0, disc.initial_state())
    lower, diag, upper, cr, cl = -h * lower, 1.0 - h * diag, -h * upper, -h * cr, -h * cl
    assert abs(upper[1]) < abs(cr) and abs(lower[-2]) < abs(cl)
    rhs = np.random.default_rng(5).uniform(-1.0, 1.0, 65)
    x = _solve_bordered(lower, diag, upper, cr, cl, rhs)
    ref = np.linalg.solve(_dense(lower, diag, upper, cr, cl), rhs)
    assert np.allclose(x, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
