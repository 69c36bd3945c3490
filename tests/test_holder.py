"""Seminorm / norm / interpolation diagnostics tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynbc.errors import DegenerateGrid
from dynbc.holder import (
    GridFunction, _pairwise_max, _second_diff, holder_seminorm, interpolation_diagnostic,
    parabolic_norm, sup_norm,
)


def _grid(fn, times, nodes):
    return GridFunction.from_callable(fn, np.asarray(times, float), np.asarray(nodes, float))


def test_sup_norm_constant():
    u = _grid(lambda t, x: -3.0 + 0 * t, [0, 0.5, 1], [-1, 0, 1])
    assert sup_norm(u) == 3.0


def test_sup_norm_identity():
    u = _grid(lambda t, x: x, [0, 1], np.linspace(-1, 1, 11))
    assert sup_norm(u) == 1.0


def test_sup_norm_decaying_cos():
    u = _grid(lambda t, x: np.exp(-t) * np.cos(x), np.linspace(0, 1, 21), np.linspace(-1, 1, 21))
    assert sup_norm(u) == pytest.approx(1.0, abs=1e-15)


def test_seminorm_identity_lipschitz():
    u = _grid(lambda t, x: x, [0, 1], np.linspace(-1, 1, 9))
    assert holder_seminorm(u, 1.0, "x") == pytest.approx(1.0, rel=1e-14)


def test_seminorm_constant_zero():
    u = _grid(lambda t, x: 7.0 + 0 * x, [0, 1], np.linspace(-1, 1, 9))
    assert holder_seminorm(u, 0.5, "x") == 0.0
    assert holder_seminorm(u, 0.5, "t") == 0.0


def test_seminorm_sqrt_grid_brute_force():
    nodes = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    u = _grid(lambda t, x: np.sqrt(np.abs(x)), [0.0, 1.0], nodes)
    got = holder_seminorm(u, 0.5, "x")
    # independent oracle: direct enumeration of all 10 node pairs
    vals = np.sqrt(np.abs(nodes))
    best = max(abs(vals[j] - vals[k]) / abs(nodes[j] - nodes[k]) ** 0.5
               for j in range(5) for k in range(j + 1, 5))
    assert got == pytest.approx(best, rel=1e-14)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_seminorm_degenerate_axis():
    u = GridFunction(np.array([0.0]), np.linspace(-1, 1, 5), np.zeros((1, 5)))
    with pytest.raises(DegenerateGrid):
        holder_seminorm(u, 0.5, "t")


def test_parabolic_norm_zero():
    u = _grid(lambda t, x: 0.0 * x, np.linspace(0, 1, 9), np.linspace(-1, 1, 9))
    for k in (0, 1, 2):
        rep = parabolic_norm(u, k, 0.5)
        assert rep.sup_norm == 0 and rep.semi_x == 0 and rep.semi_t == 0 and rep.parabolic_semi == 0


def test_parabolic_norm_identity_k0():
    u = _grid(lambda t, x: x + 0 * t, np.linspace(0, 1, 5), np.linspace(-1, 1, 17))
    rep = parabolic_norm(u, 0, 0.5)
    assert rep.sup_norm == pytest.approx(1.0)
    # x-quotient |dx| / |dx|^0.5 peaks at the endpoint pair: (2*ell)^0.5
    assert rep.semi_x == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rep.semi_t == 0.0
    assert rep.norm == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)


def test_parabolic_norm_k2_against_analytic_derivatives():
    times = np.linspace(0, 1, 129)
    nodes = np.linspace(-1, 1, 129)
    u = _grid(lambda t, x: np.exp(-t) * np.cos(x), times, nodes)
    rep = parabolic_norm(u, 2, 0.5)
    assert all(math.isfinite(v) for v in (rep.sup_norm, rep.semi_x, rep.semi_t, rep.parabolic_semi))

    # independent oracle: identical seminorm assembly on analytic derivative grids
    ut = _grid(lambda t, x: -np.exp(-t) * np.cos(x), times, nodes)
    ux = _grid(lambda t, x: -np.exp(-t) * np.sin(x), times, nodes)
    uxx = _grid(lambda t, x: -np.exp(-t) * np.cos(x), times, nodes)
    sup_oracle = (sup_norm(u) + sup_norm(ux) + sup_norm(uxx) + sup_norm(ut))
    semi_x_oracle = holder_seminorm(uxx, 0.5, "x") + holder_seminorm(ut, 0.5, "x")
    semi_t_oracle = (holder_seminorm(uxx, 0.25, "t") + holder_seminorm(ut, 0.25, "t")
                     + holder_seminorm(ux, 0.75, "t"))
    assert rep.sup_norm == pytest.approx(sup_oracle, rel=1e-2)
    assert rep.semi_x == pytest.approx(semi_x_oracle, rel=1e-2)
    assert rep.semi_t == pytest.approx(semi_t_oracle, rel=1e-2)


def test_parabolic_norm_degenerate():
    u = GridFunction(np.array([0.0, 1.0]), np.array([-1.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(DegenerateGrid):
        parabolic_norm(u, 1, 0.5)


# ---------------------------------------------------------------------------
# interpolation diagnostics

def test_interpolation_zero_convention():
    u = _grid(lambda t, x: 0.0 * x, np.linspace(0, 1, 9), np.linspace(-1, 1, 9))
    assert interpolation_diagnostic(u, 0.5) == (0.0, 0.0, 0.0)


def test_interpolation_scale_invariance():
    u = _grid(lambda t, x: np.exp(-t) * np.cos(x), np.linspace(0, 1, 33), np.linspace(-1, 1, 33))
    r1 = interpolation_diagnostic(u, 0.5)
    r5 = interpolation_diagnostic(u.scaled(5.0), 0.5)
    for a, b in zip(r1, r5):
        assert b == pytest.approx(a, rel=1e-12)


def test_interpolation_two_grid_stability():
    def make(n):
        return _grid(lambda t, x: np.exp(-t) * np.cos(x),
                     np.linspace(0, 1, n), np.linspace(-1, 1, n))

    coarse = interpolation_diagnostic(make(64), 0.5)
    fine = interpolation_diagnostic(make(128), 0.5)
    for a, b in zip(coarse, fine):
        assert math.isfinite(a) and math.isfinite(b)
        assert b == pytest.approx(a, rel=0.2)


# ---------------------------------------------------------------------------
# randomized property suites (seeded generator, 100 grid functions)

def _random_grids(count=100, seed=20240601):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nt = int(rng.integers(4, 14))
        nx = int(rng.integers(4, 14))
        times = np.sort(rng.uniform(0, 1, nt))
        times[0] = 0.0
        while np.any(np.diff(times) <= 1e-9):
            times = np.sort(rng.uniform(0, 1, nt)); times[0] = 0.0
        nodes = np.linspace(-1, 1, nx) + np.concatenate(
            ([0.0], rng.uniform(-0.3, 0.3, nx - 2) / nx, [0.0]))
        a, b, c = rng.uniform(-2, 2, 3)
        w1, w2 = rng.uniform(0.5, 4, 2)
        tt, xx = np.meshgrid(times, nodes, indexing="ij")
        vals = a * np.sin(w1 * xx + b * tt) + c * np.exp(-w2 * tt) * xx ** 2
        out.append(GridFunction(times, nodes, vals))
    return out


def test_homogeneity_exact_for_power_of_two_scaling():
    for u in _random_grids(100):
        for lam in (2.0, -4.0, 0.5):
            assert sup_norm(u.scaled(lam)) == abs(lam) * sup_norm(u)
            assert holder_seminorm(u.scaled(lam), 0.5, "x") == abs(lam) * holder_seminorm(u, 0.5, "x")
            rep = parabolic_norm(u, 0, 0.5)
            rep_s = parabolic_norm(u.scaled(lam), 0, 0.5)
            assert rep_s.parabolic_semi == abs(lam) * rep.parabolic_semi


def test_homogeneity_general_scaling():
    for u in _random_grids(40, seed=7):
        n1 = parabolic_norm(u, 1, 0.3)
        n3 = parabolic_norm(u.scaled(3.0), 1, 0.3)
        assert n3.norm == pytest.approx(3.0 * n1.norm, rel=1e-12)


def test_triangle_inequality():
    grids = _random_grids(100)
    rng = np.random.default_rng(11)
    for u in grids:
        v = GridFunction(u.times, u.nodes, rng.standard_normal(u.values.shape))
        s = GridFunction(u.times, u.nodes, u.values + v.values)
        lhs = holder_seminorm(s, 0.5, "x")
        rhs = holder_seminorm(u, 0.5, "x") + holder_seminorm(v, 0.5, "x")
        assert lhs <= rhs * (1 + 1e-12) + 1e-12
        assert sup_norm(s) <= sup_norm(u) + sup_norm(v) + 1e-12


def test_monotonicity_under_restriction():
    for u in _random_grids(30, seed=3):
        sub = GridFunction(u.times[::2], u.nodes, u.values[::2, :])
        if sub.times.size < 2:
            continue
        assert holder_seminorm(sub, 0.4, "t") <= holder_seminorm(u, 0.4, "t") + 1e-14
        subx = GridFunction(u.times, u.nodes[1:], u.values[:, 1:])
        assert holder_seminorm(subx, 0.4, "x") <= holder_seminorm(u, 0.4, "x") + 1e-14


def test_subsampling_reported_on_large_grid():
    u = _grid(lambda t, x: np.sin(x) + 0 * t, np.linspace(0, 1, 4), np.linspace(-1, 1, 1400))
    rep = parabolic_norm(u, 0, 0.5)
    assert rep.stride_x == 3  # ceil(1400/512)
    assert rep.stride_t == 1


def pairwise_max_by_pairs(coords, values2d, alpha):
    """The pair scan ``_pairwise_max`` ran before it scanned by offset, kept
    verbatim as the reference: every pair of ``np.triu_indices``, row by row."""
    n = coords.size
    jj, kk = np.triu_indices(n, k=1)
    weights = 1.0 / np.abs(coords[kk] - coords[jj]) ** alpha
    best = 0.0
    for row in values2d:
        dmax = np.max(np.abs(row[kk] - row[jj]) * weights)
        if dmax > best:
            best = float(dmax)
    return best


_cell = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and nan cells warn in both scans
@settings(max_examples=300, deadline=None)
@given(coords=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=12, unique=True).map(sorted),
       rows=st.integers(0, 5), alpha=st.floats(0.01, 1.0), data=st.data())
def test_offset_scan_equals_the_pair_scan(coords, rows, alpha, data):
    coords = np.asarray(coords, dtype=float)
    values2d = data.draw(hnp.arrays(np.float64, (rows, coords.size), elements=_cell))
    got = _pairwise_max(coords, values2d, alpha)
    want = pairwise_max_by_pairs(coords, values2d, alpha)
    assert type(got) is float and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_offset_scan_equals_the_pair_scan_on_a_solver_sized_table():
    rng = np.random.default_rng(16)
    coords = np.cumsum(rng.uniform(1e-3, 1.0, 257))
    values2d = np.cumsum(rng.standard_normal((40, coords.size)), axis=1)
    for alpha in (0.25, 0.5, 0.75, 1.0):
        assert _pairwise_max(coords, values2d, alpha) == pairwise_max_by_pairs(
            coords, values2d, alpha)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nearly equal coords overflow the weights
@settings(max_examples=60, deadline=None)
@given(coords=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=40, unique=True).map(sorted),
       rows=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_second_diff_of_a_batch_is_each_slice_alone(coords, rows, seed):
    # the stencils are contracted slice by slice, so a batch changes no bit
    coords = np.asarray(coords)
    values = np.random.default_rng(seed).standard_normal((rows, coords.size)) * 1e3
    batch = _second_diff(values, coords, axis=1)
    alone = np.concatenate([_second_diff(values[i:i + 1], coords, axis=1) for i in range(rows)])
    assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))
    assert np.array_equal(_second_diff(values.T, coords, axis=0).T.view(np.uint64),
                          batch.view(np.uint64))
