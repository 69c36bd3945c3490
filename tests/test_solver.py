"""Solver tests: discrete identities, exact steady states, manufactured
solutions for order verification, status trichotomy, blow-up detection."""

from __future__ import annotations

import json
import math
import sys
import warnings

import numpy as np
import pytest

from dynbc.cli import main, preset_path
from dynbc.errors import ConfigError, PreconditionFailed
from dynbc.expr import parse
from dynbc.problem import DirichletBC, DynamicBC, ProblemSpec
from dynbc import solver
from dynbc.solver import (
    BlowUpDetected, Completed, SemiDiscretization, SolverConfig, StepFailure, solve,
)


def steady_problem(ell=1.0, T=1.0):
    """u = x is an exact steady solution: interior 0 = 0 and u_t = -/+ b u_x + g."""
    return ProblemSpec(ell=ell, T=T, a=parse("1"), f=parse("0"), u0=parse("x"),
                       bc_minus=DynamicBC(parse("1"), parse("-1")),
                       bc_plus=DynamicBC(parse("1"), parse("1")))


def manufactured_problem(ell=1.0, T=1.0):
    """u = exp(-t) cos(x) solves the heat equation; the boundary data
    g = -exp(-t)(cos x +/- sin x) matches u_t +/- u_x at x = +/- ell."""
    return ProblemSpec(ell=ell, T=T, a=parse("1"), f=parse("0"), u0=parse("cos(x)"),
                       bc_minus=DynamicBC(parse("1"), parse("-exp(-t)*(cos(x)-sin(x))")),
                       bc_plus=DynamicBC(parse("1"), parse("-exp(-t)*(cos(x)+sin(x))")))


def quadratic_time_problem(ell=1.0, T=1.0):
    """u = exp(-t) (1 + x^2/2): spatially exact for the discretization
    (quadratic in x), so errors are purely temporal."""
    return ProblemSpec(
        ell=ell, T=T, a=parse("1"),
        f=parse("-exp(-t)*(2 + x^2/2)"),
        u0=parse("1 + x^2/2"),
        bc_minus=DynamicBC(parse("1"), parse("-exp(-t)*(1 + x^2/2 + x)")),
        bc_plus=DynamicBC(parse("1"), parse("-exp(-t)*(1 + x^2/2 - x)")))


def exact_manufactured(t, x):
    return np.exp(-t) * np.cos(x)


# ---------------------------------------------------------------------------
# semidiscretization identities

def test_semidiscretize_constant_state():
    disc = SemiDiscretization(ProblemSpec(
        ell=1.0, T=1.0, a=parse("1"), f=parse("0"), u0=parse("2"),
        bc_minus=DynamicBC(parse("1"), parse("0")),
        bc_plus=DynamicBC(parse("1"), parse("0"))), nx=11)
    u = np.full(11, 2.0)
    assert np.allclose(disc.rhs(0.0, u), 0.0, atol=1e-14)


def test_semidiscretize_linear_state():
    disc = SemiDiscretization(steady_problem(), nx=17)
    u = disc.nodes.copy()
    out = disc.rhs(0.3, u)
    assert np.allclose(out, 0.0, atol=1e-13)


def test_semidiscretize_quadratic_exact():
    # second difference is exact on quadratics: interior du/dt = 2 a = 2
    prob = ProblemSpec(ell=1.0, T=1.0, a=parse("1"), f=parse("0"), u0=parse("x^2"),
                       bc_minus=DynamicBC(parse("1"), parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse("0")))
    disc = SemiDiscretization(prob, nx=21)
    u = disc.nodes ** 2
    out = disc.rhs(0.0, u)
    assert np.allclose(out[1:-1], 2.0, atol=1e-11)
    # one-sided gradient is exact on quadratics too: at +ell, -b*2x+0 = -2
    assert out[-1] == pytest.approx(-2.0, abs=1e-11)
    assert out[0] == pytest.approx(-2.0, abs=1e-11)


def test_semidiscretize_rejects_tiny_grid():
    with pytest.raises(ConfigError):
        SemiDiscretization(steady_problem(), nx=4)


def test_rhs_jacobian_matches_difference_quotients():
    """Split sources, a dynamic and a pinned end: each column of the
    banded Jacobian (corners included) against a central difference of rhs."""
    prob = ProblemSpec(ell=1.0, T=1.0, a=parse("1 + z^2/4"), f=parse("sin(p)"),
                       f1=parse("-z^3"), u0=parse("cos(x)"),
                       bc_minus=DynamicBC(parse("1 + p^2/8"), parse("z"), g1=parse("-z^3")),
                       bc_plus=DirichletBC(parse("cos(1)*exp(-t)")))
    disc = SemiDiscretization(prob, nx=9)
    u = np.cos(disc.nodes) + 0.1 * disc.nodes
    lower, diag, upper, corner_right, corner_left = disc.rhs_jacobian(0.2, u)
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    dense[0, 2] += corner_right
    dense[-1, -3] += corner_left
    eps = 1e-6
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = eps
        column = (disc.rhs(0.2, u + e) - disc.rhs(0.2, u - e)) / (2 * eps)
        assert np.allclose(dense[:, j], column, rtol=1e-6, atol=1e-5)


def test_attempt_evaluates_each_start_slope_once(monkeypatch):
    """The full step and the first half step share the slope passed in; the
    second half step evaluates its start slope once more."""
    prob = ProblemSpec.from_json(preset_path("burgers").read_text())
    disc = SemiDiscretization(prob, nx=33)
    cfg = SolverConfig(nx=33)
    t, dt = 0.1, 0.05
    u = disc.initial_state()
    f0 = disc.rhs(t, u)
    mid, _ = solver._attempt(disc, t, u, f0, dt / 2, cfg.theta, cfg)
    calls = []
    rhs = SemiDiscretization.rhs

    def recording_rhs(self, tk, uk):
        calls.append((tk, uk.copy()))
        return rhs(self, tk, uk)

    monkeypatch.setattr(SemiDiscretization, "rhs", recording_rhs)
    solver._attempt(disc, t, u, f0, dt, cfg.theta, cfg)

    def count(tk, uk):
        return sum(tc == tk and np.array_equal(uc, uk) for tc, uc in calls)

    assert count(t, u) == 0
    # the first half step's residual at its converged iterate, then the slope
    assert count(t + dt / 2, mid) == 2


def test_solve_evaluates_each_stored_slope_once(monkeypatch):
    """On a run where Newton fails at both thetas and steps are rejected,
    rhs(t_k, u_k) is evaluated exactly once at every stored state outside
    the Newton iterations, and that value is the state's row of u_t.

    Calls from inside ``_theta_step`` are Newton residuals.  The second half
    step's residual at its converged iterate is an rhs call at (t_k, u_k)
    too, whenever (t + dt/2) + dt/2 rounds to t + dt, so it is not counted.
    """
    raw = json.loads(preset_path("burgers").read_text())
    prob = ProblemSpec.from_dict(raw)
    cfg = SolverConfig(nx=65, dt0=0.05, newton_max_iter=2)
    calls = []
    newton = [0]
    rhs = SemiDiscretization.rhs
    theta_step = solver._theta_step

    def recording_rhs(self, tk, uk):
        out = rhs(self, tk, uk)
        if not newton[0]:
            calls.append((tk, uk.copy(), out.copy()))
        return out

    def marked_theta_step(*args):
        newton[0] += 1
        try:
            return theta_step(*args)
        finally:
            newton[0] -= 1

    monkeypatch.setattr(SemiDiscretization, "rhs", recording_rhs)
    monkeypatch.setattr(solver, "_theta_step", marked_theta_step)
    sol = solve(prob, cfg)
    assert sol.step_log["newton_failures"] > 0 and sol.step_log["rejected"] > 0
    for k, tk in enumerate(sol.grid.times):
        uk = sol.grid.values[k]
        hits = [out for tc, uc, out in calls if tc == tk and np.array_equal(uc, uk)]
        assert len(hits) == 1, (k, tk, len(hits))
        assert np.array_equal(hits[0], sol.ut[k])


def test_solve_takes_each_stored_gradient_once(monkeypatch):
    """Outside the stencil, solve takes the gradient of each stored state
    exactly once, and that value is both what the cutoff reads and the
    state's row of u_x; on a blow-up run as well."""
    calls = []
    gradient = SemiDiscretization.gradient

    def recording_gradient(self, uk):
        out = gradient(self, uk)
        if sys._getframe(1).f_code.co_name != "_stencil":
            calls.append((uk.copy(), out.copy()))
        return out

    monkeypatch.setattr(SemiDiscretization, "gradient", recording_gradient)
    for name, cfg in (("burgers", SolverConfig(nx=33)),
                      ("blowup_270", SolverConfig(nx=33, strict_compatibility=False,
                                                  gradient_cutoff=25.0, dt_max=0.05))):
        calls.clear()
        sol = solve(ProblemSpec.from_json(preset_path(name).read_text()), cfg)
        assert len(calls) == sol.grid.times.size
        for (uc, out), uk, uxk in zip(calls, sol.grid.values, sol.ux, strict=True):
            assert np.array_equal(uc, uk) and np.array_equal(out, uxk)
    assert isinstance(sol.status, BlowUpDetected)
    assert sol.status.max_gradient == np.max(np.abs(sol.ux[-1])) > 25.0


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(theta=1.5)
    with pytest.raises(ConfigError):
        SolverConfig(nx=3)
    # the step-size factor's power needs a positive tolerance on an adaptive run
    for tol in (0.0, -1e-8, math.nan):
        with pytest.raises(ConfigError):
            SolverConfig(local_error_tol=tol)
    assert SolverConfig(local_error_tol=-1.0, dt_min=0.01, dt_max=0.01).fixed_step
    # nan passes every comparison, so each float field refuses it by name
    for name in ("dt0", "gradient_cutoff", "newton_tol", "compat_tol"):
        with pytest.raises(ConfigError, match=f"^{name} must be a number"):
            SolverConfig(**{name: math.nan})


# ---------------------------------------------------------------------------
# exact and manufactured solutions

def test_steady_state_preserved():
    sol = solve(steady_problem(), SolverConfig(nx=33, dt0=1e-2))
    assert isinstance(sol.status, Completed)
    dev = np.max(np.abs(sol.grid.values - sol.grid.nodes[None, :]))
    assert dev <= 1e-10
    assert sol.grid.times[-1] == pytest.approx(1.0, abs=1e-12)


def _mms_error(nx: int) -> float:
    sol = solve(manufactured_problem(), SolverConfig(nx=nx, dt0=1e-3))
    assert isinstance(sol.status, Completed)
    tt, xx = np.meshgrid(sol.grid.times, sol.grid.nodes, indexing="ij")
    return float(np.max(np.abs(sol.grid.values - exact_manufactured(tt, xx))))


def test_mms_spatial_order():
    errs = [_mms_error(nx) for nx in (33, 65, 129)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, (errs, orders)
    assert errs[-1] <= 5e-5


def test_temporal_order_trapezoidal():
    # spatially exact manufactured solution isolates the time error
    errs = []
    for dt in (0.02, 0.01, 0.005):
        cfg = SolverConfig(nx=21, dt0=dt, dt_min=dt, dt_max=dt)
        sol = solve(quadratic_time_problem(), cfg)
        assert isinstance(sol.status, Completed)
        tt, xx = np.meshgrid(sol.grid.times, sol.grid.nodes, indexing="ij")
        exact = np.exp(-tt) * (1 + xx ** 2 / 2)
        errs.append(float(np.max(np.abs(sol.grid.values - exact))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, (errs, orders)


def test_symmetry_preserved():
    sol = solve(manufactured_problem(), SolverConfig(nx=41))
    mirrored = sol.grid.values[:, ::-1]
    assert np.max(np.abs(sol.grid.values - mirrored)) <= 1e-9


def test_quasilinear_against_fine_reference():
    # a depends on u and the boundary couples through the gradient;
    # self-convergence against a fine grid stands in for an exact solution
    prob = ProblemSpec(
        ell=1.0, T=0.25, a=parse("1 + 0.1*z^2"), f=parse("-0.5*z*p"),
        u0=parse("0.3*cos(pi*x/2)^3"),
        bc_minus=DynamicBC(parse("1 + 0.1*p^2"), parse("0")),
        bc_plus=DynamicBC(parse("1 + 0.1*p^2"), parse("0")))
    coarse = solve(prob, SolverConfig(nx=41, strict_compatibility=True))
    fine = solve(prob, SolverConfig(nx=161, strict_compatibility=True))
    assert isinstance(coarse.status, Completed) and isinstance(fine.status, Completed)
    # compare at final time on the coarse nodes; measured self-convergence
    # is order ~2, so the 41-node error dominates at ~8e-5
    uc = coarse.grid.values[-1]
    uf = np.interp(coarse.grid.nodes, fine.grid.nodes, fine.grid.values[-1])
    assert np.max(np.abs(uc - uf)) <= 2e-4


# ---------------------------------------------------------------------------
# dirichlet and mixed problems

def test_dirichlet_pinning():
    prob = ProblemSpec(ell=1.0, T=0.5, a=parse("1"), f=parse("0"), u0=parse("0"),
                       bc_minus=DirichletBC(parse("0")),
                       bc_plus=DirichletBC(parse("t")))
    sol = solve(prob, SolverConfig(nx=21, strict_compatibility=False))
    assert isinstance(sol.status, Completed)
    assert np.allclose(sol.grid.values[:, 0], 0.0, atol=1e-12)
    assert np.allclose(sol.grid.values[:, -1], sol.grid.times, atol=1e-12)


def test_mixed_dynamic_dirichlet():
    # dynamic at -ell, Dirichlet pin at +ell; relaxes towards steady profile
    # (slowest mode decays like exp(-0.74 t), so T = 12 reaches ~1e-4)
    prob = ProblemSpec(ell=0.5, T=12.0, a=parse("1"), f=parse("1"), u0=parse("0"),
                       bc_minus=DynamicBC(parse("1"), parse("0")),
                       bc_plus=DirichletBC(parse("0")))
    sol = solve(prob, SolverConfig(nx=33, strict_compatibility=False))
    assert isinstance(sol.status, Completed)
    # steady state solves -U'' = 1, U'(-ell) = 0 (flux law 0 = b U' at rest), U(ell) = 0
    xs = sol.grid.nodes
    steady = 0.5 * (0.5 - xs) * (xs + 1.5)
    assert np.max(np.abs(sol.grid.values[-1] - steady)) <= 1e-3


# ---------------------------------------------------------------------------
# status trichotomy

def test_strict_mode_rejects_incompatible_data():
    prob = ProblemSpec(ell=1.0, T=1.0, a=parse("1"), f=parse("0"), u0=parse("x^2"),
                       bc_minus=DynamicBC(parse("1"), parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse("0")))
    with pytest.raises(PreconditionFailed):
        solve(prob, SolverConfig(nx=21))
    sol = solve(prob, SolverConfig(nx=21, strict_compatibility=False))
    assert sol.status.kind in ("completed", "blowup", "stepfailure")


def test_strict_mode_rejects_degenerate_diffusivity():
    prob = ProblemSpec(ell=1.0, T=1.0, a=parse("z"), f=parse("0"), u0=parse("0"),
                       bc_minus=DynamicBC(parse("1"), parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse("0")))
    with pytest.raises(PreconditionFailed):
        solve(prob, SolverConfig(nx=21))


def _flat_problem(a="1", b_plus="1", g_plus="0", b_minus="1", g_minus="0"):
    """u0 = 0 with sources vanishing at p = 0: compatible at t = 0, so a strict
    run gets as far as the parabolicity check on its working box."""
    return ProblemSpec(ell=1.0, T=1.0, a=parse(a), f=parse("0"), u0=parse("0"),
                       bc_minus=DynamicBC(parse(b_minus), parse(g_minus)),
                       bc_plus=DynamicBC(parse(b_plus), parse(g_plus)))


@pytest.mark.parametrize("kw", [
    # b <= 0 at +ell while d_p(b) p + b - d_p(g) = -1 + 2 stays positive
    dict(b_plus="-1", g_plus="-2*p"),
    # boundary flux derivative d_p(b) p + b - d_p(g) = 1 - 2 < 0 at +ell
    dict(g_plus="2*p"),
    # the same at -ell, where the sign of d_p(g) flips: 1 + (-2) < 0
    dict(g_minus="-2*p"),
], ids=["b_not_positive", "flux_derivative_plus", "flux_derivative_minus"])
def test_strict_mode_rejects_boundary_degeneracy(kw):
    prob = _flat_problem(**kw)
    with pytest.raises(PreconditionFailed):
        solve(prob, SolverConfig(nx=21))
    sol = solve(prob, SolverConfig(nx=21, strict_compatibility=False, dt_max=0.05))
    assert sol.status.kind in ("completed", "blowup", "stepfailure")


@pytest.mark.parametrize("kw", [
    # u0 = 0 gives the z-box [-2, 2] on a 17-point grid, which holds z = 1
    dict(a="1/(1-z)^2"),
    dict(b_plus="1/(1-z)^2"),
    # at -ell d_p(g) enters with a plus sign: the flux derivative is +inf there
    dict(g_minus="p/(1-z)^2"),
], ids=["a_infinite", "b_infinite", "flux_derivative_infinite"])
def test_strict_mode_rejects_non_finite_coefficients(kw):
    # the refusal, not a RuntimeWarning from the 1/0 on the box, reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionFailed):
            solve(_flat_problem(**kw), SolverConfig(nx=21))


def test_strict_mode_accepts_positive_finite_coefficients():
    sol = solve(_flat_problem(a="1+z^2", b_plus="2+p^2", g_plus="-p"), SolverConfig(nx=21))
    assert isinstance(sol.status, Completed)


def test_blowup_preset_solve_emits_no_runtime_warning():
    prob = ProblemSpec.from_json(preset_path("blowup_270").read_text())
    cfg = SolverConfig(nx=101, strict_compatibility=False, gradient_cutoff=25.0, dt_max=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(prob, cfg)
    assert isinstance(sol.status, BlowUpDetected)
    assert sol.status.time == pytest.approx(3.17, abs=0.03)


def test_blowup_detection_reports_time_and_gradient():
    # gradient-steepening source with a pinned end; small cutoff for speed
    prob = ProblemSpec(ell=0.75, T=4.0, a=parse("1"), f=parse("(1+p^2)^1.5"),
                       u0=parse("0"),
                       bc_minus=DirichletBC(parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse("0")))
    cfg = SolverConfig(nx=101, strict_compatibility=False, gradient_cutoff=25.0,
                       dt_max=0.05)
    sol = solve(prob, cfg)
    assert isinstance(sol.status, BlowUpDetected)
    assert sol.status.max_gradient >= 25.0
    assert 0.0 < sol.status.time < 4.0
    assert math.isfinite(sol.sup_u)


def test_step_failure_at_minimal_step():
    # impossible accuracy demand with a hard dt ceiling forces a failure
    prob = manufactured_problem(T=0.1)
    cfg = SolverConfig(nx=21, dt0=1e-3, dt_min=1e-3, dt_max=2e-3,
                       local_error_tol=1e-30)
    sol = solve(prob, cfg)
    assert isinstance(sol.status, StepFailure)


def test_every_run_has_exactly_one_status():
    sols = [
        solve(steady_problem(T=0.2), SolverConfig(nx=21)),
        solve(manufactured_problem(T=0.2), SolverConfig(nx=21)),
    ]
    for sol in sols:
        assert sol.status.kind in ("completed", "blowup", "stepfailure")
        if isinstance(sol.status, Completed):
            assert sol.grid.times[-1] == pytest.approx(0.2, rel=1e-9)
            assert np.all(np.isfinite(sol.grid.values))


def test_solution_carries_derived_grids():
    sol = solve(manufactured_problem(T=0.3), SolverConfig(nx=33))
    assert sol.ux.shape == sol.grid.values.shape
    assert sol.ut.shape == sol.grid.values.shape
    tt, xx = np.meshgrid(sol.grid.times, sol.grid.nodes, indexing="ij")
    assert np.max(np.abs(sol.ux + np.exp(-tt) * np.sin(xx))) <= 3e-3
    assert np.max(np.abs(sol.ut + np.exp(-tt) * np.cos(xx))) <= 3e-3


def test_split_rhs_terms_enter_the_equations():
    # f1 = g1 = -2 z^3 damps a constant state along du/dt = -2 u^3
    prob = ProblemSpec(ell=1.0, T=1.0, a=parse("1"), f=parse("0"),
                       u0=parse("0.5"), f1=parse("-2*z^3"),
                       bc_minus=DynamicBC(parse("1"), parse("0"), g1=parse("-2*z^3")),
                       bc_plus=DynamicBC(parse("1"), parse("0"), g1=parse("-2*z^3")))
    sol = solve(prob, SolverConfig(nx=21))
    assert isinstance(sol.status, Completed)
    # exact: u(t) = u0 / sqrt(1 + 4 u0^2 t)
    exact = 0.5 / math.sqrt(1 + 4 * 0.25 * 1.0)
    assert np.max(np.abs(sol.grid.values[-1] - exact)) <= 1e-6
    assert np.max(np.abs(sol.grid.values[-1] - sol.grid.values[-1][0])) <= 1e-9


def test_a_convective_burgers_solve_makes_no_dense_solve(tmp_path, monkeypatch):
    """At a = 0.01 both corners outweigh the band entries next to them in
    every stage system, so each swaps its end rows; nothing calls
    np.linalg.solve, and the run takes the steps the dense solves took."""
    dense_calls, swaps = [], []
    dense, eliminate = np.linalg.solve, solver._eliminate_corner

    def counted_dense(*args, **kw):
        dense_calls.append(args)
        return dense(*args, **kw)

    def counted_eliminate(away, diag, toward, rhs, corner, i, j):
        swaps.append(abs(toward[j]) < abs(corner))
        eliminate(away, diag, toward, rhs, corner, i, j)

    monkeypatch.setattr(np.linalg, "solve", counted_dense)
    monkeypatch.setattr(solver, "_eliminate_corner", counted_eliminate)
    raw = json.loads(preset_path("burgers").read_text())
    raw["a"] = "0.01"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    assert main(["solve", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == {"kind": "completed"}
    assert summary["step_log"] == {"accepted": 239, "rejected": 0, "newton_failures": 0}
    assert dense_calls == []
    assert len(swaps) == 2 * 717 and all(swaps)


def _burgers_with_a_failing_sweep(monkeypatch, error):
    """A fixed-step burgers run whose every Thomas sweep raises error."""
    def sweep(*args):
        raise error("from the sweep")

    monkeypatch.setattr(solver, "thomas", sweep)
    prob = ProblemSpec.from_json(preset_path("burgers").read_text())
    return prob, SolverConfig(nx=33, dt_min=1e-3, dt_max=1e-3)


def test_a_zero_pivot_fails_the_newton_attempt(monkeypatch):
    """A zero pivot fails the attempt at theta and at the fully implicit
    fallback; the fixed-step run then ends in step failure."""
    sol = solve(*_burgers_with_a_failing_sweep(monkeypatch, ZeroDivisionError))
    assert sol.status == StepFailure(time=0.0, reason="newton failure at minimal step")
    assert sol.step_log == {"accepted": 0, "rejected": 0, "newton_failures": 1}


def test_an_error_other_than_a_zero_pivot_propagates(monkeypatch):
    """Only a zero pivot is a failed linear solve; any other error from
    the stage solve is a fault and ends the run."""
    with pytest.raises(TypeError, match="from the sweep"):
        solve(*_burgers_with_a_failing_sweep(monkeypatch, TypeError))
