"""Doubled-variable comparison scan, slack reports, blow-up inequality."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dynbc.certificate import PsiSpec, build_barrier
from dynbc.errors import CertificateMismatch, DivergentIntegral, PreconditionFailed
from dynbc.expr import parse
from dynbc.holder import GridFunction
from dynbc.problem import DirichletBC, DynamicBC, ProblemSpec
from dynbc.solver import BlowUpDetected, Completed, SolverConfig, Solution, solve
from dynbc.verify import blowup_inequality, bounds_check, doubling_check

from test_solver import manufactured_problem

PSI_ONE = PsiSpec.from_text("1")
PSI_CUBE = PsiSpec.from_text("(1+p^2)^1.5")


def _synthetic_solution(fn, times, nodes) -> Solution:
    grid = GridFunction.from_callable(fn, times, nodes)
    dx = nodes[1] - nodes[0]
    ux = np.gradient(grid.values, nodes, axis=1, edge_order=2)
    ut = (np.gradient(grid.values, times, axis=0, edge_order=2)
          if len(times) > 2 else np.zeros_like(grid.values))
    return Solution(grid=grid, ux=ux, ut=ut, status=Completed(), step_log={})


def test_doubling_constant_state():
    times = np.linspace(0, 1, 9)
    nodes = np.linspace(-1, 1, 17)
    sol = _synthetic_solution(lambda t, x: 4.0 + 0 * x, times, nodes)
    cert = build_barrier(PSI_ONE, q0=1.0, M=4.0, K=0.0)
    res = doubling_check(sol, cert)
    # w~ = -exp(-t) h(x - y) < 0; the max sits at the latest time and the
    # smallest positive offset
    h_min = cert.h_curve()(nodes[1] - nodes[0])
    assert res.max_w_tilde == pytest.approx(-math.exp(-1.0) * h_min, rel=1e-9)
    assert res.max_w_tilde < 0
    assert res.max_w1_tilde < 0


def test_doubling_linear_state_stays_nonpositive():
    # u = x with q0 = 1: h' >= 1 everywhere gives h(xi) >= xi = u(x) - u(y)
    times = np.linspace(0, 1, 9)
    nodes = np.linspace(-1, 1, 33)
    sol = _synthetic_solution(lambda t, x: x + 0 * t, times, nodes)
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=1.0)
    res = doubling_check(sol, cert)
    assert res.max_w_tilde <= 1e-12
    assert res.max_w1_tilde <= 1e-12


def test_doubling_diagonal_is_exact_zero():
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=1.0)
    curve = cert.h_curve()
    assert curve(0.0) == 0.0  # h(0) = 0 exactly, so w~ vanishes on x = y


def test_doubling_mismatched_certificate():
    times = np.linspace(0, 1, 5)
    nodes = np.linspace(-1, 1, 9)
    sol = _synthetic_solution(lambda t, x: 3.0 + 0 * x, times, nodes)
    cert = build_barrier(PSI_ONE, q0=1.0, M=1.0, K=0.0)  # M < sup|u| = 3
    with pytest.raises(CertificateMismatch):
        doubling_check(sol, cert)


def test_doubling_requires_completed_run():
    times = np.linspace(0, 1, 5)
    nodes = np.linspace(-1, 1, 9)
    sol = _synthetic_solution(lambda t, x: 0 * x, times, nodes)
    sol.status = BlowUpDetected(time=0.5, max_gradient=1e7)
    with pytest.raises(PreconditionFailed):
        doubling_check(sol, cert=build_barrier(PSI_ONE, 1.0, 1.0, 0.0))


def test_antisymmetry_of_the_two_scans():
    times = np.linspace(0, 1, 9)
    nodes = np.linspace(-1, 1, 21)
    rng = np.random.default_rng(8)
    coeffs = rng.uniform(-0.5, 0.5, 3)

    def fn(t, x):
        return coeffs[0] * np.sin(2 * x) + coeffs[1] * x ** 2 * np.exp(-t) + coeffs[2]

    sol_u = _synthetic_solution(fn, times, nodes)
    sol_neg = _synthetic_solution(lambda t, x: -fn(t, x), times, nodes)
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=1.0)
    res_u = doubling_check(sol_u, cert)
    res_neg = doubling_check(sol_neg, cert)
    assert res_u.max_w1_tilde == pytest.approx(res_neg.max_w_tilde, rel=1e-13)
    assert res_u.max_w_tilde == pytest.approx(res_neg.max_w1_tilde, rel=1e-13)


def test_doubling_scan_matches_triple_loop_oracle():
    rng = np.random.default_rng(17)
    times = np.linspace(0, 1, 5)
    nodes = np.sort(rng.uniform(-1, 1, 9))
    nodes[0], nodes[-1] = -1.0, 1.0
    vals = rng.uniform(-0.8, 0.8, (5, 9))
    sol = Solution(grid=GridFunction(times, nodes, vals),
                   ux=np.zeros_like(vals), ut=np.zeros_like(vals),
                   status=Completed(), step_log={})
    cert = build_barrier(PsiSpec.from_text("1+0.5*p^2"), q0=0.3, M=0.85, K=0.0)
    res = doubling_check(sol, cert)
    curve = cert.h_curve()
    best_w = -np.inf
    best_w1 = -np.inf
    for i, t in enumerate(times):
        for j, x in enumerate(nodes):
            for k, y in enumerate(nodes):
                d = x - y
                if not (0.0 < d <= cert.kappa0):
                    continue
                h = float(curve(d))
                best_w = max(best_w, math.exp(-t) * (vals[i, j] - vals[i, k] - h))
                best_w1 = max(best_w1, math.exp(-t) * (vals[i, k] - vals[i, j] - h))
    assert res.max_w_tilde == pytest.approx(best_w, rel=1e-13, abs=1e-15)
    assert res.max_w1_tilde == pytest.approx(best_w1, rel=1e-13, abs=1e-15)


def test_corner_pair_covered_when_kappa0_wide():
    # kappa0 >= 2 ell: the (+ell, -ell) pair must enter the scan.  The ramp
    # u = 2.15 x stays within budget (sup = 1.935 <= M = 2) but beats the
    # chord slope h(d)/d = 3 - d/2 only for offsets d > 1.7, i.e. exactly at
    # the corner pair with d = 2 ell = 1.8.
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=0.0)  # kappa0 = 2, h = 3 xi - xi^2/2
    assert cert.kappa0 >= 2 * 0.9
    times = np.linspace(0, 0.5, 4)
    nodes = np.linspace(-0.9, 0.9, 11)
    sol = _synthetic_solution(lambda t, x: 2.15 * x + 0 * t, times, nodes)
    res = doubling_check(sol, cert)
    assert res.witness_w == {"t": 0.0, "x": 0.9, "y": -0.9}
    # w~ at the corner: 2.15 * 1.8 - h(1.8) = 3.87 - 3.78
    assert res.max_w_tilde == pytest.approx(0.09, rel=1e-6)


def test_bounds_check_steady_example():
    times = np.linspace(0, 1, 9)
    nodes = np.linspace(-1, 1, 33)
    sol = _synthetic_solution(lambda t, x: x + 0 * t, times, nodes)
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=1.0)
    rep = bounds_check(sol, cert)
    assert rep.gradient_slack == pytest.approx(2.0, abs=1e-8)  # q1 = 3, sup|ux| = 1
    assert rep.modulus_slack >= -1e-12
    assert rep.max_w_tilde is not None and rep.max_w_tilde <= 1e-12


def test_bounds_check_zero_state():
    times = np.linspace(0, 1, 5)
    nodes = np.linspace(-1, 1, 9)
    sol = _synthetic_solution(lambda t, x: 0.0 * x, times, nodes)
    cert = build_barrier(PSI_ONE, q0=1.0, M=1.0, K=0.0)
    rep = bounds_check(sol, cert)
    assert rep.gradient_slack == pytest.approx(cert.q1)
    assert rep.modulus_slack >= 0.0


@pytest.mark.parametrize("scale, flat", [(0.0, True), (1e-13, True), (1e-11, False),
                                         (1.0, False)])
def test_a_roundoff_gradient_has_no_witness(scale, flat):
    # q1 = 3: the floor is 1e-12 (1 + q1) = 4e-12
    times = np.linspace(0, 1, 5)
    nodes = np.linspace(-1, 1, 17)
    sol = _synthetic_solution(lambda t, x: 0.5 + scale * np.sin(x + t), times, nodes)
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=1.0)
    rep = bounds_check(sol, cert)
    note = {"note": "sup|u_x| at roundoff level; no witness"}
    assert (rep.witnesses["gradient"] == note) is flat
    assert (rep.witnesses["modulus"] == note) is flat
    assert set(rep.witnesses) == {"gradient", "modulus", "sup", "w", "w1"}
    assert rep.gradient_slack == cert.q1 - np.abs(sol.ux).max()


def test_bounds_check_records_negative_slack_without_error():
    times = np.linspace(0, 1, 5)
    nodes = np.linspace(-1, 1, 17)
    sol = _synthetic_solution(lambda t, x: np.sin(6 * x) + 0 * t, times, nodes)
    cert = build_barrier(PSI_ONE, q0=0.5, M=1.0, K=0.0)
    # sup |ux| ~ 6 likely exceeds q1 = sqrt(0.25 + 4) ~ 2.06: a finding
    rep = bounds_check(sol, cert)
    assert rep.gradient_slack < 0
    assert "gradient" in rep.witnesses


def test_full_chain_on_manufactured_solution():
    sol = solve(manufactured_problem(), SolverConfig(nx=65))
    assert isinstance(sol.status, Completed)
    K = math.sin(1.0)  # sup |u0'| = sin(ell) for u0 = cos(x), ell = 1
    cert = build_barrier(PSI_ONE, q0=1.0, M=1.0, K=K)
    rep = bounds_check(sol, cert)
    tol = rep.tolerance
    assert rep.max_w_tilde is not None and rep.max_w_tilde <= 1e-6
    assert rep.max_w1_tilde <= 1e-6
    assert rep.gradient_slack >= -tol
    assert rep.modulus_slack >= -tol


def test_time_subsampling_keeps_the_endpoint_extremes():
    # for a time-independent state the scan is extremal at a time endpoint
    # (the damping shrinks negative values toward 0, so here the last one);
    # every subsample must retain the endpoints even for long runs
    times = np.linspace(0, 3, 300)
    nodes = np.linspace(-1, 1, 21)
    sol = _synthetic_solution(lambda t, x: 1.9 * x + 0 * t, times, nodes)
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=0.0)
    capped = doubling_check(sol, cert, max_time_slices=64)
    full = doubling_check(sol, cert, max_time_slices=10_000)
    assert capped.max_w_tilde == full.max_w_tilde
    assert capped.witness_w["t"] == 3.0


def test_slacks_do_not_degrade_under_refinement():
    K = math.sin(1.0)
    cert = build_barrier(PSI_ONE, q0=1.0, M=1.0, K=K)
    results = []
    for nx in (33, 65):
        sol = solve(manufactured_problem(), SolverConfig(nx=nx))
        rep = bounds_check(sol, cert)
        results.append(rep)
    # the comparison maximum must stay below each grid's own tolerance and
    # not grow as the grid refines
    assert results[1].max_w_tilde <= max(results[0].max_w_tilde, 0.0) + 1e-9
    assert results[1].gradient_slack >= -results[1].tolerance
    assert results[0].gradient_slack >= -results[0].tolerance


def test_randomized_families_satisfy_the_comparison_conclusions():
    """Random in-hypothesis problems: quasilinear diffusivity, bounded
    gradient forcing, flux-only dynamic boundaries, flat-ended initial hump.
    Every conclusion the certificate licenses must hold up to grid slack."""
    from dynbc.certificate import check_hypotheses, estimate_lipschitz

    rng = np.random.default_rng(20240815)
    for trial in range(5):
        c_a = float(rng.uniform(0.0, 0.3))
        c_f = float(rng.uniform(-0.9, 0.9))
        c_u = float(rng.uniform(0.05, 0.3))
        prob = ProblemSpec(
            ell=1.0, T=0.5,
            a=parse(f"1 + {c_a!r}*z^2"),
            f=parse(f"{c_f!r}*sin(p)"),
            u0=parse(f"{c_u!r}*cos(pi*x/2)^3"),
            bc_minus=DynamicBC(parse("1"), parse("0")),
            bc_plus=DynamicBC(parse("1"), parse("0")))
        psi = PSI_ONE  # |f| <= |c_f| <= 1 <= a * 1
        M = c_u + 0.6
        K = estimate_lipschitz(prob.u0, prob.ell)
        q0 = max(1.2 * K, 0.5)
        rep = check_hypotheses(prob, M=M, q0=q0, psi=psi)
        assert rep.all_satisfied, (trial, rep.violated)
        cert = build_barrier(psi, q0=q0, M=M, K=K)
        sol = solve(prob, SolverConfig(nx=65))
        assert isinstance(sol.status, Completed), trial
        assert sol.sup_u <= M, (trial, sol.sup_u, M)
        out = bounds_check(sol, cert)
        tol = out.tolerance
        assert out.max_w_tilde is not None and out.max_w_tilde <= tol, trial
        assert out.max_w1_tilde <= tol, trial
        assert out.gradient_slack >= -tol, trial
        assert out.modulus_slack >= -tol, trial


def test_blowup_inequality_closed_form():
    prob = ProblemSpec(ell=0.75, T=4.0, a=parse("1"), f=parse("(1+p^2)^1.5"),
                       u0=parse("0"),
                       bc_minus=DirichletBC(parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse("0")))
    cfg = SolverConfig(nx=101, strict_compatibility=False, gradient_cutoff=25.0,
                       dt_max=0.05)
    sol = solve(prob, cfg)
    assert isinstance(sol.status, BlowUpDetected)
    chk = blowup_inequality(sol, PSI_CUBE)
    assert chk.lhs == pytest.approx(0.5, abs=1e-9)
    assert chk.consistent
    assert chk.rhs >= 0.5


def test_blowup_inequality_divergent_budget():
    times = np.linspace(0, 1, 5)
    nodes = np.linspace(-1, 1, 9)
    sol = _synthetic_solution(lambda t, x: 0 * x, times, nodes)
    sol.status = BlowUpDetected(time=1.0, max_gradient=1e7)
    with pytest.raises(DivergentIntegral):
        blowup_inequality(sol, PSI_ONE)


def test_blowup_inequality_requires_blowup_status():
    times = np.linspace(0, 1, 5)
    nodes = np.linspace(-1, 1, 9)
    sol = _synthetic_solution(lambda t, x: 0 * x, times, nodes)
    with pytest.raises(PreconditionFailed):
        blowup_inequality(sol, PSI_CUBE)
