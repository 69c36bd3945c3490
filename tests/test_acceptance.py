"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values come from closed forms or independent quadrature;
tolerances are pinned here, not tuned elsewhere.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dynbc.certificate import (
    PsiSpec, build_barrier, check_hypotheses, estimate_lipschitz, find_q1,
    sup_bound,
)
from dynbc.errors import ConditionViolated
from dynbc.expr import parse
from dynbc.holder import GridFunction, holder_seminorm, interpolation_diagnostic, sup_norm
from dynbc.problem import DirichletBC, DynamicBC, ProblemSpec
from dynbc.solver import BlowUpDetected, Completed, SolverConfig, solve
from dynbc.verify import blowup_inequality, bounds_check
from simpson import adaptive_simpson

from test_certificate import _random_admissible
from test_holder import _random_grids


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS  ({detail})")


def test_criterion_01_barrier_closed_forms():
    cert = build_barrier(PsiSpec.from_text("1"), q0=1.0, M=2.0, K=1.0)
    assert cert.q1 == pytest.approx(3.0, abs=1e-9)
    assert cert.kappa0 == pytest.approx(2.0, rel=1e-8)
    err = float(np.max(np.abs(cert.h - (3.0 * cert.xi - cert.xi ** 2 / 2.0))))
    assert err <= 1e-8

    cert2 = build_barrier(PsiSpec.from_text("1+p^2"), q0=1e-9, M=math.log(2) / 4, K=0.0)
    assert cert2.q1 == pytest.approx(1.0, abs=1e-6)
    assert cert2.kappa0 == pytest.approx(math.pi / 4, abs=1e-6)
    _report("1 barrier closed forms",
            f"q1={cert.q1:.12g}, kappa0={cert.kappa0:.12g}, max|h-exact|={err:.2e}; "
            f"quadratic gauge q1={cert2.q1:.9g}, kappa0={cert2.kappa0:.9g}")


def test_criterion_02_budget_failure_detection():
    psi = PsiSpec.from_text("(1+p^2)^1.5")
    with pytest.raises(ConditionViolated):
        find_q1(psi, 1e-9, 1.0)
    q1 = find_q1(psi, 1e-9, 0.4)
    integral = adaptive_simpson(lambda r: r * (1 + r * r) ** -1.5, 1e-9, q1)
    assert abs(integral - 0.8) <= 1e-9
    assert q1 == pytest.approx(math.sqrt(24.0), abs=1e-6)
    _report("2 budget failure detection",
            f"M=1 raises ConditionViolated; M=0.4 gives q1={q1:.9g} with budget {integral:.12g}")


def test_criterion_03_barrier_consistency_randomized():
    worst_h = worst_hp = 0.0
    for psi, q0, M, K in _random_admissible(20):
        cert = build_barrier(psi, q0=q0, M=M, K=K)
        assert cert.h[0] == 0.0
        rel_h = abs(cert.h[-1] - 2 * M) / (2 * M)
        rel_hp = abs(cert.hp[0] - cert.q1) / cert.q1
        assert rel_h <= 1e-8
        assert rel_hp <= 1e-8
        assert np.all(np.diff(cert.hp) <= 1e-15)
        worst_h = max(worst_h, rel_h)
        worst_hp = max(worst_hp, rel_hp)
    _report("3 barrier consistency triple",
            f"20 randomized gauges; worst |h(k0)-2M|rel={worst_h:.2e}, "
            f"worst |h'(0)-q1|rel={worst_hp:.2e}")


def _manufactured(ell: float) -> ProblemSpec:
    return ProblemSpec(ell=ell, T=1.0, a=parse("1"), f=parse("0"), u0=parse("cos(x)"),
                       bc_minus=DynamicBC(parse("1"), parse("-exp(-t)*(cos(x)-sin(x))")),
                       bc_plus=DynamicBC(parse("1"), parse("-exp(-t)*(cos(x)+sin(x))")))


def test_criterion_04_solver_mms_order():
    errs = []
    for nx in (33, 65, 129):
        sol = solve(_manufactured(1.0), SolverConfig(nx=nx))
        assert isinstance(sol.status, Completed)
        tt, xx = np.meshgrid(sol.grid.times, sol.grid.nodes, indexing="ij")
        errs.append(float(np.max(np.abs(sol.grid.values - np.exp(-tt) * np.cos(xx)))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9
    assert errs[-1] <= 5e-5
    _report("4 solver MMS", f"errors={[f'{e:.3e}' for e in errs]}, orders={[f'{o:.2f}' for o in orders]}")


def test_criterion_05_steady_exactness():
    prob = ProblemSpec(ell=1.0, T=1.0, a=parse("1"), f=parse("0"), u0=parse("x"),
                       bc_minus=DynamicBC(parse("1"), parse("-1")),
                       bc_plus=DynamicBC(parse("1"), parse("1")))
    sol = solve(prob, SolverConfig(nx=33))
    assert isinstance(sol.status, Completed)
    dev = float(np.max(np.abs(sol.grid.values - sol.grid.nodes[None, :])))
    assert dev <= 1e-10
    _report("5 steady-state exactness", f"max deviation {dev:.2e} over T=1")


def _burgers(ell: float, amp: float) -> ProblemSpec:
    freq = math.pi / (2 * ell)
    u0 = parse(f"{amp!r}*cos({freq!r}*x)^3")
    return ProblemSpec(ell=ell, T=1.0, a=parse("1"), f=parse("-z*p"), u0=u0,
                       bc_minus=DynamicBC(parse("1"), parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse("0")))


def test_criterion_06_comparison_chain_both_regimes():
    cases = [
        ("manufactured", _manufactured(1.0), PsiSpec.from_text("1"), 1.4, 1.0, "narrow"),
        ("manufactured", _manufactured(0.5), PsiSpec.from_text("1"), 1.4, 1.0, "wide"),
        ("burgers", _burgers(1.0, 0.5), PsiSpec.from_text("1+p^2"), 1.0, 1.0, "narrow"),
        ("burgers", _burgers(0.3, 0.1), PsiSpec.from_text("1+p^2"), 1.0, 1.0, "wide"),
    ]
    lines = []
    for name, prob, psi, q0, M, regime in cases:
        rep = check_hypotheses(prob, M=M, q0=q0, psi=psi)
        assert rep.all_satisfied, (name, regime, rep.violated)
        K = estimate_lipschitz(prob.u0, prob.ell)
        cert = build_barrier(psi, q0=q0, M=M, K=K)
        if regime == "narrow":
            assert cert.kappa0 < 2 * prob.ell
        else:
            assert cert.kappa0 >= 2 * prob.ell
        sol = solve(prob, SolverConfig(nx=65))
        assert isinstance(sol.status, Completed)
        out = bounds_check(sol, cert)
        tol = out.tolerance  # 5 (dx + dt) (1 + q1)
        assert out.max_w_tilde is not None and out.max_w_tilde <= tol
        assert out.max_w1_tilde <= tol
        assert out.gradient_slack >= -tol
        assert out.modulus_slack >= -tol
        lines.append(f"{name}/{regime}: w~max={out.max_w_tilde:.2e}, "
                     f"grad_slack={out.gradient_slack:.3g}, mod_slack={out.modulus_slack:.3g}")
    _report("6 comparison chain", "; ".join(lines))


def test_criterion_07_blowup_phenomenology():
    prob = ProblemSpec(ell=0.75, T=4.0, a=parse("1"), f=parse("(1+p^2)^1.5"),
                       u0=parse("0"),
                       bc_minus=DirichletBC(parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse("0")))
    cfg = SolverConfig(nx=101, strict_compatibility=False, gradient_cutoff=25.0,
                       dt_max=0.05)
    sol = solve(prob, cfg)
    assert isinstance(sol.status, BlowUpDetected)
    assert math.isfinite(sol.sup_u)
    assert sol.status.max_gradient >= cfg.gradient_cutoff
    chk = blowup_inequality(sol, PsiSpec.from_text("(1+p^2)^1.5"))
    assert chk.lhs == pytest.approx(0.5, abs=1e-9)
    assert chk.consistent

    # identical data under a divergent-budget gauge runs to completion
    twin = ProblemSpec(ell=0.75, T=4.0, a=parse("1"), f=parse("1+abs(p)"),
                       u0=parse("0"),
                       bc_minus=DirichletBC(parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse("0")))
    tsol = solve(twin, cfg)
    assert isinstance(tsol.status, Completed)
    assert tsol.sup_ux < cfg.gradient_cutoff
    _report("7 blow-up phenomenology",
            f"detected at t={sol.status.time:.4g} with sup|u|={sol.sup_u:.4g}, "
            f"lhs={chk.lhs:.10g} <= {chk.rhs:.4g}; divergent twin completed "
            f"with sup|u_x|={tsol.sup_ux:.3g}")


def test_criterion_08_sup_bound_and_damped_run():
    cert = sup_bound(parse("1"), B=1.0, u0_sup=0.5, T=1.0)
    assert cert.M_paper == pytest.approx(0.5, abs=1e-6)

    prob = ProblemSpec(ell=1.0, T=1.0, a=parse("1"), f=parse("-z^3"), u0=parse("0.4"),
                       bc_minus=DynamicBC(parse("1"), parse("-z^3")),
                       bc_plus=DynamicBC(parse("1"), parse("-z^3")))
    supc = sup_bound(parse("1"), B=1.0, u0_sup=0.4, T=1.0)
    sol = solve(prob, SolverConfig(nx=33))
    assert isinstance(sol.status, Completed)
    tol_grid = 5.0 * (sol.dx + sol.dt_max_accepted)
    assert sol.sup_u <= supc.M_proof + tol_grid
    _report("8 sup bound",
            f"M_paper={cert.M_paper:.9g}; damped run sup|u|={sol.sup_u:.6g} "
            f"<= M_proof={supc.M_proof:.6g}")


def test_criterion_09_holder_property_suites():
    grids = _random_grids(100)
    for u in grids:
        for lam in (2.0, -4.0, 0.5):
            assert sup_norm(u.scaled(lam)) == abs(lam) * sup_norm(u)
            assert holder_seminorm(u.scaled(lam), 0.5, "x") == abs(lam) * holder_seminorm(u, 0.5, "x")
    rng = np.random.default_rng(2)
    for u in grids:
        v = GridFunction(u.times, u.nodes, rng.standard_normal(u.values.shape))
        s = GridFunction(u.times, u.nodes, u.values + v.values)
        assert holder_seminorm(s, 0.5, "x") <= (holder_seminorm(u, 0.5, "x")
                                                + holder_seminorm(v, 0.5, "x")) * (1 + 1e-12) + 1e-12
        assert sup_norm(s) <= sup_norm(u) + sup_norm(v) + 1e-12

    base = GridFunction.from_callable(lambda t, x: np.exp(-t) * np.cos(x),
                                      np.linspace(0, 1, 33), np.linspace(-1, 1, 33))
    r1 = interpolation_diagnostic(base, 0.5)
    r5 = interpolation_diagnostic(base.scaled(5.0), 0.5)
    worst = max(abs(b - a) / abs(a) for a, b in zip(r1, r5))
    assert worst <= 1e-12
    _report("9 Hölder properties",
            f"homogeneity+triangle on 100 grids; interpolation scale drift {worst:.2e}")


def test_criterion_10_checker_fixtures():
    psi_one = PsiSpec.from_text("1")
    psi_quad = PsiSpec.from_text("1+p^2")

    def prob(**kw):
        base = dict(a="1", f="0", u0="0", b_minus="1", g_minus="0",
                    b_plus="1", g_plus="0", f1=None, g1_minus=None, g1_plus=None)
        base.update(kw)
        return ProblemSpec(
            ell=1.0, T=1.0, a=parse(base["a"]), f=parse(base["f"]), u0=parse(base["u0"]),
            bc_minus=DynamicBC(parse(base["b_minus"]), parse(base["g_minus"]),
                               parse(base["g1_minus"]) if base["g1_minus"] else None),
            bc_plus=DynamicBC(parse(base["b_plus"]), parse(base["g_plus"]),
                              parse(base["g1_plus"]) if base["g1_plus"] else None),
            f1=parse(base["f1"]) if base["f1"] else None)

    checked = []

    # (6): growth domination
    bad = check_hypotheses(prob(f="3*p^2"), M=1.0, q0=1.0, psi=psi_quad, pmax=10.0)
    assert not bad.entry("(6)").satisfied
    assert abs(bad.entry("(6)").witness["p"]) == pytest.approx(10.0)
    good = check_hypotheses(prob(f="sin(z)*p"), M=1.0, q0=1.0, psi=psi_quad)
    assert good.entry("(6)").satisfied
    checked.append("(6)")

    # (9bNEU): boundary domination, violated at p = q0 by constant source 2
    bad = check_hypotheses(prob(g_plus="2", g_minus="2"), M=1.0, q0=1.0,
                           psi=psi_one, pmax=8.0)
    e = bad.entry("(9bNEU)")
    assert not e.satisfied and e.worst_violation == pytest.approx(1.0, rel=1e-12)
    assert e.witness["p"] == pytest.approx(1.0)
    good = check_hypotheses(prob(), M=1.0, q0=1.0, psi=psi_one)
    assert good.entry("(9bNEU)").satisfied
    checked.append("(9bNEU)")

    # (upc): both the interior and boundary flavors
    bad = check_hypotheses(prob(a="1-z"), M=2.0, q0=1.0, psi=psi_one, pmax=2.0)
    assert not bad.entry("(upc)").satisfied
    assert bad.entry("(upc)").witness["part"] == "a"
    assert bad.entry("(upc)").witness["z"] == pytest.approx(2.0)
    bad2 = check_hypotheses(prob(b_plus="1-0.5*p"), M=1.0, q0=0.5, psi=psi_one, pmax=3.0)
    assert not bad2.entry("(upc)").satisfied
    good = check_hypotheses(prob(), M=1.0, q0=1.0, psi=psi_one)
    assert good.entry("(upc)").satisfied
    checked.append("(upc)")

    # (66): zero-time balance
    bad = check_hypotheses(prob(u0="x^2"), M=2.0, q0=2.1, psi=psi_one)
    assert not bad.entry("(66)").satisfied
    assert bad.entry("(66)").witness["residual_plus"] == pytest.approx(4.0, abs=1e-10)
    good = check_hypotheses(prob(), M=1.0, q0=1.0, psi=psi_one)
    assert good.entry("(66)").satisfied
    checked.append("(66)")

    # (225)-(227): split right-hand side monotonicity
    bad = check_hypotheses(prob(f1="z", g1_minus="z", g1_plus="z"),
                           M=1.0, q0=0.5, psi=psi_one)
    assert not bad.entry("(225)").satisfied
    assert bad.entry("(225)").witness["z2"] == pytest.approx(1.0)
    bad226 = check_hypotheses(prob(f1="0", g1_plus="1", g1_minus="0"),
                              M=1.0, q0=0.5, psi=psi_one)
    assert not bad226.entry("(226)").satisfied
    bad227 = check_hypotheses(prob(f1="0", g1_plus="-1", g1_minus="0"),
                              M=1.0, q0=0.5, psi=psi_one)
    assert not bad227.entry("(227)").satisfied
    good = check_hypotheses(prob(f="sin(p)", f1="-2*z^3", g1_minus="-2*z^3",
                                 g1_plus="-2*z^3", u0="0.3"),
                            M=0.85, q0=0.5, psi=psi_one)
    for name in ("(225)", "(226)", "(227)"):
        assert good.entry(name).satisfied
    checked.append("(225)-(227)")

    # (209b): zero-gradient growth gauge
    bad = check_hypotheses(prob(f="z^3"), M=1.0, q0=0.5, psi=psi_one,
                           phi=parse("1"), B=1.0, zmax=10.0)
    e = bad.entry("(209b)")
    assert not e.satisfied and e.witness["part"] == "f"
    assert abs(e.witness["z"]) == pytest.approx(10.0)
    good = check_hypotheses(prob(f="-z^3", g_minus="-z^3", g_plus="-z^3", u0="0.4"),
                            M=0.41, q0=0.5, psi=psi_one, phi=parse("1"), B=1.0)
    assert good.entry("(209b)").satisfied
    checked.append("(209b)")

    _report("10 checker fixtures", "violations flagged with witnesses for " + ", ".join(checked))
