"""Barrier construction, hypothesis checkers, sup-bound tests.

Expected values come from closed forms (constant and rational gauges) or
independent quadrature oracles computed in the tests themselves.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from dynbc.certificate import (
    PsiSpec, build_barrier, check_compatibility, check_hypotheses,
    estimate_lipschitz, find_q1, sup_bound,
)
from dynbc.errors import ConditionViolated, PreconditionFailed
from dynbc.expr import parse
from dynbc.problem import DirichletBC, DynamicBC, ProblemSpec
from simpson import adaptive_simpson, psi_fn


PSI_ONE = PsiSpec.from_text("1")
PSI_QUAD = PsiSpec.from_text("1+p^2")
PSI_CUBE = PsiSpec.from_text("(1+p^2)^1.5")


def _problem(a="1", f="0", u0="x", b_minus="1", g_minus="-1", b_plus="1", g_plus="1",
             ell=1.0, T=1.0, f1=None, g1_minus=None, g1_plus=None,
             dirichlet_plus=None, dirichlet_minus=None):
    bc_minus = (DirichletBC(parse(dirichlet_minus)) if dirichlet_minus is not None
                else DynamicBC(parse(b_minus), parse(g_minus),
                               parse(g1_minus) if g1_minus else None))
    bc_plus = (DirichletBC(parse(dirichlet_plus)) if dirichlet_plus is not None
               else DynamicBC(parse(b_plus), parse(g_plus),
                              parse(g1_plus) if g1_plus else None))
    return ProblemSpec(ell=ell, T=T, a=parse(a), f=parse(f), u0=parse(u0),
                       bc_minus=bc_minus, bc_plus=bc_plus,
                       f1=parse(f1) if f1 else None)


# ---------------------------------------------------------------------------
# psi validation

def test_psi_must_be_at_least_one():
    with pytest.raises(PreconditionFailed):
        PsiSpec.from_text("p")
    with pytest.raises(PreconditionFailed):
        PsiSpec.from_text("0.5+p^2")


def test_psi_is_compiled_once_for_every_kernel_and_integrand(monkeypatch):
    import dynbc.certificate as certificate
    compiled = []
    compile_expr = certificate.compile_expr
    monkeypatch.setattr(certificate, "compile_expr",
                        lambda e: compiled.append(e) or compile_expr(e))
    psi = PsiSpec.from_text("1+p^2")
    rho = np.linspace(0.0, 2.0, 5)
    for fn in (psi.kernel(), psi.budget_integrand(), psi.width_integrand()):
        fn(rho)
    build_barrier(psi, 1.0, 1.0, K=1.0)
    check_hypotheses(ProblemSpec.from_dict({
        "ell": 1.0, "T": 1.0, "a": "1", "f": "0", "u0": "x",
        "bc_minus": {"kind": "dynamic", "b": "1", "g": "-1"},
        "bc_plus": {"kind": "dynamic", "b": "1", "g": "1"}}), M=1.0, q0=1.0, psi=psi)
    assert compiled.count(psi.expr) == 1
    assert np.array_equal(psi.width_integrand()(rho), 1.0 / (1.0 + rho * rho))


def test_psi_single_variable():
    with pytest.raises(PreconditionFailed):
        PsiSpec.from_text("1+z^2")


# ---------------------------------------------------------------------------
# slope budget

def test_find_q1_constant_gauge():
    # (q1^2 - q0^2)/2 = 2M  =>  q1 = 3
    assert find_q1(PSI_ONE, 1.0, 2.0) == pytest.approx(3.0, abs=1e-9)


def test_find_q1_quadratic_gauge():
    # (1/2) ln((1+q1^2)/(1+q0^2)) = 2M with M = ln(2)/4  =>  q1 = 1
    q1 = find_q1(PSI_QUAD, 1e-9, math.log(2) / 4)
    assert q1 == pytest.approx(1.0, abs=1e-6)


def test_find_q1_budget_unreachable():
    # integral of rho (1+rho^2)^(-3/2) over [0, inf) = 1 < 2M = 2
    with pytest.raises(ConditionViolated):
        find_q1(PSI_CUBE, 1e-9, 1.0)


def test_find_q1_cube_gauge_reachable():
    # 1 - (1+q1^2)^(-1/2) = 0.8  =>  q1 = sqrt(24)
    q1 = find_q1(PSI_CUBE, 1e-9, 0.4)
    assert q1 == pytest.approx(math.sqrt(24.0), abs=1e-6)
    check = adaptive_simpson(lambda r: r * (1 + r * r) ** -1.5, 1e-9, q1)
    assert abs(check - 0.8) <= 1e-9


def test_find_q1_monotone_in_M():
    vals = [find_q1(PSI_QUAD, 0.5, M) for M in (0.25, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_find_q1_gauge_doubling_increases_q1():
    psi2 = PsiSpec.from_text("2")
    assert find_q1(psi2, 1.0, 2.0) > find_q1(PSI_ONE, 1.0, 2.0)
    # closed form for psi = c: q1 = sqrt(q0^2 + 4 M c)
    assert find_q1(psi2, 1.0, 2.0) == pytest.approx(math.sqrt(1 + 16), abs=1e-9)


# ---------------------------------------------------------------------------
# barrier arc

def test_barrier_constant_gauge_closed_form():
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=1.0)
    assert cert.q1 == pytest.approx(3.0, abs=1e-9)
    assert cert.kappa0 == pytest.approx(2.0, rel=1e-8)
    assert cert.h[0] == 0.0
    assert cert.hp[0] == cert.q1
    # h(xi) = 3 xi - xi^2 / 2
    exact = 3.0 * cert.xi - cert.xi ** 2 / 2.0
    assert np.max(np.abs(cert.h - exact)) <= 1e-8
    assert cert.h[-1] == pytest.approx(4.0, rel=1e-8)
    assert cert.gradient_bound == cert.q1


def test_barrier_quadratic_gauge_quadrature_oracle():
    M = math.log(2) / 4
    cert = build_barrier(PSI_QUAD, q0=1e-9, M=M, K=0.0)
    assert cert.kappa0 == pytest.approx(math.pi / 4, abs=1e-6)
    # slope along the arc is q(xi) = tan(arctan(q1) - xi)
    take = np.linspace(0, cert.xi.size - 1, 60).astype(int)
    for i in take:
        xi = cert.xi[i]
        q_exact = math.tan(math.atan(cert.q1) - xi)
        h_exact = 0.5 * math.log((1 + cert.q1 ** 2) / (1 + q_exact ** 2))
        assert abs(cert.h[i] - h_exact) <= 1e-7
        assert abs(cert.hp[i] - q_exact) <= 1e-6


def test_barrier_requires_k_below_q0():
    with pytest.raises(PreconditionFailed):
        build_barrier(PSI_ONE, q0=1.0, M=2.0, K=1.5)


def test_barrier_accepts_estimated_k_at_equality():
    # sampled Lipschitz constant of u0 = x carries a 1e-6 safety factor;
    # q0 = K setups must still build
    K = estimate_lipschitz(parse("x"), 1.0)
    cert = build_barrier(PSI_ONE, q0=1.0, M=2.0, K=K)
    assert cert.q1 == pytest.approx(3.0, abs=1e-9)


def _random_admissible(count=20, seed=424242):
    """Generator behind the randomized-barrier consistency suite: polynomial
    gauges psi = c0 + c1 rho + c2 rho^2 with c0 in [1,3], c1, c2 in [0,2]
    (budget integral always divergent), q0 in [1e-3, 2], M in [0.1, 3],
    K a random fraction of q0."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        c0 = rng.uniform(1.0, 3.0)
        c1 = rng.uniform(0.0, 2.0)
        c2 = rng.uniform(0.0, 2.0)
        psi = PsiSpec.from_text(f"{c0!r} + {c1!r}*abs(p) + {c2!r}*p^2")
        q0 = rng.uniform(1e-3, 2.0)
        M = rng.uniform(0.1, 3.0)
        K = q0 * rng.uniform(0.0, 1.0)
        cases.append((psi, q0, M, K))
    return cases


def test_barrier_consistency_triple_randomized():
    for psi, q0, M, K in _random_admissible():
        cert = build_barrier(psi, q0=q0, M=M, K=K)
        assert cert.h[0] == 0.0
        assert abs(cert.h[-1] - 2 * M) <= 1e-8 * 2 * M
        assert abs(cert.hp[0] - cert.q1) <= 1e-8 * cert.q1
        assert np.all(np.diff(cert.hp) <= 1e-15)  # h' decreasing
        assert cert.hp[-1] == pytest.approx(q0, rel=1e-9)
        # stopping abscissa equals the independent width quadrature
        fn = psi_fn(psi)
        kappa_quad = adaptive_simpson(lambda r: 1.0 / fn(r), q0, cert.q1)
        assert cert.kappa0 == pytest.approx(kappa_quad, rel=1e-8)
        # barrier dominates the K-cone
        assert np.all(cert.h >= K * cert.xi - 1e-12)


def test_barrier_constant_gauge_family_closed_form():
    for c, q0, M in [(2.0, 1.0, 2.0), (3.0, 0.5, 1.0)]:
        psi = PsiSpec.from_text(repr(c))
        cert = build_barrier(psi, q0=q0, M=M, K=0.0)
        q1 = math.sqrt(q0 * q0 + 4 * M * c)
        assert cert.q1 == pytest.approx(q1, rel=1e-10)
        assert cert.kappa0 == pytest.approx((q1 - q0) / c, rel=1e-10)


# ---------------------------------------------------------------------------
# compatibility residuals

def test_compatibility_steady_state():
    res = check_compatibility(_problem())
    assert res["residual_plus"] == pytest.approx(0.0, abs=1e-14)
    assert res["residual_minus"] == pytest.approx(0.0, abs=1e-14)


def test_compatibility_zero_data():
    res = check_compatibility(_problem(u0="0", g_minus="0", g_plus="0"))
    assert res["residual_plus"] == 0.0
    assert res["residual_minus"] == 0.0


def test_compatibility_quadratic_violation():
    res = check_compatibility(_problem(u0="x^2", g_minus="0", g_plus="0"))
    assert res["residual_plus"] == pytest.approx(4.0, abs=1e-12)
    assert res["residual_minus"] == pytest.approx(4.0, abs=1e-12)


def test_compatibility_dirichlet_trace():
    res = check_compatibility(_problem(u0="x", dirichlet_plus="1"))
    assert res["residual_plus"] == pytest.approx(0.0, abs=1e-14)
    res2 = check_compatibility(_problem(u0="x", dirichlet_plus="0"))
    assert res2["residual_plus"] == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# hypothesis checks

def test_condition_6_satisfied_sine():
    rep = check_hypotheses(_problem(f="sin(z)*p", g_minus="0", g_plus="0", u0="0"),
                           M=1.0, q0=1.0, psi=PSI_QUAD)
    e = rep.entry("(6)")
    assert e.satisfied and e.worst_violation < 0


def test_condition_6_violated():
    rep = check_hypotheses(_problem(f="3*p^2", g_minus="0", g_plus="0", u0="0"),
                           M=1.0, q0=1.0, psi=PSI_QUAD, pmax=10.0)
    e = rep.entry("(6)")
    assert not e.satisfied
    # margin max at |p| = pmax: 3 p^2 - (1+p^2) = 2 p^2 - 1
    assert e.worst_violation == pytest.approx(2 * 100 - 1, rel=1e-12)
    assert abs(e.witness["p"]) == pytest.approx(10.0)


def test_condition_9bneu_satisfied_zero_g():
    rep = check_hypotheses(_problem(g_minus="0", g_plus="0", u0="0"),
                           M=1.0, q0=0.5, psi=PSI_ONE)
    assert rep.entry("(9bNEU)").satisfied


def test_condition_9bneu_violated_constant_g():
    rep = check_hypotheses(_problem(g_minus="2", g_plus="2", u0="0"),
                           M=1.0, q0=1.0, psi=PSI_ONE, pmax=8.0)
    e = rep.entry("(9bNEU)")
    assert not e.satisfied
    assert e.worst_violation == pytest.approx(1.0, rel=1e-12)  # 2 - q0 * 1
    assert e.witness["p"] == pytest.approx(1.0)


def test_condition_10_lipschitz():
    rep = check_hypotheses(_problem(u0="sin(x)", g_minus="0", g_plus="0"),
                           M=1.0, q0=2.0, psi=PSI_ONE)
    assert rep.entry("(10)").satisfied
    rep2 = check_hypotheses(_problem(u0="sin(x)", g_minus="0", g_plus="0"),
                            M=1.0, q0=0.5, psi=PSI_ONE)
    e = rep2.entry("(10)")
    assert not e.satisfied
    assert e.witness["K_estimate"] == pytest.approx(1.0, rel=1e-4)


def test_condition_upc_violations():
    # diffusivity loses positivity inside the z-box
    rep = check_hypotheses(_problem(a="1-z", g_minus="0", g_plus="0", u0="0"),
                           M=2.0, q0=1.0, psi=PSI_ONE, pmax=2.0)
    e = rep.entry("(upc)")
    assert not e.satisfied
    assert e.worst_violation == pytest.approx(1.0, rel=1e-12)
    assert e.witness["part"] == "a"
    # gradient-dependent boundary flux turns degenerate at p = 1
    rep2 = check_hypotheses(_problem(b_plus="1-0.5*p", g_plus="0", g_minus="0", u0="0"),
                            M=1.0, q0=0.5, psi=PSI_ONE, pmax=3.0)
    e2 = rep2.entry("(upc)")
    assert not e2.satisfied
    assert "boundary" in e2.witness["part"]


def test_check_hypotheses_emits_no_runtime_warning():
    # exp(p^2) overflows for |p| > ~26.6 inside the p-box [-30, 30]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_hypotheses(_problem(f="exp(p^2)", g_minus="0", g_plus="0", u0="0"),
                               M=1.0, q0=1.0, psi=PSI_QUAD, pmax=30.0)
    e = rep.entry("(6)")
    assert not e.satisfied
    assert e.worst_violation == math.inf


def test_condition_66_entry():
    rep = check_hypotheses(_problem(), M=2.0, q0=1.0, psi=PSI_ONE)
    assert rep.entry("(66)").satisfied
    rep2 = check_hypotheses(_problem(u0="x^2", g_minus="0", g_plus="0"),
                            M=2.0, q0=2.1, psi=PSI_ONE)
    assert not rep2.entry("(66)").satisfied


def test_conditions_225_227_satisfied_by_matching_absorption():
    prob = _problem(f="sin(p)", f1="-2*z^3", g_minus="0", g_plus="0",
                    g1_minus="-2*z^3", g1_plus="-2*z^3", u0="0.3")
    rep = check_hypotheses(prob, M=0.85, q0=0.5, psi=PSI_ONE)
    for name in ("(225)", "(226)", "(227)"):
        assert rep.entry(name).satisfied, name


def test_condition_225_violated_by_increasing_f1():
    prob = _problem(f="0", f1="z", g_minus="0", g_plus="0",
                    g1_minus="z", g1_plus="z", u0="0")
    rep = check_hypotheses(prob, M=1.0, q0=0.5, psi=PSI_ONE)
    e = rep.entry("(225)")
    assert not e.satisfied
    # worst pair: z2 = M, z1 = -M  =>  violation 2M
    assert e.worst_violation == pytest.approx(2.0, rel=1e-12)
    assert e.witness["z1"] == pytest.approx(-1.0)
    assert e.witness["z2"] == pytest.approx(1.0)


def test_condition_226_violated_by_large_boundary_addition():
    prob = _problem(f="0", f1="0", g_minus="0", g_plus="0",
                    g1_plus="1", u0="0")
    rep = check_hypotheses(prob, M=1.0, q0=0.5, psi=PSI_ONE)
    e = rep.entry("(226)")
    assert not e.satisfied
    assert e.worst_violation == pytest.approx(1.0, rel=1e-12)


def test_condition_227_violated_by_negative_boundary_addition():
    prob = _problem(f="0", f1="0", g_minus="0", g_plus="0",
                    g1_plus="-1", u0="0")
    rep = check_hypotheses(prob, M=1.0, q0=0.5, psi=PSI_ONE)
    e = rep.entry("(227)")
    assert not e.satisfied
    assert e.worst_violation == pytest.approx(1.0, rel=1e-12)


def test_condition_209b_and_phi():
    prob = _problem(f="-z^3", g_minus="-z^3", g_plus="-z^3", u0="0.4")
    rep = check_hypotheses(prob, M=0.41, q0=0.5, psi=PSI_ONE,
                           phi=parse("1"), B=1.0)
    assert rep.entry("(209b)").satisfied
    assert rep.entry("(phi)").satisfied

    bad = _problem(f="z^3", g_minus="0", g_plus="0", u0="0")
    rep2 = check_hypotheses(bad, M=1.0, q0=0.5, psi=PSI_ONE,
                            phi=parse("1"), B=1.0, zmax=10.0)
    e = rep2.entry("(209b)")
    assert not e.satisfied
    assert e.worst_violation == pytest.approx(10.0 ** 4 - 11.0, rel=1e-9)
    assert e.witness["part"] == "f"

    rep3 = check_hypotheses(bad, M=1.0, q0=0.5, psi=PSI_ONE,
                            phi=parse("(1+z)^2"), B=1.0)
    assert not rep3.entry("(phi)").satisfied  # 1/Phi integrable


def test_condition_266():
    rep = check_hypotheses(_problem(g_minus="0", g_plus="0", u0="0"),
                           M=1.0, q0=0.5, psi=PSI_QUAD)
    assert rep.entry("(266)").satisfied
    rep2 = check_hypotheses(_problem(g_minus="0", g_plus="0", u0="0"),
                            M=0.4, q0=1e-3, psi=PSI_CUBE)
    assert not rep2.entry("(266)").satisfied


def test_condition_9_detects_short_budget():
    rep = check_hypotheses(_problem(g_minus="0", g_plus="0", u0="0"),
                           M=1.0, q0=1e-3, psi=PSI_CUBE)
    e = rep.entry("(9)")
    assert not e.satisfied
    assert e.witness["classified"] == "convergent"


def test_mixed_dirichlet_skips_boundary_conditions_at_that_end():
    prob = _problem(g_minus="0", u0="0", dirichlet_plus="0")
    rep = check_hypotheses(prob, M=1.0, q0=0.5, psi=PSI_ONE)
    assert rep.entry("(9bNEU)").satisfied  # only the dynamic end is sampled
    assert rep.entry("(upc)").satisfied


def _brute_force_split_margins(problem, M, q0, pmax, n):
    """Direct enumeration oracle for the ordered-tuple conditions; only
    workable at small n, used to validate the running-extremum reductions."""
    from dynbc.expr import compile_expr
    ell, T = problem.ell, problem.T
    ts = np.linspace(0, T, n)
    xs = np.linspace(-ell, ell, n)
    zs = np.linspace(-M, M, n)
    pos = np.linspace(q0, pmax, n)
    pn = np.linspace(0.0, pmax, n)
    f1 = compile_expr(problem.f1)
    g1p = compile_expr(problem.bc_plus.g1) if problem.bc_plus.g1 is not None else None
    g1m = compile_expr(problem.bc_minus.g1) if problem.bc_minus.g1 is not None else None

    w225 = -np.inf
    for t in ts:
        for s in (1.0, -1.0):
            for p in pn:
                for xi, x in enumerate(xs):
                    for y in xs[xi:]:
                        for zi, z1 in enumerate(zs):
                            for z2 in zs[zi:]:
                                w225 = max(w225, float(f1(t=t, x=x, z=z2, p=s * p))
                                           - float(f1(t=t, x=y, z=z1, p=s * p)))
    w226 = -np.inf
    w227 = -np.inf
    for t in ts:
        for s in (1.0, -1.0):
            for zi, z1 in enumerate(zs):
                for z2 in zs[zi:]:
                    for mi, p1 in enumerate(pos):
                        for p2 in pos[mi:]:
                            # (226): f1(x, z1, s p1) >= g1(+ell, z2, s p2)
                            fmin = min(float(f1(t=t, x=x, z=z1, p=s * p1)) for x in xs)
                            w226 = max(w226, float(g1p(t=t, x=ell, z=z2, p=s * p2)) - fmin)
                            # (227): g1 at the ends dominates f1, reversed slopes
                            fmax_m = max(float(f1(t=t, x=x, z=z2, p=-p1)) for x in xs)
                            w227 = max(w227, fmax_m - float(g1p(t=t, x=ell, z=z1, p=-p2)))
                            fmax_p = max(float(f1(t=t, x=x, z=z2, p=p1)) for x in xs)
                            w227 = max(w227, fmax_p - float(g1m(t=t, x=-ell, z=z1, p=p2)))
    return w225, w226, w227


def test_split_conditions_match_brute_force_enumeration():
    # asymmetric f1/g1 so every ordering matters; n = 5 keeps the oracle fast
    prob = _problem(f="0", f1="x - z^3 + 0.1*sin(p)", g_minus="0", g_plus="0",
                    g1_minus="-1 - z^3", g1_plus="-2 - z^3 + 0.05*p", u0="0")
    n = 5
    pmax = 3.0
    rep = check_hypotheses(prob, M=1.0, q0=0.5, psi=PSI_ONE, pmax=pmax, n_samples=n)
    w225, w226, w227 = _brute_force_split_margins(prob, M=1.0, q0=0.5, pmax=pmax, n=n)
    # note: the reduction orders (226)/(227) with p2 as the larger/smaller
    # slope exactly as the brute force does
    assert rep.entry("(225)").worst_violation == pytest.approx(w225, rel=1e-12, abs=1e-12)
    assert rep.entry("(226)").worst_violation == pytest.approx(w226, rel=1e-12, abs=1e-12)
    assert rep.entry("(227)").worst_violation == pytest.approx(w227, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# sup bound

def test_sup_bound_constant_gauge():
    cert = sup_bound(parse("1"), B=1.0, u0_sup=0.5, T=1.0)
    assert cert.M_paper == pytest.approx(0.5, abs=1e-6)
    # proof variant: min over lambda of max(1/(lambda-1), 0.5) + lambda = 3 at lambda = 2
    assert cert.M_proof == pytest.approx(3.0, abs=1e-6)
    assert cert.lambda_star == pytest.approx(2.0, abs=1e-3)
    assert cert.M_paper <= cert.M_proof


def test_sup_bound_vanishing_offset():
    cert = sup_bound(parse("1"), B=1e-12, u0_sup=0.7, T=1.0)
    assert cert.M_paper == pytest.approx(0.7, abs=1e-9)


def test_sup_bound_linear_gauge_brute_force():
    # Phi(r) = 1 + r: G(y) = ln(1+y), so phi(xi) = xi - 1 and
    # M_paper(lambda) = max(0, B/(lambda-1), u0_sup)
    cert = sup_bound(parse("1+z"), B=1.0, u0_sup=1.0, T=1.0)
    lam_grid = 1.0 + np.geomspace(1e-6, 1e6, 4001)
    ys = np.linspace(0.0, 80.0, 200_001)
    G_grid = np.concatenate([[0.0], np.cumsum((1.0 / (1.0 + ys[1:])
                                               + 1.0 / (1.0 + ys[:-1])) / 2 * np.diff(ys))])

    def G_inv_bf(c):
        return float(np.interp(c, G_grid, ys))

    Gu0 = float(np.interp(1.0, ys, G_grid))
    best = min(G_inv_bf(max(0.0, float(np.interp(1.0 / (l - 1.0), ys, G_grid)), Gu0))
               for l in lam_grid)
    assert cert.M_paper == pytest.approx(best, abs=1e-4)
    assert cert.M_paper == pytest.approx(1.0, abs=1e-6)


def test_sup_bound_stability_under_grid_refinement():
    cert = sup_bound(parse("1"), B=2.0, u0_sup=0.3, T=0.5)
    # a 100x denser manual lambda scan cannot improve the infimum materially
    lam_grid = 1.0 + np.geomspace(1e-8, 1e8, 2001)
    manual = min(max(0.0, 2.0 / (l - 1.0), 0.3) for l in lam_grid)
    assert cert.M_paper <= manual + 1e-6


def test_sup_bound_rejects_integrable_gauge():
    with pytest.raises(ConditionViolated):
        sup_bound(parse("(1+z)^2"), B=1.0, u0_sup=0.5, T=1.0)
