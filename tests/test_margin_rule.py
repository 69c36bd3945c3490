"""The margin rule of the sampled conditions.

Each sampled condition, (6), (9bNEU), (upc), (209b) and (225)-(227),
reports its first largest margin in sampling order, a NaN margin counting as
larger than any number.  The NaN cases below were reported satisfied while
each condition reduced its own samples; the property test holds every report
byte for byte to a frozen copy of that code on NaN-free problems, where the
two agree.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynbc.certificate as certificate
from dynbc.certificate import (
    K_SLACK, ConditionCheck, ConditionReport, PsiSpec, _divergence_entry, _inverse_gauge,
    _lipschitz_witness, find_q1, tail_integral,
)
from dynbc.cli import json_dumps, main
from dynbc.errors import ConditionViolated, PreconditionFailed
from dynbc.expr import Expr, compile_expr, diff, evaluate, parse
from dynbc.problem import DirichletBC, DynamicBC, ProblemSpec
from dynbc.solver import _validate_upc

PSI_QUAD = PsiSpec.from_text("1+p^2")


def _problem(f1=None, g_plus="0", b_minus="1") -> ProblemSpec:
    """u0 = 0.1 on [-1, 1] with b = 1 and g = 0 at both ends unless changed."""
    return ProblemSpec(ell=1.0, T=1.0, a=parse("1"), f=parse("0"), u0=parse("0.1"),
                       bc_minus=DynamicBC(parse(b_minus), parse("0")),
                       bc_plus=DynamicBC(parse("1"), parse(g_plus)),
                       f1=parse(f1) if f1 is not None else None)


def _check(problem, **kw):
    return certificate.check_hypotheses(problem, M=1.0, q0=1.0, psi=PSI_QUAD, **kw)


# ---------------------------------------------------------------------------
# a NaN margin violates its condition, witnessed by the first NaN sample

def test_a_nan_boundary_source_violates_9bneu():
    e = _check(_problem(g_plus="sqrt(z)")).entry("(9bNEU)")
    assert not e.satisfied and math.isnan(e.worst_violation)
    # sqrt(z) is NaN first at the first sample, z = -M, of the +ell end
    assert e.witness == {"end": "+ell", "sign": 1.0, "t": 0.0, "z": -1.0, "p": 1.0}


def test_a_nan_boundary_coefficient_violates_upc_as_the_solver_gate_does():
    problem = _problem(b_minus="1+sqrt(z)")
    e = _check(problem).entry("(upc)")
    assert not e.satisfied and math.isnan(e.worst_violation)
    assert e.witness["part"] == "boundary at -ell"
    with pytest.raises(PreconditionFailed, match="boundary at -ell"), np.errstate(invalid="ignore"):
        _validate_upc(problem)


def test_a_nan_boundary_source_violates_209b():
    e = _check(_problem(g_plus="sqrt(z)"), phi=parse("1"), B=1.0).entry("(209b)")
    assert not e.satisfied and math.isnan(e.worst_violation)
    assert e.witness["part"] == "g at +ell"


@pytest.mark.parametrize("name", ["(225)", "(226)", "(227)"])
def test_a_nan_split_source_violates_the_orderings(name):
    e = _check(_problem(f1="sqrt(z)")).entry(name)
    assert not e.satisfied and math.isnan(e.worst_violation)
    assert e.witness and e.witness["t"] == 0.0 and e.witness["z1"] == -1.0


def test_certify_refuses_what_solve_refuses(tmp_path, capsys):
    doc = {"ell": 1.0, "T": 1.0, "a": "1", "f": "0", "u0": "0.1",
           "bc_minus": {"kind": "dynamic", "b": "1+sqrt(z)", "g": "0"},
           "bc_plus": {"kind": "dynamic", "b": "1", "g": "0"},
           "certificate": {"psi": "1+p^2", "q0": 1.0, "M": 1.0},
           "solver": {"nx": 17}}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["certify", "--spec", str(spec), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "condition (9bNEU) violated" in err and "condition (upc) violated" in err
    assert main(["solve", "--spec", str(spec), "--out", str(tmp_path / "s")]) == 1
    assert "parabolicity fails for boundary at -ell" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# byte identity with the frozen copy on NaN-free problems

# few-valued terms, so that margins tie often
TERMS = ("0", "1", "-1", "2", "sign(z)", "abs(p)", "-2*z^3", "x")


def _source():
    return st.lists(st.sampled_from(TERMS), min_size=1, max_size=2).map(
        lambda terms: " + ".join(f"({t})" for t in terms))


def _end():
    dynamic = st.builds(lambda b, g, g1: DynamicBC(parse(b), parse(g), g1),
                        st.sampled_from(["1", "2", "1+z^2", "1+abs(p)"]), _source(),
                        st.none() | _source().map(parse))
    dirichlet = st.sampled_from(["0", "1", "t"]).map(lambda v: DirichletBC(parse(v)))
    return dynamic | dirichlet


@st.composite
def cases(draw):
    """A NaN-free problem from the presets' templates and the check's inputs."""
    f1 = draw(st.none() | _source())
    problem = ProblemSpec(
        ell=draw(st.sampled_from([0.5, 1.0])), T=draw(st.sampled_from([1.0, 2.0])),
        a=parse(draw(st.sampled_from(["1", "1+z^2", "2+sin(x)"]))), f=parse(draw(_source())),
        u0=parse(draw(st.sampled_from(["0", "0.1", "0.2*x", "x^2/4"]))),
        bc_minus=draw(_end()), bc_plus=draw(_end()), f1=parse(f1) if f1 is not None else None)
    gauge = draw(st.sampled_from([None, ("1", 1.0), ("1+z", 0.5)]))
    kw = dict(M=draw(st.sampled_from([0.5, 1.0])), q0=draw(st.sampled_from([0.5, 1.0, 2.0])),
              psi=PsiSpec.from_text(draw(st.sampled_from(["1", "1+p^2"]))),
              pmax=draw(st.sampled_from([None, 3.0, 8.0])),
              n_samples=draw(st.sampled_from([5, 8, 17, 33])))
    if gauge is not None:
        kw.update(phi=parse(gauge[0]), B=gauge[1], zmax=draw(st.sampled_from([None, 5.0])))
    return problem, kw


def assert_same_report(case):
    problem, kw = case
    got = json_dumps(certificate.check_hypotheses(problem, **kw).as_dict())
    want = json_dumps(frozen_check_hypotheses(problem, **kw).as_dict())
    assert got == want


@settings(deadline=None, max_examples=100)
@given(cases())
def test_reports_match_the_frozen_reductions(case):
    assert_same_report(case)


# ---------------------------------------------------------------------------
# frozen copy: the sampled-condition code as it was before the margin rule,
# each condition reducing its samples by hand.  Not to be edited.

def check_compatibility(problem: ProblemSpec) -> dict:
    """Residual of the t = 0 balance between the interior equation and each
    boundary law, evaluated at x = +-ell.

    Dynamic end:    | (-/+ b p + g [+ g1]) - (a u0'' + f [+ f1]) |
    Dirichlet end:  | u0(end) - value(0) |
    """
    u0x = diff(problem.u0, "x")
    u0xx = diff(u0x, "x")

    def residual(x_end: float, bc, sign: float) -> float:
        z = evaluate(problem.u0, x=x_end)
        p = evaluate(u0x, x=x_end)
        if isinstance(bc, DirichletBC):
            return abs(z - evaluate(bc.value, t=0.0))
        rhs = (evaluate(problem.a, t=0.0, x=x_end, z=z, p=p) * evaluate(u0xx, x=x_end)
               + evaluate(problem.f, t=0.0, x=x_end, z=z, p=p))
        if problem.f1 is not None:
            rhs += evaluate(problem.f1, t=0.0, x=x_end, z=z, p=p)
        lhs = sign * evaluate(bc.b, t=0.0, x=x_end, z=z, p=p) * p \
            + evaluate(bc.g, t=0.0, x=x_end, z=z, p=p)
        if bc.g1 is not None:
            lhs += evaluate(bc.g1, t=0.0, x=x_end, z=z, p=p)
        return abs(lhs - rhs)

    return {
        "residual_plus": residual(problem.ell, problem.bc_plus, -1.0),
        "residual_minus": residual(-problem.ell, problem.bc_minus, +1.0),
    }


# ---------------------------------------------------------------------------
# dense-sampling hypothesis checks

def _box_worst(values: np.ndarray, shape: tuple, axes: dict) -> tuple[float, dict]:
    """Max of a margin array over a box, with the argmax sample point."""
    arr = np.broadcast_to(np.asarray(values, dtype=float), shape)
    flat = np.argmax(arr)
    idx = np.unravel_index(flat, shape)
    witness = {name: float(grid[i]) for (name, grid), i in zip(axes.items(), idx)}
    return float(arr[idx]), witness


def _cummax2(a: np.ndarray, axis0_forward: bool, axis1_forward: bool) -> np.ndarray:
    out = a
    out = np.maximum.accumulate(out, axis=0) if axis0_forward else \
        np.maximum.accumulate(out[::-1, :], axis=0)[::-1, :]
    out = np.maximum.accumulate(out, axis=1) if axis1_forward else \
        np.maximum.accumulate(out[:, ::-1], axis=1)[:, ::-1]
    return out


def _cummin2(a: np.ndarray, axis0_forward: bool, axis1_forward: bool) -> np.ndarray:
    return -_cummax2(-a, axis0_forward, axis1_forward)


@np.errstate(all="ignore")
def frozen_check_hypotheses(problem: ProblemSpec, M: float, q0: float, psi: PsiSpec,
                     pmax: float | None = None, *, n_samples: int = 33,
                     phi: Expr | None = None, B: float | None = None,
                     zmax: float | None = None, compat_tol: float = 1e-8) -> ConditionReport:
    """Dense-sampling check of every licensing condition.

    Margins are signed: satisfied iff worst_violation <= 0.  Boxes follow
    the stated quantifiers, clipped to [-M, M] in z and [-pmax, pmax] in p
    (pmax defaults to 4 q1 when the slope budget closes, else 100).
    Checks over ordered tuples run at full n_samples resolution through
    running-extremum reductions.  Divergence conditions report +-1 sentinel
    margins with the ``tail_integral`` reading as witness.
    """
    if pmax is None:
        try:
            pmax = 4.0 * find_q1(psi, q0, M)
        except ConditionViolated:
            pmax = 100.0
    n = n_samples
    ell, T = problem.ell, problem.T
    ts = np.linspace(0.0, T, n)
    xs = np.linspace(-ell, ell, n)
    zs = np.linspace(-M, M, n)
    ps = np.linspace(-pmax, pmax, n if n % 2 else n + 1)  # symmetric about 0
    pos = np.linspace(q0, pmax, n)

    a_fn, f_fn, psi_fn = compile_expr(problem.a), compile_expr(problem.f), compile_expr(psi.expr)
    entries: list[ConditionCheck] = []

    # (6): |f| <= a psi(|p|) on [0,T] x [-ell,ell] x [-M,M] x [-pmax,pmax]
    shape4 = (n, n, n, ps.size)
    tt = ts[:, None, None, None]
    xx = xs[None, :, None, None]
    zz = zs[None, None, :, None]
    pp = ps[None, None, None, :]
    margin6 = np.abs(f_fn(t=tt, x=xx, z=zz, p=pp)) - a_fn(t=tt, x=xx, z=zz, p=pp) * psi_fn(p=np.abs(pp))
    worst, wit = _box_worst(margin6, shape4, {"t": ts, "x": xs, "z": zs, "p": ps})
    entries.append(ConditionCheck("(6)", worst <= 0.0, worst, wit))

    # (9): integral_{q0}^inf rho/psi > 2M, read as find_q1 reads it
    rho_over_psi = psi.budget_integrand()
    tail = tail_integral(rho_over_psi, max(q0, 0.0)).decide(2.0 * M)
    margin9 = 2.0 * M - tail.value
    converged = tail.classified == "convergent"
    entries.append(ConditionCheck("(9)", not (converged and margin9 >= 0.0),
                                  margin9 if converged else -abs(margin9), tail.witness()))

    # (9bNEU): boundary fluxes dominate the boundary sources at slopes >= q0
    bneu = _boundary_sign_margins(problem, ts, zs, pos)
    if bneu is not None:
        worst, wit = bneu
        entries.append(ConditionCheck("(9bNEU)", worst <= 0.0, worst, wit))

    # (10): sampled Lipschitz constant of u0 fits under q0
    K_est, x_k = _lipschitz_witness(problem.u0, ell, 10_000)
    entries.append(ConditionCheck(
        "(10)", K_est <= q0 * (1.0 + K_SLACK), K_est - q0 * (1.0 + K_SLACK),
        {"K_estimate": K_est, "q0": q0, "x": x_k}))

    # (upc): a > 0 everywhere; at dynamic ends d_p(b) p + b -/+ d_p(g) > 0
    # (margin 0.0 from exact degeneracy still counts as satisfied per the
    # signed-margin convention; strict positivity failures show up > 0)
    worst = None
    for part, margin, axes in _upc_margins(problem, ts, xs, zs, ps):
        w, isample = _box_worst(margin, tuple(g.size for g in axes.values()), axes)
        if worst is None or w > worst:
            worst, wit = w, {"part": part, **isample}
    entries.append(ConditionCheck("(upc)", worst <= 0.0, worst, wit))

    # (66): zero-time balance between interior and boundary laws
    res = check_compatibility(problem)
    worst66 = max(res["residual_plus"], res["residual_minus"]) - compat_tol
    entries.append(ConditionCheck("(66)", worst66 <= 0.0, worst66, dict(res)))

    # split right-hand side monotonicity conditions
    if problem.has_split_rhs:
        entries.extend(_split_rhs_entries(problem, ts, xs, zs, pos, n))

    # sup-bound growth conditions when a gauge is supplied
    if phi is not None and B is not None:
        entries.append(_condition_209b(problem, phi, B, ts, xs, ps,
                                       zmax if zmax is not None else max(10.0, 4.0 * M)))
        entries.append(_divergence_entry("(phi)",
                                         tail_integral(_inverse_gauge(compile_expr(phi)), 0.0)))

    # (266): strengthened budget, integral of rho/psi diverges
    entries.append(_divergence_entry("(266)", tail_integral(rho_over_psi, max(q0, 0.0))))

    return ConditionReport(entries)


def _boundary_sign_margins(problem: ProblemSpec, ts, zs, pos):
    """Worst margin of the four sign variants of the boundary domination
    condition over dynamic ends; None when no end is dynamic."""
    worst = -math.inf
    wit: dict = {}
    shape = (ts.size, zs.size, pos.size)
    tt = ts[:, None, None]
    zz = zs[None, :, None]
    qq = pos[None, None, :]
    found = False
    for x_end, bc, outward in ((problem.ell, problem.bc_plus, +1.0),
                               (-problem.ell, problem.bc_minus, -1.0)):
        if not isinstance(bc, DynamicBC):
            continue
        found = True
        b_fn, g_fn = compile_expr(bc.b), compile_expr(bc.g)
        for s in (+1.0, -1.0):
            # at +ell: s*g(t,ell,z,s p) <= b(t,ell,z,s p) p
            # at -ell: -s*g(t,-ell,z,s p) <= b(t,-ell,z,s p) p
            gv = g_fn(t=tt, x=x_end, z=zz, p=s * qq)
            bv = b_fn(t=tt, x=x_end, z=zz, p=s * qq)
            margin = (outward * s) * gv - bv * qq
            w, isample = _box_worst(margin, shape, {"t": ts, "z": zs, "p": pos})
            if w > worst:
                worst = w
                wit = {"end": "+ell" if outward > 0 else "-ell", "sign": s, **isample}
    if not found:
        return None
    return worst, wit


def _upc_margins(problem: ProblemSpec, ts, xs, zs, ps):
    """Positivity margins as (part, margin array, sample axes): -a on the
    interior box, then -(d_p(b) p + b -/+ d_p(g)) at each dynamic end."""
    a = compile_expr(problem.a)(t=ts[:, None, None, None], x=xs[None, :, None, None],
                                z=zs[None, None, :, None], p=ps[None, None, None, :])
    yield "a", -a, {"t": ts, "x": xs, "z": zs, "p": ps}
    t3 = ts[:, None, None]
    z3 = zs[None, :, None]
    p3 = ps[None, None, :]
    for x_end, bc, sign in ((problem.ell, problem.bc_plus, -1.0),
                            (-problem.ell, problem.bc_minus, +1.0)):
        if not isinstance(bc, DynamicBC):
            continue
        kw = dict(t=t3, x=x_end, z=z3, p=p3)
        flux = (compile_expr(diff(bc.b, "p"))(**kw) * p3 + compile_expr(bc.b)(**kw)
                + sign * compile_expr(diff(bc.g, "p"))(**kw))
        yield "boundary at " + ("+ell" if sign < 0 else "-ell"), -flux, {"t": ts, "z": zs, "p": ps}


def _split_rhs_entries(problem: ProblemSpec, ts, xs, zs, pos, n) -> list[ConditionCheck]:
    """Ordered-tuple monotonicity conditions for the split right-hand side.

    Each worst case over (x <= y, z1 <= z2) or (z1 <= z2, p1 <= p2) pairs is
    found exactly on the sample grid with running-extremum tables, so the
    full n-per-axis resolution is kept without materializing pair products.
    """
    zero = parse("0")
    f1 = problem.f1 if problem.f1 is not None else zero
    f1_fn = compile_expr(f1)
    entries = []

    # (225): f1(t, y, z1, +-p) >= f1(t, x, z2, +-p) for x <= y, z1 <= z2, p >= 0
    p_nonneg = np.linspace(0.0, pos[-1], n)
    worst, wit = -math.inf, {}
    for s in (+1.0, -1.0):
        vals = f1_fn(t=ts[:, None, None, None], x=xs[None, :, None, None],
                     z=zs[None, None, :, None], p=s * p_nonneg[None, None, None, :])
        vals = np.broadcast_to(vals, (ts.size, xs.size, zs.size, p_nonneg.size))
        for it in range(ts.size):
            for ip in range(p_nonneg.size):
                A = vals[it, :, :, ip]  # A[i, j] = f1(x_i, z_j)
                P = _cummax2(A, axis0_forward=True, axis1_forward=False)
                viol = P - A  # at (k, j1): best f1(x<=y_k, z2>=z1_j1) minus f1(y_k, z1_j1)
                k, j1 = np.unravel_index(np.argmax(viol), viol.shape)
                w = float(viol[k, j1])
                if w > worst:
                    sub = A[:k + 1, j1:]
                    i, j2o = np.unravel_index(np.argmax(sub), sub.shape)
                    worst = w
                    wit = {"t": float(ts[it]), "p": float(s * p_nonneg[ip]),
                           "x": float(xs[i]), "y": float(xs[k]),
                           "z1": float(zs[j1]), "z2": float(zs[j1 + j2o])}
    entries.append(ConditionCheck("(225)", worst <= 0.0, worst, wit))

    # (226)/(227) couple f1 with the boundary additions g1
    ent226 = _condition_226(problem, f1_fn, ts, xs, zs, pos)
    if ent226 is not None:
        entries.append(ent226)
    ent227 = _condition_227(problem, f1_fn, ts, xs, zs, pos)
    if ent227 is not None:
        entries.append(ent227)
    return entries


def _bc_g1_fn(bc) -> "callable | None":
    if not isinstance(bc, DynamicBC):
        return None
    return compile_expr(bc.g1 if bc.g1 is not None else parse("0"))


def _condition_226(problem, f1_fn, ts, xs, zs, pos):
    """f1(t, x, z1, +-p1) >= g1(t, +ell, z2, +-p2) for z1 <= z2, q0 <= p1 <= p2."""
    g1_fn = _bc_g1_fn(problem.bc_plus)
    if g1_fn is None:
        return None
    worst, wit = -math.inf, {}
    for s in (+1.0, -1.0):
        fvals = f1_fn(t=ts[:, None, None, None], x=xs[None, :, None, None],
                      z=zs[None, None, :, None], p=s * pos[None, None, None, :])
        fvals = np.broadcast_to(fvals, (ts.size, xs.size, zs.size, pos.size))
        fmin = fvals.min(axis=1)  # over x -> (t, z1, p1)
        gvals = g1_fn(t=ts[:, None, None], x=problem.ell,
                      z=zs[None, :, None], p=s * pos[None, None, :])
        gvals = np.broadcast_to(gvals, (ts.size, zs.size, pos.size))
        for it in range(ts.size):
            Q = _cummin2(fmin[it], axis0_forward=True, axis1_forward=True)
            viol = gvals[it] - Q  # at (j2, m2): g1(z2, p2) - min f1(z1<=z2, p1<=p2)
            j2, m2 = np.unravel_index(np.argmax(viol), viol.shape)
            w = float(viol[j2, m2])
            if w > worst:
                sub = fmin[it][:j2 + 1, :m2 + 1]
                j1, m1 = np.unravel_index(np.argmin(sub), sub.shape)
                ix = int(np.argmin(fvals[it, :, j1, m1]))
                worst = w
                wit = {"t": float(ts[it]), "sign": s, "x": float(xs[ix]),
                       "z1": float(zs[j1]), "z2": float(zs[j2]),
                       "p1": float(s * pos[m1]), "p2": float(s * pos[m2])}
    return ConditionCheck("(226)", worst <= 0.0, worst, wit)


def _condition_227(problem, f1_fn, ts, xs, zs, pos):
    """g1(t, +ell, z1, -p1) >= f1(t, x, z2, -p2) and
    g1(t, -ell, z1, p1) >= f1(t, x, z2, p2), for z1 <= z2, q0 <= p2 <= p1."""
    checks = []
    gp = _bc_g1_fn(problem.bc_plus)
    if gp is not None:
        checks.append((problem.ell, gp, -1.0))
    gm = _bc_g1_fn(problem.bc_minus)
    if gm is not None:
        checks.append((-problem.ell, gm, +1.0))
    if not checks:
        return None
    worst, wit = -math.inf, {}
    for x_end, g1_fn, s in checks:
        fvals = f1_fn(t=ts[:, None, None, None], x=xs[None, :, None, None],
                      z=zs[None, None, :, None], p=s * pos[None, None, None, :])
        fvals = np.broadcast_to(fvals, (ts.size, xs.size, zs.size, pos.size))
        fmax = fvals.max(axis=1)  # (t, z2, p2)
        gvals = g1_fn(t=ts[:, None, None], x=x_end,
                      z=zs[None, :, None], p=s * pos[None, None, :])
        gvals = np.broadcast_to(gvals, (ts.size, zs.size, pos.size))
        for it in range(ts.size):
            # at (j1, m1): max f1 over z2 >= z1, p2 <= p1, minus g1(z1, p1)
            R = _cummax2(fmax[it], axis0_forward=False, axis1_forward=True)
            viol = R - gvals[it]
            j1, m1 = np.unravel_index(np.argmax(viol), viol.shape)
            w = float(viol[j1, m1])
            if w > worst:
                sub = fmax[it][j1:, :m1 + 1]
                j2o, m2 = np.unravel_index(np.argmax(sub), sub.shape)
                ix = int(np.argmax(fvals[it, :, j1 + j2o, m2]))
                worst = w
                wit = {"t": float(ts[it]), "end": "+ell" if s < 0 else "-ell",
                       "x": float(xs[ix]), "z1": float(zs[j1]), "z2": float(zs[j1 + j2o]),
                       "p1": float(s * pos[m1]), "p2": float(s * pos[m2])}
    return ConditionCheck("(227)", worst <= 0.0, worst, wit)


def _condition_209b(problem: ProblemSpec, phi: Expr, B: float, ts, xs, ps, zmax: float):
    """z f(t,x,z,0) and z g(t,+-ell,z,p) bounded by Phi(|z|)|z| + B."""
    nz = 65
    zs = np.linspace(-zmax, zmax, nz)
    phi_fn = compile_expr(phi)
    f_fn = compile_expr(problem.f)

    def gauge(zarr):
        az = np.abs(zarr)
        return np.broadcast_to(phi_fn(z=az, p=az, x=az, t=az), az.shape) * az + B

    shape3 = (ts.size, xs.size, nz)
    tt = ts[:, None, None]
    xx = xs[None, :, None]
    zz = zs[None, None, :]
    margin_f = zz * f_fn(t=tt, x=xx, z=zz, p=0.0) - gauge(zz)
    worst, wit = _box_worst(margin_f, shape3, {"t": ts, "x": xs, "z": zs})
    wit = {"part": "f", **wit}

    shape3b = (ts.size, nz, ps.size)
    t3 = ts[:, None, None]
    z3 = zs[None, :, None]
    p3 = ps[None, None, :]
    for x_end, bc in ((problem.ell, problem.bc_plus), (-problem.ell, problem.bc_minus)):
        if not isinstance(bc, DynamicBC):
            continue
        g_fn = compile_expr(bc.g)
        margin_g = z3 * g_fn(t=t3, x=x_end, z=z3, p=p3) - gauge(z3)
        w, isample = _box_worst(margin_g, shape3b, {"t": ts, "z": zs, "p": ps})
        if w > worst:
            worst = w
            wit = {"part": "g at " + ("+ell" if x_end > 0 else "-ell"), **isample}
    return ConditionCheck("(209b)", worst <= 0.0, worst, wit)
