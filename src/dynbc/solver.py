"""Method-of-lines solver for the quasilinear problem with dynamical and/or
Dirichlet boundary conditions, with gradient blow-up detection.

Space: uniform nodes, centered second-order interior differences, and a
three-point one-sided second-order gradient at boundary nodes (a first-order
one-sided stencil would pollute the global order through the boundary ODE).
Each law is a lead term plus source terms: a u_xx + f (+ f1) inside, and
du/dt = -/+ b p + g (+ g1) at a dynamic boundary node.  Every coefficient is
compiled once with its exact z- and p-derivatives, and the sources are added
left to right.  The kernels take t as a numpy scalar, so a coefficient that
is singular at some t (0.1/t at t = 0) gives inf/nan there instead of
raising.  Dirichlet nodes are pinned algebraically, each through one
identity row of the stage system.

Time: theta-scheme (trapezoidal by default) with damped Newton on the stage
system; Jacobian entries come from the exact derivatives, assembled into a
tridiagonal-plus-two-corners matrix.  Each corner is removed against its
adjacent row, the two rows trading places when the corner is the larger
entry, and one Thomas sweep solves the result: O(n) for every stage system.
Each stored step is two half steps.  On a trapezoidal run, after the
first step, each half step starts Newton from its second-order
Adams-Bashforth (AB2) predictor, and the step's error estimate is the sum
of the two half steps' Milne estimates, the distance from the predictor
over 3 (1 + h_prev/h) (Gresho, Griffiths & Silvester, SIAM J. Sci. Comput.
30 (2008) 2018-2054).  The first step, a run at theta != 0.5 and the
theta = 1 retry step-double instead: one more stage solve, the full step,
gives the estimate, and a fixed-step run, which needs none, skips it.  One
factor rescales dt after a rejection and an acceptance alike; Newton
failure first retries the step fully implicitly (theta = 1), then shrinks
dt.  Each Newton iterate's stencil serves its residual and its Jacobian,
and the last residual of each half step gives the slope rhs(t, u) and the
gradient of its end state: the slope starts the next half step and is the
stored state's row of u_t, unless (t + dt/2) + dt/2 rounds away from the
stored time t + dt; the gradient meets the cutoff and is its row of u_x.

Every run ends in exactly one of three states: Completed at T, BlowUpDetected
once max |u_x| crosses the cutoff, or StepFailure when Newton or the error
control fails at dt's floor, or the step budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificate import _upc_margins, check_compatibility, estimate_lipschitz
from .errors import ConfigError, PreconditionFailed
from .expr import compile_expr, diff
from .holder import GridFunction
from .numerics import thomas
from .problem import BoundaryCondition, DirichletBC, DynamicBC, End, ProblemSpec

__all__ = [
    "SolverConfig", "Completed", "BlowUpDetected", "StepFailure", "Solution",
    "SemiDiscretization", "grid_nodes", "solve",
    "ProblemSpec", "BoundaryCondition", "DynamicBC", "DirichletBC",
]


@dataclass
class SolverConfig:
    nx: int = 65
    dt0: float = 1e-3
    theta: float = 0.5
    newton_tol: float = 1e-11
    newton_max_iter: int = 12
    dt_min: float = 1e-12
    dt_max: float = 0.1
    gradient_cutoff: float = 1e6
    strict_compatibility: bool = True
    local_error_tol: float = 1e-8
    compat_tol: float = 1e-8
    max_steps: int = 2_000_000

    def __post_init__(self):
        # nan passes every comparison: a nan cutoff never detects blow-up, a
        # nan newton_tol fails every Newton solve, a nan dt0 makes every step nan
        for name, value in vars(self).items():
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError(f"{name} must be a number, got nan")
        if self.nx < 5:
            raise ConfigError(f"nx must be at least 5, got {self.nx}")
        if not (0.0 <= self.theta <= 1.0):
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if not (0 < self.dt_min <= self.dt_max):
            raise ConfigError("need 0 < dt_min <= dt_max")
        # a cutoff <= 0 would flag blow-up at t = 0; inf never flags one
        if not (self.gradient_cutoff > 0):
            raise ConfigError(f"gradient_cutoff must be positive, got {self.gradient_cutoff}")
        # newton_tol <= 0 fails every Newton solve; inf accepts any iterate
        if not (0 < self.newton_tol < math.inf):
            raise ConfigError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if not (self.local_error_tol > 0 or self.fixed_step):
            raise ConfigError(
                f"an adaptive run needs local_error_tol > 0, got {self.local_error_tol}")

    @property
    def fixed_step(self) -> bool:
        return self.dt_min == self.dt_max


@dataclass(frozen=True)
class Completed:
    kind = "completed"


@dataclass(frozen=True)
class BlowUpDetected:
    time: float
    max_gradient: float

    kind = "blowup"


@dataclass(frozen=True)
class StepFailure:
    time: float
    reason: str

    kind = "stepfailure"


@dataclass
class Solution:
    """One run's record: u on the grid, and u_x and u_t as float arrays of
    the grid's shape (times, nodes).  Only u is a validated GridFunction: a
    run that ends in step failure can store a slope of inf or nan."""

    grid: GridFunction
    ux: np.ndarray
    ut: np.ndarray
    status: Completed | BlowUpDetected | StepFailure
    step_log: dict = field(default_factory=dict)

    @property
    def dx(self) -> float:
        if self.grid.nodes.size < 2:
            return 0.0
        return float(self.grid.nodes[1] - self.grid.nodes[0])

    @property
    def dt_max_accepted(self) -> float:
        if self.grid.times.size < 2:
            return 0.0
        return float(np.max(np.diff(self.grid.times)))

    @property
    def sup_u(self) -> float:
        return float(np.max(np.abs(self.grid.values)))

    @property
    def sup_ux(self) -> float:
        return float(np.max(np.abs(self.ux)))


class _NewtonFailure(Exception):
    pass


def _compile_terms(*exprs):
    """Kernels of each expression and of its exact z- and p-derivatives, as
    three tuples (values, d/dz, d/dp) in the order given; None is skipped."""
    kept = [e for e in exprs if e is not None]
    return tuple(tuple(compile_expr(diff(e, v) if v else e) for e in kept)
                 for v in (None, "z", "p"))


def _sum_terms(kernels, kw, total=None):
    """The kernels' values at kw added left to right, onto total if given."""
    for k in kernels:
        value = k(**kw)
        total = value if total is None else total + value
    return total


class _DynamicEnd:
    """Compiled boundary law -/+ b p + g (+ g1) and its z/p derivatives."""

    def __init__(self, end: End):
        self.x = end.x
        self.outward = end.outward  # the law is u_t = -outward*b*p + g
        (self.b,), (self.b_z,), (self.b_p,) = _compile_terms(end.bc.b)
        self.g, self.g_z, self.g_p = _compile_terms(end.bc.g, end.bc.g1)

    def law(self, t: float, z: float, p: float) -> float:
        kw = dict(t=np.float64(t), x=self.x, z=z, p=p)
        return _sum_terms(self.g, kw, -self.outward * self.b(**kw) * p)

    def law_derivs(self, t: float, z: float, p: float) -> tuple[float, float]:
        """(d/dz, d/dp) of the boundary law at fixed stencil gradient p."""
        kw = dict(t=np.float64(t), x=self.x, z=z, p=p)
        dz = _sum_terms(self.g_z, kw, -self.outward * self.b_z(**kw) * p)
        dp = _sum_terms(self.g_p, kw, -self.outward * (self.b_p(**kw) * p + self.b(**kw)))
        return dz, dp


class _DirichletEnd:
    """A pinned node: it moves with the pin, whatever the state."""

    def __init__(self, end: End):
        self.x = end.x
        self.value = compile_expr(end.bc.value)
        self.dvalue = compile_expr(diff(end.bc.value, "t"))

    def at(self, t: float) -> float:
        return float(self.value(t=np.float64(t)))

    def law(self, t: float, z: float, p: float) -> float:
        return float(self.dvalue(t=np.float64(t)))

    def law_derivs(self, t: float, z: float, p: float) -> tuple[float, float]:
        return 0.0, 0.0


def grid_nodes(ell: float, nx: int) -> np.ndarray:
    """The nx uniform nodes on [-ell, ell] that solve stores its states on."""
    return np.linspace(-ell, ell, nx)


class SemiDiscretization:
    """Spatial discretization: node set, right-hand side, Jacobian stencils.

    The interior law is a u_xx + f (+ f1): the lead coefficient a and the
    source terms, each compiled once with its z- and p-derivatives.
    """

    def __init__(self, problem: ProblemSpec, nx: int):
        if nx < 5:
            raise ConfigError(f"nx must be at least 5, got {nx}")
        self.problem = problem
        self.nodes = grid_nodes(problem.ell, nx)
        self.dx = float(self.nodes[1] - self.nodes[0])

        (self.a,), (self.a_z,), (self.a_p,) = _compile_terms(problem.a)
        self.f, self.f_z, self.f_p = _compile_terms(problem.f, problem.f1)

        self.end_plus, self.end_minus = ends = [
            _DynamicEnd(end) if isinstance(end.bc, DynamicBC) else _DirichletEnd(end)
            for end in problem.ends]
        # each Dirichlet end as (node index, end)
        self.pins = [(i, end) for i, end in zip((-1, 0), ends)
                     if isinstance(end, _DirichletEnd)]

    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        u0 = compile_expr(self.problem.u0)
        u = np.asarray(u0(x=self.nodes), dtype=float)
        u = np.broadcast_to(u, self.nodes.shape).copy()
        for i, end in self.pins:
            u[i] = end.at(0.0)
        return u

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Discrete u_x: centered inside, one-sided second-order at the ends."""
        p = np.empty_like(u)
        p[1:-1] = (u[2:] - u[:-2]) / (2 * self.dx)
        p[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * self.dx)
        p[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * self.dx)
        return p

    def _stencil(self, t: float, u: np.ndarray):
        """What rhs and rhs_jacobian at (t, u) share: the slopes at every
        node, interior u_xx, the interior kernel arguments and a there."""
        p = self.gradient(u)
        uxx = (u[2:] - 2 * u[1:-1] + u[:-2]) / self.dx ** 2
        kw = dict(t=np.float64(t), x=self.nodes[1:-1], z=u[1:-1], p=p[1:-1])
        return p, uxx, kw, self.a(**kw)

    def rhs(self, t: float, u: np.ndarray, stencil=None) -> np.ndarray:
        """du/dt of every node; pinned nodes report the pin's rate.
        ``stencil`` is ``_stencil(t, u)``, when the caller has it."""
        p, uxx, kw, a = self._stencil(t, u) if stencil is None else stencil
        out = np.empty_like(u)
        out[1:-1] = _sum_terms(self.f, kw, a * uxx)
        out[0] = self.end_minus.law(t, u[0], p[0])
        out[-1] = self.end_plus.law(t, u[-1], p[-1])
        return out

    def rhs_jacobian(self, t: float, u: np.ndarray, stencil=None):
        """dF/du as (lower, diag, upper, corner_right, corner_left).

        corner_right couples row 0 to u[2]; corner_left couples the last
        row to u[-3]; both come from the one-sided boundary stencils.
        ``stencil`` is as in rhs.
        """
        dx = self.dx
        n = u.size
        lower = np.zeros(n)
        diag = np.zeros(n)
        upper = np.zeros(n)

        p, uxx, kw, a = self._stencil(t, u) if stencil is None else stencil
        ap = self.a_p(**kw)
        fp = _sum_terms(self.f_p, kw)
        diag[1:-1] = self.a_z(**kw) * uxx - 2 * a / dx ** 2 + _sum_terms(self.f_z, kw)
        lower[1:-1] = -ap * uxx / (2 * dx) + a / dx ** 2 - fp / (2 * dx)
        upper[1:-1] = ap * uxx / (2 * dx) + a / dx ** 2 + fp / (2 * dx)

        dz, dp = self.end_minus.law_derivs(t, u[0], p[0])
        diag[0] = dz + dp * (-3 / (2 * dx))
        upper[0] = dp * (4 / (2 * dx))
        corner_right = dp * (-1 / (2 * dx))
        dz, dp = self.end_plus.law_derivs(t, u[-1], p[-1])
        diag[-1] = dz + dp * (3 / (2 * dx))
        lower[-1] = dp * (-4 / (2 * dx))
        corner_left = dp * (1 / (2 * dx))
        return lower, diag, upper, corner_right, corner_left


# ---------------------------------------------------------------------------
# linear algebra for the stage system

def _eliminate_corner(away, diag, toward, rhs, corner, i, j):
    """Make end row i tridiagonal in place, with multipliers of at most 1.

    The bands are named from row i: (lower, diag, upper) with j = 1 and
    (upper, diag, lower) with j = -2.  Row i is reduced against row j or,
    when the corner outweighs toward[j], row j against row i: the reduced
    row takes row i's place, and row j's goes to row i plus or minus it, so
    that their diagonals add (row i alone leaves a small last-row pivot).
    """
    if abs(toward[j]) >= abs(corner):
        fac = corner / toward[j]
        diag[i] -= fac * away[j]
        toward[i] -= fac * diag[j]
        rhs[i] -= fac * rhs[j]
    else:
        fac = toward[j] / corner
        red = away[j] - fac * diag[i], diag[j] - fac * toward[i], rhs[j] - fac * rhs[i]
        s = math.copysign(1.0, red[1] * toward[i])
        away[j], diag[j], toward[j], rhs[j] = (
            diag[i] + s * red[0], toward[i] + s * red[1], corner, rhs[i] + s * red[2])
        diag[i], toward[i], rhs[i] = red


def _solve_bordered(lower, diag, upper, corner_right, corner_left, rhs):
    """Solve the tridiagonal system with two optional corners: each is removed
    on Python-float copies of the bands, which may swap rows 0 and 1 or n-1
    and n-2, then one Thomas sweep; it does not pivot, so a zero pivot raises
    ZeroDivisionError."""
    lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    if corner_right != 0.0:
        _eliminate_corner(lower, diag, upper, rhs, float(corner_right), 0, 1)
    if corner_left != 0.0:
        _eliminate_corner(upper, diag, lower, rhs, float(corner_left), -1, -2)
    return thomas(lower, diag, upper, rhs)


# ---------------------------------------------------------------------------
# implicit stepping

def _theta_step(disc: SemiDiscretization, t: float, u: np.ndarray, f0: np.ndarray,
                dt: float, theta: float, cfg: SolverConfig, log: dict, start=None):
    """One theta-scheme step from u, whose slope is f0 = rhs(t, u), with
    damped Newton; raises _NewtonFailure.  Newton starts from ``start``, or
    from the explicit Euler predictor u + dt f0 when it is None; the start's
    pinned entries are set in place to the pins' values at t + dt, and each
    pin's rows are those of U[i] = value(t + dt).  Returns U with its slope
    rhs(t + dt, U) and its gradient, both from the last residual evaluation.
    ``log`` counts the stage solve and its Jacobians.  The one finiteness
    test is the residual norm's: a non-finite entry of U makes R's, and the
    norm, nan or inf, which fails the start test and each damped trial (its
    bound is finite), so the U returned is finite."""
    t1 = t + dt
    explicit = u + dt * (1.0 - theta) * f0 if theta < 1.0 else u.copy()
    pins = [(i, end.at(t1)) for i, end in disc.pins]

    def residual(U: np.ndarray):
        """R(U), with the slope and the stencil it was built from."""
        stencil = disc._stencil(t1, U)
        F = disc.rhs(t1, U, stencil)
        R = U - explicit - dt * theta * F
        for i, value in pins:
            R[i] = U[i] - value
        return R, F, stencil

    # a predictor keeps Newton in its quadratic basin
    U = u + dt * f0 if start is None else start
    for i, value in pins:
        U[i] = value

    log["stage_solves"] += 1
    scale = 1.0 + float(np.max(np.abs(u)))
    tol = cfg.newton_tol * scale
    R, F, stencil = residual(U)
    nrm = float(np.max(np.abs(R)))
    if not math.isfinite(nrm):
        raise _NewtonFailure("residual not finite")
    for _ in range(cfg.newton_max_iter):
        if nrm <= tol:
            return U, F, stencil[0]
        lower, diag, upper, c_r, c_l = disc.rhs_jacobian(t1, U, stencil)
        log["jacobians"] += 1
        # one reduction checks all three bands; an inf pivot would pass as a 0 update
        bands = -dt * theta * np.array((lower, diag, upper))
        bands[1] += 1.0
        Jl, Jd, Ju = bands
        Jcr = -dt * theta * c_r
        Jcl = -dt * theta * c_l
        # a pinned end's corner is already +-0, which _solve_bordered skips;
        # the whole row is reset so the pinned update keeps a pin's -0.0
        for i, _ in disc.pins:
            Jd[i], Jl[i], Ju[i] = 1.0, 0.0, 0.0
        if not np.isfinite(bands).all():
            raise _NewtonFailure("jacobian not finite")
        try:
            dU = _solve_bordered(Jl, Jd, Ju, Jcr, Jcl, -R)
        except ZeroDivisionError as exc:
            raise _NewtonFailure(f"linear solve failed: {exc}") from None
        lam = 1.0
        while True:
            U_try = U + lam * dU
            R_try, F_try, stencil_try = residual(U_try)
            nrm_try = float(np.max(np.abs(R_try)))
            if nrm_try <= (1.0 - 0.25 * lam) * nrm or nrm_try <= tol:
                U, R, F, stencil, nrm = U_try, R_try, F_try, stencil_try, nrm_try
                break
            lam *= 0.5
            if lam < 1.0 / 64.0:
                raise _NewtonFailure("damping exhausted")
    if nrm <= 10.0 * tol:  # accept a nearly-converged iterate
        return U, F, stencil[0]
    raise _NewtonFailure(f"no convergence, |R| = {nrm:.3e}")


def _attempt(disc, t, u, f0, dt, theta, cfg, log):
    """Step doubling: two half steps (the accepted value), each from its
    explicit Euler predictor, and on an adaptive run one full step, whose
    distance to them over 2^order - 1 is the error estimate (0 on a
    fixed-step run).  Returns (U, err, f_mid, f_end, p_end): the slopes at
    the mid and end states and the end state's gradient."""
    err = 0.0
    if not cfg.fixed_step:
        big, _, _ = _theta_step(disc, t, u, f0, dt, theta, cfg, log)
    mid, f_mid, _ = _theta_step(disc, t, u, f0, dt / 2, theta, cfg, log)
    half, f_end, p_end = _theta_step(disc, t + dt / 2, mid, f_mid, dt / 2, theta, cfg, log)
    if not cfg.fixed_step:
        order = 2.0 if theta == 0.5 else 1.0
        err = float(np.max(np.abs(big - half))) / (2.0 ** order - 1.0)
    return half, err, f_mid, f_end, p_end


def _tr_ab2(disc, t, u, f0, dt, f_prev, h_prev, cfg, log):
    """Two trapezoidal half steps, each started by Newton from its
    second-order Adams-Bashforth predictor, with the same return as
    _attempt.  f_prev is the slope at t - h_prev.  Each half step's Milne
    estimate is its distance from its predictor over 3 (1 + h_prev / h),
    h_prev being the step before it; err is the largest entry of their sum.
    A pinned node's predictor is the pin, so it adds 0 to the estimate."""
    h = dt / 2
    d = 0.0
    for _ in range(2):
        r = h / h_prev
        start = u + (h / 2) * ((2.0 + r) * f0 - r * f_prev)
        U, F, p = _theta_step(disc, t, u, f0, h, 0.5, cfg, log, start)
        d = d + (U - start) / (3.0 * (1.0 + h_prev / h))
        t, u, f0, f_prev, h_prev = t + h, U, F, f0, h
    # f_prev is now the slope at the mid state
    return u, float(np.max(np.abs(d))), f_prev, f0, p


# ---------------------------------------------------------------------------
# validation for strict runs

def _validate_upc(problem: ProblemSpec, nx_probe: int = 17) -> None:
    """Refuse a strict run unless, on a box informed by the initial data,
    every (upc) margin of the certificate is finite and negative and b is
    finite and positive at each dynamic end."""
    xs0 = np.linspace(-problem.ell, problem.ell, 201)
    u0vals = np.broadcast_to(compile_expr(problem.u0)(x=xs0), xs0.shape)
    u0sup = float(np.max(np.abs(u0vals)))
    K = estimate_lipschitz(problem.u0, problem.ell, samples=2001)
    zbox = 2.0 * (1.0 + u0sup)
    pbox = 4.0 * (1.0 + K)
    ts = np.linspace(0, problem.T, nx_probe)
    xs = np.linspace(-problem.ell, problem.ell, nx_probe)
    zs = np.linspace(-zbox, zbox, nx_probe)
    ps = np.linspace(-pbox, pbox, nx_probe)
    for part, margin, _ in _upc_margins(problem, ts, xs, zs, ps):
        if not (np.all(np.isfinite(margin)) and np.max(margin) < 0.0):
            raise PreconditionFailed(
                f"parabolicity fails for {part} on the sampled working box "
                f"(worst margin = {np.max(margin):.6g})")
    for end in problem.ends:
        if not isinstance(end.bc, DynamicBC):
            continue
        bv = compile_expr(end.bc.b)(t=ts[:, None, None], x=end.x, z=zs[None, :, None],
                                    p=ps[None, None, :])
        if not np.all(np.isfinite(bv)) or np.min(bv) <= 0.0:
            raise PreconditionFailed(
                f"boundary coefficient b not positive at {end.label} (min = {np.min(bv):.6g})")


# ---------------------------------------------------------------------------
# driver

@np.errstate(all="ignore")
def solve(problem: ProblemSpec, cfg: SolverConfig | None = None, *,
          on_store=None) -> Solution:
    """Run the problem to T, to gradient blow-up, or to step failure.

    Strict mode (default) refuses to start when the zero-time compatibility
    residuals exceed cfg.compat_tol or the sampled parabolicity check fails.

    ``on_store(t, u, ux, ut)``, when given, is called each time a state is
    stored, the initial state first, with the arrays that become that
    state's rows of the Solution.  It may keep them but must not write into
    them, since the solver goes on reading them; whatever it raises ends
    the run and propagates.
    """
    cfg = cfg or SolverConfig()
    disc = SemiDiscretization(problem, cfg.nx)

    if cfg.strict_compatibility:
        res = check_compatibility(problem)
        worst = max(res["residual_plus"], res["residual_minus"])
        if worst > cfg.compat_tol:
            raise PreconditionFailed(
                f"compatibility residuals {res} exceed {cfg.compat_tol:g}; "
                "fix the data or run with strict_compatibility=False")
        _validate_upc(problem)

    times, states, grads, slopes = [], [], [], []

    def store(t, u, p, f):
        """Keep a state, its gradient and its slope; nothing writes into them."""
        times.append(t)
        states.append(u)
        grads.append(p)
        slopes.append(f)
        if on_store is not None:
            on_store(t, u, p, f)

    t = 0.0
    u = disc.initial_state()
    # one stencil gives the initial state's slope and gradient
    stencil = disc._stencil(t, u)
    f0 = disc.rhs(t, u, stencil)
    store(t, u, stencil[0], f0)
    log = dict(accepted=0, rejected=0, newton_failures=0, stage_solves=0, jacobians=0)
    # (slope, half step) at the mid state of the last accepted step: the
    # AB2 predictor's history; theta = 1 steps and rejections keep it
    history = None
    dt = min(max(cfg.dt0, cfg.dt_min), cfg.dt_max, problem.T)

    eps_t = 1e-12 * problem.T
    while True:
        grad = float(np.max(np.abs(grads[-1])))
        if grad > cfg.gradient_cutoff:
            status = BlowUpDetected(time=t, max_gradient=grad)
            break
        if t >= problem.T - eps_t:
            status = Completed()
            break
        if log["accepted"] + log["rejected"] > cfg.max_steps:
            status = StepFailure(time=t, reason="step budget exhausted")
            break
        dt = min(dt, cfg.dt_max, problem.T - t)
        # the configured theta, then the fully implicit fallback, before any
        # dt reduction; trapezoidal steps after the first are TR-AB2 pairs
        for theta_used in dict.fromkeys((cfg.theta, 1.0)):
            try:
                if theta_used == 0.5 and history is not None:
                    step = _tr_ab2(disc, t, u, f0, dt, *history, cfg, log)
                else:
                    step = _attempt(disc, t, u, f0, dt, theta_used, cfg, log)
                break
            except _NewtonFailure:
                if theta_used == cfg.theta:
                    log["newton_failures"] += 1
        else:
            if dt <= cfg.dt_min * (1 + 1e-9) or cfg.fixed_step:
                status = StepFailure(time=t, reason="newton failure at minimal step")
                break
            dt = max(dt * 0.25, cfg.dt_min)
            log["rejected"] += 1
            continue

        half, err, f_mid, f_end, p_end = step
        order = 2.0 if theta_used == 0.5 else 1.0
        # below 0.9 whenever err > tol; a fixed-step run keeps its step and
        # never evaluates the power, which would be complex for its tol < 0
        factor = 1.0 if cfg.fixed_step else min(max(
            0.9 * (cfg.local_error_tol / max(err, 1e-300)) ** (1.0 / (order + 1.0)), 0.2), 5.0)
        if not cfg.fixed_step and err > cfg.local_error_tol:
            log["rejected"] += 1
            if dt <= cfg.dt_min * (1 + 1e-9):
                status = StepFailure(time=t, reason="error control at minimal step")
                break
            dt = max(dt * factor, cfg.dt_min)
            continue

        history = f_mid, dt / 2
        # the last half step's slope is rhs(t + dt, half) unless its end
        # time rounded elsewhere; the gradient does not depend on t
        if (t + dt / 2) + dt / 2 != t + dt:
            f_end = disc.rhs(t + dt, half)
        u = half
        t += dt
        f0 = f_end
        log["accepted"] += 1
        store(t, u, p_end, f0)
        dt = min(max(dt * factor, cfg.dt_min), cfg.dt_max)

    return Solution(
        grid=GridFunction(np.asarray(times), disc.nodes, np.vstack(states)),
        ux=np.vstack(grads),
        ut=np.vstack(slopes),
        status=status,
        step_log=log,
    )
