"""Method-of-lines solver for the quasilinear problem with dynamical and/or
Dirichlet boundary conditions, with gradient blow-up detection.

Space: uniform nodes, centered second-order interior differences, and a
three-point one-sided second-order gradient at boundary nodes (a first-order
one-sided stencil would pollute the global order through the boundary ODE).
Dynamic boundary nodes evolve by their own law du/dt = -/+ b p + g; Dirichlet
nodes are pinned algebraically.

Time: theta-scheme (trapezoidal by default) with damped Newton on the stage
system; Jacobian entries come from the exact symbolic z- and p-derivatives
of the coefficients, assembled into a tridiagonal-plus-two-corners matrix
(the corners from the one-sided boundary stencils are eliminated before the
Thomas sweep).  Step size adapts on a step-doubling error estimate; Newton
failure first retries the step fully implicitly (theta = 1), then shrinks dt.

Every run ends in exactly one of three states: Completed at T, BlowUpDetected
once max |u_x| crosses the cutoff, or StepFailure when dt hits its floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificate import check_compatibility, estimate_lipschitz
from .errors import ConfigError, PreconditionFailed
from .expr import compile_expr, diff
from .holder import GridFunction
from .numerics import thomas
from .problem import BoundaryCondition, DirichletBC, DynamicBC, ProblemSpec

__all__ = [
    "SolverConfig", "Completed", "BlowUpDetected", "StepFailure", "Solution",
    "SemiDiscretization", "semidiscretize", "solve",
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
        if self.nx < 5:
            raise ConfigError(f"nx must be at least 5, got {self.nx}")
        if not (0.0 <= self.theta <= 1.0):
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if not (0 < self.dt_min <= self.dt_max):
            raise ConfigError("need 0 < dt_min <= dt_max")

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
    grid: GridFunction
    ux: GridFunction
    ut: GridFunction
    status: Completed | BlowUpDetected | StepFailure
    step_log: dict = field(default_factory=dict)

    @property
    def dx(self) -> float:
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
        return float(np.max(np.abs(self.ux.values)))


class _NewtonFailure(Exception):
    pass


def _vec(expr):
    f = compile_expr(expr)

    def call(**kw):
        with np.errstate(all="ignore"):
            return np.asarray(f(**kw), dtype=float)

    return call


class _DynamicEnd:
    """Compiled boundary law -/+ b p + g (+ g1) and its z/p derivatives."""

    def __init__(self, bc: DynamicBC, x_end: float, outward: float):
        self.x = x_end
        self.outward = outward  # +1 at +ell, -1 at -ell: law is u_t = -outward*b*p + g
        terms = [("b", bc.b), ("g", bc.g)]
        if bc.g1 is not None:
            terms.append(("g1", bc.g1))
        self.fns = {}
        for name, e in terms:
            self.fns[name] = _vec(e)
            self.fns[name + "_z"] = _vec(diff(e, "z"))
            self.fns[name + "_p"] = _vec(diff(e, "p"))
        self.has_g1 = bc.g1 is not None

    def law(self, t: float, z: float, p: float) -> float:
        b = float(self.fns["b"](t=t, x=self.x, z=z, p=p))
        g = float(self.fns["g"](t=t, x=self.x, z=z, p=p))
        out = -self.outward * b * p + g
        if self.has_g1:
            out += float(self.fns["g1"](t=t, x=self.x, z=z, p=p))
        return out

    def law_derivs(self, t: float, z: float, p: float) -> tuple[float, float]:
        """(d/dz, d/dp) of the boundary law at fixed stencil gradient p."""
        kw = dict(t=t, x=self.x, z=z, p=p)
        b = float(self.fns["b"](**kw))
        dz = -self.outward * float(self.fns["b_z"](**kw)) * p + float(self.fns["g_z"](**kw))
        dp = -self.outward * (float(self.fns["b_p"](**kw)) * p + b) + float(self.fns["g_p"](**kw))
        if self.has_g1:
            dz += float(self.fns["g1_z"](**kw))
            dp += float(self.fns["g1_p"](**kw))
        return dz, dp


class _DirichletEnd:
    def __init__(self, bc: DirichletBC, x_end: float):
        self.x = x_end
        self.value = _vec(bc.value)
        self.dvalue = _vec(diff(bc.value, "t"))

    def at(self, t: float) -> float:
        return float(self.value(t=t))

    def rate(self, t: float) -> float:
        return float(self.dvalue(t=t))


class SemiDiscretization:
    """Spatial discretization: node set, right-hand side, Jacobian stencils."""

    def __init__(self, problem: ProblemSpec, nx: int):
        if nx < 5:
            raise ConfigError(f"nx must be at least 5, got {nx}")
        self.problem = problem
        self.nx = nx
        self.nodes = np.linspace(-problem.ell, problem.ell, nx)
        self.dx = float(self.nodes[1] - self.nodes[0])

        self.a = _vec(problem.a)
        self.f = _vec(problem.f)
        self.a_z = _vec(diff(problem.a, "z"))
        self.a_p = _vec(diff(problem.a, "p"))
        self.f_z = _vec(diff(problem.f, "z"))
        self.f_p = _vec(diff(problem.f, "p"))
        self.has_f1 = problem.f1 is not None
        if self.has_f1:
            self.f1 = _vec(problem.f1)
            self.f1_z = _vec(diff(problem.f1, "z"))
            self.f1_p = _vec(diff(problem.f1, "p"))

        self.end_minus = (_DynamicEnd(problem.bc_minus, -problem.ell, -1.0)
                          if isinstance(problem.bc_minus, DynamicBC)
                          else _DirichletEnd(problem.bc_minus, -problem.ell))
        self.end_plus = (_DynamicEnd(problem.bc_plus, problem.ell, +1.0)
                        if isinstance(problem.bc_plus, DynamicBC)
                        else _DirichletEnd(problem.bc_plus, problem.ell))
        self.pinned_minus = isinstance(self.end_minus, _DirichletEnd)
        self.pinned_plus = isinstance(self.end_plus, _DirichletEnd)

    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        u0 = compile_expr(self.problem.u0)
        u = np.asarray(u0(x=self.nodes), dtype=float)
        u = np.broadcast_to(u, self.nodes.shape).copy()
        if self.pinned_minus:
            u[0] = self.end_minus.at(0.0)
        if self.pinned_plus:
            u[-1] = self.end_plus.at(0.0)
        return u

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Discrete u_x: centered inside, one-sided second-order at the ends."""
        p = np.empty_like(u)
        p[1:-1] = (u[2:] - u[:-2]) / (2 * self.dx)
        p[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * self.dx)
        p[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * self.dx)
        return p

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        """du/dt of every node; pinned nodes report the pin's rate."""
        dx = self.dx
        out = np.empty_like(u)
        xi = self.nodes[1:-1]
        z = u[1:-1]
        p = (u[2:] - u[:-2]) / (2 * dx)
        uxx = (u[2:] - 2 * u[1:-1] + u[:-2]) / dx ** 2
        kw = dict(t=t, x=xi, z=z, p=p)
        out[1:-1] = self.a(**kw) * uxx + self.f(**kw)
        if self.has_f1:
            out[1:-1] += self.f1(**kw)
        if self.pinned_minus:
            out[0] = self.end_minus.rate(t)
        else:
            pm = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * dx)
            out[0] = self.end_minus.law(t, u[0], pm)
        if self.pinned_plus:
            out[-1] = self.end_plus.rate(t)
        else:
            pp = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dx)
            out[-1] = self.end_plus.law(t, u[-1], pp)
        return out

    def rhs_jacobian(self, t: float, u: np.ndarray):
        """dF/du as (lower, diag, upper, corner_right, corner_left).

        corner_right couples row 0 to u[2]; corner_left couples the last
        row to u[-3]; both come from the one-sided boundary stencils.
        """
        dx = self.dx
        n = u.size
        lower = np.zeros(n)
        diag = np.zeros(n)
        upper = np.zeros(n)

        xi = self.nodes[1:-1]
        z = u[1:-1]
        p = (u[2:] - u[:-2]) / (2 * dx)
        uxx = (u[2:] - 2 * u[1:-1] + u[:-2]) / dx ** 2
        kw = dict(t=t, x=xi, z=z, p=p)
        a = self.a(**kw)
        az = self.a_z(**kw)
        ap = self.a_p(**kw)
        fz = self.f_z(**kw)
        fp = self.f_p(**kw)
        if self.has_f1:
            fz = fz + self.f1_z(**kw)
            fp = fp + self.f1_p(**kw)
        diag[1:-1] = az * uxx - 2 * a / dx ** 2 + fz
        lower[1:-1] = -ap * uxx / (2 * dx) + a / dx ** 2 - fp / (2 * dx)
        upper[1:-1] = ap * uxx / (2 * dx) + a / dx ** 2 + fp / (2 * dx)

        corner_right = 0.0
        corner_left = 0.0
        if not self.pinned_minus:
            pm = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * dx)
            dz, dp = self.end_minus.law_derivs(t, u[0], pm)
            diag[0] = dz + dp * (-3 / (2 * dx))
            upper[0] = dp * (4 / (2 * dx))
            corner_right = dp * (-1 / (2 * dx))
        if not self.pinned_plus:
            pp = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dx)
            dz, dp = self.end_plus.law_derivs(t, u[-1], pp)
            diag[-1] = dz + dp * (3 / (2 * dx))
            lower[-1] = dp * (-4 / (2 * dx))
            corner_left = dp * (1 / (2 * dx))
        return lower, diag, upper, corner_right, corner_left


def semidiscretize(problem: ProblemSpec, nx: int) -> SemiDiscretization:
    """Build the spatial discretization (node ODE description)."""
    return SemiDiscretization(problem, nx)


# ---------------------------------------------------------------------------
# linear algebra for the stage system

def _solve_bordered(lower, diag, upper, corner_right, corner_left, rhs):
    """Solve the tridiagonal system with two optional corner entries by
    eliminating them against the adjacent rows, then a Thomas sweep.

    The elimination runs on Python-float copies of the bands, which the
    sweep then uses as they are.  A corner whose adjacent band entry is
    zero cannot be eliminated; the system then goes to a dense solve, with
    any corner already eliminated left out of it.
    """
    lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(diag)
    if corner_right != 0.0 and abs(upper[1]) > 1e-300:
        fac = float(corner_right) / upper[1]
        diag[0] -= fac * lower[1]
        upper[0] -= fac * diag[1]
        rhs[0] -= fac * rhs[1]
        corner_right = 0.0
    if corner_left != 0.0 and abs(lower[n - 2]) > 1e-300:
        fac = float(corner_left) / lower[n - 2]
        lower[-1] -= fac * diag[n - 2]
        diag[-1] -= fac * upper[n - 2]
        rhs[-1] -= fac * rhs[n - 2]
        corner_left = 0.0
    if corner_right != 0.0 or corner_left != 0.0:
        dense = np.zeros((n, n))
        dense[np.arange(1, n), np.arange(n - 1)] = lower[1:]
        dense[np.arange(n), np.arange(n)] = diag
        dense[np.arange(n - 1), np.arange(1, n)] = upper[:-1]
        dense[0, 2] += corner_right
        dense[-1, -3] += corner_left
        return np.linalg.solve(dense, rhs)
    return thomas(lower, diag, upper, rhs)


# ---------------------------------------------------------------------------
# implicit stepping

def _theta_step(disc: SemiDiscretization, t: float, u: np.ndarray, dt: float,
                theta: float, cfg: SolverConfig) -> np.ndarray:
    """One theta-scheme step with damped Newton; raises _NewtonFailure."""
    t1 = t + dt
    explicit = u + dt * (1.0 - theta) * disc.rhs(t, u) if theta < 1.0 else u.copy()

    pin_lo = disc.pinned_minus
    pin_hi = disc.pinned_plus
    val_lo = disc.end_minus.at(t1) if pin_lo else 0.0
    val_hi = disc.end_plus.at(t1) if pin_hi else 0.0

    def residual(U: np.ndarray) -> np.ndarray:
        R = U - explicit - dt * theta * disc.rhs(t1, U)
        if pin_lo:
            R[0] = U[0] - val_lo
        if pin_hi:
            R[-1] = U[-1] - val_hi
        return R

    # explicit Euler predictor keeps Newton in its quadratic basin
    U = u + dt * disc.rhs(t, u)
    if pin_lo:
        U[0] = val_lo
    if pin_hi:
        U[-1] = val_hi
    if not np.all(np.isfinite(U)):
        raise _NewtonFailure("predictor not finite")

    scale = 1.0 + float(np.max(np.abs(u)))
    tol = cfg.newton_tol * scale
    R = residual(U)
    if not np.all(np.isfinite(R)):
        raise _NewtonFailure("residual not finite")
    nrm = float(np.max(np.abs(R)))
    for _ in range(cfg.newton_max_iter):
        if nrm <= tol:
            return U
        lower, diag, upper, c_r, c_l = disc.rhs_jacobian(t1, U)
        Jl = -dt * theta * lower
        Jd = 1.0 - dt * theta * diag
        Ju = -dt * theta * upper
        Jcr = -dt * theta * c_r
        Jcl = -dt * theta * c_l
        if pin_lo:
            Jd[0], Ju[0], Jcr = 1.0, 0.0, 0.0
        if pin_hi:
            Jd[-1], Jl[-1], Jcl = 1.0, 0.0, 0.0
        if not (np.all(np.isfinite(Jd)) and np.all(np.isfinite(Jl)) and np.all(np.isfinite(Ju))):
            raise _NewtonFailure("jacobian not finite")
        try:
            dU = _solve_bordered(Jl, Jd, Ju, Jcr, Jcl, -R)
        except Exception as exc:
            raise _NewtonFailure(f"linear solve failed: {exc}") from None
        if not np.all(np.isfinite(dU)):
            raise _NewtonFailure("update not finite")
        lam = 1.0
        while True:
            U_try = U + lam * dU
            R_try = residual(U_try)
            finite = np.all(np.isfinite(R_try))
            nrm_try = float(np.max(np.abs(R_try))) if finite else math.inf
            if finite and (nrm_try <= (1.0 - 0.25 * lam) * nrm or nrm_try <= tol):
                U, R, nrm = U_try, R_try, nrm_try
                break
            lam *= 0.5
            if lam < 1.0 / 64.0:
                raise _NewtonFailure("damping exhausted")
    if nrm <= 10.0 * tol:  # accept a nearly-converged iterate
        return U
    raise _NewtonFailure(f"no convergence, |R| = {nrm:.3e}")


def _attempt(disc, t, u, dt, theta, cfg):
    """Step-doubled pair: full step and two half steps (the accepted value)."""
    big = _theta_step(disc, t, u, dt, theta, cfg)
    half = _theta_step(disc, t, u, dt / 2, theta, cfg)
    half = _theta_step(disc, t + dt / 2, half, dt / 2, theta, cfg)
    return big, half


# ---------------------------------------------------------------------------
# validation for strict runs

def _validate_upc(problem: ProblemSpec, nx_probe: int = 17) -> None:
    """Sampled positivity of a and of the dynamic-end flux derivative over a
    box informed by the initial data."""
    xs0 = np.linspace(-problem.ell, problem.ell, 201)
    u0vals = np.broadcast_to(_vec(problem.u0)(x=xs0), xs0.shape)
    u0sup = float(np.max(np.abs(u0vals)))
    K = estimate_lipschitz(problem.u0, problem.ell, samples=2001)
    zbox = 2.0 * (1.0 + u0sup)
    pbox = 4.0 * (1.0 + K)
    ts = np.linspace(0, problem.T, nx_probe)
    xs = np.linspace(-problem.ell, problem.ell, nx_probe)
    zs = np.linspace(-zbox, zbox, nx_probe)
    ps = np.linspace(-pbox, pbox, nx_probe)
    a = _vec(problem.a)(t=ts[:, None, None, None], x=xs[None, :, None, None],
                        z=zs[None, None, :, None], p=ps[None, None, None, :])
    if not np.all(np.isfinite(a)) or np.min(a) <= 0.0:
        raise PreconditionFailed(
            f"diffusivity not positive on the sampled working box (min = {np.min(a):.6g})")
    for x_end, bc, sign in ((problem.ell, problem.bc_plus, -1.0),
                            (-problem.ell, problem.bc_minus, +1.0)):
        if not isinstance(bc, DynamicBC):
            continue
        end = "+ell" if sign < 0 else "-ell"
        bp = _vec(diff(bc.b, "p"))
        b = _vec(bc.b)
        gp = _vec(diff(bc.g, "p"))
        tt = ts[:, None, None]
        zz = zs[None, :, None]
        pp = ps[None, None, :]
        bv = b(t=tt, x=x_end, z=zz, p=pp)
        if not np.all(np.isfinite(bv)) or np.min(bv) <= 0.0:
            raise PreconditionFailed(
                f"boundary coefficient b not positive at {end} (min = {np.min(bv):.6g})")
        expr = bp(t=tt, x=x_end, z=zz, p=pp) * pp + bv \
            + sign * gp(t=tt, x=x_end, z=zz, p=pp)
        if not np.all(np.isfinite(expr)) or np.min(expr) <= 0.0:
            raise PreconditionFailed(
                f"boundary parabolicity fails at {end} (min = {np.min(expr):.6g})")


# ---------------------------------------------------------------------------
# driver

def solve(problem: ProblemSpec, cfg: SolverConfig | None = None) -> Solution:
    """Run the problem to T, to gradient blow-up, or to step failure.

    Strict mode (default) refuses to start when the zero-time compatibility
    residuals exceed cfg.compat_tol or the sampled parabolicity check fails.
    """
    cfg = cfg or SolverConfig()
    disc = semidiscretize(problem, cfg.nx)

    if cfg.strict_compatibility:
        res = check_compatibility(problem)
        worst = max(res["residual_plus"], res["residual_minus"])
        if worst > cfg.compat_tol:
            raise PreconditionFailed(
                f"compatibility residuals {res} exceed {cfg.compat_tol:g}; "
                "fix the data or run with strict_compatibility=False")
        _validate_upc(problem)

    t = 0.0
    u = disc.initial_state()
    times = [0.0]
    states = [u.copy()]
    accepted = 0
    rejected = 0
    newton_failures = 0
    dt = min(max(cfg.dt0, cfg.dt_min), cfg.dt_max, problem.T)
    status: Completed | BlowUpDetected | StepFailure | None = None

    grad0 = float(np.max(np.abs(disc.gradient(u))))
    if grad0 > cfg.gradient_cutoff:
        status = BlowUpDetected(time=0.0, max_gradient=grad0)

    eps_t = 1e-12 * problem.T
    while status is None:
        if t >= problem.T - eps_t:
            status = Completed()
            break
        if accepted + rejected > cfg.max_steps:
            status = StepFailure(time=t, reason="step budget exhausted")
            break
        dt = min(dt, cfg.dt_max, problem.T - t)
        theta_used = cfg.theta
        try:
            big, half = _attempt(disc, t, u, dt, theta_used, cfg)
        except _NewtonFailure:
            newton_failures += 1
            if cfg.theta != 1.0:
                # fully implicit fallback before any dt reduction
                try:
                    theta_used = 1.0
                    big, half = _attempt(disc, t, u, dt, theta_used, cfg)
                except _NewtonFailure:
                    big = half = None
            else:
                big = half = None
            if half is None:
                if dt <= cfg.dt_min * (1 + 1e-9) or cfg.fixed_step:
                    status = StepFailure(time=t, reason="newton failure at minimal step")
                    break
                dt = max(dt * 0.25, cfg.dt_min)
                rejected += 1
                continue

        order = 2.0 if theta_used == 0.5 else 1.0
        err = float(np.max(np.abs(big - half))) / (2.0 ** order - 1.0)
        if not cfg.fixed_step and err > cfg.local_error_tol:
            rejected += 1
            if dt <= cfg.dt_min * (1 + 1e-9):
                status = StepFailure(time=t, reason="error control at minimal step")
                break
            shrink = max(0.2, 0.9 * (cfg.local_error_tol / err) ** (1.0 / (order + 1.0)))
            dt = max(dt * min(shrink, 0.9), cfg.dt_min)
            continue

        if not np.all(np.isfinite(half)):
            # do not store it: the grid carrier keeps finite states only
            status = StepFailure(time=t + dt, reason="solution not finite")
            break
        u = half
        t += dt
        accepted += 1
        times.append(t)
        states.append(u.copy())

        grad = float(np.max(np.abs(disc.gradient(u))))
        if grad > cfg.gradient_cutoff:
            status = BlowUpDetected(time=t, max_gradient=grad)
            break

        if not cfg.fixed_step:
            grow = 0.9 * (cfg.local_error_tol / max(err, 1e-300)) ** (1.0 / (order + 1.0))
            dt = min(max(dt * min(max(grow, 0.2), 5.0), cfg.dt_min), cfg.dt_max)

    tarr = np.asarray(times)
    vals = np.vstack(states)
    ux = np.vstack([disc.gradient(row) for row in states])
    ut = np.vstack([disc.rhs(tk, row) for tk, row in zip(times, states)])
    grid = GridFunction(tarr, disc.nodes, vals)
    return Solution(
        grid=grid,
        ux=GridFunction(tarr, disc.nodes, ux),
        ut=GridFunction(tarr, disc.nodes, ut),
        status=status,
        step_log={"accepted": accepted, "rejected": rejected,
                  "newton_failures": newton_failures},
    )
