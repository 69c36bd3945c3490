"""Gradient-barrier certificates and hypothesis checking.

The a-priori machinery revolves around a gauge psi >= 1 limiting the
right-hand side through |f| <= a * psi(|p|).  Given a sup budget M and a
floor slope q0 at least the Lipschitz constant of the initial data, the
top slope q1 solves

    integral_{q0}^{q1} rho / psi(rho) d rho = 2 M,

and the barrier h is the concave arc with h(0) = 0, h'(0) = q1 and
h'' = -psi(h'), down to h' = q0.  Along the arc, at slope q = h',

    xi(q) = integral_q^{q1} d rho / psi(rho),   h(q) = integral_q^{q1} rho / psi(rho) d rho,

so the stopping abscissa is kappa0 = xi(q0) and h(kappa0) = 2M.  The
barrier majorizes the spatial modulus of continuity of any solution within
budget, and |u_x| <= h'(0) = q1 is the resulting gradient bound.

q1, the barrier table and the sup budget's integral of 1/Phi all come from
one slope-space quadrature: five-point Gauss-Legendre sums over cells,
accumulated, with the kernel called on arrays of nodes.  Every integral over
[a, inf) is read once, by ``tail_integral``, and decided from that reading:
find_q1 finds q1 in it, (9) and (266) share one, sup_bound inverts its
reading of 1/Phi as G, and blowup_inequality halves one.  A sweep shares one
reading of rho/psi over its M axis, and takes kappa0 from a reading of 1/psi
up to q1 (``TailReading.upto``) instead of building the arc.  Cells halve on
their own, so no sum depends on the call, and no two readings disagree.

Hypothesis checks are dense-sampling falsifiers over the stated boxes, not
proofs.  They report signed worst margins (satisfied iff margin <= 0): a
sampled condition reports the first largest margin in sampling order, with
that sample as witness, and a NaN margin violates it, the first NaN sample
its witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConditionViolated, PreconditionFailed
from .expr import Expr, compile_expr, diff, evaluate, free_variables, parse, to_str
from .numerics import PchipCurve, golden_section
from .problem import DirichletBC, DynamicBC, ProblemSpec

__all__ = [
    "PsiSpec", "BarrierCertificate", "ConditionCheck", "ConditionReport", "SupBoundCertificate",
    "TailIntegral", "TailReading", "tail_integral", "budget_reading", "find_q1", "build_barrier",
    "estimate_lipschitz", "check_compatibility", "check_hypotheses", "sup_bound",
]

# q0 >= K is accepted up to this relative slack; the Lipschitz estimator's
# safety factor (1e-6) must not reject exact-equality setups like K = q0
K_SLACK = 1e-5


# ---------------------------------------------------------------------------
# psi gauge

@dataclass(frozen=True)
class PsiSpec:
    """Growth gauge rho -> psi(rho), psi C^1 and >= 1 on [0, inf)."""

    expr: Expr

    def __post_init__(self):
        bad = free_variables(self.expr) - {"p"}
        if bad:
            raise PreconditionFailed(f"psi may depend on p only, found {sorted(bad)}")
        fn = self._compiled
        dfn = compile_expr(diff(self.expr, "p"))
        rho = np.concatenate([np.linspace(0.0, 10.0, 401), np.geomspace(10.0, 1e3, 101)])
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(np.asarray(fn(p=rho), dtype=float), rho.shape)
            dvals = np.broadcast_to(np.asarray(dfn(p=rho), dtype=float), rho.shape)
        if not np.all(np.isfinite(vals)) or not np.all(np.isfinite(dvals)):
            raise PreconditionFailed("psi must be C^1 and finite on the sampled range")
        if np.min(vals) < 1.0 - 1e-12:
            k = int(np.argmin(vals))
            raise PreconditionFailed(
                f"psi must map into [1, inf); psi({rho[k]}) = {vals[k]}")

    @classmethod
    def from_text(cls, text: str) -> "PsiSpec":
        return cls(parse(text))

    @functools.cached_property
    def _compiled(self):
        """psi compiled once; every kernel and integrand of the gauge calls it."""
        return compile_expr(self.expr)

    def kernel(self):
        """psi on an array of slopes."""
        f = self._compiled
        return lambda rho: np.broadcast_to(f(p=rho), rho.shape)

    def budget_integrand(self):
        """rho / psi(rho) on an array of slopes, the slope budget's integrand."""
        kernel = self.kernel()
        return lambda rho: rho / kernel(rho)

    def width_integrand(self):
        """1 / psi(rho) on an array of slopes, the integrand of the barrier's
        width: kappa0 is its integral over [q0, q1]."""
        kernel = self.kernel()
        return lambda rho: 1.0 / kernel(rho)

    @property
    def text(self) -> str:
        return to_str(self.expr)


# ---------------------------------------------------------------------------
# certificates

@dataclass
class BarrierCertificate:
    """Concave barrier arc and the numbers that license it."""

    q0: float
    q1: float
    kappa0: float
    M: float
    K: float
    xi: np.ndarray     # table abscissae, xi[0] = 0, xi[-1] = kappa0
    h: np.ndarray      # h(xi), h[0] = 0, h[-1] = 2M (up to quadrature tol)
    hp: np.ndarray     # h'(xi), decreasing from q1 to q0
    psi_text: str

    @property
    def gradient_bound(self) -> float:
        return self.q1

    def h_curve(self) -> PchipCurve:
        """Shape-preserving cubic through the table with its exact slopes."""
        return PchipCurve(self.xi, self.h, dys=self.hp)

    def as_dict(self) -> dict:
        return {"q0": self.q0, "q1": self.q1, "kappa0": self.kappa0, "M": self.M,
                "K": self.K, "gradient_bound": self.gradient_bound, "psi": self.psi_text,
                "table_rows": int(self.xi.size)}


@dataclass
class ConditionCheck:
    name: str
    satisfied: bool
    worst_violation: float
    witness: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "satisfied": self.satisfied,
                "worst_violation": self.worst_violation, "witness": self.witness}


@dataclass
class ConditionReport:
    entries: list[ConditionCheck] = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    @property
    def violated(self) -> list[str]:
        return [e.name for e in self.entries if not e.satisfied]

    def entry(self, name: str) -> ConditionCheck:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"all_satisfied": self.all_satisfied,
                "violated": self.violated,
                "entries": [e.as_dict() for e in self.entries]}


@dataclass
class SupBoundCertificate:
    """Sup-norm budget from the growth gauge of the zero-gradient sources.

    Two variants of the infimum are kept: M_paper is the bare form without
    horizon amplification, M_proof carries the exp(lambda T) factor the
    maximum-principle argument actually produces.  Both are reported;
    M_proof is the bound this package treats as licensed.
    """

    phi_text: str
    B: float
    u0_sup: float
    T: float
    M_paper: float
    M_proof: float
    lambda_star: float

    def as_dict(self) -> dict:
        return {"Phi": self.phi_text, "B": self.B, "u0_sup": self.u0_sup, "T": self.T,
                "M_paper": self.M_paper, "M_proof": self.M_proof,
                "lambda_star": self.lambda_star}


# ---------------------------------------------------------------------------
# slope-space quadrature

# nodes on [-1, 1] and weights of the five-point Gauss-Legendre rule, which
# gives every cell its value, then of the five-point Gauss-Lobatto rule,
# which samples the cell's ends and checks it
_G1, _G2 = (math.sqrt(5.0 + sign * 2.0 * math.sqrt(10.0 / 7.0)) / 3.0 for sign in (-1.0, 1.0))
_W1, _W2 = ((322.0 + sign * 13.0 * math.sqrt(70.0)) / 900.0 for sign in (1.0, -1.0))
_L1 = math.sqrt(3.0 / 7.0)
_NODES = np.array([-_G2, -_G1, 0.0, _G1, _G2, -1.0, -_L1, _L1, 1.0])
_WEIGHTS = np.array([[_W2, _W1, 128.0 / 225.0, _W1, _W2, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 32.0 / 45.0, 0.0, 0.0, 0.1, 49.0 / 90.0, 49.0 / 90.0, 0.1]]).T

CELL_TOL = 1e-14        # relative agreement of the two rules that accepts a cell
HALVINGS = 8            # disagreeing parts of one input cell that a level may halve
CHUNK = 512             # cells per call of _cells: bounds the temporaries of a table
CELLS_PER_DOUBLING = 8  # geometric cells per doubling in tail integrals
SECTIONS = 64           # equal parts per round of the search in _reach
_SPLIT = np.arange(SECTIONS + 1) / SECTIONS
BARRIER_ROWS = 8193     # rows of the barrier table: uniform and geometric slopes
# an integral over [a, inf), read at the window ends max(1, a) 2^j, has
# converged at the first window past [a, 2 max(1, a)] that adds at most
# TAIL_TOL (1 + |sum|); it is left open at j = TAIL_DOUBLINGS
TAIL_TOL = 1e-14
TAIL_DOUBLINGS = 61


def _cells(fn, lo, hi, root=None) -> np.ndarray:
    """Integrals of fn over the cells [lo, hi] by the five-point
    Gauss-Legendre rule.  A cell where the Gauss-Lobatto rule disagrees by
    more than CELL_TOL, relative, is halved, and so on while at most HALVINGS
    parts of its input cell (its root) disagree at one level: a kink costs a
    few parts per level in its own cell, also next to the cell's ends, which
    only Lobatto samples, and noise that halving cannot resolve stops after
    a few levels.  Halving also stops at adjacent floats.  So a cell's value
    does not depend on the other cells of the call.

    fn is called once per level, on the array of every node, and may return
    a stack of integrands along leading axes.
    """
    half = 0.5 * (hi - lo)
    mid = lo + half
    rules = half[:, None] * (fn(mid[:, None] + half[:, None] * _NODES) @ _WEIGHTS)
    out, check = rules[..., 0], rules[..., 1]
    bad = np.any((np.abs(out - check) > CELL_TOL * np.abs(out)).reshape(-1, lo.size), axis=0)
    redo = bad & (lo < mid) & (mid < hi)
    if redo.any():  # most calls halve nothing, so they skip the count per root
        root = np.arange(lo.size) if root is None else root
        redo &= np.bincount(root, weights=bad)[root] <= HALVINGS
    k = int(np.count_nonzero(redo))
    if k:
        sub = _cells(fn, np.concatenate([lo[redo], mid[redo]]),
                     np.concatenate([mid[redo], hi[redo]]), np.tile(root[redo], 2))
        out[..., redo] = sub[..., :k] + sub[..., k:]
    return out


def _gauss_sums(fn, lo, hi) -> np.ndarray:
    """Integrals of fn over the cells [lo[i], hi[i]] (see ``_cells``),
    accumulated: entry 0 is 0 and entry i + 1 adds cell i."""
    cells = np.concatenate([_cells(fn, lo[i:i + CHUNK], hi[i:i + CHUNK])
                            for i in range(0, lo.size, CHUNK)], axis=-1)
    return np.concatenate([np.zeros(cells.shape[:-1] + (1,)), np.cumsum(cells, axis=-1)],
                          axis=-1)


def _reach(fn, edges: np.ndarray, sums: np.ndarray, target: float) -> float:
    """The point where the integral of fn from edges[0] reaches target, given
    its sums at the edges.  The search starts in the first cell whose sum
    passes target (the last cell when none does) and splits the bracket into
    SECTIONS equal parts per round, down to adjacent floats."""
    k = int(np.argmax(sums >= target)) or edges.size - 1
    lo, hi, s_lo, s_hi = edges[k - 1], edges[k], sums[k - 1], sums[k]
    while True:
        xs = lo + (hi - lo) * _SPLIT
        xs[-1] = hi
        s = s_lo + _gauss_sums(fn, xs[:-1], xs[1:])
        j = int(np.argmax(s >= target)) or SECTIONS
        if xs[j] - xs[j - 1] >= hi - lo:
            break
        lo, hi, s_lo, s_hi = xs[j - 1], xs[j], s[j - 1], s[j]
    return float(hi if s_hi - target <= target - s_lo else lo)


def _doubling_edges(lo: float, hi: float) -> np.ndarray:
    """Geometric edges from lo to at least hi, CELLS_PER_DOUBLING cells to
    each doubling."""
    count = CELLS_PER_DOUBLING * max(1, math.ceil(math.log2(hi / lo)))
    return lo * 2.0 ** (np.arange(count + 1) / CELLS_PER_DOUBLING)


class TailIntegral(NamedTuple):
    """An integral over [a, inf) as read at the window end ``upper`` where
    it was decided: ``crossed_target``, ``convergent`` or ``divergent``."""

    value: float
    upper: float
    classified: str

    def witness(self) -> dict:
        return {"integral_estimate": self.value, "upper_limit": self.upper,
                "classified": self.classified}


class TailReading(NamedTuple):
    """An integral over [a, inf) summed from a to its edges; the window ends
    are edges[first] = 2 max(1, a) and every CELLS_PER_DOUBLING-th after."""

    edges: np.ndarray
    sums: np.ndarray
    first: int

    def decide(self, target: float = math.inf) -> TailIntegral:
        """Whichever comes first: ``crossed_target`` at the first window end
        past target, ``convergent`` where TAIL_TOL settles it, else ``divergent``."""
        ends, at = (v[self.first::CELLS_PER_DOUBLING] for v in (self.edges, self.sums))
        settled = np.flatnonzero(np.abs(np.diff(at)) <= TAIL_TOL * (1.0 + np.abs(at[1:]))) + 1
        passed = np.flatnonzero(at > target)
        if passed.size and not (settled.size and settled[0] < passed[0]):
            k, classified = passed[0], "crossed_target"
        elif settled.size:
            k, classified = settled[0], "convergent"
        else:
            k, classified = -1, "divergent"
        return TailIntegral(float(at[k]), float(ends[k]), classified)

    def upto(self, fn, y: float) -> float:
        """The integral of fn, the integrand read, from edges[0] to y <= edges[-1]:
        the sum to the last edge at or below y, plus the cell from that edge to y."""
        k = int(np.searchsorted(self.edges, y, side="right")) - 1
        return float(self.sums[k] + _gauss_sums(fn, self.edges[k:k + 1], np.array([y]))[-1])


@np.errstate(all="ignore")  # cells far out may overflow the integrand
def tail_integral(fn, a: float) -> TailReading:
    """The one reading of the integral of fn over [a, inf), a >= 0, that
    every caller decides from, with window ends max(1, a) 2^j for
    j = 1..TAIL_DOUBLINGS.  fn is summed over geometric cells: from a to
    2 max(1, a) in equal ratios, CELLS_PER_DOUBLING cells or more to a
    doubling (for a = 0 the first cell is [0, 2^-10]), then
    CELLS_PER_DOUBLING to each window, up to the last window end.
    """
    low = max(1.0, a)
    last = low * 2.0 ** TAIL_DOUBLINGS
    ratio = 2.0 * low / a if a else 1.0
    if not (math.isfinite(last) and math.isfinite(ratio)):
        raise PreconditionFailed(
            f"integral over [{a}, inf): its cells from {a} to {last} overflow a float")
    if a == 0.0:
        head = np.concatenate([[0.0], _doubling_edges(2.0 ** -10, 2.0)])
    else:
        n = CELLS_PER_DOUBLING * max(1, math.ceil(math.log2(ratio)))
        head = a * ratio ** (np.arange(n + 1) / n)
        head[-1] = 2.0 * low
    edges = np.concatenate([head, _doubling_edges(2.0 * low, last)[1:]])
    return TailReading(edges, _gauss_sums(fn, edges[:-1], edges[1:]), head.size - 1)


# ---------------------------------------------------------------------------
# slope budget

def budget_reading(psi: PsiSpec, q0: float) -> TailReading:
    """The ``tail_integral`` reading of rho/psi that ``find_q1`` decides from;
    a q0 that is not positive is read from 0, and refused by ``find_q1``."""
    return tail_integral(psi.budget_integrand(), q0 if q0 > 0 else 0.0)


@np.errstate(all="ignore")  # cells past q1 may overflow the gauge
def find_q1(psi: PsiSpec, q0: float, M: float, budget: TailReading | None = None) -> float:
    """Top slope q1 > q0 with integral_{q0}^{q1} rho/psi = 2M.

    One reading of rho/psi, ``budget_reading(psi, q0)``, decides whether q1
    exists; a caller that holds it already (a sweep, over its M axis) passes
    it as ``budget``.  When the integral passes 2M at a window end, q1 is
    found inside the cell of that reading where its sum passes 2M, by
    repeated sectioning.

    Raises ConditionViolated when the integral stays <= 2M: it converges to
    a value <= 2M, so no finite q1 meets the budget, or it is still short
    at max(1, q0) 2^61, the last window end.
    """
    if budget is None:
        budget = budget_reading(psi, q0)
    if not (q0 > 0):
        raise PreconditionFailed(f"q0 must be positive, got {q0}")
    if not (M > 0):
        raise PreconditionFailed(f"M must be positive, got {M}")
    target = 2.0 * M
    tail = budget.decide(target)
    if tail.classified == "crossed_target":
        return _reach(psi.budget_integrand(), budget.edges, budget.sums, target)
    reach = ("converges to" if tail.classified == "convergent"
             else f"up to {tail.upper:.6g} reaches")
    raise ConditionViolated(
        f"integral of rho/psi over [{q0}, inf) {reach} ~{tail.value:.6g}"
        f" <= 2M = {target:.6g}; no finite q1 exists")


# ---------------------------------------------------------------------------
# barrier arc

def build_barrier(psi: PsiSpec, q0: float, M: float, K: float) -> BarrierCertificate:
    """The barrier arc h'' = -psi(h'), h(0) = 0, h'(0) = q1, down to h' = q0,
    tabulated by its slope q = h'.

    On a descending slope grid from q1 to q0, xi(q) = integral_q^{q1} d rho
    / psi and h(q) = integral_q^{q1} rho / psi d rho are Gauss-Legendre sums
    cell by cell, and h'(xi(q)) = q.  The grid interleaves BARRIER_ROWS
    slopes: uniform ones, and geometric ones halfway between the points of a
    geometric grid, which resolve the low slopes when q1/q0 is large.
    """
    if K > max(q0, q0 * (1.0 + K_SLACK)):  # the slack must not tighten a negative q0
        raise PreconditionFailed(f"K = {K} exceeds q0 = {q0}; barrier needs q0 >= K")
    q1 = find_q1(psi, q0, M)
    kernel = psi.kernel()

    def integrands(rho):  # d xi / d rho and d h / d rho, up to sign
        inv = 1.0 / kernel(rho)
        return np.stack([inv, rho * inv])

    n = (BARRIER_ROWS + 1) // 2
    q = np.unique(np.concatenate([np.linspace(q0, q1, n),
                                  np.geomspace(q0, q1, 2 * n - 1)[1::2]]))[::-1]
    xi, h = _gauss_sums(integrands, q[1:], q[:-1])
    return BarrierCertificate(q0=q0, q1=q1, kappa0=float(xi[-1]), M=M, K=K,
                              xi=xi, h=h, hp=q, psi_text=psi.text)


def _lipschitz_witness(u0: Expr, ell: float, samples: int) -> tuple[float, float]:
    """The sampled Lipschitz constant of ``estimate_lipschitz`` and the first
    grid point where |u0'| is largest."""
    du = compile_expr(diff(u0, "x"))
    xs = np.linspace(-ell, ell, samples)
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(np.asarray(du(x=xs), dtype=float), xs.shape)
    if not np.all(np.isfinite(vals)):
        raise PreconditionFailed("u0 derivative not finite on the sample grid")
    slopes = np.abs(vals)
    i = int(np.argmax(slopes))
    return float(slopes[i] * (1.0 + 1e-6)), float(xs[i])


def estimate_lipschitz(u0: Expr, ell: float, samples: int = 10_000) -> float:
    """Sampled Lipschitz constant of the initial data: max |u0'| over a
    uniform grid times a (1 + 1e-6) safety factor."""
    return _lipschitz_witness(u0, ell, samples)[0]


# ---------------------------------------------------------------------------
# compatibility of initial and boundary evolution laws

def check_compatibility(problem: ProblemSpec) -> dict:
    """Residual of the t = 0 balance between the interior equation and each
    boundary law, evaluated at x = +-ell.

    Dynamic end:    | (-/+ b p + g [+ g1]) - (a u0'' + f [+ f1]) |
    Dirichlet end:  | u0(end) - value(0) |
    """
    u0x = diff(problem.u0, "x")
    u0xx = diff(u0x, "x")

    def residual(end) -> float:
        z = evaluate(problem.u0, x=end.x)
        p = evaluate(u0x, x=end.x)
        if isinstance(end.bc, DirichletBC):
            return abs(z - evaluate(end.bc.value, t=0.0))
        kw = dict(t=0.0, x=end.x, z=z, p=p)
        rhs = evaluate(problem.a, **kw) * evaluate(u0xx, x=end.x) + evaluate(problem.f, **kw)
        if problem.f1 is not None:
            rhs += evaluate(problem.f1, **kw)
        lhs = -end.outward * evaluate(end.bc.b, **kw) * p + evaluate(end.bc.g, **kw)
        if end.bc.g1 is not None:
            lhs += evaluate(end.bc.g1, **kw)
        return abs(lhs - rhs)

    plus, minus = problem.ends
    return {"residual_plus": residual(plus), "residual_minus": residual(minus)}


# ---------------------------------------------------------------------------
# dense-sampling hypothesis checks
#
# Each sampled condition yields (margin, witness) candidates in sampling
# order, and ``_worst`` keeps the first largest, a NaN margin counting as
# larger than any number.

def _worst(name: str, candidates) -> ConditionCheck | None:
    """The entry of a sampled condition from its (margin, witness)
    candidates: the first largest margin, NaN first; None when there are no
    candidates.  A NaN margin is not <= 0, so it violates the condition."""
    best = max(candidates, key=lambda c: (math.isnan(c[0]), c[0]), default=None)
    return None if best is None else ConditionCheck(name, best[0] <= 0.0, *best)


def _box_worst(values, axes: dict, **fixed) -> tuple[float, dict]:
    """The first largest sample of a margin array over the box ``axes``, NaN
    first as np.argmax has it, and its witness: ``fixed``, then the sample
    point."""
    shape = tuple(grid.size for grid in axes.values())
    arr = np.broadcast_to(np.asarray(values, dtype=float), shape)
    idx = np.unravel_index(np.argmax(arr), shape)
    return float(arr[idx]), {**fixed, **{name: float(grid[i])
                                         for (name, grid), i in zip(axes.items(), idx)}}


def _running_worst(dom: np.ndarray, offset: np.ndarray, forward: tuple[bool, bool]):
    """The worst margin offset + R, where R at each point is the largest dom
    over the samples that dominate it: along each of the last two axes, the
    samples up to the point when ``forward`` says so, from it on otherwise.

    Returns the worst margin (the first largest, NaN first), its index, and
    the index in the last two axes of the first largest dom sample that
    gives R there.
    """
    run = dom
    for axis, fwd in zip((-2, -1), forward):
        if fwd:
            run = np.maximum.accumulate(run, axis=axis)
        else:
            run = np.flip(np.maximum.accumulate(np.flip(run, axis), axis=axis), axis)
    margin = run + offset
    idx = np.unravel_index(np.argmax(margin), margin.shape)
    *lead, j, k = idx
    box = [slice(0, i + 1) if fwd else slice(i, None) for i, fwd in zip((j, k), forward)]
    sub = dom[(*lead, *box)]
    dj, dk = np.unravel_index(np.argmax(sub), sub.shape)
    return float(margin[idx]), idx, (box[0].start + dj, box[1].start + dk)


def _divergence_entry(name: str, reading: TailReading) -> ConditionCheck:
    tail = reading.decide()
    satisfied = tail.classified != "convergent"
    return ConditionCheck(name=name, satisfied=satisfied,
                          worst_violation=-1.0 if satisfied else 1.0, witness=tail.witness())


@np.errstate(all="ignore")
def check_hypotheses(problem: ProblemSpec, M: float, q0: float, psi: PsiSpec,
                     pmax: float | None = None, *, n_samples: int = 33,
                     phi: Expr | None = None, B: float | None = None,
                     zmax: float | None = None, compat_tol: float = 1e-8) -> ConditionReport:
    """Dense-sampling check of every licensing condition.

    Margins are signed: satisfied iff worst_violation <= 0.  Boxes follow
    the stated quantifiers, clipped to [-M, M] in z and [-pmax, pmax] in p
    (pmax defaults to 4 q1 when the slope budget closes, else 100).  A
    sampled condition reports its first largest margin in sampling order,
    with that sample as witness; a NaN margin violates the condition, and
    the first NaN sample is its witness.  Checks over ordered tuples run at
    full n_samples resolution through running-extremum reductions.
    Divergence conditions report +-1 sentinel margins with the
    ``tail_integral`` decision as witness; (9), (266) and the default pmax
    decide from one reading of rho/psi.
    """
    budget = budget_reading(psi, q0)
    if pmax is None:
        try:
            pmax = 4.0 * find_q1(psi, q0, M, budget)
        except ConditionViolated:
            pmax = 100.0
    n = n_samples
    ell, T = problem.ell, problem.T
    ts = np.linspace(0.0, T, n)
    xs = np.linspace(-ell, ell, n)
    zs = np.linspace(-M, M, n)
    ps = np.linspace(-pmax, pmax, n if n % 2 else n + 1)  # symmetric about 0
    pos = np.linspace(q0, pmax, n)

    a_fn, f_fn, psi_fn = compile_expr(problem.a), compile_expr(problem.f), psi._compiled
    entries: list[ConditionCheck | None] = []

    # (6): |f| <= a psi(|p|) on [0,T] x [-ell,ell] x [-M,M] x [-pmax,pmax]
    tt = ts[:, None, None, None]
    xx = xs[None, :, None, None]
    zz = zs[None, None, :, None]
    pp = ps[None, None, None, :]
    margin6 = np.abs(f_fn(t=tt, x=xx, z=zz, p=pp)) - a_fn(t=tt, x=xx, z=zz, p=pp) * psi_fn(p=np.abs(pp))
    entries.append(_worst("(6)", [_box_worst(margin6, {"t": ts, "x": xs, "z": zs, "p": ps})]))

    # (9): integral_{q0}^inf rho/psi > 2M, decided as find_q1 decides it
    tail = budget.decide(2.0 * M)
    margin9 = 2.0 * M - tail.value
    converged = tail.classified == "convergent"
    entries.append(ConditionCheck("(9)", not (converged and margin9 >= 0.0),
                                  margin9 if converged else -abs(margin9), tail.witness()))

    # (9bNEU): boundary fluxes dominate the boundary sources at slopes >= q0
    entries.append(_worst("(9bNEU)", _boundary_sign_margins(problem, ts, zs, pos)))

    # (10): sampled Lipschitz constant of u0 fits under q0
    K_est, x_k = _lipschitz_witness(problem.u0, ell, 10_000)
    entries.append(ConditionCheck(
        "(10)", K_est <= q0 * (1.0 + K_SLACK), K_est - q0 * (1.0 + K_SLACK),
        {"K_estimate": K_est, "q0": q0, "x": x_k}))

    # (upc): a > 0 everywhere; at dynamic ends d_p(b) p + b -/+ d_p(g) > 0
    # (margin 0.0 from exact degeneracy still counts as satisfied per the
    # signed-margin convention; strict positivity failures show up > 0)
    entries.append(_worst("(upc)", (_box_worst(margin, axes, part=part)
                                    for part, margin, axes in _upc_margins(problem, ts, xs, zs, ps))))

    # (66): zero-time balance between interior and boundary laws
    res = check_compatibility(problem)
    worst66 = max(res["residual_plus"], res["residual_minus"]) - compat_tol
    entries.append(ConditionCheck("(66)", worst66 <= 0.0, worst66, dict(res)))

    # split right-hand side monotonicity conditions
    if problem.has_split_rhs:
        entries.extend(_split_rhs_entries(problem, ts, xs, zs, pos, n))

    # sup-bound growth conditions when a gauge is supplied
    if phi is not None and B is not None:
        entries.append(_worst("(209b)", _gauge_margins(
            problem, phi, B, ts, xs, ps, zmax if zmax is not None else max(10.0, 4.0 * M))))
        entries.append(_divergence_entry(
            "(phi)", tail_integral(_inverse_gauge(compile_expr(phi)), 0.0)))

    # (266): strengthened budget, integral of rho/psi diverges
    entries.append(_divergence_entry("(266)", budget))

    return ConditionReport([e for e in entries if e is not None])


def _boundary_sign_margins(problem: ProblemSpec, ts, zs, pos):
    """(9bNEU) candidates, one per dynamic end and sign s of the slope:
    outward s g(t, end, z, s p) - b(t, end, z, s p) p at slopes p >= q0."""
    tt = ts[:, None, None]
    zz = zs[None, :, None]
    qq = pos[None, None, :]
    for end in problem.ends:
        if not isinstance(end.bc, DynamicBC):
            continue
        b_fn, g_fn = compile_expr(end.bc.b), compile_expr(end.bc.g)
        for s in (+1.0, -1.0):
            kw = dict(t=tt, x=end.x, z=zz, p=s * qq)
            margin = (end.outward * s) * g_fn(**kw) - b_fn(**kw) * qq
            yield _box_worst(margin, {"t": ts, "z": zs, "p": pos}, end=end.label, sign=s)


def _upc_margins(problem: ProblemSpec, ts, xs, zs, ps):
    """Positivity margins as (part, margin array, sample axes): -a on the
    interior box, then -(d_p(b) p + b -/+ d_p(g)) at each dynamic end."""
    a = compile_expr(problem.a)(t=ts[:, None, None, None], x=xs[None, :, None, None],
                                z=zs[None, None, :, None], p=ps[None, None, None, :])
    yield "a", -a, {"t": ts, "x": xs, "z": zs, "p": ps}
    t3 = ts[:, None, None]
    z3 = zs[None, :, None]
    p3 = ps[None, None, :]
    for end in problem.ends:
        if not isinstance(end.bc, DynamicBC):
            continue
        kw = dict(t=t3, x=end.x, z=z3, p=p3)
        flux = (compile_expr(diff(end.bc.b, "p"))(**kw) * p3 + compile_expr(end.bc.b)(**kw)
                - end.outward * compile_expr(diff(end.bc.g, "p"))(**kw))
        yield "boundary at " + end.label, -flux, {"t": ts, "z": zs, "p": ps}


def _split_rhs_entries(problem: ProblemSpec, ts, xs, zs, pos, n):
    """Ordered-tuple monotonicity conditions for the split right-hand side.

    Each worst case over (x <= y, z1 <= z2) or (z1 <= z2, p1 <= p2) pairs is
    found exactly on the sample grid by ``_running_worst``, vectorised over
    one more sampled axis (p for (225), t for (226) and (227)), so the full
    n-per-axis resolution is kept and no array is larger than n^3.
    """
    zero = parse("0")
    f1_fn = compile_expr(problem.f1 if problem.f1 is not None else zero)
    tt = ts[:, None, None, None]

    def f1_at(it, p):  # f1 at t = ts[it] on the (x, z, p) grid
        vals = f1_fn(t=tt[it], x=xs[:, None, None], z=zs[None, :, None], p=p[None, None, :])
        return np.broadcast_to(vals, (xs.size, zs.size, p.size))

    def g1_at(end, p):  # g1 at the end on the (t, z, p) grid
        vals = compile_expr(end.bc.g1 if end.bc.g1 is not None else zero)(
            t=ts[:, None, None], x=end.x, z=zs[None, :, None], p=p[None, None, :])
        return np.broadcast_to(vals, (ts.size, zs.size, p.size))

    @functools.cache
    def over_x(s):  # f1's min and max over x, on the (t, z, p) grid at slopes s pos
        blocks = (f1_at(it, s * pos) for it in range(ts.size))  # one n^3 block at a time
        low, high = zip(*((block.min(axis=0), block.max(axis=0)) for block in blocks))
        return np.stack(low), np.stack(high)

    def order_225():
        # f1(t, y, z1, +-p) >= f1(t, x, z2, +-p) for x <= y, z1 <= z2, p >= 0
        p_nonneg = np.linspace(0.0, pos[-1], n)
        for s in (+1.0, -1.0):
            p = s * p_nonneg
            for it in range(ts.size):
                vals = np.moveaxis(f1_at(it, p), -1, 0)  # (p, x, z)
                # at (ip, k, j1): best f1(x <= y_k, z2 >= z1_j1) minus f1(y_k, z1_j1)
                worst, (ip, k, j1), (i, j2) = _running_worst(vals, -vals, (True, False))
                yield worst, {"t": float(ts[it]), "p": float(p[ip]),
                              "x": float(xs[i]), "y": float(xs[k]),
                              "z1": float(zs[j1]), "z2": float(zs[j2])}

    plus = problem.ends[0]

    def order_226():
        # f1(t, x, z1, +-p1) >= g1(t, +ell, z2, +-p2) for z1 <= z2, q0 <= p1 <= p2
        for s in (+1.0, -1.0):
            p = s * pos
            # at (it, j2, m2): g1(z2, p2) minus min f1 over x, z1 <= z2, p1 <= p2
            worst, (it, j2, m2), (j1, m1) = _running_worst(-over_x(s)[0], g1_at(plus, p),
                                                           (True, True))
            ix = int(np.argmin(f1_at(it, p)[:, j1, m1]))
            yield worst, {"t": float(ts[it]), "sign": s, "x": float(xs[ix]),
                          "z1": float(zs[j1]), "z2": float(zs[j2]),
                          "p1": float(p[m1]), "p2": float(p[m2])}

    def order_227():
        # g1(t, +ell, z1, -p1) >= f1(t, x, z2, -p2) and
        # g1(t, -ell, z1, p1) >= f1(t, x, z2, p2), for z1 <= z2, q0 <= p2 <= p1
        for end in problem.ends:
            if not isinstance(end.bc, DynamicBC):
                continue
            p = -end.outward * pos
            # at (it, j1, m1): max f1 over x, z2 >= z1, p2 <= p1, minus g1(z1, p1)
            worst, (it, j1, m1), (j2, m2) = _running_worst(
                over_x(-end.outward)[1], -g1_at(end, p), (False, True))
            ix = int(np.argmax(f1_at(it, p)[:, j2, m2]))
            yield worst, {"t": float(ts[it]), "end": end.label, "x": float(xs[ix]),
                          "z1": float(zs[j1]), "z2": float(zs[j2]),
                          "p1": float(p[m1]), "p2": float(p[m2])}

    return [_worst("(225)", order_225()),
            _worst("(226)", order_226()) if isinstance(plus.bc, DynamicBC) else None,
            _worst("(227)", order_227())]


def _gauge_margins(problem: ProblemSpec, phi: Expr, B: float, ts, xs, ps, zmax: float):
    """(209b) candidates: z f(t,x,z,0), then z g(t,+-ell,z,p) at each
    dynamic end, minus the gauge Phi(|z|)|z| + B."""
    zs = np.linspace(-zmax, zmax, 65)
    phi_fn = compile_expr(phi)

    def gauge(zarr):
        az = np.abs(zarr)
        return np.broadcast_to(phi_fn(z=az, p=az, x=az, t=az), az.shape) * az + B

    tt = ts[:, None, None]
    zz = zs[None, None, :]
    margin_f = zz * compile_expr(problem.f)(t=tt, x=xs[None, :, None], z=zz, p=0.0) - gauge(zz)
    yield _box_worst(margin_f, {"t": ts, "x": xs, "z": zs}, part="f")
    z3 = zs[None, :, None]
    p3 = ps[None, None, :]
    for end in problem.ends:
        if isinstance(end.bc, DynamicBC):
            margin_g = z3 * compile_expr(end.bc.g)(t=tt, x=end.x, z=z3, p=p3) - gauge(z3)
            yield _box_worst(margin_g, {"t": ts, "z": zs, "p": ps}, part="g at " + end.label)


# ---------------------------------------------------------------------------
# sup-norm budget

def _inverse_gauge(phi_fn):
    """r -> 1/Phi(r) on an array, from Phi compiled, every variable set to r."""
    return lambda r: 1.0 / np.broadcast_to(phi_fn(t=r, x=r, z=r, p=r), r.shape)


def sup_bound(Phi: Expr, B: float, u0_sup: float, T: float) -> SupBoundCertificate:
    """Budget M for sup|u| from the gauge Phi and offset B of the
    zero-gradient growth condition.

    phi is the increasing map with integral_0^{phi(xi)} dr/Phi(r) = ln(xi),
    phi(1) = 0.  Working in the log domain, with G(y) the integral of
    1/Phi from 0:

        M_paper  = inf over lambda > 1 of  G^{-1}( max{0, G(beta), G(u0_sup)} )
        M_proof  = inf over lambda > 1 of  G^{-1}( max{...} + lambda T )

    with beta = B / ((lambda - 1) Phi(0)).  G^{-1} increases, so each
    infimum is G^{-1} of the infimum of its argument, which is scanned on
    the grid lambda = 1 + 10^k, k = -6..6, then refined by golden section.

    G is the ``tail_integral`` reading of 1/Phi from 0, whose edges end at
    2^61; G^{-1} is searched inside the cell where its sums pass the
    argument, and is inf past the last edge.

    Raises ConditionViolated when that reading is convergent, as condition
    (phi) reads it.
    """
    bad = free_variables(Phi) - {"z"} - {"p"} - {"x"} - {"t"}
    if bad:
        raise PreconditionFailed(f"Phi gauge has unknown variables {sorted(bad)}")
    phi_fn = compile_expr(Phi)

    rs = np.linspace(0.0, 1e3, 2001)
    with np.errstate(all="ignore"):
        samples = np.broadcast_to(np.asarray(phi_fn(t=rs, x=rs, z=rs, p=rs), float), rs.shape)
    if not np.all(np.isfinite(samples)) or np.min(samples) <= 0.0:
        raise PreconditionFailed("Phi must be positive and finite on [0, inf)")
    if np.any(np.diff(samples) < -1e-9 * (1.0 + np.abs(samples[:-1]))):
        raise PreconditionFailed("Phi must be non-decreasing")
    if not (B > 0):
        raise PreconditionFailed(f"B must be positive, got {B}")
    if u0_sup < 0:
        raise PreconditionFailed(f"u0_sup must be non-negative, got {u0_sup}")

    inv_phi = _inverse_gauge(phi_fn)
    edges, sums, _ = reading = tail_integral(inv_phi, 0.0)
    tail = reading.decide()
    if tail.classified == "convergent":
        raise ConditionViolated(
            f"integral of 1/Phi over [0, inf) converges (~{tail.value:.6g}); "
            "the sup budget construction requires divergence")

    phi0 = float(phi_fn(t=0.0, x=0.0, z=0.0, p=0.0))

    def G(y: float) -> float:
        return reading.upto(inv_phi, y) if y > 0.0 else 0.0

    def G_inv(c: float) -> float:
        if c <= 0.0:
            return 0.0
        if c > sums[-1]:
            return math.inf
        return _reach(inv_phi, edges, sums, c)

    Gu0 = G(u0_sup)

    def log_xi(lam: float) -> float:
        beta = B / ((lam - 1.0) * phi0)
        return max(0.0, G(beta), Gu0)

    def minimize(fn) -> tuple[float, float]:
        grid = [1.0 + 10.0 ** k for k in range(-6, 7)]
        vals = [fn(l) for l in grid]
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        if lo == hi:
            return grid[i], vals[i]
        # refine in log(lambda - 1) to respect the grid's scaling
        ulo, uhi = math.log10(lo - 1.0), math.log10(hi - 1.0)
        u_star, f_star = golden_section(lambda u: fn(1.0 + 10.0 ** u), ulo, uhi, tol=1e-12)
        if f_star <= vals[i]:
            return 1.0 + 10.0 ** u_star, f_star
        return grid[i], vals[i]

    _, paper = minimize(log_xi)
    lam_star, proof = minimize(lambda lam: log_xi(lam) + lam * T)
    return SupBoundCertificate(phi_text=to_str(Phi), B=B, u0_sup=u0_sup, T=T,
                               M_paper=G_inv(paper), M_proof=G_inv(proof),
                               lambda_star=lam_star)
