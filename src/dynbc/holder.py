"""Discrete anisotropic Hölder seminorms and norms of space-time grid functions.

Functions u(t_i, x_j) live on a rectangular grid over [0, T] x [-ell, ell].
Seminorms are brute-force suprema of difference quotients over grid-point
pairs along one axis; the parabolic norm of order k combines derivative
sup-norms (2*j_t + j_x <= k) with the top-order seminorm pair: exponent
alpha in x and alpha/2 in t on the order-k derivatives, plus exponent
(1+alpha)/2 in t on the order-(k-1) derivatives.

Pairwise scans are O(n^2) per slice, so axes are subsampled to at most
MAX_SCAN_POINTS points (stride recorded in the report) to keep the
diagnostics sub-second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateGrid

__all__ = [
    "GridFunction", "HolderReport", "InterpolationRatios",
    "sup_norm", "holder_seminorm", "parabolic_norm", "interpolation_diagnostic",
    "MAX_SCAN_POINTS",
]

MAX_SCAN_POINTS = 512


@dataclass
class GridFunction:
    """u sampled on times (increasing, in [0, T]) x nodes (increasing)."""

    times: np.ndarray
    nodes: np.ndarray
    values: np.ndarray  # shape (len(times), len(nodes))

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.nodes.ndim != 1:
            raise DegenerateGrid("times and nodes must be 1-d arrays")
        if self.values.shape != (self.times.size, self.nodes.size):
            raise DegenerateGrid(
                f"values shape {self.values.shape} != ({self.times.size}, {self.nodes.size})")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise DegenerateGrid("times must be strictly increasing")
        if self.nodes.size > 1 and np.any(np.diff(self.nodes) <= 0):
            raise DegenerateGrid("nodes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DegenerateGrid("grid values must be finite")

    @classmethod
    def from_callable(cls, fn: Callable[[float, float], float],
                      times: np.ndarray, nodes: np.ndarray) -> "GridFunction":
        tt, xx = np.meshgrid(np.asarray(times, float), np.asarray(nodes, float), indexing="ij")
        return cls(times, nodes, np.asarray(fn(tt, xx), dtype=float))

    def scaled(self, factor: float) -> "GridFunction":
        return GridFunction(self.times, self.nodes, factor * self.values)


@dataclass
class HolderReport:
    """Norm components at order k: derivative sups plus top seminorms.

    sup_norm sums the sup-norms of all derivatives with 2*j_t + j_x <= k;
    semi_x / semi_t split the top-order seminorm by quotient direction and
    parabolic_semi is their sum, so sup_norm + parabolic_semi is the norm.
    """

    sup_norm: float
    semi_x: float
    semi_t: float
    parabolic_semi: float
    k: int
    alpha: float
    stride_x: int = 1
    stride_t: int = 1

    @property
    def norm(self) -> float:
        return self.sup_norm + self.parabolic_semi

    def as_dict(self) -> dict:
        return {
            "sup_norm": self.sup_norm, "semi_x": self.semi_x, "semi_t": self.semi_t,
            "parabolic_semi": self.parabolic_semi, "k": self.k, "alpha": self.alpha,
            "norm": self.norm, "stride_x": self.stride_x, "stride_t": self.stride_t,
        }


class InterpolationRatios(NamedTuple):
    """LHS / (U_top^theta * U_0^(1-theta)) for the three interpolation bounds."""

    second_order: float   # |u_t| + |u_xx|, theta = 1/(2+alpha)
    gradient_semi: float  # seminorm of u_x,   theta = (1+alpha)/(2+alpha)
    value_semi: float     # seminorm of u,     theta = alpha/(2+alpha)


def sup_norm(u: GridFunction) -> float:
    """max |u| over the grid."""
    return float(np.max(np.abs(u.values)))


def _subsample_indices(n: int, cap: int = MAX_SCAN_POINTS) -> tuple[np.ndarray, int]:
    if n <= cap:
        return np.arange(n), 1
    stride = int(np.ceil(n / cap))
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)  # keep the endpoint in every scan
    return idx, stride


def _pairwise_max(coords: np.ndarray, values2d: np.ndarray, alpha: float) -> float:
    """sup over slices (rows) and coordinate pairs of |du| / |dcoord|^alpha.

    Scanned by index offset: offset d pairs every coordinate with the one d
    further on, in all slices at once.  A slice with a NaN quotient is left
    out of the sup, as a slice whose max is NaN.
    """
    # slices as columns, so each offset reduces over contiguous rows
    cols = np.ascontiguousarray(values2d.T)
    slice_max = np.zeros(cols.shape[1])
    for d in range(1, coords.size):
        weights = 1.0 / np.abs(coords[d:] - coords[:-d]) ** alpha
        quotients = np.abs(cols[d:] - cols[:-d]) * weights[:, None]
        np.maximum(slice_max, np.max(quotients, axis=0), out=slice_max)
    return float(np.max(slice_max[~np.isnan(slice_max)], initial=0.0))


def holder_seminorm(u: GridFunction, alpha: float, axis: str) -> float:
    """Difference-quotient supremum along one axis, exponent exactly alpha.

    Callers wanting the parabolic time scaling pass alpha/2 themselves.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if axis not in ("x", "t"):
        raise ValueError(f"axis must be 'x' or 't', got {axis!r}")
    if axis == "x":
        if u.nodes.size < 2:
            raise DegenerateGrid("need at least 2 nodes for an x-seminorm")
        idx, _ = _subsample_indices(u.nodes.size)
        tidx, _ = _subsample_indices(u.times.size)
        return _pairwise_max(u.nodes[idx], u.values[np.ix_(tidx, idx)], alpha)
    if u.times.size < 2:
        raise DegenerateGrid("need at least 2 times for a t-seminorm")
    idx, _ = _subsample_indices(u.times.size)
    xidx, _ = _subsample_indices(u.nodes.size)
    return _pairwise_max(u.times[idx], u.values[np.ix_(idx, xidx)].T, alpha)


def _fd_weights(xs: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on nodes xs
    (Fornberg's recursion)."""
    n = xs.size
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _second_diff(values: np.ndarray, coords: np.ndarray, axis: int) -> np.ndarray:
    """Direct second derivative: 3-point interior, 4-point one-sided edges
    (second order everywhere, no loss from composing first differences).

    Each stencil is contracted by ``np.einsum``, numpy's own loop, not by a
    BLAS product, so a slice's result does not depend on the other slices
    or on the BLAS library."""
    v = np.moveaxis(values, axis, -1)
    n = coords.size
    out = np.empty_like(v)
    for j in range(1, n - 1):
        w = _fd_weights(coords[j - 1:j + 2], coords[j], 2)
        out[..., j] = np.einsum("...j,j->...", v[..., j - 1:j + 2], w)
    ne = min(4, n)  # 3-node grids fall back to the full-width stencil
    we0 = _fd_weights(coords[:ne], coords[0], 2)
    wen = _fd_weights(coords[-ne:], coords[-1], 2)
    out[..., 0] = np.einsum("...j,j->...", v[..., :ne], we0)
    out[..., -1] = np.einsum("...j,j->...", v[..., -ne:], wen)
    return np.moveaxis(out, -1, axis)


def _derivative(u: GridFunction, j_t: int, j_x: int) -> np.ndarray:
    """D_t^{j_t} D_x^{j_x} u by finite differencing.

    First derivatives: centered three-point inside, second-order one-sided
    at edges.  A pure second x-derivative uses the direct stencil.
    """
    vals = u.values
    for _ in range(j_t):
        vals = np.gradient(vals, u.times, axis=0, edge_order=2)
    if j_x == 2:
        vals = _second_diff(vals, u.nodes, axis=1)
    else:
        for _ in range(j_x):
            vals = np.gradient(vals, u.nodes, axis=1, edge_order=2)
    return vals


def _top_seminorms(u: GridFunction, k: int, alpha: float) -> tuple[float, float]:
    """(x-part, t-part) of the order-k seminorm combination."""
    semi_x = 0.0
    semi_t = 0.0
    for j_t in range(k // 2 + 1):
        j_x = k - 2 * j_t
        d = GridFunction(u.times, u.nodes, _derivative(u, j_t, j_x))
        semi_x += holder_seminorm(d, alpha, "x")
        semi_t += holder_seminorm(d, alpha / 2.0, "t")
    for j_t in range((k - 1) // 2 + 1):  # empty when k = 0
        j_x = k - 1 - 2 * j_t
        d = GridFunction(u.times, u.nodes, _derivative(u, j_t, j_x))
        semi_t += holder_seminorm(d, (1.0 + alpha) / 2.0, "t")
    return semi_x, semi_t


def parabolic_norm(u: GridFunction, k: int, alpha: float) -> HolderReport:
    """Order-k anisotropic norm report (k in {0, 1, 2})."""
    if k not in (0, 1, 2):
        raise ValueError(f"k must be 0, 1 or 2, got {k}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    min_pts = 3 if k >= 1 else 2
    if u.nodes.size < min_pts or u.times.size < min_pts:
        raise DegenerateGrid(f"need >= {min_pts} points per axis for k = {k}")
    sup_total = 0.0
    for j_t in range(k // 2 + 1):
        for j_x in range(k - 2 * j_t + 1):
            sup_total += float(np.max(np.abs(_derivative(u, j_t, j_x))))
    semi_x, semi_t = _top_seminorms(u, k, alpha)
    _, stride_x = _subsample_indices(u.nodes.size)
    _, stride_t = _subsample_indices(u.times.size)
    return HolderReport(sup_norm=sup_total, semi_x=semi_x, semi_t=semi_t,
                        parabolic_semi=semi_x + semi_t, k=k, alpha=alpha,
                        stride_x=stride_x, stride_t=stride_t)


def interpolation_diagnostic(u: GridFunction, alpha: float) -> InterpolationRatios:
    """Ratios LHS / (U_top^theta * U_0^(1-theta)) for the three standard
    interpolation bounds between the order-(2+alpha) seminorm and the sup.

    The bounds hold with an unknowable constant, so only boundedness and
    scale invariance of these ratios are meaningful.  A vanishing
    denominator (u identically 0, or top seminorm 0 with vanishing LHS)
    reports 0 by convention.
    """
    u0 = sup_norm(u)
    if u0 == 0.0:
        return InterpolationRatios(0.0, 0.0, 0.0)
    top = parabolic_norm(u, 2, alpha).parabolic_semi

    lhs_second = float(np.max(np.abs(_derivative(u, 1, 0)))) + float(np.max(np.abs(_derivative(u, 0, 2))))
    ux = GridFunction(u.times, u.nodes, _derivative(u, 0, 1))
    lhs_grad = holder_seminorm(ux, alpha, "x") + holder_seminorm(ux, alpha / 2.0, "t")
    lhs_val = holder_seminorm(u, alpha, "x") + holder_seminorm(u, alpha / 2.0, "t")

    def ratio(lhs: float, theta: float) -> float:
        denom = top ** theta * u0 ** (1.0 - theta)
        return lhs / denom if denom > 0.0 else 0.0

    q = 2.0 + alpha
    return InterpolationRatios(
        second_order=ratio(lhs_second, 1.0 / q),
        gradient_semi=ratio(lhs_grad, (1.0 + alpha) / q),
        value_semi=ratio(lhs_val, alpha / q),
    )
