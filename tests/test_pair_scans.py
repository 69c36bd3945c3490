"""The oscillation-pruned pair scans equal a scan of every pair, bit for bit.

``reference_doubling`` and ``reference_modulus`` are the per-slice loops of
``doubling_check`` and ``bounds_check`` from before the scans skipped pairs,
kept verbatim as the reference.  The property tests compare values (sign of
zero and NaN included) and witnesses on random grids, tied values, NaN and
infinities in u and in h, kappa0 below the grid spacing and above 2 ell, a
single slice, and more slices than the doubled scan's cap.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbc.holder import GridFunction
from dynbc.solver import Completed, Solution
from dynbc.verify import MAX_TIME_SLICES, _pair_mask, _time_subsample, bounds_check, doubling_check

PROPERTY = settings(max_examples=300, deadline=None)
# NaN and infinities in u and h make both scans warn alike
QUIET = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def reference_doubling(sol, cert, max_time_slices=MAX_TIME_SLICES):
    nodes = sol.grid.nodes
    times = sol.grid.times
    jj, kk, offsets = _pair_mask(nodes, cert.kappa0)
    if jj.size == 0:
        zero = {"t": float(times[0]), "x": float(nodes[0]), "y": float(nodes[0])}
        return 0.0, 0.0, dict(zero), dict(zero)

    curve = cert.h_curve()
    h_vals = curve(offsets)
    tidx = _time_subsample(times, max_time_slices)

    best_w = -math.inf
    best_w1 = -math.inf
    wit_w: dict = {}
    wit_w1: dict = {}
    for i in tidx:
        row = sol.grid.values[i]
        diffs = row[jj] - row[kk]
        damp = math.exp(-times[i])
        w = damp * (diffs - h_vals)
        w1 = damp * (-diffs - h_vals)
        m = int(np.argmax(w))
        if w[m] > best_w:
            best_w = float(w[m])
            wit_w = {"t": float(times[i]), "x": float(nodes[jj[m]]), "y": float(nodes[kk[m]])}
        m1 = int(np.argmax(w1))
        if w1[m1] > best_w1:
            best_w1 = float(w1[m1])
            wit_w1 = {"t": float(times[i]), "x": float(nodes[jj[m1]]), "y": float(nodes[kk[m1]])}
    return best_w, best_w1, wit_w, wit_w1


def reference_modulus(sol, cert):
    times = sol.grid.times
    nodes = sol.grid.nodes
    values = sol.grid.values
    witnesses: dict = {}
    jj, kk, offsets = _pair_mask(nodes, cert.kappa0)
    if jj.size:
        curve = cert.h_curve()
        h_vals = curve(offsets)
        tidx = _time_subsample(times, cap=32_768)
        modulus_slack = math.inf
        for i in tidx:
            row = values[i]
            slack_row = h_vals - np.abs(row[jj] - row[kk])
            m = int(np.argmin(slack_row))
            if slack_row[m] < modulus_slack:
                modulus_slack = float(slack_row[m])
                witnesses["modulus"] = {"t": float(times[i]), "x": float(nodes[jj[m]]),
                                        "y": float(nodes[kk[m]])}
    else:
        modulus_slack = 0.0
        witnesses["modulus"] = {"note": "kappa0 below grid spacing; diagonal only"}
    return modulus_slack, witnesses


def bits(value):
    """A report value's identity: NaN as a token, floats with their sign of zero."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [bits(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    return "nan" if math.isnan(value) else (value, math.copysign(1.0, value))


SPECIALS = (math.nan, math.inf, -math.inf)


@st.composite
def scan_cases(draw):
    """(solution, certificate stand-in) for one scan comparison."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx = draw(st.integers(2, 24))
    nt = draw(st.sampled_from((1, 2, 7, MAX_TIME_SLICES + 1, 2 * MAX_TIME_SLICES + 3)))
    ell = draw(st.sampled_from((0.5, 1.0, 3.0)))
    nodes = np.linspace(-ell, ell, nx)
    # t past ~745 makes the damping exp(-t) exactly 0
    times = np.linspace(0.0, draw(st.sampled_from((1.0, 5.0, 800.0))), nt)
    dx = nodes[1] - nodes[0]
    kappa0 = draw(st.sampled_from((0.5 * dx, dx, 2.5 * dx, ell, 2.0 * ell, 3.0 * ell)))

    rows = draw(st.sampled_from(("random", "few_values", "linear", "constant", "hump")))
    if rows == "random":
        values = rng.uniform(-1.0, 1.0, (nt, nx))
    elif rows == "few_values":   # many tied differences, signed zeros among them
        values = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5], (nt, nx))
    elif rows == "linear":
        values = rng.uniform(-1.0, 1.0, (nt, 1)) * nodes / ell + 0.0 * times[:, None]
    elif rows == "constant":
        values = np.full((nt, nx), rng.uniform(-1.0, 1.0))
    else:
        amp = rng.uniform(0.0, 1.0, (nt, 1))
        values = amp * np.cos(np.pi * nodes / (2 * ell)) ** 3
    grid = GridFunction(times, nodes, values)
    for _ in range(draw(st.integers(0, 2))):
        grid.values[rng.integers(nt), rng.integers(nx)] = draw(st.sampled_from(SPECIALS))
    sol = Solution(grid=grid, ux=GridFunction(times, nodes, np.zeros_like(values)),
                   ut=GridFunction(times, nodes, np.zeros_like(values)), status=Completed())

    shape = draw(st.sampled_from(("concave", "linear", "steps", "constant")))
    scale = draw(st.sampled_from((0.25, 1.0, 2.0)))
    bad_h = draw(st.sampled_from((None,) * 6 + SPECIALS))
    bad_at = draw(st.floats(0.0, 1.0))

    def h_curve():
        def h(q):
            s = np.asarray(q, dtype=float) / kappa0
            vals = {"concave": scale * np.sqrt(s), "linear": scale * s,
                    "steps": np.round(4.0 * s) * scale / 4.0,
                    "constant": np.full_like(s, scale)}[shape]
            if bad_h is not None and vals.size:
                vals[int(bad_at * (vals.size - 1))] = bad_h
            return vals
        return h

    cert = SimpleNamespace(kappa0=kappa0, M=math.inf, q1=1.0, h_curve=h_curve)
    return sol, cert


@QUIET
@PROPERTY
@given(scan_cases())
def test_doubling_check_equals_the_scan_of_every_pair(case):
    sol, cert = case
    got = doubling_check(sol, cert)
    want = reference_doubling(sol, cert)
    assert bits([got.max_w_tilde, got.max_w1_tilde]) == bits(list(want[:2]))
    assert bits(got.witness_w) == bits(want[2])
    assert bits(got.witness_w1) == bits(want[3])


@QUIET
@PROPERTY
@given(scan_cases())
def test_modulus_scan_equals_the_scan_of_every_pair(case):
    sol, cert = case
    report = bounds_check(sol, cert, doubling=doubling_check(sol, cert))
    slack, witnesses = reference_modulus(sol, cert)
    assert bits(report.modulus_slack) == bits(slack)
    assert bits(report.witnesses.get("modulus")) == bits(witnesses.get("modulus"))


class CountedRows(np.ndarray):
    """Grid values that record how many pairs each slice gathers."""

    gathered: list = []

    def take(self, indices, *args, **kwargs):
        CountedRows.gathered.append(len(indices))
        return np.asarray(self).take(indices, *args, **kwargs)


def test_pruned_scan_skips_pairs_and_keeps_the_first_witness(monkeypatch):
    # a hump of amplitude 0.1 under h(xi) = xi up to 2: after the first slice
    # most pairs are out of reach, and the tied extremes of the symmetric
    # profile must still resolve to the first pair in (t, x, y) order
    monkeypatch.setattr(CountedRows, "gathered", [])
    nodes = np.linspace(-1.0, 1.0, 65)
    times = np.linspace(0.0, 1.0, 9)
    values = 0.1 * np.cos(np.pi * nodes / 2) ** 2 + 0.0 * times[:, None]
    grid = GridFunction(times, nodes, values)
    sol = Solution(grid=grid, ux=GridFunction(times, nodes, np.zeros_like(values)),
                   ut=GridFunction(times, nodes, np.zeros_like(values)), status=Completed())
    cert = SimpleNamespace(kappa0=2.0, M=1.0, q1=1.0, h_curve=lambda: lambda q: np.asarray(q))
    want = reference_doubling(sol, cert)
    slack, witnesses = reference_modulus(sol, cert)

    grid.values = grid.values.view(CountedRows)
    got = doubling_check(sol, cert)
    assert bits([got.max_w_tilde, got.max_w1_tilde, got.witness_w, got.witness_w1]) == bits(list(want))
    report = bounds_check(sol, cert, doubling=got)
    assert bits([report.modulus_slack, report.witnesses["modulus"]]) == bits([slack, witnesses["modulus"]])
    # two gathers (x and y) per evaluated slice; each scan's first slice has
    # no best to beat, every later one skips most pairs
    pairs = _pair_mask(nodes, cert.kappa0)[0].size
    per_slice = CountedRows.gathered[::2]
    assert CountedRows.gathered[1::2] == per_slice
    assert len(per_slice) == 2 * times.size
    assert per_slice[0] == per_slice[times.size] == pairs
    assert max(per_slice[1:times.size] + per_slice[times.size + 1:]) < pairs // 4


def test_tied_zero_extremes_keep_the_sign_of_the_first_pair():
    # u = (0, -0, 0) with h = 0 at offset dx: w~ is -0.0 at (x1, x0) and +0.0
    # at (x2, x1), and w~1 the other way round; each report carries the
    # first pair's zero whichever one a max over the slice returns
    nodes = np.array([-1.0, 0.0, 1.0])
    times = np.array([0.0])
    values = np.array([[0.0, -0.0, 0.0]])
    sol = Solution(grid=GridFunction(times, nodes, values),
                   ux=GridFunction(times, nodes, np.zeros_like(values)),
                   ut=GridFunction(times, nodes, np.zeros_like(values)), status=Completed())
    cert = SimpleNamespace(kappa0=2.0, M=1.0, q1=1.0,
                           h_curve=lambda: lambda q: np.where(np.asarray(q) > 1.5, 10.0, 0.0))
    got = doubling_check(sol, cert)
    want = reference_doubling(sol, cert)
    assert bits([got.max_w_tilde, got.max_w1_tilde, got.witness_w, got.witness_w1]) == bits(list(want))
    assert bits([got.max_w_tilde, got.max_w1_tilde]) == [(0.0, -1.0), (0.0, 1.0)]
