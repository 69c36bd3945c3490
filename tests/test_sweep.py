"""The sweep's rows from shared budget readings.

``cmd_sweep`` parses each gauge once and reads each (psi, q0) tail of
rho/psi and of 1/psi once.  A row's q1 is ``find_q1`` on the first reading,
so it is the q1 of certify bit for bit; its kappa0 is the second reading up
to q1 (``TailReading.upto``), which must agree with the width of the arc
``build_barrier`` tabulates, and with the closed forms of the integral of
1/psi over [q0, q1] at the row's own q1.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynbc.certificate as certificate
import dynbc.cli as cli
from dynbc.certificate import (
    PsiSpec, _gauss_sums, build_barrier, find_q1, tail_integral,
)
from dynbc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"

STEADY = {
    "ell": 1.0, "T": 1.0, "a": "1", "f": "0", "u0": "x",
    "bc_minus": {"kind": "dynamic", "b": "1", "g": "-1"},
    "bc_plus": {"kind": "dynamic", "b": "1", "g": "1"},
}

# kappa0 = integral of 1/psi over [q0, q1]
KAPPA0 = {
    "1": lambda q0, q1: q1 - q0,
    "1+p^2": lambda q0, q1: math.atan(q1) - math.atan(q0),
    "1+p": lambda q0, q1: math.log1p((q1 - q0) / (1.0 + q0)),
}


def _bench_grid(seed: int, tmp_path, monkeypatch) -> dict:
    """The sweep block of the benchmark's sweep workload at ``seed``."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    wl = workloads.make_workload("sweep", seed, Path(cli.__file__).parents[1],
                                 tmp_path / f"bench{seed}")
    return {key: wl.inputs[key] for key in ("psi", "q0", "M")}


def _sweep(tmp_path, grid: dict) -> list[list[str]]:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(STEADY, sweep=grid)))
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    return [line.split(",", 7) for line in lines]  # the detail may hold commas


@pytest.mark.parametrize("grid", [
    {"psi": ["1"], "q0": [1.0, 2.0, 4.0], "M": [2.0]},
    {"psi": ["1", "(1+p^2)^1.5"], "q0": [1.0], "M": [2.0]},
    {"psi": ["1"], "q0": [-1.0], "M": [2.0, -2.0]},
    "bench seed 0", "bench seed 7",
])
def test_a_sweep_row_is_certify_s_q1_and_the_arc_s_width(tmp_path, monkeypatch, grid):
    if isinstance(grid, str):
        grid = _bench_grid(int(grid.split()[-1]), tmp_path, monkeypatch)
    rows = _sweep(tmp_path, grid)
    points = [(p, q, M) for p in grid["psi"] for q in grid["q0"] for M in grid["M"]]
    assert len(rows) == len(points)
    for row, (text, q0, M) in zip(rows, points):
        assert (json.loads(row[0]), float(row[1]), float(row[2])) == (text, q0, M)
        if row[3] != "ok":
            continue
        q1, kappa0 = float(row[4]), float(row[5])
        psi = PsiSpec.from_text(text)
        assert q1 == find_q1(psi, q0, M)
        arc = build_barrier(psi, q0, M, K=min(q0, 1.0))
        assert q1 == arc.q1
        assert kappa0 == pytest.approx(arc.kappa0, rel=1e-13, abs=0.0)
        if text in KAPPA0:
            assert abs(kappa0 - KAPPA0[text](q0, q1)) <= 1e-15 * (1.0 + kappa0)


def test_a_sweep_reads_each_gauge_and_tail_once(tmp_path, monkeypatch):
    parses, readings, q1s = Counter(), Counter(), []
    from_text, read = PsiSpec.from_text, certificate.tail_integral

    def parse(text):
        parses[text] += 1
        return from_text(text)

    def tail(fn, a):
        readings[a] += 1
        return read(fn, a)

    def barrier(*args, **kwargs):
        raise AssertionError("a sweep builds no barrier arc")

    monkeypatch.setattr(PsiSpec, "from_text", staticmethod(parse))
    for mod in (certificate, cli):
        monkeypatch.setattr(mod, "tail_integral", tail)
        monkeypatch.setattr(mod, "build_barrier", barrier)
    find = cli.find_q1
    monkeypatch.setattr(cli, "find_q1", lambda *a, **kw: q1s.append(a) or find(*a, **kw))
    grid = {"psi": ["1", "1+p^2", "(1+p^2)^1.5", "1"], "q0": [0.5, 1.0, 2.0],
            "M": [0.25, 0.5, 1.0, 2.0]}
    rows = _sweep(tmp_path, grid)
    assert {row[3] for row in rows} == {"ok", "ConditionViolated"}
    assert parses == {"1": 1, "1+p^2": 1, "(1+p^2)^1.5": 1}
    # one rho/psi and at most one 1/psi reading per distinct (psi, q0)
    assert set(readings) == set(grid["q0"])
    assert all(n <= 2 * 3 for n in readings.values())
    assert len(q1s) == len(rows)  # find_q1 once a point, as the bench counts it


def test_a_failing_gauge_fails_each_of_its_rows(tmp_path):
    rows = _sweep(tmp_path, {"psi": ["p", "1", "1+"], "q0": [1.0, 2.0], "M": [1.0, 2.0]})
    assert [row[3] for row in rows] == ["PreconditionFailed"] * 4 + ["ok"] * 4 + [
        "ExprSyntaxError"] * 4
    assert len({row[7] for row in rows[:4]}) == 1 and len({row[7] for row in rows[8:]}) == 1


def test_a_sweep_refuses_a_q0_past_the_float_range_row_by_row(tmp_path):
    rows = _sweep(tmp_path, {"psi": ["1"], "q0": [1e300, 1.0], "M": [1.0, 2.0]})
    assert [row[3] for row in rows] == ["PreconditionFailed"] * 2 + ["ok"] * 2
    assert all("overflow a float" in row[7] for row in rows[:2])


# ---------------------------------------------------------------------------
# TailReading.upto

# smooth gauges: the reading's cells resolve them.  An oscillating gauge is
# not resolved once a cell spans many periods (2+sin(p) read from 2 to 1000
# is 1.3e-4 off its closed form), and there upto is only as good as the cells
GAUGES = ("1", "1+p^2", "1+p", "(1+p^2)^1.5", "1+p^4", "1+p^2+p^6/1000")


def _integrand(text: str, which: str):
    psi = PsiSpec.from_text(text)
    return psi.width_integrand() if which == "width" else psi.budget_integrand()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GAUGES), st.sampled_from(["width", "budget"]),
       st.floats(0.01, 100.0), st.data())
def test_upto_meets_the_reading_s_sums_and_grows(text, which, q0, data):
    fn = _integrand(text, which)
    reading = tail_integral(fn, q0)
    edges, sums = reading.edges, reading.sums
    k = data.draw(st.integers(0, edges.size - 1))
    assert reading.upto(fn, edges[k]) == sums[k]
    y1, y2 = sorted(data.draw(st.floats(q0, 1e4)) for _ in range(2))
    assert reading.upto(fn, y1) <= reading.upto(fn, y2)
    # the float just below an edge reads no more than the edge
    below = np.nextafter(edges[max(k, 1)], 0.0)
    assert reading.upto(fn, below) <= sums[max(k, 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GAUGES), st.sampled_from(["width", "budget"]),
       st.floats(0.01, 100.0), st.floats(1.0, 1e3))
def test_upto_agrees_with_a_direct_gauss_sum(text, which, q0, ratio):
    fn = _integrand(text, which)
    y = q0 * ratio
    got = tail_integral(fn, q0).upto(fn, y)
    # other cells over [q0, y]: 32 equal ratios to a doubling
    cells = np.geomspace(q0, y, 32 * max(1, math.ceil(math.log2(ratio))) + 1)
    cells[-1] = y
    direct = _gauss_sums(fn, cells[:-1], cells[1:])[-1]
    assert got == pytest.approx(direct, rel=1e-14, abs=0.0)
