"""solution.csv and solution.npy: the streamed writer's bytes, the binary
table against the CSV parsed back, and the write/read round trip."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynbc.cli import _csv_row, read_solution, write_solution
from dynbc.holder import GridFunction
from dynbc.solver import Completed, Solution


def per_cell_rendering(sol: Solution) -> str:
    """The file as the per-cell writer built it, one ``_csv_row`` per row."""
    lines = ["t,x,u,ux,ut"]
    for i, t in enumerate(sol.grid.times):
        for j, x in enumerate(sol.grid.nodes):
            cells = (t, x, sol.grid.values[i, j], sol.ux[i, j], sol.ut[i, j])
            lines.append(_csv_row(cells))
    return "\n".join(lines) + "\n"


def parse_csv(out: Path) -> np.ndarray:
    """solution.csv read back as numbers, one row per line."""
    return np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


def canonical_nan(a: np.ndarray) -> np.ndarray:
    """a with every NaN, -nan included, replaced by the one NaN ``nan`` parses to."""
    return np.where(np.isnan(a), np.nan, a)


def _solution(times, nodes, u, ux, ut) -> Solution:
    return Solution(grid=GridFunction(times, nodes, u), ux=ux, ut=ut, status=Completed())


def test_writer_bytes_match_per_cell_rendering(tmp_path):
    times = np.array([0.0, 5e-324, 0.1])
    nodes = np.array([-1.0, -0.0, 1e300])
    u = np.array([[-0.0, 5e-324, 1.0], [1e300, -1e-300, 0.1], [2.0 / 3.0, -7.0, 123456789.0]])
    ux, ut = -u, 3.0 * u
    ux[1] = [np.nan, np.inf, -np.inf]
    ut[2, 0] = -np.nan
    sol = _solution(times, nodes, u, ux, ut)
    write_solution(sol, tmp_path)
    text = (tmp_path / "solution.csv").read_bytes().decode("utf-8")
    assert text == per_cell_rendering(sol)
    lines = text.splitlines()
    assert lines[1] == "0,-1,-0,0,-0"
    assert lines[2].split(",")[:3] == ["0", "-0", "4.9406564584124654e-324"]
    assert [line.split(",")[3] for line in lines[4:7]] == ["nan", "inf", "-inf"]
    assert lines[7].split(",")[4] == "nan"
    assert lines[9].split(",")[1] == "1.0000000000000001e+300"
    # the binary table is the CSV's numbers, the -nan written as nan included
    assert same_bits(np.load(tmp_path / "solution.npy"), parse_csv(tmp_path))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_axis = st.lists(_finite, min_size=1, max_size=6, unique=True).map(sorted)
# u_x and u_t of a run that ends in step failure can be infinite or NaN
_slope = st.floats() | st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None)
@given(times=_axis, nodes=_axis, data=st.data())
def test_write_read_round_trip(times, nodes, data):
    shape = (len(times), len(nodes))
    u = data.draw(hnp.arrays(np.float64, shape, elements=_finite))
    ux, ut = (data.draw(hnp.arrays(np.float64, shape, elements=_slope)) for _ in range(2))
    sol = _solution(times, nodes, u, ux, ut)
    with tempfile.TemporaryDirectory() as work:
        out = Path(work)
        (out / "summary.json").write_text('{"status": {"kind": "completed"}}')
        write_solution(sol, out)
        assert (out / "solution.csv").read_text(encoding="utf-8") == per_cell_rendering(sol)
        parsed = parse_csv(out)
        assert same_bits(np.load(out / "solution.npy"), parsed)
        back = read_solution(out)
    # the CSV parsed back holds the grids in time-major row order
    nt, nx = len(times), len(nodes)
    ux, ut = canonical_nan(ux), canonical_nan(ut)
    for k, want in enumerate((np.repeat(times, nx), np.tile(nodes, nt), u.ravel(),
                              ux.ravel(), ut.ravel())):
        assert same_bits(parsed[:, k], np.asarray(want, dtype=float))
    assert np.array_equal(back.grid.times, sol.grid.times)
    assert np.array_equal(back.grid.nodes, sol.grid.nodes)
    for got, want in ((back.grid.values, u), (back.ux, ux), (back.ut, ut)):
        assert same_bits(got, want)
