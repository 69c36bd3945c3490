"""solution.csv: the streamed writer's bytes and the write/read round trip."""

from __future__ import annotations

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
            cells = (t, x, sol.grid.values[i, j], sol.ux.values[i, j], sol.ut.values[i, j])
            lines.append(_csv_row(cells))
    return "\n".join(lines) + "\n"


def _solution(times, nodes, u, ux, ut) -> Solution:
    return Solution(grid=GridFunction(times, nodes, u), ux=GridFunction(times, nodes, ux),
                    ut=GridFunction(times, nodes, ut), status=Completed())


def test_writer_bytes_match_per_cell_rendering(tmp_path):
    times = np.array([0.0, 5e-324, 0.1])
    nodes = np.array([-1.0, -0.0, 1e300])
    u = np.array([[-0.0, 5e-324, 1.0], [1e300, -1e-300, 0.1], [2.0 / 3.0, -7.0, 123456789.0]])
    sol = _solution(times, nodes, u, -u, 3.0 * u)
    # the grid functions refuse non-finite values, so set them afterwards
    sol.ux.values[1] = [np.nan, np.inf, -np.inf]
    sol.ut.values[2, 0] = -np.nan
    write_solution(sol, tmp_path)
    text = (tmp_path / "solution.csv").read_bytes().decode("utf-8")
    assert text == per_cell_rendering(sol)
    lines = text.splitlines()
    assert lines[1] == "0,-1,-0,0,-0"
    assert lines[2].split(",")[:3] == ["0", "-0", "4.9406564584124654e-324"]
    assert [line.split(",")[3] for line in lines[4:7]] == ["nan", "inf", "-inf"]
    assert lines[7].split(",")[4] == "nan"
    assert lines[9].split(",")[1] == "1.0000000000000001e+300"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_axis = st.lists(_finite, min_size=1, max_size=6, unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(times=_axis, nodes=_axis, data=st.data())
def test_write_read_round_trip(times, nodes, data):
    shape = (len(times), len(nodes))
    u, ux, ut = (data.draw(hnp.arrays(np.float64, shape, elements=_finite)) for _ in range(3))
    sol = _solution(times, nodes, u, ux, ut)
    with tempfile.TemporaryDirectory() as work:
        out = Path(work)
        (out / "summary.json").write_text('{"status": {"kind": "completed"}}')
        write_solution(sol, out)
        assert (out / "solution.csv").read_text(encoding="utf-8") == per_cell_rendering(sol)
        back = read_solution(out)
    for got, want in ((back.grid, sol.grid), (back.ux, sol.ux), (back.ut, sol.ut)):
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.values, want.values)
