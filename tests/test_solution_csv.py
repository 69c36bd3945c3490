"""solution.csv and solution.npy: the streamed writer's bytes, the binary
table against the CSV parsed back, the write/read round trip, and the split
path, where a forked child formats the second half of the slices."""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dynbc.cli as cli
from dynbc.cli import _csv_row, main, preset_path, read_solution, write_solution
from dynbc.holder import GridFunction
from dynbc.solver import Completed, Solution, StepFailure

# the summary's Hölder block overflows on tables near the float range
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


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
    check_round_trip(times, nodes, data)


@settings(max_examples=60, deadline=None)
@given(times=_axis, nodes=_axis, data=st.data())
def test_write_read_round_trip_on_the_split_path(times, nodes, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "SPLIT_MIN_ROWS", 1)
        check_round_trip(times, nodes, data)


def check_round_trip(times, nodes, data):
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


def step_failure_solution(n_times: int) -> Solution:
    """A step-failure record of n_times slices on 7 nodes, with inf, -inf,
    nan and -nan slopes in the first and in the last slice."""
    times = np.linspace(0.0, 0.3, n_times)
    nodes = np.linspace(-1.0, 1.0, 7)
    u = np.cos(times[:, None] + nodes[None, :]) / 3.0
    ux, ut = np.sin(u), -2.0 * u
    for i in {0, n_times - 1}:
        ux[i, :4] = [np.inf, -np.inf, np.nan, -np.nan]
        ut[i, 3:] = [-np.nan, np.nan, -np.inf, np.inf]
    return Solution(grid=GridFunction(times, nodes, u), ux=ux, ut=ut,
                    status=StepFailure(time=0.3, reason="newton diverged"),
                    step_log={"accepted": n_times - 1, "rejected": 2, "newton_failures": 1})


def written(sol: Solution, out: Path) -> dict:
    out.mkdir()
    write_solution(sol, out)
    assert sorted(p.name for p in out.iterdir()) == ["solution.csv", "solution.npy", "summary.json"]
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("n_times", [1, 2, 5, 8])
def test_the_split_path_writes_the_bytes_of_the_in_process_path(tmp_path, monkeypatch, n_times):
    sol = step_failure_solution(n_times)
    in_process = written(sol, tmp_path / "serial")
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 1)
    split = written(sol, tmp_path / "split")
    assert split == in_process
    assert split["solution.csv"].decode("utf-8") == per_cell_rendering(sol)
    assert json.loads(split["summary.json"])["status"]["kind"] == "stepfailure"


def test_a_table_below_the_threshold_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    sol = step_failure_solution(5)  # 35 rows
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 36)
    written(sol, tmp_path / "below")
    # at the threshold it forks
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 35)
    with pytest.raises(AssertionError, match="os.fork called"):
        write_solution(sol, tmp_path / "below")


def test_a_failing_child_raises_and_leaves_no_part_file(tmp_path, monkeypatch):
    real = cli._write_csv_slices

    def failing_in_the_child(fh, sol, start, stop):
        if start > 0:  # the child's share starts at the midpoint
            raise OSError("no space left on device")
        real(fh, sol, start, stop)

    monkeypatch.setattr(cli, "_write_csv_slices", failing_in_the_child)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 1)
    with pytest.raises(OSError, match=r"slices 2\.\.3 exited with status 1"):
        write_solution(step_failure_solution(4), tmp_path)
    assert not (tmp_path / "solution.csv.part").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("changes, code", [
    ({}, 0),
    ({"bc_plus": {"kind": "dynamic", "b": "1", "g": "0.1/t"}}, 4),
], ids=["completed", "step-failure"])
def test_solve_leaves_no_part_file_and_the_same_bytes_on_the_split_path(
        tmp_path, monkeypatch, changes, code):
    doc = json.loads(preset_path("burgers").read_text()) | changes
    doc["solver"] = {"strict": False, "nx": 33}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    runs = {}
    for name, threshold in (("serial", cli.SPLIT_MIN_ROWS), ("split", 1)):
        monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", threshold)
        out = tmp_path / name
        assert main(["solve", "--spec", str(spec), "--out", str(out)]) == code
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(runs["split"]) == ["solution.csv", "solution.npy", "summary.json"]
    assert runs["split"] == runs["serial"]
