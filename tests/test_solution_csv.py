"""solution.csv and solution.npy: the slice writer's bytes, the binary
table against the CSV parsed back, the write/read round trip, and the split
path, where forked children format the slices, during solve and at the end."""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dynbc.cli as cli
from dynbc.cli import _csv_row, main, preset_path, read_solution, write_solution
from dynbc.holder import GridFunction
from dynbc.problem import ProblemSpec
from dynbc.solver import Completed, Solution, SolverConfig, StepFailure, solve

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
    real, parent = cli._write_csv_slices, os.getpid()

    def failing_in_the_child(fh, nodes, slices):
        if os.getpid() != parent:
            raise OSError("no space left on device")
        real(fh, nodes, slices)

    monkeypatch.setattr(cli, "_write_csv_slices", failing_in_the_child)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 1)
    with pytest.raises(OSError, match=r"slices 2\.\.3 exited with status 1"):
        write_solution(step_failure_solution(4), tmp_path)
    assert not list(tmp_path.glob("solution.csv.part*"))
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


BURGERS_33 = 33  # nodes of the solves below: one slice is 33 rows
SOLVER = {"strict": False, "nx": BURGERS_33}

# a variant of burgers whose dynamic source is singular at t = 0.05: it
# stores 181 slices and ends in step failure (exit 4)
STEP_FAILURE = {"bc_plus": {"kind": "dynamic", "b": "1", "g": "0.1/(t-0.05)"},
                "solver": SOLVER | {"dt_min": 1e-4}}


def burgers_spec(tmp_path: Path, changes: dict) -> Path:
    doc = json.loads(preset_path("burgers").read_text()) | {"solver": SOLVER} | changes
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return spec


def solve_into(spec: Path, out: Path) -> int:
    return main(["solve", "--spec", str(spec), "--out", str(out)])


def files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("changes, kind", [({}, "completed"), (STEP_FAILURE, "stepfailure")])
def test_the_hook_gets_the_rows_of_the_solution_initial_state_first(tmp_path, changes, kind):
    doc = json.loads(burgers_spec(tmp_path, changes).read_text())
    cfg = SolverConfig(nx=BURGERS_33, strict_compatibility=False,
                       dt_min=doc["solver"].get("dt_min", SolverConfig.dt_min))
    stored = []
    sol = solve(ProblemSpec.from_dict(doc), cfg, on_store=lambda *state: stored.append(state))
    assert sol.status.kind == kind and sol.grid.times.size > 100
    times, u, ux, ut = zip(*stored)
    assert times[0] == 0.0
    assert same_bits(np.array(times), sol.grid.times)
    for got, want in ((u, sol.grid.values), (ux, sol.ux), (ut, sol.ut)):
        assert same_bits(np.vstack(got), want)


class ForkLog:
    """os.fork wrapped: for each fork, whether it came from inside solve and
    how many formatters were unreaped (running or ended) before it."""

    def __init__(self, monkeypatch):
        self.forks: list[tuple[bool, int]] = []
        self.pids: list[int] = []
        self.in_solve = False
        real_fork, real_solve = os.fork, cli.solve

        def fork():
            self.forks.append((self.in_solve, self.unreaped()))
            pid = real_fork()
            if pid:
                self.pids.append(pid)
            return pid

        def solve_(*args, **kwargs):
            self.in_solve = True
            try:
                return real_solve(*args, **kwargs)
            finally:
                self.in_solve = False

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cli, "solve", solve_)

    def unreaped(self) -> int:
        n = 0
        for pid in self.pids:
            try:
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                n += 1
            except ChildProcessError:  # already reaped
                pass
        return n


@pytest.mark.parametrize("changes, code", [({}, 0), (STEP_FAILURE, 4)],
                         ids=["completed", "step-failure"])
def test_streamed_formatters_write_the_bytes_of_the_in_process_path(
        tmp_path, monkeypatch, changes, code):
    spec = burgers_spec(tmp_path, changes)
    assert solve_into(spec, tmp_path / "serial") == code
    log = ForkLog(monkeypatch)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 3 * BURGERS_33)
    assert solve_into(spec, tmp_path / "streamed") == code
    assert files(tmp_path / "streamed") == files(tmp_path / "serial")
    during = [live for in_solve, live in log.forks if in_solve]
    at_end = [live for in_solve, live in log.forks if not in_solve]
    # a child forks only once the one before it is reaped; at the end the
    # last streamed child may still run next to the one for the backlog
    assert len(during) >= 2 and max(during) == 0
    assert len(at_end) <= 1 and max(at_end, default=0) <= 1


def test_the_backlog_splits_while_the_last_streamed_child_still_runs(tmp_path, monkeypatch):
    sol = step_failure_solution(12)
    in_process = written(sol, tmp_path / "serial")
    real, parent = cli._write_csv_slices, os.getpid()

    def slow_in_the_child(fh, nodes, slices):
        if os.getpid() != parent and slices[0][0] == 0.0:
            time.sleep(0.5)  # the first child still runs when the solve ends
        real(fh, nodes, slices)

    monkeypatch.setattr(cli, "_write_csv_slices", slow_in_the_child)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 2 * 7)
    log = ForkLog(monkeypatch)
    out = tmp_path / "streamed"
    out.mkdir()
    writer = cli.CsvWriter(out, sol.grid.nodes)
    for state in zip(sol.grid.times.tolist(), sol.grid.values, sol.ux, sol.ut):
        writer.store(*state)
    assert writer.taken == 2 and len(writer.backlog) == 10
    write_solution(sol, out, writer=writer)
    # slices 0..1 went to the first child, 2..6 to this process, 7..11 to the last
    assert [(c.first, c.last) for c in writer.children] == [(0, 1), (7, 11)]
    assert [live for _, live in log.forks] == [0, 1]
    assert files(out) == in_process


def test_a_failing_child_during_solve_exits_1_and_leaves_no_part_file(
        tmp_path, monkeypatch, capsys):
    real, parent = cli._write_csv_slices, os.getpid()

    def failing_in_the_child(fh, nodes, slices):
        if os.getpid() != parent:
            fh.write("0,1,2,3,4\n")
            fh.flush()
            raise OSError("no space left on device")
        real(fh, nodes, slices)

    monkeypatch.setattr(cli, "_write_csv_slices", failing_in_the_child)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 2 * BURGERS_33)
    capsys.readouterr()
    assert solve_into(burgers_spec(tmp_path, {}), tmp_path / "out") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["solve: solution.csv: the process formatting slices 0..1 exited with status 1"]


def test_a_hook_that_raises_after_a_fork_leaves_no_child_and_no_part_file(
        tmp_path, monkeypatch):
    real = cli.CsvWriter.store

    def store(self, *state):
        real(self, *state)
        if self.children:
            raise RuntimeError("hook failed")

    monkeypatch.setattr(cli.CsvWriter, "store", store)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 1)
    with pytest.raises(RuntimeError, match="hook failed"):
        solve_into(burgers_spec(tmp_path, {}), tmp_path / "out")
    assert not list((tmp_path / "out").glob("solution.csv.part*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_next_solve_removes_stale_part_files(tmp_path):
    spec, out = burgers_spec(tmp_path, {}), tmp_path / "out"
    assert solve_into(spec, out) == 0
    want = files(out)
    for name in ("solution.csv.part", "solution.csv.part0", "solution.csv.part12"):
        (out / name).write_text("0,1,2,3,4\n")
    assert solve_into(spec, out) == 0
    assert files(out) == want


def test_a_solve_below_the_threshold_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    spec = burgers_spec(tmp_path, {})
    assert solve_into(spec, tmp_path / "below") == 0
    rows = (tmp_path / "below" / "solution.csv").read_bytes().count(b"\n") - 1
    assert rows < cli.SPLIT_MIN_ROWS
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", rows)
    with pytest.raises(AssertionError, match="os.fork called"):
        solve_into(spec, tmp_path / "at")
