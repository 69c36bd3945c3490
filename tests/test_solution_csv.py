"""solution.csv and solution.npy: the slice writer's bytes, the binary
table against the CSV parsed back, the write/read round trip, and the
streamed path, where one forked child formats the rows that solve appends
to solution.npy, told of each slice by one byte on a pipe."""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from contextlib import closing
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
        check_round_trip(times, nodes, data, streamed=True)


def stream(sol: Solution, out: Path) -> cli.SolutionWriter:
    """A writer given every slice of ``sol`` as solve gives them: it forks
    its formatter once they reach ``SPLIT_MIN_ROWS`` rows."""
    writer = cli.SolutionWriter(out, sol.grid.nodes)
    for state in zip(sol.grid.times.tolist(), sol.grid.values, sol.ux, sol.ut):
        writer.store(*state)
    return writer


def check_round_trip(times, nodes, data, streamed=False):
    shape = (len(times), len(nodes))
    u = data.draw(hnp.arrays(np.float64, shape, elements=_finite))
    ux, ut = (data.draw(hnp.arrays(np.float64, shape, elements=_slope)) for _ in range(2))
    sol = _solution(times, nodes, u, ux, ut)
    with tempfile.TemporaryDirectory() as work:
        out = Path(work)
        (out / "summary.json").write_text('{"status": {"kind": "completed"}}')
        with closing(stream(sol, out)) as writer:
            assert (writer.child is not None) == streamed
            write_solution(sol, out, writer=writer)
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
    with closing(stream(sol, out)) as writer:
        write_solution(sol, out, writer=writer)
    assert sorted(p.name for p in out.iterdir()) == ["solution.csv", "solution.npy", "summary.json"]
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("n_times", [1, 2, 5, 8, 181])
def test_the_split_path_writes_the_bytes_of_the_in_process_path(tmp_path, monkeypatch, n_times):
    sol = step_failure_solution(n_times)
    in_process = written(sol, tmp_path / "serial")
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 1)
    split = written(sol, tmp_path / "split")
    assert split == in_process
    assert split["solution.csv"].decode("utf-8") == per_cell_rendering(sol)
    assert json.loads(split["summary.json"])["status"]["kind"] == "stepfailure"


def test_a_table_below_the_threshold_never_forks(tmp_path, monkeypatch):
    log = ForkLog(monkeypatch)
    sol = step_failure_solution(5)  # 35 rows
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 36)
    in_process = written(sol, tmp_path / "below")
    assert log.forks == []
    # at the threshold it forks, once, when the last slice is stored
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 35)
    assert written(sol, tmp_path / "at") == in_process
    assert log.forks == [(False, 0)]


def test_a_failing_child_raises_and_leaves_no_part_file(tmp_path, monkeypatch):
    real, parent = cli.SolutionWriter._write_csv, os.getpid()

    def failing_in_the_child(self, csv, slices, pipe=None):
        if os.getpid() != parent:
            raise OSError("no space left on device")
        real(self, csv, slices, pipe)

    monkeypatch.setattr(cli.SolutionWriter, "_write_csv", failing_in_the_child)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 1)
    sol = step_failure_solution(4)
    # the writer stores every slice, so the failure shows in store or in finish
    with pytest.raises(OSError, match=r"^solution\.csv: the formatting process exited "
                                      r"with status 1$"):
        write_solution(sol, tmp_path)
    assert not list(tmp_path.iterdir())
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
    # one child, forked from inside solve when the third slice is stored
    assert log.forks == [(True, 0)]


@pytest.mark.parametrize("threshold", [1, BURGERS_33, 3 * BURGERS_33])
def test_a_solve_forks_at_most_once(tmp_path, monkeypatch, threshold):
    log = ForkLog(monkeypatch)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", threshold)
    assert solve_into(burgers_spec(tmp_path, STEP_FAILURE), tmp_path / "out") == 4
    assert log.forks == [(True, 0)]


def solve_with_a_failing_child(tmp_path, monkeypatch, capsys, mid_run: bool) -> list:
    """Solve burgers with a formatter child that writes a row and fails:
    after it has read the pipe to its end, or mid-run, before the pipe.
    Check that solve exits 1 with one line and leaves no report; return
    the errors that ``store`` raised."""
    real, parent = cli.SolutionWriter._write_csv, os.getpid()

    def failing_in_the_child(self, csv, slices, pipe=None):
        if os.getpid() == parent:
            return real(self, csv, slices, pipe)
        csv.write("0,1,2,3,4\n")
        csv.flush()
        while not mid_run and pipe.read(2 ** 16):  # the pipe, read to its end
            pass
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.SolutionWriter, "_write_csv", failing_in_the_child)
    raised_in_store, real_store = [], cli.SolutionWriter.store

    def store(self, *state):
        # mid-run, each later slice is stored only once the child has ended,
        # so its notification byte meets a pipe that no process reads
        deadline = time.monotonic() + 30
        while (mid_run and self.child is not None and time.monotonic() < deadline
               and not os.waitid(os.P_PID, self.child, os.WEXITED | os.WNOHANG | os.WNOWAIT)):
            time.sleep(0.01)
        try:
            real_store(self, *state)
        except OSError as exc:
            raised_in_store.append(exc)
            raise

    monkeypatch.setattr(cli.SolutionWriter, "store", store)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 2 * BURGERS_33)
    capsys.readouterr()
    assert solve_into(burgers_spec(tmp_path, {}), tmp_path / "out") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["solve: solution.csv: the formatting process exited with status 1"]
    assert not list((tmp_path / "out").iterdir())
    return raised_in_store


def test_a_failing_child_during_solve_exits_1_and_leaves_no_part_file(
        tmp_path, monkeypatch, capsys):
    # the child fails once solve has sent every slice: finish reports it
    assert solve_with_a_failing_child(tmp_path, monkeypatch, capsys, mid_run=False) == []


def test_a_child_that_dies_mid_run_is_reported_by_its_status_not_as_a_broken_pipe(
        tmp_path, monkeypatch, capsys):
    raised = solve_with_a_failing_child(tmp_path, monkeypatch, capsys, mid_run=True)
    assert [str(exc) for exc in raised] == [
        "solution.csv: the formatting process exited with status 1"]


def test_a_hook_that_raises_after_a_fork_leaves_no_child_and_no_part_file(
        tmp_path, monkeypatch):
    real = cli.SolutionWriter.store

    def store(self, *state):
        real(self, *state)
        if self.child is not None:
            raise RuntimeError("hook failed")

    monkeypatch.setattr(cli.SolutionWriter, "store", store)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 1)
    with pytest.raises(RuntimeError, match="hook failed"):
        solve_into(burgers_spec(tmp_path, {}), tmp_path / "out")
    assert not list((tmp_path / "out").iterdir())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_hook_that_raises_before_a_fork_leaves_no_solution_file(tmp_path, monkeypatch):
    log = ForkLog(monkeypatch)
    real = cli.SolutionWriter.store

    def store(self, *state):
        real(self, *state)  # the first slice's rows are in solution.npy
        raise RuntimeError("hook failed")

    monkeypatch.setattr(cli.SolutionWriter, "store", store)
    with pytest.raises(RuntimeError, match="hook failed"):
        solve_into(burgers_spec(tmp_path, {}), tmp_path / "out")
    assert not list((tmp_path / "out").iterdir())
    assert log.forks == []


def test_without_fork_a_large_table_is_formatted_in_process_with_the_same_bytes(
        tmp_path, monkeypatch):
    spec = burgers_spec(tmp_path, STEP_FAILURE)
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 3 * BURGERS_33)
    log = ForkLog(monkeypatch)
    assert solve_into(spec, tmp_path / "forked") == 4
    assert log.forks == [(True, 0)]
    monkeypatch.delattr(os, "fork")
    assert solve_into(spec, tmp_path / "in-process") == 4
    assert files(tmp_path / "in-process") == files(tmp_path / "forked")
    rows = (tmp_path / "in-process" / "solution.csv").read_bytes().count(b"\n") - 1
    assert rows > cli.SPLIT_MIN_ROWS
    with pytest.raises(ChildProcessError):  # no child was started, so none is left
        os.waitpid(-1, os.WNOHANG)


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
