"""Suite-wide fixtures."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave pid {pid}, status {status})")


@pytest.fixture(autouse=True)
def no_part_file_left(request):
    """Fail a test that leaves, under its tmp_path, a ``solution.csv.part*``
    file (solve writes ``solution.csv`` directly and never a part) or a
    ``solution.npy`` whose size is not the one its header gives (solve
    writes that header last, once every row is in the file)."""
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp is None:
        return
    left = sorted(str(p) for p in tmp.rglob("solution.csv.part*"))
    if left:
        pytest.fail(f"the test left part files behind: {left}")
    unfinished = [str(p) for p in sorted(tmp.rglob("solution.npy"))
                  if p.is_file() and p.stat().st_size != npy_size(p)]
    if unfinished:
        pytest.fail(f"the test left an unfinished solution.npy behind: {unfinished}")


def npy_size(path) -> int | None:
    """The byte size of the ``.npy`` file ``path`` by its header, or None
    when the header cannot be read."""
    with open(path, "rb") as fh:
        try:
            major, minor = np.lib.format.read_magic(fh)
            read_header = getattr(np.lib.format, f"read_array_header_{major}_{minor}")
            shape, _, dtype = read_header(fh)
        except ValueError:
            return None
        return fh.tell() + math.prod(shape) * dtype.itemsize
