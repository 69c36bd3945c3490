"""Suite-wide fixtures."""

from __future__ import annotations

import os

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
    """Fail a test that leaves a ``solution.csv.part*`` file under its
    tmp_path: solve writes ``solution.csv`` directly and never a part."""
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    left = sorted(str(p) for p in tmp.rglob("solution.csv.part*")) if tmp else []
    if left:
        pytest.fail(f"the test left part files behind: {left}")
