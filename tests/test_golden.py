"""Golden digests: every shipped preset through certify -> solve -> verify.

The SHA-256 digest of each deterministic report, and the exit code of each
stage, must match ``golden_digests.json``.  A refactor that keeps the numbers
and the bytes passes unchanged; any changed digit fails here.  Reports a
stage does not write (``h_table.csv`` when certify finds no barrier) are
recorded as ``null``.  ``GRIDS`` adds problems derived from a preset: burgers
at nx = 257 and amplitude 0.47 is a grid where the verify scans' oscillation
bound skips most pairs.

Record the digests again, from the root of a checkout, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from dynbc.cli import RunManifest, cmd_certify, cmd_solve, cmd_verify, preset_path

PRESETS = ("steady", "manufactured", "burgers", "blowup_270",
           "weakened_nagumo", "cubic_damping")
REPORTS = ("certificate.json", "h_table.csv", "summary.json", "solution.csv",
           "verification.json")
GRIDS = {
    "burgers_nx257": ("burgers", {"u0": "0.47*cos(pi*x/2)^3", "solver": {"nx": 257}}),
}
GOLDEN = Path(__file__).with_name("golden_digests.json")


def problem_file(name: str, out: Path) -> Path:
    """A shipped preset, or a ``GRIDS`` problem written under ``out``."""
    if name not in GRIDS:
        return preset_path(name)
    base, changes = GRIDS[name]
    raw = json.loads(preset_path(base).read_text(encoding="utf-8")) | changes
    out.mkdir(parents=True, exist_ok=True)
    spec = out / "spec.json"
    spec.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return spec


def run_chain(name: str, out: Path) -> dict:
    """Exit codes and report digests of one problem's certify/solve/verify."""
    spec = problem_file(name, out)
    codes = [cmd(RunManifest(spec_path=spec, command=stage, out_dir=out))
             for stage, cmd in (("certify", cmd_certify), ("solve", cmd_solve),
                                ("verify", cmd_verify))]
    digests = {}
    for report in REPORTS:
        path = out / report
        digests[report] = (hashlib.sha256(path.read_bytes()).hexdigest()
                           if path.is_file() else None)
    return {"exit": codes, "sha256": digests}


@pytest.mark.parametrize("name", PRESETS + tuple(GRIDS))
def test_preset_reports_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("DYNBC_TOL", raising=False)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_chain(name, tmp_path / name) == want


if __name__ == "__main__":
    os.environ.pop("DYNBC_TOL", None)
    with tempfile.TemporaryDirectory() as work:
        record = {name: run_chain(name, Path(work) / name) for name in PRESETS + tuple(GRIDS)}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
