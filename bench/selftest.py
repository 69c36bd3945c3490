"""Self-test of the dynbc benchmark; run from the root of a checkout:

    python3 bench/selftest.py

Runs every workload at its tiny size, traced and untraced, and checks that
every metric named in BENCHMARK.json (and every end-to-end metric the
report prints for that workload) is emitted, that the seed commit's oracle
passes, that a deliberately wrong oracle value is counted in ``failed``,
and that the benchmark exits non-zero without a result in a directory that
holds no package.  Exits 0 and prints ``selftest: ok`` when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

# end-to-end metrics printed per workload (the gated ones are a subset)
PRINTED = {
    "presets": {"total_s", "certify_s", "solve_s", "verify_s", "setup_s", "peak_rss_mb",
                "mms_max_err"},
    "fine-grid": {"total_s", "certify_s", "solve_s", "verify_s", "setup_s", "peak_rss_mb"},
    "sweep": {"total_s", "certify_s", "sweep_points_per_s", "setup_s", "peak_rss_mb"},
}


def expect(ok: bool, *info) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAILED {info}")


def _measure(root: Path, name: str, trace: bool) -> tuple[dict, dict]:
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    try:
        rep = run.measure(name, 7, 0.0, trace, root, work, tiny=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        out = run.report(rep)
    return rep, out


def check_metrics(root: Path, spec: dict) -> None:
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            rep, out = _measure(root, name, bool(trace))
            got = set(out["metrics"])
            expect(got == want[trace], name, trace, got ^ want[trace])
            expect(out["correct"] and out["failed"] == 0, name, trace, rep["problems"])
            expect(out["attempted"] >= 1, name, trace)
            expect(set(run.end_to_end(rep)) == PRINTED[name], name, set(run.end_to_end(rep)))
            print(f"selftest: {name} trace={trace}: {len(out['metrics'])} metrics, "
                  f"{out['attempted']} ops", flush=True)


def check_wrong_oracle(root: Path) -> None:
    saved = workloads.PRESET_EXIT["steady"]
    workloads.PRESET_EXIT["steady"] = (1,) + saved[1:]
    try:
        rep, out = _measure(root, "presets", False)
    finally:
        workloads.PRESET_EXIT["steady"] = saved
    # one wrong exit code per pass: the warm-up and every measured pass
    expect(not out["correct"] and out["failed"] == len(rep["untraced"]) + 1, out)
    print(f"selftest: wrong oracle value counted: {out['failed']} of {out['attempted']}")

    saved_ref = workloads.sweep_reference
    workloads.sweep_reference = lambda psi, q0, M: (
        None if saved_ref(psi, q0, M) is None else tuple(2.0 * v for v in saved_ref(psi, q0, M)))
    try:
        rep, out = _measure(root, "sweep", False)
    finally:
        workloads.sweep_reference = saved_ref
    # psi = 1 and 1+p^2 rows fail: 2 of the 4 tiny points, in every pass
    expect(out["failed"] == 2 * (len(rep["untraced"]) + 1), out)
    print(f"selftest: wrong closed form counted: {out['failed']} of {out['attempted']}")


def check_without_package(root: Path, spec: dict) -> None:
    bare = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    try:
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        for p in spec["paths"]:
            shutil.copytree(root / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", "presets", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), proc.returncode, proc.stdout)
    print(f"selftest: without a package: exit {proc.returncode}, no result")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.MIN_PASSES = 1
    run.MIN_TRACE_PAIRS = 1
    run.SETUP_PROBES = 1
    check_without_package(root, spec)
    check_metrics(root, spec)
    check_wrong_oracle(root)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
