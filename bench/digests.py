"""SHA-256 digests of the deterministic reports a benchmark pass writes.

The digests recorded in ``digests.json`` let a run count the reports whose
bytes changed since they were recorded (``cli.report_digest_mismatches``).
Record them again, from the root of a checkout, with

    python3 bench/digests.py

which runs one pass of every workload for seeds 0..SEEDS-1 (presets once:
its inputs do not depend on the seed) and rewrites ``bench/digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

REPORTS = ("certificate.json", "h_table.csv", "summary.json", "solution.csv",
           "verification.json", "sweep.csv")
RECORD = Path(__file__).resolve().with_name("digests.json")
SEEDS = 32


def collect(pass_dir: Path) -> dict:
    """``{"<op dir>/<report>": sha256}`` for every report under pass_dir."""
    out = {}
    for path in sorted(pass_dir.glob("*/*")):
        if path.name in REPORTS:
            out[f"{path.parent.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def record_key(workload: str, seed: int) -> str:
    return "any" if workload == "presets" else str(seed)


def load() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.is_file() else {}


def compare(recorded: dict, workload: str, seed: int, found: dict) -> tuple[int, int]:
    """(mismatches, compared) of ``found`` against the recorded digests."""
    want = recorded.get(workload, {}).get(record_key(workload, seed))
    if want is None:
        return 0, 0
    keys = set(want) | set(found)
    return sum(want.get(k) != found.get(k) for k in keys), len(keys)


def main() -> None:
    import run  # the benchmark driver beside this file

    src = run.package_src(Path.cwd())
    cli = run.import_cli(src)
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=Path.cwd()))
    runner = run.Runner(cli, work)
    record: dict = {}
    try:
        for name in run.workloads.WORKLOADS:
            seeds = [0] if name == "presets" else range(SEEDS)
            for seed in seeds:
                wl = run.workloads.make_workload(name, seed, src, work / f"{name}-{seed}")
                res = runner.run(wl)
                if res.failed:
                    raise SystemExit(f"{name} seed {seed}: {res.problems}")
                record.setdefault(name, {})[record_key(name, seed)] = res.report_digests
                print(name, seed, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
