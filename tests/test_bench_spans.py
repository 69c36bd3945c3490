"""The benchmark's span hooks against the package: what ``bench/spans.py``
reads from the calls it wraps must still be there."""

from __future__ import annotations

import json
from pathlib import Path

import dynbc.cli as cli
from dynbc.cli import RunManifest, cmd_solve, preset_path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_solution_csv_bytes_counter_reads_the_written_file(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    doc = json.loads(preset_path("burgers").read_text())
    doc["solver"] = {"strict": False, "nx": 33}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # the formatter forks at the first slice and is told of each later one
    monkeypatch.setattr(cli, "SPLIT_MIN_ROWS", 33)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cmd_solve(RunManifest(spec_path=spec, command="solve", out_dir=out)) == 0
    assert tracer.spans["cli.write_solution"][0] == 1
    assert tracer.counters["cli.solution_csv_bytes"] == (out / "solution.csv").stat().st_size
