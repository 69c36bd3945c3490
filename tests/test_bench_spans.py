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


def test_a_traced_sweep_finds_q1_once_a_point_and_builds_no_arc(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    doc = json.loads(preset_path("steady").read_text())
    doc["sweep"] = {"psi": ["1", "1+p^2", "(1+p^2)^1.5"], "q0": [0.5, 2.0], "M": [0.5, 1.5]}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.cmd_sweep(RunManifest(spec_path=spec, command="sweep",
                                         out_dir=tmp_path / "out")) == 0
    assert tracer.spans["certificate.find_q1"][0] == 12  # calls_per_point reads 1
    assert "certificate.build_barrier" not in tracer.spans
