"""The dynbc benchmark: certify -> solve -> verify, end to end and per layer.

    python3 bench/run.py --workload presets|fine-grid|sweep --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
and exits 2 without a result when there is none.  Workloads, their inputs
and the correctness oracle are in ``workloads.py``.

A run makes the workload's inputs from the seed, runs one untimed warm-up
pass at a tiny size and then repeats measured passes while one more still
fits in ``--seconds`` (at least ``MIN_PASSES``).  Between passes it times
the set-up of a fresh process (``setup_probe.py``), ``SETUP_PROBES`` times
in all, spread over the run.  A pass is a closed loop with one caller: each
CLI call starts when the previous one has returned.  Every call is checked
against the oracle, in every pass, and every measured pass must write the
same report bytes as the first.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced passes with passes whose dynbc calls are
wrapped in spans (``spans.py``) and reports the per-layer metrics (medians
over traced passes) and the tracing overhead; for the sweep it also runs
untraced passes through the ``--jobs 2`` thread pool, the only concurrency,
and reports the pool's speed-up over the serial passes.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import digests
import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3          # measured passes with --trace 0
MIN_TRACE_PAIRS = 2     # untraced + traced pass pairs with --trace 1
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


@dataclass
class PassResult:
    total_s: float
    stage_s: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    report_digests: dict = field(default_factory=dict)


def package_src(root: Path) -> Path:
    src = root / "src"
    if not (src / "dynbc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dynbc package under {src}")
    return src


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    import dynbc.cli
    return dynbc.cli


def run_pass(wl: workloads.Workload, cli, pass_dir: Path) -> PassResult:
    """One closed-loop pass over the workload's CLI calls, checked."""
    extras: dict = {}
    stage_s: dict = defaultdict(float)
    attempted = failed = 0
    problems = []
    for op in wl.ops(pass_dir, extras):
        manifest = cli.RunManifest(spec_path=op.spec, command=op.stage,
                                   out_dir=op.out_dir, jobs=op.jobs)
        cmd = getattr(cli, f"cmd_{op.stage}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = cmd(manifest)
            stage_s[op.stage] += perf_counter() - t0
        if rc != op.expect:
            bad = [f"exit {rc}, expected {op.expect}: {err.getvalue().strip()}"]
        elif op.check is None:
            bad = []
        else:
            try:
                bad = op.check()
            except (OSError, KeyError, ValueError) as exc:
                bad = [f"check could not read the reports: {exc!r}"]
        attempted += op.attempted
        failed += min(op.attempted, len(bad))
        problems += [f"{op.label} {op.stage}: {b}" for b in bad]
    return PassResult(sum(stage_s.values()), dict(stage_s), attempted, failed, problems, extras)


# ---------------------------------------------------------------------------
# environment

def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment(root: Path, src: Path, seed: int) -> dict:
    import numpy as np

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    sha = hashlib.sha256()
    for path in sorted((src / "dynbc").rglob("*")):
        if path.suffix in (".py", ".json"):
            sha.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(idx / "size")
    return {"commit": commit, "source_sha256": sha.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "l2": caches.get("L2"), "l3": caches.get("L3"),
            "python": platform.python_version(), "numpy": np.__version__}


# ---------------------------------------------------------------------------
# measurement

class SetupProbe:
    """Import-and-parse seconds of fresh processes (``setup_probe.py``).

    An untimed first probe writes the package's bytecode cache, as an
    installed package has it, whatever PYTHONDONTWRITEBYTECODE says.
    """

    def __init__(self, src: Path, wl: workloads.Workload):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src),
                    *map(str, wl.specs)]
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.seconds: list[float] = []
        self._probe()

    def _probe(self) -> float:
        proc = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    def take(self, count: int) -> None:
        """Probe until ``count`` timings are held."""
        while len(self.seconds) < count:
            self.seconds.append(self._probe())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Passes of one workload inside a scratch directory of the checkout."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.count = 0
        self.passes: list[PassResult] = []

    def run(self, wl: workloads.Workload) -> PassResult:
        self.count += 1
        pass_dir = self.work / f"pass-{self.count}"
        gc.collect()  # every pass starts without the previous pass's garbage
        res = run_pass(wl, self.cli, pass_dir)
        res.report_digests = digests.collect(pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes.append(res)
        return res


def measure(name: str, seed: int, seconds: float, trace: bool,
            root: Path, work: Path, tiny: bool = False) -> dict:
    """Run one workload; returns the report (see ``main`` for its use)."""
    src = package_src(root)
    wl = workloads.make_workload(name, seed, src, work / "inputs", tiny=tiny)
    probe = SetupProbe(src, wl)
    cli = import_cli(src)
    env = environment(root, src, seed)
    runner = Runner(cli, work)

    # warm-up at the tiny size: lazy imports and first-call costs
    runner.run(workloads.make_workload(name, seed, src, work / "warm", tiny=True))

    pool_wl = None
    if trace and "jobs" in wl.inputs:
        pool_wl = replace(wl, inputs={**wl.inputs, "jobs": workloads.POOL_JOBS})
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, dict]] = []
    pooled: list[PassResult] = []
    t_start = perf_counter()
    while True:
        untraced.append(runner.run(wl))
        if trace:
            tracer = spans.Tracer()
            tracer.calibrate()
            with spans.instrument(tracer):
                res = runner.run(wl)
            tracer.calibrate()
            tracer.settle()
            layer = spans.layer_metrics(tracer, res.total_s, wl.inputs.get("points", 0))
            traced.append((res, layer))
            if pool_wl is not None:
                pooled.append(runner.run(pool_wl))
        # set-up probes are spread over the run, so that their median
        # spans the host's slow and fast spells as the passes do
        rounds = len(untraced)
        elapsed = perf_counter() - t_start
        probe.take(math.ceil(SETUP_PROBES * elapsed / max(seconds, elapsed)))
        # stop before a further round would end after the time budget
        elapsed = perf_counter() - t_start
        if (rounds >= (MIN_TRACE_PAIRS if trace else MIN_PASSES)
                and elapsed * (rounds + 1) / rounds > seconds):
            break

    probe.take(SETUP_PROBES)

    # same inputs, same bytes: traced and pooled passes included
    first = untraced[0].report_digests
    measured = untraced + [p for p, _ in traced] + pooled
    drifted = sum(p.report_digests != first for p in measured)
    problems = [msg for p in runner.passes for msg in p.problems]
    if drifted:
        problems.append(f"{drifted} passes wrote reports that differ from the first pass")
    mismatches, compared = ((0, 0) if tiny else
                            digests.compare(digests.load(), name, seed, first))
    return {
        "workload": name, "seed": seed, "trace": trace, "env": env, "inputs": wl.inputs,
        "setup": probe.seconds, "untraced": untraced, "traced": traced, "pooled": pooled,
        "attempted": sum(p.attempted for p in runner.passes),
        "failed": sum(p.failed for p in runner.passes) + drifted,
        "problems": problems,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": {"mismatches": mismatches, "compared": compared},
    }


# ---------------------------------------------------------------------------
# metrics

def _stats(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def end_to_end(rep: dict) -> dict:
    """``{name: (stats, unit)}``; the gated metrics are ``GATED``."""
    passes = rep["untraced"]

    def st(stage: str) -> list[float]:
        return [p.stage_s.get(stage, 0.0) for p in passes]

    out = {
        "total_s": (_stats([p.total_s for p in passes]), "s"),
        # a sweep certifies a grid of barriers: its call counts as certify time
        "certify_s": (_stats([a + b for a, b in zip(st("certify"), st("sweep"))]), "s"),
        "setup_s": (_stats(rep["setup"]), "s"),
        "peak_rss_mb": (_stats([rep["peak_rss_mb"]]), "MB"),
    }
    if rep["workload"] != "sweep":
        out["solve_s"] = (_stats(st("solve")), "s")
        out["verify_s"] = (_stats(st("verify")), "s")
    else:
        pts = rep["inputs"]["points"]
        out["sweep_points_per_s"] = (_stats([pts / s for s in st("sweep")]), "1/s")
    mms = [p.extras["mms_max_err"] for p in passes if "mms_max_err" in p.extras]
    if mms:
        out["mms_max_err"] = (_stats(mms), "abs")
    return out


# emitted with --trace 0; the others are printed only, since BENCHMARK.json
# metrics must exist (and be non-zero) on every workload
GATED = ("total_s", "setup_s", "peak_rss_mb")


def per_layer(rep: dict) -> dict:
    """``{name: (value, unit)}``: medians over traced passes, plus overhead."""
    layers = [layer for _, layer in rep["traced"]]
    out = {k: (statistics.median(m[k][0] for m in layers), unit)
           for k, (_, unit) in layers[0].items()}
    t_traced = statistics.median(p.total_s for p, _ in rep["traced"])
    t_plain = statistics.median(p.total_s for p in rep["untraced"])
    out["trace.total_s"] = (t_traced, "s")
    out["trace.untraced_total_s"] = (t_plain, "s")
    out["trace.overhead_ratio"] = (t_traced / t_plain, "ratio")
    # near 1 when the span cost is netted out well
    out["trace.net_overhead_ratio"] = (out["trace.net_total_s"][0] / t_plain, "ratio")
    pooled = [p.total_s for p in rep["pooled"]]
    out["cli.sweep_pool_speedup"] = (t_plain / statistics.median(pooled) if pooled else 0.0,
                                     "ratio")
    out["cli.report_digest_mismatches"] = (rep["digests"]["mismatches"], "count")
    out["cli.report_digests_compared"] = (rep["digests"]["compared"], "count")
    return out


def report(rep: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    print(f"dynbc benchmark: workload={rep['workload']} seed={rep['seed']} "
          f"trace={int(rep['trace'])}")
    print("env " + json.dumps(rep["env"], sort_keys=True))
    print("inputs " + json.dumps(rep["inputs"], sort_keys=True))
    e2e = end_to_end(rep)
    print("end-to-end (untraced passes; median, min, max over n samples):")
    for name, (s, unit) in e2e.items():
        print(f"  {name:<20} {s['median']:<14.6g} {unit:<5} "
              f"min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}")
    print(f"  {'failed_ops':<20} {rep['failed']} of {rep['attempted']} ops")
    for msg in rep["problems"][:20]:
        print(f"  FAILED {msg}")
    if rep["trace"]:
        metrics = per_layer(rep)
        print(f"per-layer (medians of {len(rep['traced'])} traced passes):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:<14.6g} {unit}")
    else:
        metrics = {k: (e2e[k][0]["median"], e2e[k][1]) for k in GATED}
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="dynbc end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        package_src(root)
    except FileNotFoundError as exc:
        print(f"bench: {exc}; run from the root of a dynbc checkout", file=sys.stderr)
        return 2
    os.environ.pop("DYNBC_TOL", None)
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    try:
        rep = measure(args.workload, args.seed, args.seconds, bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(rep)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
