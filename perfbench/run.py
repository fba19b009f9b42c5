"""Benchmark of the qcs sweeps: wall time, set-up time and peak memory.

    python3 perfbench/run.py --workload coverage --seed 7 --seconds 60 --trace 0

Run from anywhere; paths resolve against the checkout that holds this file.
Each workload is a slice of two or three default sweeps (``perfbench/configs``:
the default parameters, fewer sweep points), sized so that one pass over it
takes about a second and a run holds many passes.  Everything runs in fresh
``perfbench/child.py`` interpreters that call ``harness.load_config`` and
then ``harness.run_experiment`` with one thread.  Runs are a closed loop with
one client: the next starts only after the previous one has ended.

``--trace 0`` spends the ``--seconds`` budget on a few set-up-only
interpreters and then on one measuring interpreter, which makes an untimed
warm-up pass and then timed passes until the budget is used.  It reports the
median pass time ``run_s``, the median ``setup_s`` over every interpreter,
and the measuring interpreter's ``peak_rss_mb`` once its warm-up pass has
ended.  ``--trace 1`` makes the same fixed number of passes untraced and
traced and reports per-layer metrics per pass from the traced run's spans;
the spans are written to ``.perfbench/spans/``.

The warm-up pass always runs at the committed seed (20260810) and its CSVs
must equal ``perfbench/reference`` to 9 significant digits, the precision
``harness.emit_results`` writes.  Every timed pass, seeded from ``--seed``,
must give each reference CSV with the same header and row count and only
finite numbers.  A child that fails counts all its outputs as bad.  Traced
and untraced outputs must be byte-identical.  The last line on stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from child import CHECK_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

# Two workloads, one per subsystem, so each bypasses the other's planned
# fast paths.  Within a workload the trace separates the two sides of each
# planned code-path choice: dark-free versus dark-count coverage, harmonic
# versus off-harmonic frequency grids.  ConfusionTLS and JitterBandwidth
# take hundredths of a second in total and are left out.
WORKLOADS = {
    "coverage": ("perfbench/configs/mmin_vs_k.json", "perfbench/configs/success_vs_m.json"),
    "spectral": (
        "perfbench/configs/dft_demo.json",
        "perfbench/configs/nmse_vs_m.json",
        "perfbench/configs/resolution_vs_integration.json",
    ),
}

SETUP_PROBES = 5
TRACE_PASSES = 3
# 9 significant digits leave a rounding step of up to 5e-9 relative
REL_TOL = 1e-7
ABS_TOL = 1e-12
# Whole invocation must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUNNERS = (
    "run_mmin_vs_k",
    "run_success_vs_m",
    "run_dft_demo",
    "run_nmse_vs_m",
    "run_resolution_vs_integration",
)
DFT = "reconstruction.dft_coefficients"
ARRIVALS = "frontend.sample_arrivals"
DETECTOR = "frontend.apply_detector"
RENDER = "signals.render_intensity"
TIMES = "coverage.coverage_times"
MMIN = "coverage.min_measurements"
MC = "coverage.coverage_mc"
LOAD = "harness.load_config"
EMIT = "harness.emit_results"
PER_LAYER_UNITS = {
    f"{DFT}.s": "s",
    f"{DFT}.calls": "count",
    f"{DFT}.evals": "count",
    f"{DFT}.evals_per_s": "1/s",
    f"{ARRIVALS}.s": "s",
    f"{ARRIVALS}.photons": "count",
    f"{ARRIVALS}.photons_per_s": "1/s",
    f"{DETECTOR}.s": "s",
    f"{DETECTOR}.events": "count",
    f"{RENDER}.s": "s",
    f"{TIMES}.s": "s",
    f"{TIMES}.calls": "count",
    f"{TIMES}.trials": "count",
    f"{TIMES}.censored_share": "share",
    f"{MMIN}.calls": "count",
    f"{MMIN}.horizon_doublings": "count",
    f"{MC}.s": "s",
    f"{MC}.trials": "count",
    f"{MC}.trials_per_s": "1/s",
    f"{LOAD}.s": "s",
    f"{EMIT}.s": "s",
    f"{EMIT}.bytes": "bytes",
    **{f"experiments.{runner}.self_s": "s" for runner in RUNNERS},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Run:
    """One finished child interpreter, with its checked outputs."""

    report: dict | None
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    @property
    def timed(self) -> list:
        """Wall times of the timed passes; pass 0 is the warm-up."""
        return [p["run_s"] for p in self.report["passes"][1:]] if self.report else []


def spawn(configs, seed, out_dir, deadline, trace=False, setup_only=False, budget=()):
    """Run one child interpreter; return its report, or None if it failed."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--seed", str(seed), "--out", str(out_dir),
        *budget,
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += [str(ROOT / c) for c in configs]
    # single-threaded baseline: no BLAS or OpenMP thread pools either
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    if timeout <= 0:
        return None
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: child exceeded {timeout:.0f} s and was killed", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: child exited with code {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["loaded_at"] - spawned_at
    return report


def expected_outputs(configs) -> dict:
    """Experiment -> {csv name: reference lines} for the workload's configs."""
    expected = {}
    for config in configs:
        experiment = json.loads((ROOT / config).read_text(encoding="utf-8"))["experiment"]
        expected[experiment] = {
            path.name: path.read_text(encoding="utf-8").splitlines()
            for path in sorted((REFERENCE / experiment).glob("*.csv"))
        }
    return expected


def _numbers(line):
    """Fields of a CSV line, as floats where they parse."""
    out = []
    for f in line.split(","):
        try:
            out.append(float(f))
        except ValueError:
            out.append(f)  # a label column such as the clock name
    return out


def well_formed(lines, reference) -> bool:
    """Same header and row count as the reference, only finite numbers."""
    if len(lines) != len(reference) or not lines or lines[0] != reference[0]:
        return False
    return all(
        not isinstance(v, float) or math.isfinite(v) for line in lines[1:] for v in _numbers(line)
    )


def matches(lines, reference) -> bool:
    """Equal to the reference up to the rounding of the last written digit."""
    if len(lines) != len(reference) or not lines or lines[0] != reference[0]:
        return False
    for line, ref in zip(lines[1:], reference[1:]):
        got, want = _numbers(line), _numbers(ref)
        if len(got) != len(want):
            return False
        for a, b in zip(got, want):
            if isinstance(a, float) and isinstance(b, float):
                if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    return False
            elif a != b:
                return False
    return True


def check_outputs(report, configs) -> Run:
    """Count the expected CSVs of one child's passes and those that are bad.

    A missing report counts as one failed pass."""
    run = Run(report)
    expected = expected_outputs(configs)
    if report is None:
        run.attempted = run.failed = sum(len(files) for files in expected.values())
        return run
    for index, done in enumerate(report["passes"]):
        for experiment, files in expected.items():
            for name, reference in files.items():
                run.attempted += 1
                try:
                    payload = (Path(done["dir"]) / experiment / name).read_bytes()
                except OSError:
                    run.failed += 1
                    continue
                run.digests[(index, experiment, name)] = hashlib.sha256(payload).hexdigest()
                lines = payload.decode("utf-8", errors="replace").splitlines()
                good = matches(lines, reference) if index == 0 else well_formed(lines, reference)
                run.failed += not good
    return run


def run_child(configs, seed, deadline, trace=False, budget=()) -> Run:
    WORK.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        report = spawn(configs, seed, out_dir, deadline, trace=trace, budget=budget)
        return check_outputs(report, configs)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, passes, traced_run_s, untraced_run_s) -> dict:
    """Per-layer totals over the timed passes, divided by their number.

    Loading is not part of a pass; ``harness.load_config.s`` is its total."""
    seconds = defaultdict(float)
    calls = Counter()
    counts = defaultdict(Counter)
    own = self_times(spans)
    self_s = defaultdict(float)
    timed = [s for s in spans if s["run"] >= 1]
    for s in timed:
        seconds[s["name"]] += (s["end"] - s["start"]) / passes
        calls[s["name"]] += 1
        counts[s["name"]].update(s["counts"])
        self_s[s["name"]] += own[s["id"]] / passes
    name_of = {s["id"]: s["name"] for s in spans}
    nested_times = sum(
        1 for s in timed if s["name"] == TIMES and name_of.get(s["parent"]) == MMIN
    )
    load_s = sum(s["end"] - s["start"] for s in spans if s["name"] == LOAD)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_pass(n):
        return n / passes

    values = {
        f"{DFT}.s": seconds[DFT],
        f"{DFT}.calls": per_pass(calls[DFT]),
        f"{DFT}.evals": per_pass(counts[DFT]["evals"]),
        f"{DFT}.evals_per_s": ratio(per_pass(counts[DFT]["evals"]), seconds[DFT]),
        f"{ARRIVALS}.s": seconds[ARRIVALS],
        f"{ARRIVALS}.photons": per_pass(counts[ARRIVALS]["photons"]),
        f"{ARRIVALS}.photons_per_s": ratio(per_pass(counts[ARRIVALS]["photons"]), seconds[ARRIVALS]),
        f"{DETECTOR}.s": seconds[DETECTOR],
        f"{DETECTOR}.events": per_pass(counts[DETECTOR]["events"]),
        f"{RENDER}.s": seconds[RENDER],
        f"{TIMES}.s": seconds[TIMES],
        f"{TIMES}.calls": per_pass(calls[TIMES]),
        f"{TIMES}.trials": per_pass(counts[TIMES]["trials"]),
        f"{TIMES}.censored_share": ratio(counts[TIMES]["censored"], counts[TIMES]["trials"]),
        f"{MMIN}.calls": per_pass(calls[MMIN]),
        f"{MMIN}.horizon_doublings": ratio(nested_times, calls[MMIN]) - 1 if calls[MMIN] else 0.0,
        f"{MC}.s": seconds[MC],
        f"{MC}.trials": per_pass(counts[MC]["trials"]),
        f"{MC}.trials_per_s": ratio(per_pass(counts[MC]["trials"]), seconds[MC]),
        f"{LOAD}.s": load_s,
        f"{EMIT}.s": seconds[EMIT],
        f"{EMIT}.bytes": per_pass(counts[EMIT]["bytes"]),
        **{f"experiments.{r}.self_s": self_s[f"experiments.{r}"] for r in RUNNERS},
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def measure(workload, seed, seconds):
    """Set-up probes, then one interpreter timing passes until ``seconds`` are used."""
    configs = WORKLOADS[workload]
    started = time.monotonic()
    deadline = started + DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        # a set-up-only child never creates its output directory
        report = spawn(configs, seed, WORK / "unused", deadline, setup_only=True)
        if report is not None:
            setups.append(report["setup_s"])
    run = run_child(configs, seed, deadline, budget=("--until", repr(started + seconds)))
    if not run.timed:
        return None, run
    setups.append(run.report["setup_s"])
    timed = sorted(run.timed)
    values = {
        "run_s": statistics.median(timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run.report["peak_rss_mb"],
    }
    print(
        f"perfbench: {workload} seed={seed} passes={len(timed)} "
        f"run_s min/median/max={timed[0]:.4f}/{values['run_s']:.4f}/{timed[-1]:.4f} "
        f"setups={len(setups)} setup_s max={max(setups):.4f} "
        f"elapsed={time.monotonic() - started:.1f}s",
        file=sys.stderr,
    )
    metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END_UNITS.items()}
    return metrics, run


def measure_traced(workload, seed):
    """The same passes untraced and traced; per-layer metrics from the spans."""
    configs = WORKLOADS[workload]
    deadline = time.monotonic() + DEADLINE_S
    budget = ("--passes", str(TRACE_PASSES))
    plain = run_child(configs, seed, deadline, budget=budget)
    traced = run_child(configs, seed, deadline, trace=True, budget=budget)
    runs = [plain, traced]
    if not (plain.timed and traced.timed):
        return None, runs
    # a traced output that differs from its untraced twin is a bad output
    traced.failed += sum(plain.digests.get(key) != d for key, d in traced.digests.items())
    spans = traced.report["spans"]
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "run_s": [p["run_s"] for p in traced.report["passes"]],
        "untraced_run_s": [p["run_s"] for p in plain.report["passes"]],
        "digests": {
            "untraced": {"/".join(map(str, key)): d for key, d in plain.digests.items()},
            "traced": {"/".join(map(str, key)): d for key, d in traced.digests.items()},
        },
        "spans": spans,
    }
    path = spans_dir / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"perfbench: spans written to {path}", file=sys.stderr)
    traced_s = statistics.median(traced.timed)
    plain_s = statistics.median(plain.timed)
    return layer_metrics(spans, len(traced.timed), traced_s, plain_s), runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=CHECK_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must not be negative")

    needed = [ROOT / "src" / "qcs" / "__init__.py"] + [ROOT / c for c in WORKLOADS[args.workload]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a qcs checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, runs = measure_traced(args.workload, args.seed)
    else:
        metrics, run = measure(args.workload, args.seed, args.seconds)
        runs = [run]
    if metrics is None:
        print("perfbench: no run of the workload completed", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
