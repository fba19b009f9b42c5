"""Record the benchmark baseline of the current checkout in perfbench/baseline.json.

    python3 perfbench/record_baseline.py
    python3 perfbench/record_baseline.py --reference

With ``--reference`` it instead rewrites ``perfbench/reference``: the CSVs
of one pass over every workload at the committed seed, against which each
run's warm-up pass is checked.  Otherwise it runs ``run.py --trace 0``
once per seed 1..10 on each workload, one at a time, and ``run.py --trace 1``
once per workload at the committed seed.
Each end-to-end metric is stored with its ten values, median and
quartiles, and its spread: the interquartile distance as a share of the
median, which must stay below the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import run as bench

OUT = bench.HERE / "baseline.json"


def invoke(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bench.ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} bad outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def git_revision():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bench.ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def record_reference():
    """One untimed pass per workload at the committed seed, copied to REFERENCE."""
    for workload, configs in bench.WORKLOADS.items():
        bench.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.WORK) as out:
            report = bench.spawn(
                configs, bench.CHECK_SEED, out, time.monotonic() + bench.DEADLINE_S,
                budget=("--passes", "0"),
            )
            if report is None:
                raise SystemExit(f"{workload}: the reference pass failed")
            made = bench.Path(report["passes"][0]["dir"])
            for experiment_dir in sorted(made.iterdir()):
                target = bench.REFERENCE / experiment_dir.name
                shutil.rmtree(target, ignore_errors=True)
                target.mkdir(parents=True)
                for csv in sorted(experiment_dir.glob("*.csv")):
                    shutil.copyfile(csv, target / csv.name)
                print(f"wrote {target}", file=sys.stderr)


def main() -> int:
    if sys.argv[1:] == ["--reference"]:
        record_reference()
        return 0
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import numpy
    import scipy

    record = {
        "revision": git_revision(),
        "date": time.strftime("%Y-%m-%d"),
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, 11)),
        "workloads": {},
    }
    for workload in bench.WORKLOADS:
        runs = []
        for seed in record["seeds"]:
            runs.append(invoke(workload, seed, 0, spec["run_seconds"]))
            print(workload, seed, runs[-1], file=sys.stderr, flush=True)
        end_to_end = {m: summarize([r[m] for r in runs]) for m in bench.END_TO_END_UNITS}
        traced = invoke(workload, bench.CHECK_SEED, 1, spec["run_seconds"])
        record["workloads"][workload] = {"end_to_end": end_to_end, "per_layer": traced}
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
