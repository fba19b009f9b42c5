"""Checks of the benchmark itself; each workload runs once traced and once not.

    python3 -m pytest -q perfbench/selftest.py      (about three minutes)

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OTHER_SEED = 7


@lru_cache(maxsize=None)
def invoke(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=bench.ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_end_to_end_metric_emitted(workload):
    result = invoke(workload, OTHER_SEED, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_traced_run(workload):
    result = invoke(workload, bench.CHECK_SEED, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.PER_LAYER_UNITS)
    record = json.loads(
        (bench.WORK / "spans" / f"{workload}-seed{bench.CHECK_SEED}.json").read_text()
    )
    assert record["digests"]["traced"] == record["digests"]["untraced"]
    spans = record["spans"]
    own = bench.self_times(spans)
    # spans under the harness.run_experiment roots of each pass
    root = {}
    for s in spans:
        root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
    assert len(record["run_s"]) == bench.TRACE_PASSES + 1
    for index, run_s in enumerate(record["run_s"]):
        tops = {
            s["id"] for s in spans if s["name"] == "harness.run_experiment" and s["run"] == index
        }
        assert len(tops) == len(bench.WORKLOADS[workload])
        in_pass = sum(own[s["id"]] for s in spans if root[s["id"]] in tops)
        assert 0 < in_pass <= run_s


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert bench.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_bad_outputs_are_counted(tmp_path):
    configs = bench.WORKLOADS["coverage"][1:]
    reference = (bench.REFERENCE / "SuccessVsM" / "success_vs_m.csv").read_text()
    for index, payload in enumerate([reference, reference.replace("0.98", "nan")]):
        (tmp_path / str(index) / "SuccessVsM").mkdir(parents=True)
        (tmp_path / str(index) / "SuccessVsM" / "success_vs_m.csv").write_text(payload)
    passes = [{"dir": str(tmp_path / str(i))} for i in range(2)]
    run = bench.check_outputs({"passes": passes}, configs)
    assert (run.attempted, run.failed) == (2, 1)
    assert bench.check_outputs(None, configs).failed == 1


def test_reference_check_allows_only_rounding():
    ref = ["k,p,m,success", "20,0.98,60,0.982971726"]
    assert bench.matches(["k,p,m,success", "20,0.98,60,0.982971727"], ref)
    assert not bench.matches(["k,p,m,success", "20,0.98,60,0.982981726"], ref)
    assert not bench.matches(["k,p,m,success", "20,0.98,61,0.982971726"], ref)
    assert not bench.matches(ref[:1], ref)


def test_every_workload_has_reference_outputs():
    for configs in bench.WORKLOADS.values():
        for files in bench.expected_outputs(configs).values():
            assert files and all(len(lines) > 1 for lines in files.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "coverage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
