"""Tests of the benchmark itself, at smoke sizes: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(checkout, workload, seed, trace, *extra):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=checkout, capture_output=True, text=True, timeout=600)


def _result(workload, seed, trace, *extra) -> dict:
    out = _run(ROOT, workload, seed, trace, "--smoke", *extra)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in names}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload):
    result = _result(workload, 3, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_seeds(workload):
    first, second = _result(workload, 3, 1), _result(workload, 4, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
    assert any(first["metrics"][k]["value"] > 0 for k in counts)
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed_op(workload):
    result = _result(workload, 3, 0, "--corrupt")
    assert result["correct"] and result["failed"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, WORKLOADS[0], 1, 0)
    assert out.returncode != 0 and out.stdout.strip() == ""
