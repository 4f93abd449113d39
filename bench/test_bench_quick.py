"""Quick runs of the benchmark command: every workload, all its checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# only float evaluations may fail (the binary64 Horner fault of
# IntPolynomial.eval_float); workloads without them must fail nothing
FLOAT_EVALS = ("relpoly eval ", "relpoly curve ")
NO_FLOAT_EVALS = {"exact-ladder", "mc-grid"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_end_to_end_metric(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    failed = [line.removeprefix("failed: ") for line in done.stderr.splitlines() if line.startswith("failed: ")]
    assert all(op.startswith(FLOAT_EVALS) for op in failed), failed
    if workload in NO_FLOAT_EVALS:
        assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_prints_every_per_layer_metric():
    done = run_bench("--workload", "mc-grid", "--seed", "3", "--seconds", "0.5", "--trace", "1", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert result["metrics"]["montecarlo.estimate.ms"]["value"] > 0
    assert result["metrics"]["oracle.detect_failures.rows"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "exact-ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
