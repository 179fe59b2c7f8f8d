"""Smoke test of the benchmark's smallest configuration (one round per run).

    python3 -m pytest perfbench/test_smoke.py

It stays out of the repository's test suite, which collects ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_finite_exact_counts_the_certify_fault_in_every_round(trace):
    result = result_of(run("finite-exact", trace))
    key = "end_to_end" if trace == 0 else "per_layer"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    record = json.loads((BENCH / "results" / f"finite-exact-seed7-trace{trace}.json").read_text())
    assert set(record["failures"]) == {f"cli-certify-facet-{i}" for i in range(6)}
    assert result["failed"] * record["operations_per_round"] == 6 * result["attempted"]


def test_cardioid_verdicts_one_round():
    result = result_of(run("cardioid-verdicts", 0))
    assert result["failed"] == 0
    assert result["metrics"]["ipm_iters"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("finite-exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
