"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They start the benchmark as a user would, so they take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def traced(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload",
                         ["idct_block", "idct_pipeline", "serve_mix"])
def test_counts_repeat_across_runs_and_hash_seeds(workload):
    """Every count and ratio of counts is identical under two hash seeds."""
    first, second = traced(workload, "0"), traced(workload, "1")
    assert set(first) == set(second)
    counted = sorted(name for name, metric in first.items()
                     if metric["unit"] in ("count", "ratio")
                     and name != "obs.trace.overhead_ratio")
    assert counted
    assert {name: first[name]["value"] for name in counted} == \
        {name: second[name]["value"] for name in counted}
    if workload == "idct_block":
        calls = first["core.budgeting.budget_slack.calls"]["value"]
        assert calls == first["core.slack_scheduler.rebudgets"]["value"] + 15
    if workload == "serve_mix":
        assert first["serve.jobs.infeasible"]["value"] == 16
        assert first["serve.retry.retries"]["value"] == 32


def test_refuses_to_run_without_the_program(tmp_path):
    """Without the sources it exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "idct_block",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
