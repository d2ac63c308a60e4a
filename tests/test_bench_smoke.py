"""Smoke run of the simulator benchmark workloads, so the harness cannot rot.

At the default seeds, `bench/run.py --smoke` also checks the trace hashes
against `bench/golden.json`, so this doubles as a determinism gate.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["sim-media", "sim-control"])
def test_bench_smoke_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seconds", "2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
