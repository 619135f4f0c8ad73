"""Smoke test of the benchmark: every workload in both modes at toy sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_runs_and_passes_its_checks():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 8, proc.stdout
