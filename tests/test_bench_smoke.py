"""The benchmark harness's self-test, so that bench/ cannot rot unnoticed.

Deselected by default (see ``addopts`` in pyproject.toml); run it with
``python -m pytest -m bench``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.bench
def test_bench_smoke_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout.splitlines()
