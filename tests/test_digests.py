"""The bitwise ledger: losses, gradients, forecasts and metric reports hold
every bit recorded in tools/digests.json (about 2 s)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def test_every_digest_matches_the_ledger():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(TOOL), "--check"], capture_output=True, text=True, env=env, timeout=600)
    if "environment differs" in run.stdout:
        pytest.skip(run.stdout.strip())
    assert run.returncode == 0, run.stdout + run.stderr
