"""The bitwise ledger: losses, gradients, forecasts and metric reports hold
every bit recorded in tools/digests.json (about 2 s)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def _check(**env) -> subprocess.CompletedProcess:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", **env}
    return subprocess.run([sys.executable, str(TOOL), "--check"], capture_output=True, text=True, env=env, timeout=600)


def test_every_digest_matches_the_ledger():
    run = _check()
    if "environment differs" in run.stdout:
        pytest.skip(run.stdout.strip())
    assert run.returncode == 0, run.stdout + run.stderr


def test_another_openblas_core_is_reported_as_another_environment():
    """OpenBLAS picks its GEMM kernels for the CPU core it finds at run time,
    and another core's kernels round differently.  Under a core other than
    the recorded one (forced with OPENBLAS_CORETYPE) `--check` says the
    environment differs and exits 0, without comparing a digest."""
    recorded = json.loads(TOOL.with_suffix(".json").read_text())["environment"]["openblas_core"]
    if recorded is None:
        pytest.skip("the ledger was recorded without numpy's bundled OpenBLAS")
    other = "Haswell" if recorded == "Nehalem" else "Nehalem"
    run = _check(OPENBLAS_CORETYPE=other)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "environment differs" in run.stdout and f"'openblas_core': '{other}'" in run.stdout
