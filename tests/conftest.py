"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergman_lab


@pytest.fixture
def outputs_under_blas_threads():
    """Run a Python script in subprocesses with one and with two BLAS
    threads, the package importable from the tree under test; returns
    the two stripped standard outputs."""
    src = str(Path(bergman_lab.__file__).resolve().parents[1])

    def run(script):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src] + os.environ.get("PYTHONPATH", "").split(
                               os.pathsep)))
            res = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=300,
                                 check=True)
            outputs.append(res.stdout.strip())
        return outputs

    return run
