"""Golden digest of the default sim run's final global classifier.

Kernel rewrites must keep the arithmetic bit-identical; this pins the
bytes ``repro run --transport sim --clients 4 --rounds 2 --save-global``
writes, so any change in floating-point results anywhere on the training
path fails here, not silently downstream.  A change that means to alter
the bits must say so and update the digest.

The run uses one BLAS thread: OpenBLAS splits work across threads in
ways that change rounding, so the digest is only defined for a fixed
thread count.  It was recorded with the NumPy and BLAS build named in
``RECORDED``; another build may round differently, so the check is
skipped there rather than reporting a false change.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

RECORDED = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
GOLDEN_SHA256 = "4db1fabe61b79d0f3ca931247a807701e535aead7988e330d941f846db90c561"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def test_default_sim_run_final_classifier_digest(tmp_path):
    if _build() != RECORDED:
        pytest.skip(f"digest recorded for {RECORDED}, this build is {_build()}")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    saved = tmp_path / "global.bin"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "--transport", "sim", "--clients", "4",
         "--rounds", "2", "--save-global", str(saved)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    assert hashlib.sha256(saved.read_bytes()).hexdigest() == GOLDEN_SHA256
