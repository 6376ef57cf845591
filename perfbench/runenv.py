"""Process set-up shared by the benchmark's entry points.

BLAS and OpenMP threads are pinned to 1 before NumPy is first imported:
default BLAS threading made additive-net training about 25% slower with
identical output, and pinning keeps the thread count at or below the CPU
count while the CLI's own `--jobs` pool runs.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare() -> None:
    """Pin threads and put the checkout's own sources first on the import path."""
    os.environ.update(THREAD_ENV)
    if not (SRC / "hullexplain" / "__init__.py").is_file():
        raise SystemExit(f"error: no hullexplain sources under {SRC}")
    sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hullexplain").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """What a result depends on besides the code: versions, CPUs and threads."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }
