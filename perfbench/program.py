"""Locating and importing the program under test, and describing the machine.

The benchmark runs convdom from the ``src`` directory of the checkout it sits
in, never from an installed copy, so that it measures exactly the source
next to it.  BLAS threads are pinned before numpy is first imported.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable convdom sources."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> int:
    """Pin BLAS/OpenMP threads to one.

    On a shared host another tenant often holds the second CPU for seconds at
    a time; a second BLAS thread then waits for it, and the same operation
    took nearly twice as long from one run to the next.  One thread runs at
    the speed of its own CPU only.  Must run before numpy is imported; the
    count is inherited by children.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    threads = 1
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import ``convdom.cli`` from the checkout's ``src`` directory."""
    if not (SRC / "convdom" / "cli.py").is_file():
        raise ProgramMissing(f"no convdom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import convdom.cli

    if not Path(convdom.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"convdom was imported from {convdom.__file__}, not from {SRC}")
    return convdom.cli


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    """What a result depends on besides the code: versions, BLAS, threads."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "seed": seed,
    }
