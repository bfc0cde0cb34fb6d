"""Where the program under test lives, and the facts recorded with each result.

The benchmark runs from the root of a checkout and imports `qec` from that
checkout's `src/`, never from an installed copy; without `src/qec` it stops
before measuring anything.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

# Settings that would change the program's worker pool or numeric backend.
# Worker counts are set through `workers=` instead.
PROGRAM_ENV = ("QEC_THREADS", "QEC_BACKEND")


def import_qec():
    """Import qec.cli from the checkout's src/ and return the qec package."""
    if not (SRC / "qec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'qec'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qec
    import qec.cli  # noqa: F401  (binds every module the tracer patches)

    if Path(qec.__file__).resolve().parent != (SRC / "qec").resolve():
        raise SystemExit(f"perfbench: imported qec from {qec.__file__}, not from {SRC}")
    return qec


def clear_program_env() -> dict[str, str]:
    """Drop QEC_THREADS/QEC_BACKEND from this process; return what was set."""
    return {key: os.environ.pop(key) for key in PROGRAM_ENV if key in os.environ}


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the checkout's src/ first on the path."""
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def machine_facts(qec) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": qec.kernels.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }
