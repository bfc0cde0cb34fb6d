"""The names the benchmark in perfbench/ relies on still exist in the library.

perfbench/tracing.py patches qec functions by (module, attribute) and
perfbench/env.py records `qec.kernels.active_backend()` with every run; a
rename in the library would otherwise surface only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import qec
import qec.cli  # noqa: F401  (binds every module the tracer patches)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import env  # noqa: E402
import tracing  # noqa: E402


def test_traced_bindings_resolve():
    for layer, bindings in tracing.BINDINGS.items():
        for module, attribute, _, _ in bindings:
            target = getattr(importlib.import_module(module), attribute, None)
            assert callable(target), f"{layer}: {module}.{attribute} is gone"


def test_active_backend_is_recorded():
    assert isinstance(qec.kernels.active_backend(), str)
    assert env.machine_facts(qec)["backend"] == qec.kernels.active_backend()
