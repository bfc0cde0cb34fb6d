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


def test_enumerate_reports_through_the_traced_names(monkeypatch, tmp_path, capsys):
    """`qec enumerate --n 5` writes its report through the qec.cli names that
    tracing.BINDINGS patches for the cli.report and graph6.emit layers: one
    _record_dict and one to_graph6 per record, and one _dump_json."""
    bound = {(module, attribute) for layer in ("cli.report", "graph6.emit")
             for module, attribute, _, _ in tracing.BINDINGS[layer]}
    names = ("_record_dict", "_dump_json", "to_graph6")
    assert {("qec.cli", name) for name in names} <= bound
    calls = {name: 0 for name in names}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(qec.cli, name, counted(name, getattr(qec.cli, name)))
    assert qec.cli.main(["enumerate", "--n", "5", "--out", str(tmp_path / "n5.json")]) == 0
    capsys.readouterr()
    assert calls == {"_record_dict": 21, "_dump_json": 1, "to_graph6": 21}
