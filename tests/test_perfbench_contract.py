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
    """`qec enumerate --n 5` writes each report through one of the qec.cli
    names that tracing.BINDINGS patches for the cli.report layer, once: a
    JSON report through _dump_json, a CSV table through _records_csv."""
    names = [attribute for module, attribute, _, _ in tracing.BINDINGS["cli.report"]
             if module == "qec.cli"]
    assert {"_dump_json", "_records_csv"} <= set(names)
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(qec.cli, name, counted(name, getattr(qec.cli, name)))
    for fmt, writer in (("json", "_dump_json"), ("csv", "_records_csv")):
        out = tmp_path / f"n5.{fmt}"
        assert qec.cli.main(["enumerate", "--n", "5", "--format", fmt, "--out", str(out)]) == 0
        capsys.readouterr()
        assert calls == {name: int(name == writer) for name in names}, fmt
        assert out.stat().st_size > 0
        calls.update(dict.fromkeys(names, 0))
