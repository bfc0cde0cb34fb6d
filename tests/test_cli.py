import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from constructions import is_connected, relabel
import qec
from qec.classify import enumerate_connected
from qec.cli import main
from qec.errors import BadParamsError, CatalogParseError, Graph6Error, QecError
from qec.graph6 import to_graph6
from qec.graphs import build_family, complete, compose, cycle, from_edges, multipartite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_plain(capsys):
    code, out, _ = run(capsys, "compute", "Bw", "--exact")
    assert code == 0
    assert "qec: -1" in out
    assert "verdict: QE" in out


def test_compute_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("\nBw\n"))
    code, out, _ = run(capsys, "compute", "-")
    assert code == 0
    assert "qec: -1" in out


def test_compute_json_roundtrip(capsys):
    code, out, _ = run(capsys, "compute", "Dhc", "--json", "--exact")
    assert code == 0
    payload = json.loads(out)
    # canonical serialization: parse -> dump reproduces the bytes
    assert json.dumps(payload, sort_keys=True, separators=(", ", ": "), indent=1) == out.strip()
    assert payload["records"][0]["verdict"] == "QE"


def test_classify_non_qe(capsys):
    g6 = to_graph6(build_family(multipartite(3, 2)))
    code, out, _ = run(capsys, "classify", g6)
    assert code == 0
    assert "verdict: NonQePrimary" in out
    assert "qec: 0.4" in out


def test_classify_witness_listed(capsys):
    g6 = to_graph6(build_family(multipartite(4, 2)))
    code, out, _ = run(capsys, "classify", g6)
    assert code == 0
    assert "verdict: NonQeNonPrimary" in out
    assert "witness: " in out and "witness: none" not in out


def test_enumerate_summary_line(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    assert "qe=19 non_primary=0 primary=2" in out


def test_enumerate_csv_out(tmp_path, capsys):
    table = tmp_path / "table.csv"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "csv", "--out", str(table))
    assert code == 0
    assert "qe=6 non_primary=0 primary=0" in out
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "id,graph6,n,edges,qec,verdict,witness,sieve_step,closed_form"
    assert len(lines) == 7


def test_enumerate_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    payload = json.loads(text)
    assert payload["summary"] == {"qe": 6, "non_primary": 0, "primary": 0}
    assert len(payload["records"]) == 6
    assert all(r["sieve_step"] for r in payload["records"])
    # canonical serialization round-trips byte-identically
    assert json.dumps(payload, sort_keys=True, separators=(", ", ": "), indent=1) == text.strip()


def test_family_output(capsys):
    code, out, _ = run(capsys, "family", "path:6")
    assert code == 0
    assert "formula: -0.535898384862" in out
    assert "engine: -0.535898384862" in out
    delta = float(out.split("delta: ")[1].strip())
    assert delta < 1e-8


def test_family_multipartite(capsys):
    code, out, _ = run(capsys, "family", "multipartite:3,2")
    assert code == 0
    assert "formula: 0.4" in out


def test_embed_csv(capsys):
    code, out, _ = run(capsys, "embed", "Dhc", "--check")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("vertex,x1")
    assert len([l for l in lines if not l.startswith("#")]) == 6  # header + 5 vertices
    defect = float(lines[-1].split()[-1])
    assert defect <= 1e-8


def test_embed_non_qe_exit2(capsys):
    g6 = to_graph6(build_family(multipartite(3, 2)))
    code, _, err = run(capsys, "embed", g6)
    assert code == 2
    assert "error" in err


def test_identify(tmp_path, capsys):
    g = build_family(cycle(6))
    f = tmp_path / "catalog.g6"
    f.write_text(f"G6-19 {to_graph6(g)}\n", encoding="ascii")
    shuffled = to_graph6(relabel(g, [5, 3, 0, 1, 4, 2]))
    code, out, _ = run(capsys, "identify", shuffled, "--catalog", str(f))
    assert code == 0
    assert out.strip() == "G6-19"
    code, out, _ = run(capsys, "identify", "Bw", "--catalog", str(f))
    assert code == 0
    assert out.strip() == "unknown"


def test_classify_json_lists_closed_forms_at_orders_9_and_10(capsys):
    for g6, family, value in (("IhCGGC@_G", "cycle:10", 0.0), ("HhCGGC@", "path:9", None)):
        code, out, _ = run(capsys, "classify", "--json", g6)
        assert code == 0
        (record,) = json.loads(out)["records"]
        forms = {form["family"]: form["value"] for form in record["closed_forms"]}
        assert family in forms
        if value is not None:
            assert forms[family] == value


def test_classify_json_certifies_each_order_family_index_once(monkeypatch, capsys):
    """`classify --json` of the 10-cycle certifies the record's graph and, on
    first use, the 54 family members on 10 vertices as one stack; a second
    query certifies only its own graph, reading the cached index."""
    classify_module, canon_module = sys.modules["qec.classify"], sys.modules["qec.canon"]
    classify_module._family_index.cache_clear()
    certify, shapes = canon_module.least_masks, []
    counted = lambda adj: shapes.append(adj.shape) or certify(adj)  # noqa: E731
    monkeypatch.setattr(classify_module, "least_masks", counted)
    monkeypatch.setattr(canon_module, "least_masks", counted)
    for _ in range(2):
        code, out, _ = run(capsys, "classify", "--json", "IhCGGC@_G")
        assert code == 0
        (record,) = json.loads(out)["records"]
        assert [form["family"] for form in record["closed_forms"]] == ["cycle:10"]
    assert shapes == [(1, 10, 10), (54, 10, 10), (1, 10, 10)]


def test_classify_text_equals_the_json_fields(capsys):
    """Text `qec classify` prints the fields of `classify --json`: every class
    on 2..7 vertices, and seeded connected graphs on 8..10 vertices."""
    rng = random.Random(8)
    graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
    while len(graphs) < 995 + 12:
        n = 8 + (len(graphs) - 995) // 4
        p = rng.uniform(0.3, 0.8)
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        graphs += [g] if is_connected(g) else []
    for g in graphs:
        g6 = to_graph6(g)
        (rec,) = json.loads(run(capsys, "classify", g6, "--json")[1])["records"]
        witness = " ".join(map(str, rec["witness"])) if rec["witness"] else "none"
        assert run(capsys, "classify", g6) == (0, f"graph6: {rec['graph6']}\nverdict: {rec['verdict']}\n"
                                                  f"qec: {rec['qec']:.12g}\nwitness: {witness}\n"
                                                  f"sieve_step: {rec['sieve_step']}\n", ""), g6


def test_identify_relabeled_order_10(tmp_path, capsys):
    g = compose("cartesian", build_family(cycle(5)), build_family(complete(2)))
    f = tmp_path / "catalog.g6"
    f.write_text(f"C10 {to_graph6(build_family(cycle(10)))}\nprism {to_graph6(g)}\n", encoding="ascii")
    shuffled = to_graph6(relabel(g, [7, 2, 9, 0, 5, 1, 8, 3, 6, 4]))
    code, out, _ = run(capsys, "identify", shuffled, "--catalog", str(f))
    assert (code, out.strip()) == (0, "prism")


def test_identify_catalog_with_over_large_order_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "catalog.g6"
    f.write_text("A Bw\nB J????????????\n", encoding="ascii")
    code, out, err = run(capsys, "identify", "C~", "--catalog", str(f))
    assert (code, out) == (1, "")
    assert err == "error: line 2: bad graph6 record 'J????????????': order 11 exceeds supported maximum 10\n"


def test_trace(capsys):
    code, out, _ = run(capsys, "trace", to_graph6(build_family(cycle(6))))
    assert code == 0
    assert out.splitlines()[0].startswith("step1")
    step3 = [line for line in out.splitlines() if line.startswith("step3")]
    # C6 has QEC exactly 0: its closed form is within BOUNDARY_TOL of 0, so QE by the margin rule
    assert step3[0] == "step3: matches family cycle:6, closed form 0 -> QE"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_is_quiet(unbuffered):
    src = str(Path(qec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qec.cli", "compute", "Bw"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def _fresh_import(code, **env_vars):
    src = str(Path(qec.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=src, **env_vars)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return proc.stdout.strip()


def test_blas_runs_one_thread_unless_set():
    show = "import os, qec, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_import(show) == "1"
    assert _fresh_import(show, OPENBLAS_NUM_THREADS="2") == "2"
    if Path("/proc/self/task").is_dir():
        count = "import os, qec.cli; print(len(os.listdir('/proc/self/task')))"
        assert _fresh_import(count) == "1"


def test_cli_import_leaves_process_pool_unloaded():
    show = "import sys, qec.cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh_import(show) == "False"


def test_cli_import_builds_no_table():
    """Every table is built on first use: `import qec.cli` fills no cache of
    the library, the block tables of the witness search, the class
    certificates and the class stacks included."""
    show = ("import sys, qec.cli; print(sorted(f'{name}.{key}' for name, module in sys.modules.items()"
            " if name.startswith('qec') for key, fn in vars(module).items()"
            " if getattr(fn, '__module__', None) == name and hasattr(fn, 'cache_info')"
            " and fn.cache_info().currsize))")
    assert _fresh_import(show) == "[]"
    stack = "import sys, qec.cli; print(tuple(sys.modules['qec.classify']._class_stack.cache_info()))"
    assert _fresh_import(stack) == "(0, 0, None, 0)"


def test_sign_invariant_breach_exits_3(capsys, monkeypatch):
    # a QE graph (C4) given a positive QEC breaks the sign invariant
    monkeypatch.setattr(sys.modules["qec.classify"], "qec_value", lambda g: 1e-16)
    code, out, err = run(capsys, "classify", to_graph6(build_family(cycle(4))))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: QEC 1e-16 contradicts exact verdict")


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "compute", "@@@@")[0] == 1       # malformed graph6
    assert run(capsys, "family", "nonsense:3")[0] == 1  # unknown family
    assert run(capsys, "nonsense")[0] == 1              # unknown subcommand
    assert run(capsys, "identify", "Bw", "--catalog", "/nonexistent")[0] == 1


def test_exit_code_unsupported_inputs(capsys):
    assert run(capsys, "compute", "A?")[0] == 2   # disconnected two-vertex graph
    assert run(capsys, "compute", "@")[0] == 2    # single vertex: QEC undefined
    assert run(capsys, "trace", "A?")[0] == 2
    assert run(capsys, "classify", "A?")[0] == 2
    assert run(capsys, "classify", "--json", "A?")[0] == 2


def _error_types(cls):
    return [cls] + [sub for direct in cls.__subclasses__() for sub in _error_types(direct)]


def test_exit_code_of_every_error_type(capsys, monkeypatch):
    """A command that raises a QecError exits 1 when it is a graph6, catalog
    or parameter error and 2 otherwise, printing the message; any other
    exception is an internal error, exit 3."""
    raised = []

    def fail(g):
        raise raised[-1]

    monkeypatch.setattr(qec.cli, "sieve_trace", fail)
    codes = {}
    for cls in _error_types(QecError):
        raised.append(cls(1, "boom") if cls is CatalogParseError else cls("boom"))
        codes[cls], out, err = run(capsys, "trace", "Bw")
        assert (out, err) == ("", f"error: {raised[-1]}\n"), cls
    assert codes == {cls: 1 if issubclass(cls, (Graph6Error, BadParamsError)) else 2 for cls in codes}
    assert len(codes) == 19 and list(codes.values()).count(1) == 6  # Graph6Error has four subclasses
    raised.append(Exception("boom"))
    assert run(capsys, "trace", "Bw") == (3, "", "internal error: boom\n")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
