import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qec
from qec.cli import main
from qec.graph6 import to_graph6
from qec.graphs import build_family, cycle, multipartite, relabel


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


def test_trace(capsys):
    code, out, _ = run(capsys, "trace", to_graph6(build_family(cycle(6))))
    assert code == 0
    assert out.splitlines()[0].startswith("step1")
    step3 = [line for line in out.splitlines() if line.startswith("step3")]
    # C6 has QEC exactly 0, so the exact test decides its closed form
    assert step3[0].endswith("-> QE (boundary, exact test decides)")


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


def test_sign_invariant_breach_exits_3(capsys, monkeypatch):
    # a QE graph (C4) given a positive QEC breaks the sign invariant
    monkeypatch.setattr(sys.modules["qec.classify"], "qec", lambda g: SimpleNamespace(value=1e-16))
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


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
