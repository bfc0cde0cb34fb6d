"""Golden `qec enumerate` reports: exact bytes, and no floating-point noise.

The digests pin every verdict, witness, sieve step and 12-digit value of the
full tables.  A QEC that is exactly zero prints as 0.0 (JSON) or 0 (CSV),
and nothing else prints within 1e-9 of zero.  An oracle builds each record's
dict here, field by field from `classify_all`'s records, `to_graph6` and
`per_graph.closed_form_matches`, and writes the dicts with `json.dumps` and
`csv.writer`: the reports must equal it on 2..7 vertices, and `qec classify
--json` must equal it on each class.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import sys

import pytest

from per_graph import closed_form_matches
from qec import __version__
from qec.classify import ClassificationRecord, classify, classify_all, enumerate_connected
from qec.cli import main
from qec.graph6 import to_graph6
from qec.graphs import Graph

DIGESTS = [
    (2, "json", "917be8bbb604bceb5617be84dfc5687ca1303874ba1ee826573cf5db39c7923d"),
    (2, "csv", "a4e080b95b1c9b8215fd09ae9cf45e23e7ac6a54ca0a23240c9319525e44e488"),
    (3, "json", "2bbe9f9eba92c1781cddbbffeb6e17fc7f4ab963a29314ab55ca0f41b0adf231"),
    (3, "csv", "4c51ce5846532e6d172be0127e014e667220e2c351ef5279e6afadfd73ba9825"),
    (4, "json", "f0756fecb2d490157b29bacd1ecd3548aff6828822708db8415ba3cede21502e"),
    (4, "csv", "af64408c9d58ff6ad5bc1b0458d977ff70208677b460559340376b8ca5af24e7"),
    (5, "json", "46506e6eb3898ffe08d632b3ab6969df24eb2e5af0658915f900e56cbddcc900"),
    (5, "csv", "9f2a280579116d8b065f830b22d6d2afe880ffaa6df50c1d0c843eacf321529e"),
    (6, "json", "86f8273dfbd0c633b29b7bf646d62563c7cac461ca935d040792605d9a733486"),
    (6, "csv", "55ba78fee636825d52b4b990f3c5552cce515f90bd78614ebd5c72631492c19d"),
    (7, "json", "c39c02a1589de7d491c8372f83847457190fe9e264fb1a9c6693a1c42555f9b1"),
    (7, "csv", "25e5e5eac13e0478d29207d8366dacd33472c88d609f884b3541128e4c0f6878"),
]

# classes with QEC exactly 0 (even cycles, pendant-edge graphs, ...)
EXACT_ZEROS = {2: 0, 3: 0, 4: 1, 5: 3, 6: 25, 7: 164}


def _qec_values(text: str, fmt: str) -> list[float]:
    if fmt == "json":
        return [r["qec"] for r in json.loads(text)["records"]]
    return [float(row["qec"]) for row in csv.DictReader(io.StringIO(text))]


@pytest.mark.parametrize("n,fmt,digest", DIGESTS)
def test_enumerate_report_digest(n, fmt, digest, tmp_path, capsys):
    out = tmp_path / f"report.{fmt}"
    assert main(["enumerate", "--n", str(n), "--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    values = _qec_values(data.decode("ascii"), fmt)
    assert not [v for v in values if 0 < abs(v) < 1e-9]
    zeros = [v for v in values if v == 0]
    assert len(zeros) == EXACT_ZEROS[n]
    assert all(math.copysign(1.0, v) == 1.0 for v in zeros)


def test_enumerate_builds_no_graph_and_no_record(tmp_path, capsys, monkeypatch):
    """`qec enumerate --n 7` writes its report from the sweep's arrays: with
    the graph builders and the record constructor made to raise (after one
    run has filled the lazy tables, which build family members and product
    factors as graphs), it still writes the pinned bytes."""
    out = tmp_path / "report.json"
    argv = ["enumerate", "--n", "7", "--out", str(out)]
    assert main(argv) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("qec enumerate built a graph or a record")

    for module in ("qec.classify", "qec.graphs"):
        monkeypatch.setattr(sys.modules[module], "_from_masks", forbidden)
    monkeypatch.setattr(sys.modules["qec.classify"], "_class_graphs", forbidden)
    monkeypatch.setattr(sys.modules["qec.graphs"].Graph, "_set", forbidden)
    monkeypatch.setattr(ClassificationRecord, "_make", forbidden)
    out.unlink()
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == next(d for n, f, d in DIGESTS if (n, f) == (7, "json"))
    with pytest.raises(AssertionError, match="built a graph or a record"):
        classify_all(7)


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "), indent=1)


def _oracle_dict(rec) -> dict:
    """A record's report fields, built from the record alone."""
    g = rec.graph
    return {
        "id": None,
        "graph6": to_graph6(g),
        "n": g.n,
        "edges": len(g.edges()),
        "qec": float(f"{rec.qec_value:.12g}"),
        "verdict": rec.verdict.value,
        "witness": None if rec.witness is None else list(rec.witness),
        "sieve_step": rec.sieve_step,
        "closed_forms": [{"family": str(spec), "value": float(f"{value:.12g}"), "exact": exact}
                         for spec, value, exact in closed_form_matches(g)],
    }


def _oracle_csv(dicts) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "graph6", "n", "edges", "qec", "verdict", "witness", "sieve_step", "closed_form"])
    for d in dicts:
        writer.writerow(["", d["graph6"], str(d["n"]), str(d["edges"]), f"{d['qec']:.12g}", d["verdict"],
                         " ".join(str(v) for v in d["witness"] or ()), d["sieve_step"],
                         d["closed_forms"][0]["exact"] if d["closed_forms"] else ""])
    return buf.getvalue()


@pytest.mark.parametrize("n", range(2, 8))
def test_enumerate_reports_equal_the_oracle(n, tmp_path, capsys):
    records, summary = classify_all(n)
    dicts = [_oracle_dict(rec) for rec in records]
    payload = {"version": __version__, "input": f"enumerate n={n}", "records": dicts,
               "summary": {"qe": summary.qe, "non_primary": summary.non_primary, "primary": summary.primary}}
    for fmt, want in (("json", _dumps(payload) + "\n"), ("csv", _oracle_csv(dicts))):
        out = tmp_path / f"report.{fmt}"
        assert main(["enumerate", "--n", str(n), "--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (f"qe={summary.qe} non_primary={summary.non_primary} "
                                           f"primary={summary.primary}\n")
        assert out.read_text(encoding="ascii") == want, fmt
    assert any(d["closed_forms"] for d in dicts)  # the complete graph's, at least


def test_classify_json_equals_the_oracle():
    """`qec classify --json` of every class on 2..6 vertices, each given with
    its vertex order reversed: the report names the graph as it was given."""
    for n in range(2, 7):
        for g in enumerate_connected(n):
            moved = Graph(g.adj[::-1, ::-1])
            g6 = to_graph6(moved)
            rec = _oracle_dict(classify(moved))
            counts = {key: int(rec["verdict"] == verdict) for key, verdict in
                      (("qe", "QE"), ("non_primary", "NonQeNonPrimary"), ("primary", "NonQePrimary"))}
            want = {"version": __version__, "input": f"classify {g6}", "records": [rec], "summary": counts}
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["classify", g6, "--json"]) == 0
            assert out.getvalue() == _dumps(want) + "\n", g6
