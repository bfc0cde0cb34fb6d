"""Golden `qec enumerate` reports: exact bytes, and no floating-point noise.

The digests pin every verdict, witness, sieve step and 12-digit value of the
full tables.  A QEC that is exactly zero prints as 0.0 (JSON) or 0 (CSV),
and nothing else prints within 1e-9 of zero.
"""

import csv
import hashlib
import io
import json
import math

import pytest

from qec.cli import main

DIGESTS = [
    (5, "json", "46506e6eb3898ffe08d632b3ab6969df24eb2e5af0658915f900e56cbddcc900"),
    (6, "json", "86f8273dfbd0c633b29b7bf646d62563c7cac461ca935d040792605d9a733486"),
    (6, "csv", "55ba78fee636825d52b4b990f3c5552cce515f90bd78614ebd5c72631492c19d"),
    (7, "json", "c39c02a1589de7d491c8372f83847457190fe9e264fb1a9c6693a1c42555f9b1"),
    (7, "csv", "25e5e5eac13e0478d29207d8366dacd33472c88d609f884b3541128e4c0f6878"),
]

# classes with QEC exactly 0 (even cycles, pendant-edge graphs, ...)
EXACT_ZEROS = {5: 3, 6: 25, 7: 164}


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
