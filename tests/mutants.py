"""A standing list of one-edit mutants of `src/`, and the tool that runs them.

Each mutant names a file, the exact text it replaces (which must occur once),
the new text, and either the Tier-1 test expected to kill it or the reason it
is equivalent.  The tool copies the repository (no `.git`, no caches) into a
temporary directory per mutant, applies the edit there, and runs Tier-1 with
`-x`; the working tree is never edited.  A mutant is *killed* when a test
fails, and the first failing test is reported beside the expected one.

    python tests/mutants.py                 # every mutant
    python tests/mutants.py --only NAME ... # some of them
    python tests/mutants.py --list          # names, files and expectations

The exit status is 1 when a non-equivalent mutant survives or an equivalent
one is killed, else 0.  pytest does not collect this file (it is not named
test_*.py).  Each mutant costs up to one Tier-1 run, about 40 s.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_tmp", ".bench_build",
                                 ".benchmarks", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # exact text, found once in the file
    new: str
    killer: str | None = None  # the test expected to fail first (a pytest node id)
    equivalent: str | None = None  # why no test can tell the mutant from the program


MUTANTS = (
    Mutant("boundary-tol-x1e6", "src/qec/classify.py", "BOUNDARY_TOL = 1e-9", "BOUNDARY_TOL = 1e-3",
           killer="tests/test_classify.py::test_tolerances_sit_inside_their_measured_margins"),
    Mutant("defect-tol-x1e6", "src/qec/embedding.py", "DEFECT_TOL = 1e-8", "DEFECT_TOL = 1e-2",
           killer="tests/test_classify.py::test_tolerances_sit_inside_their_measured_margins"),
    Mutant("rank-cutoff-x1e6", "src/qec/embedding.py", "RANK_CUTOFF = 1e-10", "RANK_CUTOFF = 1e-4",
           killer="tests/test_classify.py::test_tolerances_sit_inside_their_measured_margins"),
    Mutant("step6-margin-rule-at-ge", "src/qec/classify.py",
           "step[todo], verdict[todo] = 6, values > BOUNDARY_TOL",
           "step[todo], verdict[todo] = 6, values >= BOUNDARY_TOL",
           killer="tests/test_classify.py::test_sieve_step6_decides_from_the_value"),
    Mutant("step6-second-eigenvalue", "src/qec/classify.py",
           "values = kernels.eigvalsh(_projected(dist[todo]))[:, 0]",
           "values = kernels.eigvalsh(_projected(dist[todo]))[:, 1]",
           killer="tests/test_acceptance.py::test_criterion_01_six_vertex_classification"),
    Mutant("witness-gate-restored", "src/qec/classify.py",
           "    witnesses = _witness_stack(adj, dist, packed)\n",
           "    found = iter(_witness_stack(adj[~exact], dist[~exact], packed[:, ~exact]))\n"
           "    witnesses = [None if psd else next(found) for psd in exact.tolist()]\n",
           equivalent="an isometric subgraph of a QE graph is QE, so the search over the whole stack finds "
                      "no witness in a QE graph; skipping those graphs changes speed only"),
    Mutant("witness-for-qe-graphs", "src/qec/classify.py",
           "return [sets[s] if any_ else None for s, any_ in",
           "return [sets[s] if any_ else sets[0] for s, any_ in",
           killer="tests/test_acceptance.py::test_criterion_01_six_vertex_classification"),
)


def _first_failure(output: str) -> str | None:
    """The node id of the first failing or erroring test in pytest -q output."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else None


def run(mutant: Mutant) -> tuple[str, str | None, float]:
    """('killed' or 'survived', the first failing test, seconds) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="qec-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.monotonic() - start
    if done.returncode == 0:
        return "survived", None, seconds
    return "killed", _first_failure(done.stdout) or f"exit {done.returncode}", seconds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    ap.add_argument("--list", action="store_true", help="print the list and run nothing")
    args = ap.parse_args(argv)
    names = {m.name for m in MUTANTS}
    if args.only and not set(args.only) <= names:
        ap.error(f"unknown mutants: {sorted(set(args.only) - names)}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.list:
        for m in chosen:
            print(f"{m.name}  {m.file}  " + (f"killer: {m.killer}" if m.equivalent is None
                                              else f"equivalent: {m.equivalent}"))
        return 0
    bad = 0
    for m in chosen:
        outcome, first, seconds = run(m)
        expected = "survived" if m.equivalent is not None else "killed"
        bad += outcome != expected
        note = "" if m.killer is None or first == m.killer else f" (expected {m.killer})"
        print(f"{m.name}: {outcome}{f' by {first}' if first else ''}{note} in {seconds:.0f} s"
              + ("" if outcome == expected else "  <-- UNEXPECTED"), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
