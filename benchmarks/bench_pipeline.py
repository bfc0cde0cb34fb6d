"""Best-of-k timings of the enumeration pipeline, before and after a change.

    python benchmarks/bench_pipeline.py --parent DIR [--k 5] [--out BENCH_pipeline.json]

DIR is a checkout of the parent commit (a `git clone` checked out there);
the change is the checkout holding this script.  Each round runs one fresh
interpreter per tree, with PYTHONPATH pointing at that tree's `src`, and
alternates which tree goes first; every number is the best over the k
rounds, in wall-clock seconds on this machine.

End to end:
  classify_all_n{5,6,7}   classify_all(n, workers=1)
  cli_enumerate_n6        a cold `python -m qec.cli enumerate --n 6` process
Changed layers:
  enumerate_connected_n7  enumerate_connected(7) alone (first call in the process)
  min_permuted_mask_n{7,8}_per_call
                          mean over 200 seeded random masks, table built first
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parents[1]
MASKS_PER_ORDER = 200


def _measure() -> dict[str, float]:
    """One round of every in-process timing, in the current interpreter."""
    from qec.bits import n_bits
    from qec.canon import perm_table
    from qec.classify import classify_all, enumerate_connected
    from qec.kernels import min_permuted_mask

    out: dict[str, float] = {}
    t0 = time.perf_counter()
    count = len(enumerate_connected(7))
    out["enumerate_connected_n7"] = time.perf_counter() - t0
    if count != 853:
        raise SystemExit(f"enumerate_connected(7) gave {count} classes")
    for n in (5, 6, 7):
        t0 = time.perf_counter()
        classify_all(n, workers=1)
        out[f"classify_all_n{n}"] = time.perf_counter() - t0
    for n in (7, 8):
        rng = random.Random(n)
        masks = [rng.getrandbits(n_bits(n)) for _ in range(MASKS_PER_ORDER)]
        table = perm_table(n)
        t0 = time.perf_counter()
        for mask in masks:
            min_permuted_mask(mask, table)
        out[f"min_permuted_mask_n{n}_per_call"] = (time.perf_counter() - t0) / len(masks)
    return out


def _env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QEC_THREADS"}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def _round(tree: Path) -> dict[str, float]:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--measure"],
                          env=_env(tree), cwd=tree, capture_output=True, text=True,
                          check=True)
    times = json.loads(proc.stdout.splitlines()[-1])
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "qec.cli", "enumerate", "--n", "6",
                        "--out", str(Path(tmp) / "n6.json")],
                       env=_env(tree), cwd=tree, check=True, capture_output=True)
        times["cli_enumerate_n6"] = time.perf_counter() - t0
    return times


def _describe(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--k", type=int, default=5, help="rounds; each number is the best of k")
    ap.add_argument("--out", type=Path, default=HERE / "BENCH_pipeline.json")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(_measure()))
        return
    if args.parent is None:
        ap.error("--parent is required")
    trees = {"parent": args.parent.resolve(), "change": HERE}
    best: dict[str, dict[str, float]] = {side: {} for side in trees}
    for r in range(args.k):
        order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
        for side in order:
            for name, value in _round(trees[side]).items():
                best[side][name] = min(value, best[side].get(name, value))
            print(f"round {r + 1}/{args.k} {side} done", file=sys.stderr)
    report = {
        "benchmark": "benchmarks/bench_pipeline.py",
        "unit": "s (wall clock, best of k)",
        "k": args.k,
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
        "parent": {"commit": _describe(trees["parent"]), "best_s": best["parent"]},
        "change": {"commit": _describe(trees["change"]), "best_s": best["change"]},
        "parent_over_change": {name: round(best["parent"][name] / best["change"][name], 2)
                               for name in sorted(best["change"])},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["parent_over_change"], indent=2))


if __name__ == "__main__":
    main()
