#!/usr/bin/env python3
"""Benchmark of the qec classifier, run from the root of a checkout.

    python3 perfbench/run.py --workload {enum7,query-mix,cli-enum6}
                             --seed N --seconds S --trace {0,1}

Workloads are described in workloads.py and BENCHMARK.json.  The program
is imported from ./src; every output is checked against perfbench/oracle.py.

stdout ends with two JSON lines: first the run's facts (machine, workload
properties, tail percentile and sample count, set-up samples), then the
result {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, measured untraced and scaled to a
reference machine speed (speed.py); with --trace 1 they are
the per-layer ones from a single-worker traced pass (tracing.py), plus the
tracing overhead against the same work untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from env import ROOT, TMP, clear_program_env, import_qec, machine_facts
from workloads import WORKLOADS


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cleared = clear_program_env()
    qec = import_qec()
    tmp = TMP / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        metrics, info, checks = WORKLOADS[args.workload](
            qec, tmp, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()

    units = metric_units(bool(args.trace))
    if args.trace:
        metrics = {"query.repeat_class_ratio": 0.0, "qec.qe_positive": 0,
                   "qec.noise_values": 0, **metrics}
        metrics["error_rate"] = checks.failed / checks.attempted
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "machine": machine_facts(qec),
             "cleared_env": sorted(cleared), "error_rate": checks.failed / checks.attempted,
             **info}
    print(json.dumps(facts))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
