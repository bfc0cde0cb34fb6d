"""Subprocess entry points of the benchmark.

    child.py setup [--catalog FILE]
        Import qec.cli; with a catalog, also load it and run the fixed
        warm-up queries.  The parent times the whole process as set-up.
    child.py cli --stats FILE [--trace] -- ARGV...
        Run qec.cli.main(ARGV) with one worker, optionally traced, and write
        exit code, stdout, wall time and layer metrics to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from functools import partial
from pathlib import Path
from time import perf_counter

from env import import_qec


def setup(catalog: str | None) -> None:
    qec = import_qec()
    if catalog:
        from workloads import run_query, warmup_queries

        loaded = qec.graph6.load_catalog(catalog)
        for kind, g6 in warmup_queries():
            run_query(qec, kind, g6, loaded)


def cli(stats: str, trace: bool, argv: list[str]) -> None:
    qec = import_qec()
    from tracing import Tracer

    qec.cli.classify_all = partial(qec.cli.classify_all, workers=1)
    tracer = Tracer()
    buf = io.StringIO()
    traced = (tracer.patch(), tracer.recording()) if trace else ()
    with contextlib.redirect_stdout(buf), contextlib.ExitStack() as stack:
        for ctx in traced:
            stack.enter_context(ctx)
        t0 = perf_counter()
        rc = qec.cli.main(argv)
        wall = perf_counter() - t0
    result = {"rc": rc, "stdout": buf.getvalue(), "wall_s": wall}
    if trace:
        result["metrics"] = tracer.metrics(wall, 0.0)
    Path(stats).write_text(json.dumps(result), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--catalog")
    p = sub.add_parser("cli")
    p.add_argument("--stats", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.command == "setup":
        setup(args.catalog)
    else:
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        cli(args.stats, args.trace, argv)


if __name__ == "__main__":
    main()
