"""Best-of-k timings of the enumeration pipeline, before and after a change.

    python benchmarks/bench_pipeline.py --parent DIR [--k 10] [--out BENCH_pipeline.json]

DIR is a checkout of the parent commit (a `git clone` checked out there);
the change is the checkout holding this script.  Each round runs one fresh
interpreter per tree, with PYTHONPATH pointing at that tree's `src`, and
alternates which tree goes first; every number is the best over the k
rounds, in wall-clock seconds on this machine.

End to end:
  classify_all_n{5,6,7}   classify_all(n, workers=1), after the layers below
                          (so enumerate_connected(7) has run in the process)
  cli_enumerate_n6        a cold `python -m qec.cli enumerate --n 6` process
  enum7_op_cold           perfbench's enum7 operation, classify_all(7,
                          workers=1) then an in-process `qec enumerate --n 7
                          --out FILE`, run once in a fresh interpreter (after
                          `import qec.cli`, so the lazy tables are built inside)
  enum7_op_warm           the same operation run again in that interpreter
Layers:
  enumerate_connected_n7  enumerate_connected(7) alone (first call in the process)
  graphs_from_masks_n7    enumerate_connected(7) again: the 853 graphs built
                          from the cached class masks
  canonical_cert_n{7,8,9,10}_per_call
                          canon.canonical_cert of a graph built from each of
                          200 seeded random masks (3 at n = 9 and 2 at n = 10,
                          where older trees take seconds a certificate), mean
                          per call, after an untimed call has built the tables
  family_index_n9         classify._family_index(9) uncached, through
                          __wrapped__: the certificates of the 38 closed-form
                          family members on 9 vertices and their values, after
                          the certificate rows
  orbit_min_mark_n{7,8}_per_call
                          the n = 7 and 8 masks of the certificate rows through
                          orbit_min_mark into one pre-faulted bitmap (256 MiB
                          at n = 8), with the float64 power table of every
                          relabeling: canon.perm_powers(7), and at n = 8 one
                          built here, as the library's covers 7! of the 8!
  non_qe_witness_n7       the witness search over the 401 non-QE order-7
                          classes: one classify._witness_stack call where it
                          exists, else non_qe_witness per graph
  non_qe_witness_n8       the same over a seeded stack of 2,000 random
                          connected 8-vertex graphs (G(8, p), p uniform in
                          0.2..0.9), which have blocks of 7 vertices
  blocks_qe_n7            the exact verdicts of the 7,892 isometric blocks that
                          the witness search over the 401 non-QE order-7 classes
                          decides: one classify._blocks_qe call, after an
                          untimed one; absent from trees without it
  star_qe_split_n7        the star split over all 853 order-7 classes: one
                          classify._split_stack call where it exists, else
                          _star_qe_split per graph
  distance_stack_n7       distance matrices of the 853 order-7 classes: one
                          batched BFS where graphs.distance_stack exists,
                          else distance_matrix per graph
  qec_values_n7           QEC values of the 853 order-7 classes, BFS and exact
                          zero test included: engine.prime_stack plus
                          qec_value where they exist, else qec(g).value
  psd_rank_stack_n7       (psd, rank) of the 853 order-7 distance matrices, BFS
                          excluded: one engine._psd_rank_stack call where it
                          exists, else engine._psd_rank per matrix
  find_pendant_edge_n7    the pendant search over the 853 order-7 classes: one
                          graphs.pendant_stack call over their adjacency
                          stack where it exists, else graphs.find_pendant_edge
                          per graph
  step4_n7                sieve step 4 over the 168 order-7 classes that reach
                          it (step 4, 5 or 6 in classify_all(7)): one
                          classify._join_stack call where it exists, else the
                          complement reachability pass over their stack and
                          classify._regular_join_split with
                          formulas.qec_join_regular per graph whose complement
                          is disconnected; after an untimed call
  non_qe_table_k6         the first call of _non_qe_table(6), build included:
                          the exact test of its 112 classes, and in trees
                          without a class-mask cache enumerate_connected(6)
                          (timed uncached, through __wrapped__, since the
                          witness layer has filled the cache); absent from
                          trees without the table
  report_n7               the JSON report of `qec enumerate --n 7` from the
                          records of classify_all(7), written as the tree
                          writes it: qec.cli._cmd_enumerate with its
                          classify_all returning those records, the file
                          written to a temporary directory
  records_n7              classify._records over the 853 order-7 classes, from
                          the stacked inputs and sieve of a sweep (built
                          untimed, as for sieve_n7); after an untimed call
  sieve_step5_n7          sieve step 5 over the 164 order-7 classes that reach
                          it (step 5 or 6 in classify_all(7)): one
                          classify._step5_stack call where it exists, else
                          pendant_rule, then embed and verify_embedding of
                          the exact-QE graphs, per graph; timed after the
                          classify_all rows, on primed fresh graphs, after an
                          untimed call
  sieve_n7                sieve steps 1-6 and the records of the 853 order-7
                          classes, from the stacked inputs of a sweep (graphs,
                          adjacency, distances, exact verdicts, witnesses and
                          star splits, built untimed): one classify._run_sieve
                          and one classify._records call where they take
                          stacks, else classify._sieve_inputs and
                          classify._record per graph; after an untimed call
Single graphs, each the mean over its graphs of the best of 9 calls, every
call on a graph rebuilt from its mask (so it pays its BFS and exact test):
  classify_per_graph      classify over 200 seeded random connected graphs on
                          5 to 7 vertices (G(n, p), p uniform in 0.2..0.9)
  embed_per_graph         embed over 200 seeded random connected QE graphs
                          drawn the same way
One-record reports, each the mean over its 200 payloads of the best of 9 calls:
  dump_json_classify_record, dump_json_compute_record
                          qec.cli._dump_json of the payload that `qec classify
                          --json` and `qec compute --json --exact` write for
                          each classify_per_graph graph (caught from one
                          in-process run of each command)
The witness, split, distance, value, exact, pendant and step-4 layers run on
graphs rebuilt from their masks, so no memo filled while picking them is reused;
the pendant and per-graph step-4 layers get neighbor_masks() filled first, as
the prime_stack of older trees filled it in a sweep.
The witness and split layers prime their graphs with engine.prime_stack, as a
sweep does, and time a second call, on fresh copies, after an untimed first
call has built the verdict tables and subset indexes.  Where the stacked
kernels take adjacency and distance stacks, they get the ones the priming
built, as in a sweep; older trees pass graph lists.
Each row (and the single-graph rows as a group) starts after
`gc.collect(); gc.freeze()`, as perfbench does before timing, so a
collection of what earlier rows left behind lands in no timed row.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import inspect
import io
import itertools
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
MASKS_PER_ORDER = {7: 200, 8: 200, 9: 3, 10: 2}


def _start() -> float:
    """perf_counter after a full collection that freezes every object alive
    (as perfbench does before timing), so no collection of objects that
    earlier rows left behind lands in the row about to be timed."""
    gc.collect()
    gc.freeze()
    return time.perf_counter()


def _prime_stack(engine, graphs):
    """engine.prime_stack over graphs; returns their adjacency and distance
    stacks where it takes the adjacency stack, else (older trees) None."""
    if "adj" not in inspect.signature(engine.prime_stack).parameters:
        engine.prime_stack(graphs)
        return None
    adj = numpy.stack([g.adj for g in graphs])
    primed = engine.prime_stack(graphs, adj)  # the distance stack, first where a tuple
    return adj, primed[0] if isinstance(primed, tuple) else primed


def _run_stacked(kernel, graphs, stacks):
    """A stacked kernel over graphs, given their stacks where it takes them."""
    if stacks is None:
        return kernel(graphs)
    if next(iter(inspect.signature(kernel).parameters)) == "graphs":
        return kernel(graphs, *stacks)
    return kernel(*stacks)


def _sweep_inputs(classify, engine) -> tuple:
    """The stacked inputs of the order-7 sieve: graphs, adjacency, distances,
    what prime_stack returned, exact verdicts, witnesses and star splits."""
    graphs, adj = classify._class_graphs(7)
    primed = engine.prime_stack(graphs, adj)
    dist = primed[0] if isinstance(primed, tuple) else primed
    exact = numpy.array([engine.is_cnd_exact(g) for g in graphs])
    found = iter(classify._witness_stack(adj[~exact], dist[~exact]))
    witnesses = [None if psd else next(found) for psd in exact.tolist()]
    return graphs, adj, dist, primed, exact, witnesses, classify._split_stack(adj, dist)


def _time_sieve(classify, engine) -> float | None:
    """Seconds of sieve steps 1-6 and the records over the order-7 classes,
    from a sweep's stacked inputs built untimed; None in trees whose sweep
    has neither the stacked sieve nor `_sieve_inputs`."""
    if not hasattr(classify, "_records") and not hasattr(classify, "_sieve_inputs"):
        return None
    graphs, adj, dist, primed, exact, witnesses, splits = _sweep_inputs(classify, engine)
    if hasattr(classify, "_records"):
        t0 = _start()
        sieve = classify._run_sieve(graphs, adj, dist, classify._class_masks(7), exact, witnesses, splits)
        classify._records(graphs, [g._cert for g in graphs], exact, witnesses, primed[2], sieve)
        return time.perf_counter() - t0
    t0 = _start()
    sieves = classify._sieve_inputs(graphs, adj, dist, exact.tolist(), witnesses, splits)
    [classify._record(*args) for args in zip(graphs, exact.tolist(), witnesses, sieves)]
    return time.perf_counter() - t0


def _time_records(classify, engine) -> float | None:
    """Seconds of classify._records over the order-7 classes, from a sweep's
    stacked inputs and sieve built untimed, after an untimed call; None in
    trees without the stacked records."""
    if not hasattr(classify, "_records"):
        return None
    graphs, adj, dist, primed, exact, witnesses, splits = _sweep_inputs(classify, engine)
    sieve = classify._run_sieve(graphs, adj, dist, classify._class_masks(7), exact, witnesses, splits)
    args = (graphs, [g._cert for g in graphs], exact, witnesses, primed[2], sieve)
    classify._records(*args)
    t0 = _start()
    classify._records(*args)
    return time.perf_counter() - t0


def _step4(classify, graphs, adj) -> None:
    """Sieve step 4 of graphs of order n with adjacency stack adj: stacked where
    the tree has classify._join_stack; else, as the per-graph sieve step 4 ran,
    the complement's reachability over the stack, then a regular join split
    and its formula per graph whose complement is disconnected."""
    if hasattr(classify, "_join_stack"):
        classify._join_stack(adj)
        return
    from qec.formulas import qec_join_regular

    reach = ~adj
    for _ in range(adj.shape[-1].bit_length()):
        reach = reach @ reach
    for i in numpy.flatnonzero(~reach[:, 0].all(axis=1)).tolist():
        join = classify._regular_join_split(graphs[i])
        if join is not None:
            qec_join_regular(*join)


def _measure() -> dict[str, float]:
    """One round of every in-process timing, in the current interpreter."""
    from qec.bits import n_bits
    from qec.canon import canonical_cert, perm_powers
    from qec.classify import _family_index, classify, classify_all, enumerate_connected
    from qec.embedding import embed, pendant_rule, verify_embedding
    from qec.engine import is_cnd_exact
    from qec.graph6 import to_graph6
    from qec.graphs import from_mask, is_connected
    from qec.kernels import orbit_min_mark

    out: dict[str, float] = {}
    t0 = _start()
    masks = [g.mask for g in enumerate_connected(7)]
    out["enumerate_connected_n7"] = time.perf_counter() - t0
    t0 = _start()
    enumerate_connected(7)
    out["graphs_from_masks_n7"] = time.perf_counter() - t0
    if len(masks) != 853:
        raise SystemExit(f"enumerate_connected(7) gave {len(masks)} classes")
    non_qe = [mask for mask in masks if not is_cnd_exact(from_mask(7, mask))]
    if len(non_qe) != 401:
        raise SystemExit(f"{len(non_qe)} non-QE order-7 classes, expected 401")
    rng = random.Random(8)
    order8 = []
    while len(order8) < 2000:
        p = rng.uniform(0.2, 0.9)
        g = from_mask(8, sum(1 << t for t in range(n_bits(8)) if rng.random() < p))
        if is_connected(g):
            order8.append(g.mask)
    graphs_module = importlib.import_module("qec.graphs")
    engine = importlib.import_module("qec.engine")
    classify_module = importlib.import_module("qec.classify")
    stacked = {"witness": getattr(classify_module, "_witness_stack", None),
               "split": getattr(classify_module, "_split_stack", None)}
    per_graph = {"witness": classify_module.non_qe_witness,
                 "split": getattr(classify_module, "_star_qe_split", None)}
    for name, kind, n, chosen in (("non_qe_witness_n7", "witness", 7, non_qe),
                                  ("non_qe_witness_n8", "witness", 8, order8),
                                  ("star_qe_split_n7", "split", 7, masks)):
        for timed in (False, True):
            graphs = [from_mask(n, mask) for mask in chosen]
            stacks = _prime_stack(engine, graphs)
            t0 = _start()
            if stacked[kind] is not None:
                _run_stacked(stacked[kind], graphs, stacks)
            else:
                for g in graphs:
                    per_graph[kind](g)
            if timed:
                out[name] = time.perf_counter() - t0
    if hasattr(classify_module, "_blocks_qe"):
        adj, dist = _prime_stack(engine, [from_mask(7, mask) for mask in non_qe])
        subsets = classify_module._witness_candidates(7)[0]
        gi, si = numpy.nonzero(classify_module._isometric(adj, dist, subsets, n_bits(6)))
        if len(gi) != 7892:
            raise SystemExit(f"the order-7 witness search decides {len(gi)} blocks, expected 7892")
        for timed in (False, True):
            t0 = _start()
            classify_module._blocks_qe(adj, dist, gi, subsets[si])
            if timed:
                out["blocks_qe_n7"] = time.perf_counter() - t0
    graphs = [from_mask(7, mask) for mask in masks]
    t0 = _start()
    if hasattr(graphs_module, "distance_stack"):
        graphs_module.distance_stack(numpy.stack([g.adj for g in graphs]))
    else:
        for g in graphs:
            graphs_module.distance_matrix(g)
    out["distance_stack_n7"] = time.perf_counter() - t0
    graphs = [from_mask(7, mask) for mask in masks]
    t0 = _start()
    if hasattr(engine, "prime_stack"):
        _prime_stack(engine, graphs)
        values = [engine.qec_value(g) for g in graphs]
    else:
        values = [engine.qec(g).value for g in graphs]
    out["qec_values_n7"] = time.perf_counter() - t0
    if sum(value > 0 for value in values) != 401:
        raise SystemExit("expected 401 positive order-7 QEC values")
    dist = graphs_module.distance_stack(numpy.stack([from_mask(7, mask).adj for mask in masks]))
    t0 = _start()
    if hasattr(engine, "_psd_rank_stack"):
        verdicts = engine._psd_rank_stack(dist)
    else:
        verdicts = [engine._psd_rank(d) for d in dist]
    out["psd_rank_stack_n7"] = time.perf_counter() - t0
    if sum(not psd for psd, _ in verdicts) != 401:
        raise SystemExit("expected 401 non-QE order-7 exact tests")
    graphs = [from_mask(7, mask) for mask in masks]
    for g in graphs:
        g.neighbor_masks()
    adj = numpy.stack([g.adj for g in graphs])
    t0 = _start()
    if hasattr(graphs_module, "pendant_stack"):
        graphs_module.pendant_stack(adj)
    else:
        for g in graphs:
            graphs_module.find_pendant_edge(g)
    out["find_pendant_edge_n7"] = time.perf_counter() - t0
    step4 = [mask for mask in masks if classify_module.classify(from_mask(7, mask)).sieve_step
             in ("step4", "step5", "step6")]
    if len(step4) != 168:
        raise SystemExit(f"{len(step4)} order-7 classes reach sieve step 4, expected 168")
    for timed in (False, True):
        graphs = [from_mask(7, mask) for mask in step4]
        for g in graphs:
            g.neighbor_masks()
        adj = numpy.stack([g.adj for g in graphs])
        t0 = _start()
        _step4(classify_module, graphs, adj)
        if timed:
            out["step4_n7"] = time.perf_counter() - t0
    table = getattr(classify_module, "_non_qe_table", None)
    if table is not None:
        t0 = _start()
        table.__wrapped__(6)
        out["non_qe_table_k6"] = time.perf_counter() - t0
    for n in (5, 6, 7):
        t0 = _start()
        records, summary = classify_all(n, workers=1)
        out[f"classify_all_n{n}"] = time.perf_counter() - t0
    cli = importlib.import_module("qec.cli")
    sweep = cli.classify_all
    cli.classify_all = lambda n, **kwargs: (records, summary)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            args = argparse.Namespace(n=7, format="json", out=str(Path(tmp) / "n7.json"))
            t0 = _start()
            cli._cmd_enumerate(args)
            out["report_n7"] = time.perf_counter() - t0
    finally:
        cli.classify_all = sweep
    step5 = [r.graph.mask for r in records if r.sieve_step in ("step5", "step6")]
    if len(step5) != 164:
        raise SystemExit(f"{len(step5)} order-7 classes reach sieve step 5, expected 164")
    stacked_step5 = getattr(classify_module, "_step5_stack", None)
    for timed in (False, True):
        graphs = [from_mask(7, mask) for mask in step5]
        stacks = _prime_stack(engine, graphs)
        t0 = _start()
        if stacked_step5 is not None:
            _run_stacked(stacked_step5, graphs, stacks)
        else:
            for g in graphs:
                if pendant_rule(g) is None and is_cnd_exact(g):
                    verify_embedding(embed(g), graphs_module.distance_matrix(g))
        if timed:
            out["sieve_step5_n7"] = time.perf_counter() - t0
    for timed in (False, True):
        sieve_s = _time_sieve(classify_module, engine)
        if timed and sieve_s is not None:
            out["sieve_n7"] = sieve_s
    records_s = _time_records(classify_module, engine)
    if records_s is not None:
        out["records_n7"] = records_s
    rng = random.Random(57)
    picks: dict[str, list[tuple[int, int]]] = {"classify": [], "embed": []}
    while len(picks["embed"]) < 200:
        n, p = rng.choice((5, 6, 7)), rng.uniform(0.2, 0.9)
        g = from_mask(n, sum(1 << t for t in range(n_bits(n)) if rng.random() < p))
        if is_connected(g):
            if len(picks["classify"]) < 200:
                picks["classify"].append((n, g.mask))
            if is_cnd_exact(g):
                picks["embed"].append((n, g.mask))
    _start()
    for name, layer in (("classify", classify), ("embed", embed)):
        total = 0.0
        for n, mask in picks[name]:
            best_s = float("inf")
            for _ in range(9):
                t0 = time.perf_counter()
                layer(from_mask(n, mask))
                best_s = min(best_s, time.perf_counter() - t0)
            total += best_s
        out[f"{name}_per_graph"] = total / len(picks[name])
    payloads = {"classify": [], "compute": []}
    write = cli._dump_json
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for name, flags in (("classify", ["--json"]), ("compute", ["--json", "--exact"])):
                cli._dump_json = lambda payload, name=name: payloads[name].append(payload) or write(payload)
                for n, mask in picks["classify"]:
                    cli.main([name, to_graph6(from_mask(n, mask)), *flags])
    finally:
        cli._dump_json = write
    _start()
    for name, chosen in payloads.items():
        total = 0.0
        for payload in chosen:
            best_s = float("inf")
            for _ in range(9):
                t0 = time.perf_counter()
                write(payload)
                best_s = min(best_s, time.perf_counter() - t0)
            total += best_s
        out[f"dump_json_{name}_record"] = total / len(chosen)
    cert_masks = {}
    for n, count in MASKS_PER_ORDER.items():
        rng = random.Random(n)
        cert_masks[n] = [rng.getrandbits(n_bits(n)) for _ in range(count)]
        canonical_cert(from_mask(n, 0))
        t0 = _start()
        for mask in cert_masks[n]:
            canonical_cert(from_mask(n, mask))
        out[f"canonical_cert_n{n}_per_call"] = (time.perf_counter() - t0) / count
    t0 = _start()
    _family_index.__wrapped__(9)
    out["family_index_n9"] = time.perf_counter() - t0
    for n in (7, 8):
        orbit_table = perm_powers(n) if n == 7 else _full_powers(n)
        seen = numpy.ones(1 << n_bits(n), dtype=numpy.uint8)  # every page touched
        seen[:] = 0
        t0 = _start()
        for mask in cert_masks[n]:
            orbit_min_mark(mask, orbit_table, seen)
        out[f"orbit_min_mark_n{n}_per_call"] = (time.perf_counter() - t0) / len(cert_masks[n])
        del seen
    return out


def _full_powers(n: int) -> numpy.ndarray:
    """float64 (n(n-1)/2, n!) table: column p holds 2.0 ** the bit each vertex
    pair moves to under the p-th relabeling of n vertices, pairs in graph6's
    column-major order, so pair (i, j), i < j, is bit j(j-1)/2 + i."""
    perms = numpy.array(list(itertools.permutations(range(n))))
    ii, jj = numpy.array([(i, j) for j in range(n) for i in range(j)]).T
    a, b = perms[:, ii], perms[:, jj]
    lo, hi = numpy.minimum(a, b), numpy.maximum(a, b)
    return numpy.ascontiguousarray(numpy.ldexp(1.0, hi * (hi - 1) // 2 + lo).T)


def _measure_op() -> dict[str, float]:
    """The enum7 operation twice in this (fresh) interpreter: cold, then warm."""
    from qec.classify import classify_all
    from qec.cli import main as cli_main

    out: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["enumerate", "--n", "7", "--out", str(Path(tmp) / "n7.json")]
        for name in ("enum7_op_cold", "enum7_op_warm"):
            t0 = _start()
            classify_all(7, workers=1)
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv) != 0:
                    raise SystemExit("qec enumerate --n 7 failed")
            out[name] = time.perf_counter() - t0
    return out


def _env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QEC_THREADS"}  # read by older trees
    env["PYTHONPATH"] = str(tree / "src")
    return env


def _round(tree: Path) -> dict[str, float]:
    times: dict[str, float] = {}
    for mode in ("--measure", "--measure-op"):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), mode],
                              env=_env(tree), cwd=tree, capture_output=True, text=True,
                              check=True)
        times.update(json.loads(proc.stdout.splitlines()[-1]))
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
    ap.add_argument("--k", type=int, default=10, help="rounds; each number is the best of k")
    ap.add_argument("--out", type=Path, default=HERE / "BENCH_pipeline.json")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--measure-op", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(_measure()))
        return
    if args.measure_op:
        print(json.dumps(_measure_op()))
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
                               for name in sorted(best["change"]) if name in best["parent"]},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["parent_over_change"], indent=2))


if __name__ == "__main__":
    main()
