"""Best-of-k timings of the enumeration pipeline, before and after a change.

    python benchmarks/bench_pipeline.py --parent DIR [--k 10] [--out BENCH_pipeline.json]

DIR is a checkout of the parent commit (a `git clone` checked out there);
the change is the checkout holding this script.  Each round runs one fresh
interpreter per tree, with PYTHONPATH pointing at that tree's `src`, and
alternates which tree goes first; every number is the best over the k
rounds, reported beside the median and quartiles of the k rounds, in CPU
seconds, as perfbench counts them: rows timed in process by
the timing thread's CPU clock (`time.thread_time`), and the cold CLI rows by
the CPU time of their child processes (`resource.getrusage(RUSAGE_CHILDREN)`),
so other tenants' load on a shared machine stays out of both.

End to end:
  classify_all_n{5,6,7}   classify_all(n, workers=1), after the layers below
                          (so enumerate_connected(7) has run in the process)
  cli_enumerate_n6        a cold `python -m qec.cli enumerate --n 6` process
  cli_classify_json_n10   a cold `python -m qec.cli classify IhCGGC@_G --json`
                          process (the 10-cycle)
  enum7_op_cold           perfbench's enum7 operation, classify_all(7,
                          workers=1) then an in-process `qec enumerate --n 7
                          --out FILE`, run once in a fresh interpreter (after
                          `import qec.cli`, so the lazy tables are built inside)
  enum7_op_warm           the same operation run ENUM7_WARM_OPS = 5 more
                          times in that interpreter, the best of them
  sweep_n7_warm           classify._sweep(7) after classify_all_n7 has swept
                          order 7 once in the process: a second sweep
Layers:
  enumerate_connected_n7  enumerate_connected(7) alone (first call in the process)
  graphs_from_masks_n7    enumerate_connected(7) again: the 853 graphs built
                          from the cached class masks
  canonical_cert_n{5,...,10}_per_call
                          canon.canonical_cert of a graph built (untimed)
                          from each of 200 seeded random masks (20 at n = 9
                          and 10 at n = 10), mean per call, after an untimed
                          call has built the tables
  family_index_n10        classify._family_index(10) uncached, through
                          __wrapped__ of its cache (the parent tree's is not
                          cached): the certificates of the 54 closed-form
                          family members on 10 vertices and their values,
                          after the certificate rows
  class_masks_n7          classify._class_masks(7), the class masks of orders
                          1..7, built once in a fresh interpreter after
                          `import qec.cli`, power tables included
  load_catalog_n7         graph6.load_catalog of the 996 connected graphs on
                          1..7 vertices of the networkx atlas, in atlas
                          labels, in a fresh interpreter after `import qec.cli`,
                          power tables included (as query-mix set-up loads it)
  non_qe_witness_n7       the witness search over the 401 non-QE order-7
                          classes: one classify._witness_stack call
  non_qe_witness_n8       the same over a seeded stack of 2,000 random
                          connected 8-vertex graphs (G(8, p), p uniform in
                          0.2..0.9), which have blocks of 7 vertices
  blocks_qe_n7            the exact verdicts of the 7,892 isometric blocks that
                          the witness search over the 401 non-QE order-7 classes
                          decides: one classify._blocks_qe call, after an
                          untimed one (in a tree that packs a stack's masks
                          once, classify._pack, that pack is timed with it)
  star_qe_split_n7        the star split over all 853 order-7 classes: one
                          classify._split_stack call
  distance_stack_n7       distance matrices of the 853 order-7 classes: one
                          graphs.distance_stack call
  qec_values_n7           QEC values of the 853 order-7 classes, BFS and exact
                          zero test included: one engine.prime_stack call
                          (after one graphs.distance_stack in a tree whose
                          prime_stack takes the distance stack), the
                          adjacency stack built inside the row
  prime_stack_n7          the same BFS and prime_stack call on the adjacency
                          stack built before the row
  exact_stack_n{7,8}      the stacked exact kernel (engine._psd_zero_stack, the
                          parent tree's engine._psd_rank_stack) over the 853
                          order-7 distance matrices and over the 2,000 order-8
                          ones of non_qe_witness_n8, BFS excluded
  exact_stack_one_n7      the same kernel on each order-7 distance matrix as a
                          stack of one, mean per call
  exact_one_n{5..10}      one matrix's exact test (engine._psd_zero, the
                          parent tree's engine._psd_rank) on each distance
                          matrix of 200 seeded random connected graphs on n
                          vertices, mean per call, best of 9 passes
  find_pendant_edge_n7    the pendant search over the 853 order-7 classes: one
                          graphs.pendant_stack call over their adjacency stack
  step4_n7                sieve step 4 over the 168 order-7 classes that reach
                          it (step 4, 5 or 6 in classify_all(7)): one
                          classify._join_stack call, after an untimed one
  non_qe_table_k6         the subgraph verdicts on 6 vertices uncached, through
                          __wrapped__: _distance_table(6), which eliminates
                          its 112 classes, marks the non-QE orbits and packs
                          their distances (a parent tree's _non_qe_table(6)
                          then its _distance_table(6), both uncached)
  subgraph_tables_k6      the component and distance tables on 6 vertices
                          (classify._component_table(6), _distance_table(6),
                          and in a parent tree the _non_qe_table(6) the
                          distance table reads), built once in a fresh
                          interpreter after `import qec.cli` and
                          classify._class_stack(6); a tree without them has
                          no such row
  class_stack_n7          the order-7 class stack built once in a fresh
                          interpreter, after `import qec.cli` and
                          classify._class_masks(7): classify._class_stack(7),
                          and in a tree without it the unpack_stack,
                          classify._pack and graphs.distance_stack calls its
                          sweep runs
  enumerate_report_n7     `qec enumerate --n 7` from sweep to bytes in process:
                          qec.cli._cmd_enumerate, the file written to a
                          temporary directory, after an untimed call
  report_n7               the same with the sweep's output made untimed (the
                          parent tree's classify_all(7) records, this tree's
                          classify._sweep(7) columns) and returned by the name
                          the command sweeps with: its rows and JSON only
  records_n7              classify._records over the 853 order-7 classes, from
                          the stacked inputs and sieve of a sweep (built
                          untimed, as for sieve_n7); after an untimed call.
                          The parent tree's checks the sieve and the signs of
                          QEC there; this tree's takes the checked columns
  sieve_step5_n7          sieve step 5 over the 164 order-7 classes that reach
                          it (step 5 or 6 in classify_all(7)): one
                          classify._step5_stack call, after an untimed one
  sieve_step5_one_n7      classify._step5_stack on each of those 164 graphs as
                          a stack of one, as `classify` runs it, mean per call,
                          after an untimed pass
  sieve_n7                sieve steps 1-6 and the records of the 853 order-7
                          classes, from the stacked inputs of a sweep
                          (adjacency, distances, exact verdicts, values,
                          witnesses and star splits, built untimed): one
                          classify._run_sieve and one classify._records call;
                          after an untimed call
Single graphs, each the mean over its graphs of the best of 9 calls, every
call on a graph rebuilt from its mask (so it pays its BFS and exact test):
  classify_per_graph      classify over 200 seeded random connected graphs on
                          5 to 7 vertices (G(n, p), p uniform in 0.2..0.9)
  embed_per_graph         embed over 200 seeded random connected QE graphs
                          drawn the same way
  star_qe_split_one, non_qe_witness_one
                          classify._split_stack and classify._witness_stack
                          on each classify_per_graph graph as a stack of one
                          (its adjacency and distances, built untimed), as
                          `classify` runs them
One-record reports, each the mean over its 200 payloads of the best of 9 calls:
  record_dict_one         the row of `qec classify --json` and its report text,
                          qec.cli._dump_json(_report(..., [_record_dict(rec)])),
                          for the record of each classify_per_graph graph
  dump_json_classify_record, dump_json_compute_record
                          qec.cli._dump_json of the payload that `qec classify
                          --json` and `qec compute --json --exact` write for
                          each classify_per_graph graph (caught from one
                          in-process run of each command)
The stacked layers run on graphs rebuilt from their masks, so no memo filled
while picking them is reused, and read the adjacency and distance stacks of
`_prime`: one graphs.distance_stack BFS and one engine.prime_stack call over
it, as a sweep does.  An older tree's prime_stack runs the BFS itself from
the adjacency stack, and an older one still and its _run_sieve also take the
graphs (its sieve reads its step-6 values from their memos); `_prime_stack`
and `_sieve` pass each what it takes.
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
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parents[1]
MASKS_PER_ORDER = {5: 200, 6: 200, 7: 200, 8: 200, 9: 20, 10: 10}
ENUM7_WARM_OPS = 5


def _start() -> float:
    """This thread's CPU clock after a full collection that freezes every
    object alive (as perfbench does before timing), so no collection of
    objects that earlier rows left behind lands in the row about to be timed."""
    gc.collect()
    gc.freeze()
    return time.thread_time()


def _takes_graphs(fn) -> bool:
    """Does a stacked kernel take the graphs first (the parent tree's)?"""
    return "graphs" in inspect.signature(fn).parameters


def _prime_stack(engine, graphs, adj) -> tuple:
    """The distance stack, exact verdicts and values of graphs of one order and
    their adjacency stack, from engine.prime_stack: this tree's takes the
    distance stack, whose BFS runs here, and returns the verdicts and values
    (a parent tree's returns the distance stack first); an older tree's takes
    the adjacency stack, and an older one still the graphs too."""
    if _takes_graphs(engine.prime_stack):
        return engine.prime_stack(graphs, adj)
    if "adj" in inspect.signature(engine.prime_stack).parameters:
        return engine.prime_stack(adj)
    dist = importlib.import_module("qec.graphs").distance_stack(adj)
    primed = engine.prime_stack(dist)
    return primed if len(primed) == 3 else (dist, *primed)


def _prime(engine, graphs) -> tuple:
    """`_prime_stack` over graphs of one order: their adjacency stack, then the
    distance stack, exact verdicts and values."""
    adj = numpy.stack([g.adj for g in graphs])
    return (adj, *_prime_stack(engine, graphs, adj))


def _sieve(classify, graphs, adj, dist, exact, values, witnesses, splits):
    """classify._run_sieve over the order-7 classes, keyed by their masks; a
    tree whose sieve reads the stack's packed masks (classify._pack) packs
    them here, inside the row, as a parent tree's sieve does inside it.  This
    tree's sieve takes no exact verdicts and no values: it solves step 6's."""
    certs = classify._class_masks(7)
    if _takes_graphs(classify._run_sieve):
        return classify._run_sieve(graphs, adj, dist, certs, exact, witnesses, splits)
    params = inspect.signature(classify._run_sieve).parameters
    if "exact" not in params:
        return classify._run_sieve(adj, dist, classify._pack(adj), certs, witnesses, splits)
    if "packed" in params:
        return classify._run_sieve(adj, dist, classify._pack(adj), certs, exact, values, witnesses, splits)
    return classify._run_sieve(adj, dist, certs, exact, values, witnesses, splits)


def _connected(g) -> bool:
    """Does the BFS of g reach every vertex?"""
    from qec.errors import DisconnectedError
    from qec.graphs import distance_matrix

    try:
        distance_matrix(g)
    except DisconnectedError:
        return False
    return True


def _sweep_inputs(classify, engine) -> tuple:
    """The stacked inputs of the order-7 sieve: graphs, adjacency, distances,
    exact verdicts, values, witnesses and star splits."""
    graphs = classify.enumerate_connected(7)
    adj, dist, exact, values = _prime(engine, graphs)
    found = iter(classify._witness_stack(adj[~exact], dist[~exact]))
    witnesses = [None if psd else next(found) for psd in exact.tolist()]
    return graphs, adj, dist, exact, values, witnesses, classify._split_stack(adj, dist)


def _record_args(classify, graphs, exact, values, witnesses, sieve) -> tuple:
    """classify._records's arguments for the order-7 classes: the parent
    tree's take the exact verdicts and the sieve, which it checks; this
    tree's the checked columns (the sieve's verdicts, which the sieve test
    of the sweep has compared with the exact ones, and its step names)."""
    certs = [g._cert for g in graphs]
    if "sieve" in inspect.signature(classify._records).parameters:
        return graphs, certs, exact, witnesses, values, sieve
    steps = [f"step{k}" for k in sieve.step.tolist()]
    return graphs, certs, values.tolist(), sieve.verdict.tolist(), witnesses, steps


def _time_sieve(classify, engine) -> float:
    """CPU seconds of sieve steps 1-6 and the records over the order-7
    classes, from a sweep's stacked inputs built untimed."""
    graphs, adj, dist, exact, values, witnesses, splits = _sweep_inputs(classify, engine)
    t0 = _start()
    sieve = _sieve(classify, graphs, adj, dist, exact, values, witnesses, splits)
    classify._records(*_record_args(classify, graphs, exact, values, witnesses, sieve))
    return time.thread_time() - t0


def _time_records(classify, engine) -> float:
    """CPU seconds of classify._records over the order-7 classes, from a
    sweep's stacked inputs and sieve built untimed, after an untimed call."""
    graphs, adj, dist, exact, values, witnesses, splits = _sweep_inputs(classify, engine)
    sieve = _sieve(classify, graphs, adj, dist, exact, values, witnesses, splits)
    args = _record_args(classify, graphs, exact, values, witnesses, sieve)
    classify._records(*args)
    t0 = _start()
    classify._records(*args)
    return time.thread_time() - t0


def _measure() -> dict[str, float]:
    """One round of every in-process timing, in the current interpreter."""
    from qec.bits import n_bits
    from qec.canon import canonical_cert
    from qec.classify import _family_index, classify, classify_all, enumerate_connected
    from qec.embedding import embed
    from qec.engine import is_cnd_exact
    from qec.graph6 import to_graph6
    from qec.graphs import from_mask

    out: dict[str, float] = {}
    t0 = _start()
    masks = [g.mask for g in enumerate_connected(7)]
    out["enumerate_connected_n7"] = time.thread_time() - t0
    t0 = _start()
    enumerate_connected(7)
    out["graphs_from_masks_n7"] = time.thread_time() - t0
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
        if _connected(g):
            order8.append(g.mask)
    graphs_module = importlib.import_module("qec.graphs")
    engine = importlib.import_module("qec.engine")
    classify_module = importlib.import_module("qec.classify")
    for name, kernel, n, chosen in (("non_qe_witness_n7", classify_module._witness_stack, 7, non_qe),
                                    ("non_qe_witness_n8", classify_module._witness_stack, 8, order8),
                                    ("star_qe_split_n7", classify_module._split_stack, 7, masks)):
        for timed in (False, True):
            adj, dist = _prime(engine, [from_mask(n, mask) for mask in chosen])[:2]
            t0 = _start()
            kernel(adj, dist)
            if timed:
                out[name] = time.thread_time() - t0
    adj, dist = _prime(engine, [from_mask(7, mask) for mask in non_qe])[:2]
    subsets = classify_module._witness_candidates(7)[0]
    gi, si = numpy.nonzero(classify_module._isometric(adj, dist, subsets, n_bits(6)))
    if len(gi) != 7892:
        raise SystemExit(f"the order-7 witness search decides {len(gi)} blocks, expected 7892")
    pack = getattr(classify_module, "_pack", lambda adj: adj)  # a parent tree packs in _blocks_qe
    for timed in (False, True):
        t0 = _start()
        classify_module._blocks_qe(pack(adj), dist, gi, subsets[si])
        if timed:
            out["blocks_qe_n7"] = time.thread_time() - t0
    adj = numpy.stack([from_mask(7, mask).adj for mask in masks])
    t0 = _start()
    graphs_module.distance_stack(adj)
    out["distance_stack_n7"] = time.thread_time() - t0
    graphs = [from_mask(7, mask) for mask in masks]
    t0 = _start()
    values = _prime(engine, graphs)[3]
    out["qec_values_n7"] = time.thread_time() - t0
    if (values > 0).sum() != 401:
        raise SystemExit("expected 401 positive order-7 QEC values")
    dist = graphs_module.distance_stack(adj)
    t0 = _start()
    exact_stack = getattr(engine, "_psd_zero_stack", None) or engine._psd_rank_stack
    verdicts = exact_stack(dist)
    out["exact_stack_n7"] = time.thread_time() - t0
    psd = verdicts[0] if isinstance(verdicts, tuple) else [psd for psd, _ in verdicts]
    if sum(not p for p in psd) != 401:
        raise SystemExit("expected 401 non-QE order-7 exact tests")
    t0 = _start()
    for d in dist:
        exact_stack(d[None])
    out["exact_stack_one_n7"] = (time.thread_time() - t0) / len(dist)
    dist8 = graphs_module.distance_stack(numpy.stack([from_mask(8, mask).adj for mask in order8]))
    t0 = _start()
    exact_stack(dist8)
    out["exact_stack_n8"] = time.thread_time() - t0
    exact_one = getattr(engine, "_psd_zero", None) or engine._psd_rank
    for n in range(5, 11):
        rng = random.Random(100 + n)
        chosen = []
        while len(chosen) < 200:
            p = rng.uniform(0.2, 0.9)
            g = from_mask(n, sum(1 << t for t in range(n_bits(n)) if rng.random() < p))
            if _connected(g):
                chosen.append(g.adj)
        matrices, best_s = list(graphs_module.distance_stack(numpy.stack(chosen))), float("inf")
        _start()
        for _ in range(9):
            t0 = time.thread_time()
            for d in matrices:
                exact_one(d)
            best_s = min(best_s, time.thread_time() - t0)
        out[f"exact_one_n{n}"] = best_s / len(matrices)
    adj7 = numpy.stack([g.adj for g in graphs])
    t0 = _start()
    _prime_stack(engine, graphs, adj7)
    out["prime_stack_n7"] = time.thread_time() - t0
    t0 = _start()
    graphs_module.pendant_stack(adj)
    out["find_pendant_edge_n7"] = time.thread_time() - t0
    step4 = [mask for mask in masks if classify_module.classify(from_mask(7, mask)).sieve_step
             in ("step4", "step5", "step6")]
    if len(step4) != 168:
        raise SystemExit(f"{len(step4)} order-7 classes reach sieve step 4, expected 168")
    adj = numpy.stack([from_mask(7, mask).adj for mask in step4])
    for timed in (False, True):
        t0 = _start()
        classify_module._join_stack(adj)
        if timed:
            out["step4_n7"] = time.thread_time() - t0
    t0 = _start()
    if hasattr(classify_module, "_non_qe_table"):  # a parent tree's two tables, both uncached
        classify_module._non_qe_table.__wrapped__(6)
    classify_module._distance_table.__wrapped__(6)
    out["non_qe_table_k6"] = time.thread_time() - t0
    for n in (5, 6, 7):
        t0 = _start()
        records, summary = classify_all(n, workers=1)
        out[f"classify_all_n{n}"] = time.thread_time() - t0
    t0 = _start()
    classify_module._sweep(7)
    out["sweep_n7_warm"] = time.thread_time() - t0
    cli = importlib.import_module("qec.cli")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        args = argparse.Namespace(n=7, format="json", out=str(Path(tmp) / "n7.json"))
        for timed in (False, True):
            t0 = _start()
            cli._cmd_enumerate(args)
            if timed:
                out["enumerate_report_n7"] = time.thread_time() - t0
        name = "_sweep" if hasattr(cli, "_sweep") else "classify_all"  # what the command sweeps with
        sweep = getattr(cli, name)
        swept = sweep(7)
        setattr(cli, name, lambda n, **kwargs: swept)
        try:
            t0 = _start()
            cli._cmd_enumerate(args)
            out["report_n7"] = time.thread_time() - t0
        finally:
            setattr(cli, name, sweep)
    step5 = [r.graph.mask for r in records if r.sieve_step in ("step5", "step6")]
    if len(step5) != 164:
        raise SystemExit(f"{len(step5)} order-7 classes reach sieve step 5, expected 164")
    for timed in (False, True):
        adj, dist = _prime(engine, [from_mask(7, mask) for mask in step5])[:2]
        t0 = _start()
        classify_module._step5_stack(adj, dist)
        if timed:
            out["sieve_step5_n7"] = time.thread_time() - t0
    ones = [(adj[i:i + 1], dist[i:i + 1]) for i in range(len(adj))]
    for timed in (False, True):
        t0 = _start()
        for one in ones:
            classify_module._step5_stack(*one)
        if timed:
            out["sieve_step5_one_n7"] = (time.thread_time() - t0) / len(ones)
    for timed in (False, True):
        sieve_s = _time_sieve(classify_module, engine)
        if timed:
            out["sieve_n7"] = sieve_s
    out["records_n7"] = _time_records(classify_module, engine)
    rng = random.Random(57)
    picks: dict[str, list[tuple[int, int]]] = {"classify": [], "embed": []}
    while len(picks["embed"]) < 200:
        n, p = rng.choice((5, 6, 7)), rng.uniform(0.2, 0.9)
        g = from_mask(n, sum(1 << t for t in range(n_bits(n)) if rng.random() < p))
        if _connected(g):
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
                t0 = time.thread_time()
                layer(from_mask(n, mask))
                best_s = min(best_s, time.thread_time() - t0)
            total += best_s
        out[f"{name}_per_graph"] = total / len(picks[name])
    ones = [_prime(engine, [from_mask(n, mask)])[:2] for n, mask in picks["classify"]]
    _start()
    for name, kernel in (("star_qe_split_one", classify_module._split_stack),
                         ("non_qe_witness_one", classify_module._witness_stack)):
        total = 0.0
        for adj, dist in ones:
            best_s = float("inf")
            for _ in range(9):
                t0 = time.thread_time()
                kernel(adj, dist)
                best_s = min(best_s, time.thread_time() - t0)
            total += best_s
        out[name] = total / len(ones)
    total = 0.0
    for n, mask in picks["classify"]:
        rec = classify(from_mask(n, mask))
        best_s = float("inf")
        for _ in range(9):
            t0 = time.thread_time()
            cli._dump_json(cli._report(f"classify {to_graph6(rec.graph)}", [cli._record_dict(rec)]))
            best_s = min(best_s, time.thread_time() - t0)
        total += best_s
    out["record_dict_one"] = total / len(picks["classify"])
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
                t0 = time.thread_time()
                write(payload)
                best_s = min(best_s, time.thread_time() - t0)
            total += best_s
        out[f"dump_json_{name}_record"] = total / len(chosen)
    for n, count in MASKS_PER_ORDER.items():
        rng = random.Random(n)
        canonical_cert(from_mask(n, 0))
        fresh = [from_mask(n, rng.getrandbits(n_bits(n))) for _ in range(count)]
        t0 = _start()
        for g in fresh:
            canonical_cert(g)
        out[f"canonical_cert_n{n}_per_call"] = (time.thread_time() - t0) / count
    t0 = _start()
    getattr(_family_index, "__wrapped__", _family_index)(10)
    out["family_index_n10"] = time.thread_time() - t0
    return out


def _measure_tables() -> dict[str, float]:
    """The order-7 class masks (orders 1..7) and class stack, then the k = 6
    component and distance tables (and a parent tree's non-QE table, which its
    distance table reads; none in a tree without them) after the order-6 class
    stack, each built once in this (fresh) interpreter after `import qec.cli`."""
    importlib.import_module("qec.cli")
    classify = importlib.import_module("qec.classify")
    graphs = importlib.import_module("qec.graphs")
    t0 = _start()
    masks = classify._class_masks(7)
    out = {"class_masks_n7": time.thread_time() - t0}
    t0 = _start()
    if hasattr(classify, "_class_stack"):
        classify._class_stack(7)
    else:
        adj = importlib.import_module("qec.bits").unpack_stack(7, masks)
        classify._pack(adj)
        graphs.distance_stack(adj)
    out["class_stack_n7"] = time.thread_time() - t0
    if hasattr(classify, "_component_table"):
        classify._class_stack(6)  # every tree with the tables has the class stacks
        t0 = _start()
        if hasattr(classify, "_non_qe_table"):
            classify._non_qe_table(6)
        classify._component_table(6)
        classify._distance_table(6)
        out["subgraph_tables_k6"] = time.thread_time() - t0
    return out


def _measure_catalog() -> dict[str, float]:
    """graph6.load_catalog of every connected atlas graph on 1..7 vertices,
    once in this (fresh) interpreter after `import qec.cli`; the file is
    written from networkx, so no qec table is built before the timed load."""
    import networkx

    importlib.import_module("qec.cli")
    graph6 = importlib.import_module("qec.graph6")
    lines = [networkx.to_graph6_bytes(h, header=False).decode("ascii").strip()
             for h in networkx.graph_atlas_g()[1:] if networkx.is_connected(h)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.g6"
        path.write_text("".join(f"A{k} {g6}\n" for k, g6 in enumerate(lines)), encoding="ascii")
        t0 = _start()
        catalog = graph6.load_catalog(path)
        out = {"load_catalog_n7": time.thread_time() - t0}
    if len(catalog.entries) != 996 or catalog.warnings:
        raise SystemExit(f"catalog of {len(catalog.entries)} entries, {len(catalog.warnings)} warnings")
    return out


def _measure_op() -> dict[str, float]:
    """The enum7 operation in this (fresh) interpreter: once cold, then the
    best of ENUM7_WARM_OPS warm runs."""
    from qec.classify import classify_all
    from qec.cli import main as cli_main

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["enumerate", "--n", "7", "--out", str(Path(tmp) / "n7.json")]
        for _ in range(1 + ENUM7_WARM_OPS):
            t0 = _start()
            classify_all(7, workers=1)
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv) != 0:
                    raise SystemExit("qec enumerate --n 7 failed")
            runs.append(time.thread_time() - t0)
    return {"enum7_op_cold": runs[0], "enum7_op_warm": min(runs[1:])}


def _children_cpu_s() -> float:
    """CPU time (user + system) of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _round(tree: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    times: dict[str, float] = {}
    for mode in ("--measure", "--measure-op", "--measure-tables", "--measure-catalog"):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), mode],
                              env=env, cwd=tree, capture_output=True, text=True, check=True)
        times.update(json.loads(proc.stdout.splitlines()[-1]))
    with tempfile.TemporaryDirectory() as tmp:
        cpu0 = _children_cpu_s()
        subprocess.run([sys.executable, "-m", "qec.cli", "enumerate", "--n", "6",
                        "--out", str(Path(tmp) / "n6.json")],
                       env=env, cwd=tree, check=True, capture_output=True)
        times["cli_enumerate_n6"] = _children_cpu_s() - cpu0
    cpu0 = _children_cpu_s()
    subprocess.run([sys.executable, "-m", "qec.cli", "classify", "IhCGGC@_G", "--json"],
                   env=env, cwd=tree, check=True, capture_output=True)
    times["cli_classify_json_n10"] = _children_cpu_s() - cpu0
    return times


def _quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile of one row's k rounds."""
    if len(values) < 2:
        return values * 3
    return [round(q, 7) for q in statistics.quantiles(values, n=4, method="inclusive")]


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
    ap.add_argument("--measure-tables", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--measure-catalog", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    for flag, measure in ((args.measure, _measure), (args.measure_op, _measure_op),
                          (args.measure_tables, _measure_tables), (args.measure_catalog, _measure_catalog)):
        if flag:
            print(json.dumps(measure()))
            return
    if args.parent is None:
        ap.error("--parent is required")
    trees = {"parent": args.parent.resolve(), "change": HERE}
    rounds: dict[str, dict[str, list[float]]] = {side: {} for side in trees}
    for r in range(args.k):
        order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
        for side in order:
            for name, value in _round(trees[side]).items():
                rounds[side].setdefault(name, []).append(value)
            print(f"round {r + 1}/{args.k} {side} done", file=sys.stderr)
    best = {side: {name: min(values) for name, values in rows.items()} for side, rows in rounds.items()}
    spread = {side: {name: _quartiles(values) for name, values in rows.items()} for side, rows in rounds.items()}
    report = {
        "benchmark": "benchmarks/bench_pipeline.py",
        "unit": "s (CPU: thread time in process, children's CPU time for the cli_ rows; "
                "best of k, and the quartiles of the k rounds: lower, median, upper)",
        "k": args.k,
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
        **{side: {"commit": _describe(trees[side]), "best_s": best[side], "quartiles_s": spread[side]}
           for side in trees},
        "parent_over_change": {name: round(best["parent"][name] / best["change"][name], 2)
                               for name in sorted(best["change"]) if name in best["parent"]},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    width = max(map(len, best["change"]))
    print(f"{'row':<{width}}  side    best      q1        median    q3        (ms)")
    for name in sorted(set(best["parent"]) | set(best["change"])):
        for side in trees:
            if name in best[side]:
                q1, median, q3 = (q * 1e3 for q in spread[side][name])
                print(f"{name:<{width}}  {side:<6}  {best[side][name] * 1e3:<8.3f}  "
                      f"{q1:<8.3f}  {median:<8.3f}  {q3:<8.3f}")
    print(json.dumps(report["parent_over_change"], indent=2))


if __name__ == "__main__":
    main()
