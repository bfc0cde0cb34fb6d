"""The benchmark's three workloads.

enum7      classify_all(7, workers=1), then `qec enumerate --n 7` in-process
           with the default worker pool.  The paper's headline computation;
           runs every layer.  One operation is the pair.
query-mix  a closed loop with one client over a seeded stream of random
           connected graphs on 5..8 vertices: classify, compute --exact,
           embed --check and identify against a catalog of every class on
           at most 7 vertices.  No enumeration; per-graph paths only.
cli-enum6  cold `python -m qec.cli enumerate --n 6` subprocesses, so import,
           table building and pool start-up are paid on every operation.

Each workload returns (metrics, info, checks).  Timed regions cover only
calls into qec; every output is then checked against `oracle`.  End-to-end
timings are scaled to the reference machine speed (speed.py); the raw
timings go to the facts line.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

import oracle
from env import ROOT, child_env
from speed import Timeline
from tracing import Tracer

CHILD = str(Path(__file__).resolve().parent / "child.py")
SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.5
# Yardstick runs per probe between subprocesses, where one probe scales a whole operation.
EDGE_PROBES = 3
SUBPROCESS_TIMEOUT = 120
MAX_MESSAGES = 5


class Checks:
    """Operations attempted and failed; an operation fails on any failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[:MAX_MESSAGES - len(self.messages)])


def _guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # a crash while checking is a failed check
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


def latency_metrics(samples: list[float]) -> tuple[dict, dict]:
    """Median, tail and throughput of per-operation wall times in seconds.

    The tail is the highest percentile with at least ten samples above it;
    with fewer than eleven samples it is the maximum.
    """
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    metrics = {
        "op_p50_ms": statistics.median(xs) * 1e3,
        "op_tail_ms": xs[k] * 1e3,
        "ops_per_s": len(xs) / sum(xs),
    }
    info = {"samples": len(xs), "tail_percentile": round(100.0 * (k + 1) / len(xs), 2)}
    return metrics, info


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    """CPU time (user + system) of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_measured(cmd: list[str], timeline: Timeline, **kwargs):
    """Run a subprocess, then probe the speed.  Returns the process, its wall
    time, the CPU time of its process tree (pool workers are waited for by
    the process, so they count) and this thread's CPU time when it started,
    which picks the timeline's scale for it.

    A cold process is timed by CPU rather than wall clock: on a shared
    2-vCPU VM the wall time of `qec enumerate --n 6` spread 0.2-0.28 of its
    median over a minute while its CPU time spread 0.06."""
    t0, cpu0, wall0 = thread_time(), children_cpu_s(), perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          timeout=SUBPROCESS_TIMEOUT, **kwargs)
    wall, cpu = perf_counter() - wall0, children_cpu_s() - cpu0
    timeline.probe(EDGE_PROBES)
    return proc, wall, cpu, t0


def setup_seconds(*args: str) -> tuple[float, dict]:
    """Median scaled CPU time of fresh interpreters doing the workload's set-up."""
    timeline = Timeline()
    timeline.probe(EDGE_PROBES)
    runs = [run_measured([sys.executable, CHILD, "setup", *args], timeline, check=True)
            for _ in range(SETUP_REPEATS)]
    scaled = [cpu * timeline.scale_at(t0) for _, _, cpu, t0 in runs]
    return statistics.median(scaled), {"scaled_cpu": scaled, "cpu": [r[2] for r in runs],
                                       "wall": [r[1] for r in runs]}


def noise_counts(records: list[dict]) -> dict[str, int]:
    """Printed QEC values that contradict or blur the exact verdict."""
    return {
        "qec.qe_positive": sum(r["verdict"] == "QE" and r["qec"] > 0 for r in records),
        "qec.noise_values": sum(0 < abs(r["qec"]) < oracle.MARGIN for r in records),
    }


def freeze_heap() -> None:
    """Exempt every object alive now (networkx, the atlas, the oracle's caches)
    from garbage collection, so collection pauses inside timed calls scale
    with the program's heap rather than the checker's."""
    gc.collect()
    gc.freeze()


def _capture(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# enumeration checks


def _check_record(rec: dict, n: int) -> list[str]:
    g6 = rec["graph6"]
    problems = []
    if oracle.g6_encode(oracle.g6_decode(g6)) != g6 or len(oracle.g6_decode(g6)) != n:
        problems.append(f"{g6}: not a canonical graph6 record of order {n}")
    want, value = oracle.verdict(g6)
    if rec["verdict"] != want:
        problems.append(f"{g6}: verdict {rec['verdict']}, reference {want} (QEC {value:.3g})")
    if abs(rec["qec"] - value) > oracle.VALUE_TOL:
        problems.append(f"{g6}: qec {rec['qec']!r}, reference {value!r}")
    if rec["witness"] is not None:
        adj = oracle.g6_decode(g6)
        if not oracle.witness_valid(adj, oracle.distances(adj), rec["witness"]):
            problems.append(f"{g6}: witness {rec['witness']} is not an isometric non-QE subgraph")
    return problems


def check_sweep(qec, n: int, records, summary, rng) -> list[str]:
    """classify_all output: the atlas's classes, the paper's counts, reference verdicts."""
    problems = []
    keys = [_class_key(oracle.g6_encode(r.graph.adj)) for r in records]
    atlas = {k for k in oracle.atlas_classes() if k[0] == n}
    if len(records) != oracle.atlas_count(n) or set(keys) != atlas:
        problems.append(f"n={n}: {len(records)} records, {len(set(keys) & atlas)} of the "
                        f"{oracle.atlas_count(n)} atlas classes")
    counts = dict(zip(("QE", "NonQeNonPrimary", "NonQePrimary"), summary))
    if counts != oracle.PAPER_COUNTS[n]:
        problems.append(f"n={n}: summary {counts}, paper {oracle.PAPER_COUNTS[n]}")
    for r in records:
        rec = {"graph6": oracle.g6_encode(r.graph.adj), "verdict": r.verdict.value,
               "qec": r.qec_value, "witness": r.witness}
        problems += _check_record(rec, n)
    for k in rng.choice(len(records), size=min(10, len(records)), replace=False):
        r = records[int(k)]
        moved = qec.graphs.Graph(oracle.random_relabel(r.graph.adj, rng))
        if qec.canon.canonical_cert(moved) != r.cert:
            problems.append(f"{r.cert}: certificate changes under relabeling")
    return problems


def check_report(qec, n: int, text: str, stdout: str) -> list[str]:
    """`qec enumerate` JSON report and summary line."""
    report = json.loads(text)
    records = report["records"]
    problems = []
    counts = oracle.PAPER_COUNTS[n]
    line = f"qe={counts['QE']} non_primary={counts['NonQeNonPrimary']} primary={counts['NonQePrimary']}"
    if stdout.strip() != line:
        problems.append(f"n={n}: summary line {stdout.strip()!r}, expected {line!r}")
    summary = {"qe": counts["QE"], "non_primary": counts["NonQeNonPrimary"],
               "primary": counts["NonQePrimary"]}
    if report["summary"] != summary:
        problems.append(f"n={n}: report summary {report['summary']}")
    keys = {_class_key(r["graph6"]) for r in records}
    if len(records) != oracle.atlas_count(n) or keys != {k for k in oracle.atlas_classes() if k[0] == n}:
        problems.append(f"n={n}: report does not list the {oracle.atlas_count(n)} atlas classes once each")
    for rec in records:
        problems += _check_record(rec, n)
        g6 = rec["graph6"]
        if qec.graph6.to_graph6(qec.graph6.parse_graph6(g6)) != g6:
            problems.append(f"{g6}: graph6 does not round-trip")
    return problems


@lru_cache(maxsize=None)
def _class_key(g6: str) -> tuple[int, int]:
    return oracle.class_key(oracle.g6_decode(g6))


# ---------------------------------------------------------------------------
# enum7


@contextlib.contextmanager
def _patched(module, attr, value):
    saved = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, saved)


def enum7(qec, tmp: Path, seed: int, seconds: float, trace: bool):
    rng = np.random.default_rng(seed)
    checks = Checks()
    report_path = tmp / "enum7.json"
    argv = ["enumerate", "--n", "7", "--out", str(report_path)]
    oracle.atlas_classes()
    freeze_heap()
    # Both halves run in this thread, timed by its CPU clock, so the speed
    # probes can run inside them and the host's steal stays out.
    clock = thread_time if not trace else perf_counter

    def once():
        t0 = clock()
        records, summary = sys.modules["qec.classify"].classify_all(7, workers=1)
        t1 = clock()
        rc, out = _capture(qec.cli.main, argv)
        t2 = clock()
        data = report_path.read_bytes() if rc == 0 else b""
        return records, summary, rc, out, data, (t0, t1, t2)

    def check(records, summary, rc, out, data):
        problems = _guarded(check_sweep, qec, 7, records, summary, rng)
        if rc != 0:
            return problems + [f"enumerate exit code {rc}"]
        return problems + _guarded(check_report, qec, 7, data.decode("ascii"), out)

    with _patched(qec.cli, "classify_all", partial(qec.cli.classify_all, workers=1)):
        if trace:
            # Traced pass first, so spans include the lazy tables a user run
            # fills; the untraced pass then runs warm and the overhead is
            # slightly high.
            tracer = Tracer()
            with tracer.patch(), tracer.recording():
                *traced, (t0, _, t2) = once()
            *plain, (u0, _, u2) = once()
            problems = check(*traced)
            if traced[4] != plain[4]:
                problems.append("enumerate report bytes differ with tracing on")
            checks.op(problems)
            metrics = tracer.metrics(t2 - t0, (t2 - t0) - (u2 - u0))
            if traced[4]:
                metrics.update(noise_counts(json.loads(traced[4])["records"]))
            return metrics, {"traced_wall_s": t2 - t0, "untraced_wall_s": u2 - u0}, checks

        timeline = Timeline()
        stamps = []
        first_report = None
        start = perf_counter()
        with timeline.sampling(PROBE_INTERVAL_S):
            while True:
                records, summary, rc, out, data, times = once()
                stamps.append(times)
                problems = check(records, summary, rc, out, data)
                if first_report is not None and data != first_report:
                    problems.append("enumerate report bytes differ between runs")
                first_report = first_report or data
                checks.op(problems)
                if perf_counter() - start >= seconds:
                    break
    sweeps = [timeline.scaled(t0, t1) for t0, t1, _ in stamps]
    clis = [timeline.scaled(t1, t2) for _, t1, t2 in stamps]
    metrics, info = latency_metrics([a + b for a, b in zip(sweeps, clis)])
    info["raw"] = latency_metrics([t2 - t0 - timeline.probe_time(t0, t2)
                                   for t0, _, t2 in stamps])[0]
    info.update({"sweep_s": sweeps, "cli_enum7_s": clis, "speed": timeline.summary()})
    metrics["setup_s"], info["setup_samples_s"] = setup_seconds()
    metrics["peak_rss_mb"] = max(peak_rss_mb(resource.RUSAGE_SELF),
                                 peak_rss_mb(resource.RUSAGE_CHILDREN))
    if first_report:
        info.update(noise_counts(json.loads(first_report)["records"]))
    return metrics, info, checks


# ---------------------------------------------------------------------------
# query-mix

ORDERS = (5, 6, 7, 8)
# `qec classify` runs the sieve, which stops at seven vertices; embed needs a QE graph.
KINDS = {n: ("classify", "compute", "embed", "identify") if n <= 7 else ("compute", "embed", "identify")
         for n in ORDERS}


@dataclass
class Query:
    kind: str
    g6: str
    adj: np.ndarray
    dist: np.ndarray
    value: float


def query_stream(seed: int):
    """Random connected graphs on 5..8 vertices, edge density 0.2..0.9, random labels.

    Queries come in shuffled blocks holding each (order, kind) pair once, so
    the mix of orders and kinds does not depend on the seed.
    """
    rng = np.random.default_rng(seed)
    block = [(n, kind) for n in ORDERS for kind in KINDS[n]]
    while True:
        for j in rng.permutation(len(block)):
            n, kind = block[j]
            while True:
                p = rng.uniform(0.2, 0.9)
                upper = np.triu(rng.random((n, n)) < p, 1)
                adj = oracle.random_relabel(upper | upper.T, rng)
                dist = oracle.distances(adj)
                if (dist >= 0).all():
                    value = oracle.qec_value(dist)
                    if kind != "embed" or value < oracle.MARGIN:
                        break
            yield Query(kind, oracle.g6_encode(adj), adj, dist, value)


def run_query(qec, kind: str, g6: str, catalog) -> tuple[int, str]:
    """One query as a user makes it: CLI commands in-process, identify
    through the library against the catalog loaded at set-up."""
    if kind == "identify":
        ident = qec.graph6.identify(qec.graph6.parse_graph6(g6), catalog)
        return 0, ident if ident is not None else "unknown"
    argv = {"classify": ["classify", g6, "--json"],
            "compute": ["compute", g6, "--exact", "--json"],
            "embed": ["embed", g6, "--check"]}[kind]
    return _capture(qec.cli.main, argv)


def warmup_queries() -> list[tuple[str, str]]:
    """Fixed queries that fill the program's lazy tables for every kind and order."""
    out = []
    for n in ORDERS:
        path = np.zeros((n, n), dtype=bool)
        for i in range(n - 1):
            path[i, i + 1] = path[i + 1, i] = True
        k2 = np.zeros((n, n), dtype=bool)  # K_{n-2,2}: non-QE
        k2[:n - 2, n - 2:] = k2[n - 2:, :n - 2] = True
        for adj, qe in ((path, True), (k2, False)):
            out += [(kind, oracle.g6_encode(adj)) for kind in KINDS[n] if qe or kind != "embed"]
    return out


def write_catalog(path: Path) -> None:
    """Every connected class on 1..7 vertices, with atlas ids, as a catalog file."""
    entries = sorted(oracle.atlas_classes().values(), key=lambda e: int(e[0][1:]))
    path.write_text("".join(f"{ident} {g6}\n" for ident, g6 in entries), encoding="ascii")


def check_query(qec, q: Query, rc: int, out: str, catalog, rng) -> list[str]:
    if rc != 0:
        return [f"{q.kind} {q.g6}: exit code {rc}"]
    n = len(q.adj)
    want = "QE" if q.value < oracle.MARGIN else "non-QE"
    problems = []
    if q.kind in ("classify", "compute"):
        rec = json.loads(out)["records"][0]
        if rec["graph6"] != q.g6:
            problems.append(f"{q.g6}: graph6 came back as {rec['graph6']}")
        if q.kind == "classify":
            problems += _check_record(rec, n)
        else:
            lam = np.linalg.eigvalsh(q.dist.astype(float))[::-1]
            if abs(rec["qec"] - q.value) > oracle.VALUE_TOL:
                problems.append(f"{q.g6}: qec {rec['qec']!r}, reference {q.value!r}")
            if rec["verdict"] != want:
                problems.append(f"{q.g6}: verdict {rec['verdict']}, reference {want}")
            if max(abs(rec["lambda1"] - lam[0]), abs(rec["lambda2"] - lam[1])) > oracle.VALUE_TOL:
                problems.append(f"{q.g6}: lambda1/lambda2 disagree with eigvalsh")
    elif q.kind == "embed":
        lines = out.splitlines()
        coords = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:n + 1]])
        if coords.shape[0] != n or not lines[-1].startswith("# defect"):
            problems.append(f"{q.g6}: embed printed {len(lines)} lines")
        else:
            defect = oracle.embedding_defect(coords.reshape(n, -1), q.dist)
            if defect > oracle.DEFECT_TOL:
                problems.append(f"{q.g6}: embedding defect {defect:.3g}")
    else:
        expected = oracle.atlas_classes().get(_class_key(q.g6), ("unknown",))[0]
        if out != expected:
            problems.append(f"{q.g6}: identify gave {out}, atlas class {expected}")
        moved = qec.graph6.parse_graph6(oracle.g6_encode(oracle.random_relabel(q.adj, rng)))
        if qec.canon.canonical_cert(moved) != qec.canon.canonical_cert(qec.graph6.parse_graph6(q.g6)):
            problems.append(f"{q.g6}: certificate changes under relabeling")
        if (qec.graph6.identify(moved, catalog) or "unknown") != out:
            problems.append(f"{q.g6}: identify changes under relabeling")
    return problems


def query_mix(qec, tmp: Path, seed: int, seconds: float, trace: bool):
    rng = np.random.default_rng([seed, 1])
    checks = Checks()
    catalog_path = tmp / "catalog.g6"
    write_catalog(catalog_path)
    catalog = qec.graph6.load_catalog(catalog_path)
    for kind, g6 in warmup_queries():
        run_query(qec, kind, g6, catalog)
    freeze_heap()

    # A query runs on this thread and does no I/O, so the thread's CPU clock
    # gives its latency without the time the host takes the CPU away from
    # the virtual machine (steal), which would otherwise put host stalls into the
    # tail.  Wall-clock figures go to the facts line.  The traced pass runs
    # without speed probes, so its overhead is against probe-free walls.
    stream = query_stream(seed)
    done: list[tuple[Query, str]] = []
    stamps, walls = [], []
    timeline = Timeline()
    start = perf_counter()
    with contextlib.nullcontext() if trace else timeline.sampling(PROBE_INTERVAL_S):
        while perf_counter() - start < seconds:
            q = next(stream)
            t0, c0 = perf_counter(), thread_time()
            rc, out = run_query(qec, q.kind, q.g6, catalog)
            stamps.append((c0, thread_time()))
            walls.append(perf_counter() - t0)
            checks.op(_guarded(check_query, qec, q, rc, out, catalog, rng))
            done.append((q, out))

    keys = [_class_key(q.g6) for q, _ in done]
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    reports = [json.loads(out)["records"][0] for q, out in done if q.kind in ("classify", "compute")]
    info = {
        "seed": seed,
        "orders": dict(sorted(Counter(len(q.adj) for q, _ in done).items())),
        "kinds": dict(sorted(Counter(q.kind for q, _ in done).items())),
        "query.repeat_class_ratio": repeats / len(keys),
        **noise_counts(reports),
    }

    if trace:
        tracer = Tracer()
        traced_s = 0.0
        with tracer.patch():
            for q, out in done:
                with tracer.recording():
                    t0 = perf_counter()
                    _, again = run_query(qec, q.kind, q.g6, catalog)
                    traced_s += perf_counter() - t0
                checks.op([] if again == out else [f"{q.kind} {q.g6}: output differs with tracing on"])
        untraced_s = sum(walls)
        metrics = tracer.metrics(traced_s, traced_s - untraced_s)
        metrics["query.repeat_class_ratio"] = info["query.repeat_class_ratio"]
        metrics["qec.qe_positive"] = info["qec.qe_positive"]
        metrics["qec.noise_values"] = info["qec.noise_values"]
        return metrics, info, checks

    metrics, lat_info = latency_metrics([timeline.scaled(c0, c1) for c0, c1 in stamps])
    info.update(lat_info)
    info["raw"] = latency_metrics([c1 - c0 - timeline.probe_time(c0, c1) for c0, c1 in stamps])[0]
    info["wall"] = latency_metrics(walls)[0]
    info["speed"] = timeline.summary()
    metrics["setup_s"], info["setup_samples_s"] = setup_seconds("--catalog", str(catalog_path))
    metrics["peak_rss_mb"] = max(peak_rss_mb(resource.RUSAGE_SELF),
                                 peak_rss_mb(resource.RUSAGE_CHILDREN))
    return metrics, info, checks


# ---------------------------------------------------------------------------
# cli-enum6


def cli_enum6(qec, tmp: Path, seed: int, seconds: float, trace: bool):
    checks = Checks()
    out_path = tmp / "enum6.json"
    argv = ["enumerate", "--n", "6", "--out", str(out_path)]
    oracle.atlas_classes()

    def check(rc, stdout, first):
        if rc != 0:
            return [f"enumerate --n 6 exit code {rc}"]
        data = out_path.read_bytes()
        if first is None:
            return _guarded(check_report, qec, 6, data.decode("ascii"), stdout)
        return [] if data == first else ["enumerate --n 6 report bytes differ between runs"]

    if trace:
        # alternate traced and untraced one-worker children; all must write the same report
        walls: dict[bool, list[float]] = {True: [], False: []}
        layer_runs = []
        first = None
        stats = tmp / "child.json"
        for traced in (True, False) * 3:
            subprocess.run([sys.executable, CHILD, "cli", "--stats", str(stats),
                            *(["--trace"] if traced else []), "--", *argv],
                           env=child_env(), cwd=ROOT, check=True, capture_output=True,
                           timeout=SUBPROCESS_TIMEOUT)
            result = json.loads(stats.read_text(encoding="utf-8"))
            checks.op(check(result["rc"], result["stdout"], first))
            if first is None and result["rc"] == 0:
                first = out_path.read_bytes()
            walls[traced].append(result["wall_s"])
            if traced:
                layer_runs.append(result["metrics"])
        metrics = sorted(layer_runs, key=lambda m: m["trace.wall_s"])[len(layer_runs) // 2]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
        if first is not None:
            metrics.update(noise_counts(json.loads(first)["records"]))
        return metrics, {"traced_wall_s": walls[True], "untraced_wall_s": walls[False]}, checks

    # The process uses every core, so the speed probes run between processes.
    cmd = [sys.executable, "-m", "qec.cli", *argv]
    timeline = Timeline()
    timeline.probe(EDGE_PROBES)
    runs = []
    first = None
    start = perf_counter()
    while perf_counter() - start < seconds:
        proc, wall, cpu, t0 = run_measured(cmd, timeline, text=True)
        runs.append((wall, cpu, t0))
        checks.op(check(proc.returncode, proc.stdout, first))
        if first is None and proc.returncode == 0:
            first = out_path.read_bytes()
    metrics, info = latency_metrics([cpu * timeline.scale_at(t0) for _, cpu, t0 in runs])
    info["raw"] = latency_metrics([cpu for _, cpu, _ in runs])[0]
    info["wall"] = latency_metrics([wall for wall, _, _ in runs])[0]
    info["speed"] = timeline.summary()
    metrics["setup_s"], info["setup_samples_s"] = setup_seconds()
    metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if first is not None:
        info.update(noise_counts(json.loads(first)["records"]))
    return metrics, info, checks


WORKLOADS = {"enum7": enum7, "query-mix": query_mix, "cli-enum6": cli_enum6}
