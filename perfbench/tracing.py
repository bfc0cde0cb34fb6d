"""Layer spans recorded from outside the library.

`Tracer.patch()` replaces each qec function listed in BINDINGS by a wrapper
in the module that calls it, so the library itself is unchanged.  Each call
of a wrapper records a span (layer, parent span, start, end); spans are kept
in flat arrays and summarised once the traced work is done.  A layer's self
time is its spans' duration minus the duration of their child spans.

Counters are taken at the same boundaries by small hooks that run outside
the span they belong to.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from oracle import class_key


def _cert_enter(tr, args):
    tr.counts["canon.cert.hits"] += args[0]._cert is not None


def _exact_enter(tr, args):
    tr.exact_inputs.append(args[0].adj)


def _scan_exit(tr, args, result):
    n = args[0]
    tr.counts["kernels.scan.kept"] += len(result)
    tr.counts["kernels.scan.scanned"] += 1 << (n * (n - 1) // 2)


def _sieve_exit(tr, args, result):
    tr.counts[f"classify.sieve.{result[2]}"] += 1


def _report_exit(tr, args, result):
    tr.counts["cli.report.bytes"] += len(result)


# layer -> [(module, attribute, enter hook, exit hook)]: every place a caller
# binds the function, so calls through any of them are seen.
BINDINGS = {
    "kernels.scan": [("qec.kernels", "connected_masks", None, _scan_exit)],
    "kernels.orbit": [("qec.kernels", "orbit_min_mark", None, None)],
    "kernels.jacobi": [("qec.engine", "jacobi_eigh", None, None),
                       ("qec.embedding", "jacobi_eigh", None, None)],
    "engine.qec": [("qec.classify", "qec", None, None),
                   ("qec.cli", "qec", None, None)],
    "engine.exact": [("qec.classify", "is_cnd_exact", _exact_enter, None),
                     ("qec.embedding", "is_cnd_exact", _exact_enter, None),
                     ("qec.cli", "is_cnd_exact", _exact_enter, None)],
    "embedding.embed": [("qec.classify", "embed", None, None),
                        ("qec.embedding", "embed", None, None),
                        ("qec.cli", "embed", None, None)],
    "embedding.pendant": [("qec.classify", "pendant_rule", None, None)],
    "embedding.verify": [("qec.classify", "verify_embedding", None, None),
                         ("qec.embedding", "verify_embedding", None, None),
                         ("qec.cli", "verify_embedding", None, None)],
    "classify.witness": [("qec.classify", "non_qe_witness", None, None)],
    "classify.enumerate": [("qec.classify", "enumerate_connected", None, None)],
    "classify.sieve": [("qec.classify", "_run_sieve", None, _sieve_exit)],
    "classify.classify": [("qec.classify", "classify", None, None),
                          ("qec.cli", "classify", None, None)],
    "canon.cert": [("qec.classify", "canonical_cert", _cert_enter, None),
                   ("qec.graph6", "canonical_cert", _cert_enter, None),
                   ("qec.canon", "canonical_cert", _cert_enter, None)],
    "graphs.distance": [("qec.classify", "distance_matrix", None, None),
                        ("qec.engine", "distance_matrix", None, None),
                        ("qec.embedding", "distance_matrix", None, None),
                        ("qec.cli", "distance_matrix", None, None)],
    "graphs.induced": [("qec.classify", "induced_subgraph", None, None),
                       ("qec.embedding", "induced_subgraph", None, None)],
    "graph6.parse": [("qec.cli", "parse_graph6", None, None),
                     ("qec.graph6", "parse_graph6", None, None)],
    "graph6.emit": [("qec.cli", "to_graph6", None, None)],
    "graph6.identify": [("qec.cli", "identify", None, None),
                        ("qec.graph6", "identify", None, None)],
    "cli.report": [("qec.cli", "_record_dict", None, None),
                   ("qec.cli", "_dump_json", None, _report_exit),
                   ("qec.cli", "_records_csv", None, _report_exit)],
}
LAYERS = tuple(BINDINGS)
SIEVE_STEPS = tuple(f"step{k}" for k in range(1, 7))


class Tracer:
    def __init__(self):
        self._layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.exact_inputs: list[np.ndarray] = []
        self.enabled = False

    def _wrap(self, layer: str, fn, enter, leave):
        layer_id = self._layer_ids[layer]

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(self, args)
            sid = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if leave is not None:
                leave(self, args, result)
            return result

        return traced

    @contextmanager
    def patch(self):
        """Install the wrappers (recording only while `enabled`); undo on exit."""
        saved = []
        try:
            for layer, sites in BINDINGS.items():
                for module_name, attr, enter, leave in sites:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(layer, fn, enter, leave))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def metrics(self, wall_s: float, overhead_s: float) -> dict[str, float]:
        """Per-layer calls and self time plus counters, for `wall_s` of traced work."""
        layer = np.frombuffer(self.layer, dtype=np.int8).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int_)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_s = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        out: dict[str, float] = {}
        for k, name in enumerate(LAYERS):
            out[f"{name}.calls"] = int(calls[k])
            out[f"{name}.self_s"] = float(self_s[k])

        c = self.counts
        out["kernels.scan.kept_ratio"] = _ratio(c["kernels.scan.kept"], c["kernels.scan.scanned"])
        exact_calls = len(self.exact_inputs)
        distinct = {class_key(adj) for adj in {(a.tobytes(), a.shape): a
                                                for a in self.exact_inputs}.values()}
        out["engine.exact.distinct_ratio"] = _ratio(len(distinct), exact_calls)
        out["canon.cert.hit_ratio"] = _ratio(c["canon.cert.hits"], out["canon.cert.calls"])
        witness = self._layer_ids["classify.witness"]
        induced = layer == self._layer_ids["graphs.induced"]
        under_witness = induced & nested & (layer[np.where(nested, parent, 0)] == witness)
        out["classify.witness.subsets"] = int(under_witness.sum())
        out["cli.report.bytes"] = int(c["cli.report.bytes"])
        for step in SIEVE_STEPS:
            out[f"classify.sieve.{step}"] = int(c[f"classify.sieve.{step}"])
        layers_self = float(self_s.sum())
        out["trace.wall_s"] = wall_s
        out["trace.layers_self_s"] = layers_self
        out["trace.remainder_s"] = wall_s - layers_self
        out["trace.overhead_s"] = overhead_s
        return out


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
