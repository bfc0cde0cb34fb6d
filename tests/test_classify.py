import math
import random
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from aliases import known_graphs
from qec.canon import is_isomorphic
from qec.classify import (
    Verdict,
    classify,
    classify_all,
    enumerate_connected,
    is_isometric_subgraph,
    non_qe_witness,
    sieve_trace,
)
from qec.engine import is_cnd_exact, qec
from qec.errors import DisconnectedError, DisconnectedSubgraphError, OrderTooLargeError
from qec.graph6 import parse_graph6
from qec.graphs import (
    add_apex,
    build_family,
    complete,
    compose,
    cycle,
    from_edges,
    induced_subgraph,
    multipartite,
)


def test_isometric_examples():
    c6 = build_family(cycle(6))
    assert is_isometric_subgraph(c6, (0, 1, 2, 3))
    c5 = build_family(cycle(5))
    assert not is_isometric_subgraph(c5, (0, 1, 2, 3))
    k6 = build_family(complete(6))
    assert is_isometric_subgraph(k6, (0, 2, 3, 4, 5))


def test_isometric_disconnected_subset():
    c6 = build_family(cycle(6))
    with pytest.raises(DisconnectedSubgraphError):
        is_isometric_subgraph(c6, (0, 3))


def test_witness_k42():
    g = build_family(multipartite(4, 2))
    witness = non_qe_witness(g)
    assert witness is not None and len(witness) == 5
    assert is_isomorphic(induced_subgraph(g, witness), build_family(multipartite(3, 2)))


def test_witness_primary_none():
    assert non_qe_witness(build_family(multipartite(3, 2))) is None
    assert non_qe_witness(build_family(cycle(6))) is None


def test_classify_examples():
    rec = classify(build_family(multipartite(3, 2)))
    assert rec.verdict is Verdict.NON_QE_PRIMARY
    assert abs(rec.qec_value - 0.4) < 1e-10

    rec = classify(compose("join", from_edges(2, []), from_edges(4, [])))
    assert rec.verdict is Verdict.NON_QE_NON_PRIMARY
    assert rec.witness is not None

    rec = classify(build_family(cycle(6)))
    assert rec.verdict is Verdict.QE


def test_classify_rejects_bad_input():
    with pytest.raises(DisconnectedError):
        classify(from_edges(3, [(0, 1)]))


def test_classify_all_counts():
    _, summary4 = classify_all(4, workers=1)
    assert tuple(summary4) == (6, 0, 0)
    _, summary5 = classify_all(5, workers=1)
    assert tuple(summary5) == (19, 0, 2)


def test_classify_all_order6():
    records, summary = classify_all(6, workers=1)
    assert tuple(summary) == (85, 24, 3)
    assert len(records) == 112
    certs = [r.cert for r in records]
    assert certs == sorted(certs)


def test_classify_all_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(sys.modules["qec.classify"], "POOL_MIN_GRAPHS", 1)
    serial, s1 = classify_all(5, workers=1)
    parallel, s2 = classify_all(5, workers=2)
    assert s1 == s2
    assert [(r.cert, r.verdict, r.sieve_step) for r in serial] == \
           [(r.cert, r.verdict, r.sieve_step) for r in parallel]


def test_classify_all_order_bounds():
    with pytest.raises(OrderTooLargeError):
        classify_all(8)


def test_worker_count_env(monkeypatch):
    from qec.classify import _worker_count
    monkeypatch.setenv("QEC_THREADS", "3")
    assert _worker_count() == 3
    monkeypatch.setenv("QEC_THREADS", "0")
    assert _worker_count() == 1
    monkeypatch.delenv("QEC_THREADS")
    assert _worker_count() >= 1


def test_five_vertex_primary_values():
    records, _ = classify_all(5, workers=1)
    values = sorted(r.qec_value for r in records if r.verdict is Verdict.NON_QE_PRIMARY)
    assert abs(values[0] - 4.0 / (11.0 + math.sqrt(161.0))) < 1e-10
    assert abs(values[1] - 0.4) < 1e-10


# The three six-vertex primary graphs, each with the integer coefficients of
# the irreducible factor whose largest real root is its QEC, and that QEC to
# four digits.  The first is the theta graph with paths of lengths 2, 2 and 3.
SIX_VERTEX_PRIMARIES = [
    ([(1, 2), (0, 3), (2, 3), (0, 4), (1, 4), (0, 5), (1, 5)],
     (3, 8, -1), 0.1196),
    ([(1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (2, 4), (0, 5), (1, 5)],
     (3, 13, 12, -3), 0.2032),
    ([(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (0, 5), (1, 5)],
     (3, 14, 18, 5, -1), 0.1314),
]

# The cubic and four-digit values criterion 3 stated before they were corrected.
STALE_CUBIC = (5, 26, 24, -6)
STALE_APPROX = (0.2034, 0.1313)


def test_six_vertex_primary_minimal_polynomials():
    # exact minimal polynomials of the three primary values: a quadratic, a
    # cubic and a quartic; test_six_vertex_primary_polynomials_exact below
    # derives them symbolically
    records, _ = classify_all(6, workers=1)
    values = sorted(r.qec_value for r in records if r.verdict is Verdict.NON_QE_PRIMARY)
    v1, v2, v3 = values
    assert abs(v1 - (-4.0 + math.sqrt(19.0)) / 3.0) <= 1e-10
    assert abs(3 * v3 ** 3 + 13 * v3 ** 2 + 12 * v3 - 3) <= 1e-9
    assert abs(3 * v2 ** 4 + 14 * v2 ** 3 + 18 * v2 ** 2 + 5 * v2 - 1) <= 1e-9
    assert v1 > 0 and v2 > 0 and v3 > 0


def test_six_vertex_primary_polynomials_exact():
    # With P = I - J/6, P·D·P maps 1 to 0 and acts on 1^⊥ as the compressed
    # distance matrix, so a positive QEC is the largest real root of its
    # characteristic polynomial, factored here exactly over Q.
    sp = pytest.importorskip("sympy")
    from test_graphs import floyd_warshall

    v = sp.Symbol("v")
    p = sp.eye(6) - sp.ones(6, 6) / 6
    stale_cubic = sp.Poly(STALE_CUBIC, v)
    for edges, coeffs, approx in SIX_VERTEX_PRIMARIES:
        d = sp.Matrix(floyd_warshall(from_edges(6, edges)).tolist())
        charpoly = sp.Poly((p * d * p).charpoly(v).as_expr(), v)
        _, factors = sp.factor_list(charpoly)
        tops = {tuple(f.all_coeffs()): max(f.real_roots()) for f, _ in factors}
        assert max(tops, key=tops.get) == coeffs, (edges, tops)
        value = tops[coeffs]
        assert value > 0
        assert round(float(value), 4) == approx
        assert not charpoly.rem(stale_cubic).is_zero
    quadratic_root = max(sp.Poly((3, 8, -1), v).real_roots())
    assert sp.simplify(quadratic_root - (-4 + sp.sqrt(19)) / 3) == 0


def test_stale_criterion_3_constants_match_no_six_vertex_graph():
    # networkx atlas and numpy only: QEC is the top eigenvalue of the
    # distance matrix compressed to 1^⊥
    nx = pytest.importorskip("networkx")
    basis = np.linalg.qr(np.eye(6) - 1.0 / 6)[0][:, :5]
    values = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == 6 and nx.is_connected(g):
            d = nx.floyd_warshall_numpy(g)
            values.append(np.linalg.eigvalsh(basis.T @ d @ basis)[-1])
    values = np.array(values)
    assert len(values) == 112
    stale_root = np.roots(STALE_CUBIC).real.max()
    assert np.abs(values - stale_root).min() > 1e-4
    for target in STALE_APPROX:
        assert np.abs(values - target).min() > 5e-5
    for *_, approx in SIX_VERTEX_PRIMARIES:
        assert np.abs(values - approx).min() <= 5e-5


def test_non_primary_witnesses_are_five_vertex_primaries():
    five_primaries = [r.graph for r in classify_all(5, workers=1)[0]
                      if r.verdict is Verdict.NON_QE_PRIMARY]
    records, _ = classify_all(6, workers=1)
    for rec in records:
        if rec.verdict is not Verdict.NON_QE_NON_PRIMARY:
            continue
        assert rec.witness is not None and len(rec.witness) == 5
        sub = induced_subgraph(rec.graph, rec.witness)
        assert is_isometric_subgraph(rec.graph, rec.witness)
        assert not is_cnd_exact(sub)
        assert any(is_isomorphic(sub, p) for p in five_primaries)


def test_sieve_examples():
    k2k3 = compose("cartesian", build_family(complete(2)), build_family(complete(3)))
    assert sieve_trace(k2k3)[-1][0] == "step1"

    k321 = build_family(multipartite(3, 2, 1))
    assert sieve_trace(k321)[-1][0] == "step2"

    c5 = build_family(cycle(5))
    variants = [add_apex(c5, (0, 1)), add_apex(c5, (0, 2))]
    non_qe = [g for g in variants if not is_cnd_exact(g)]
    assert len(non_qe) == 1
    assert sieve_trace(non_qe[0])[-1][0] == "step6"


def test_sieve_step6_decides_from_the_value(monkeypatch):
    # ELr? is the six-vertex primary with QEC (-4 + sqrt 19)/3; step 6 must
    # follow the number it computes, not the exact verdict
    g = parse_graph6("ELr?")
    assert sieve_trace(g)[-1] == ("step6", "direct computation: QEC = 0.11963298118 -> NonQePrimary")
    monkeypatch.setattr(sys.modules["qec.classify"], "qec", lambda h: SimpleNamespace(value=-0.5))
    assert sieve_trace(g)[-1] == ("step6", "direct computation: QEC = -0.5 -> QE")


def test_sieve_agrees_with_classify_small():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            rec = classify(g)
            assert rec.sieve_step is not None
            trace = sieve_trace(g)
            assert trace[-1][0] == rec.sieve_step


def test_sieve_rejects_bad_input():
    with pytest.raises(DisconnectedError):
        sieve_trace(from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(OrderTooLargeError):
        sieve_trace(build_family(complete(1)))


def test_monotonicity_random_isometric_pairs():
    rng = random.Random(20240810)
    graphs = enumerate_connected(6)
    checked = 0
    while checked < 200:
        g = rng.choice(graphs)
        size = rng.choice((4, 5))
        subset = tuple(sorted(rng.sample(range(6), size)))
        try:
            if not is_isometric_subgraph(g, subset):
                continue
        except DisconnectedSubgraphError:
            continue
        h = induced_subgraph(g, subset)
        assert qec(h).value <= qec(g).value + 1e-9
        checked += 1


def test_alias_fixture_g6_84_is_the_quartic_primary():
    g = known_graphs()["G6-84"]
    rec = classify(g)
    assert rec.verdict is Verdict.NON_QE_PRIMARY
    v = rec.qec_value
    assert abs(3 * v ** 4 + 14 * v ** 3 + 18 * v ** 2 + 5 * v - 1) <= 1e-9


def test_enumerate_connected_order1():
    gs = enumerate_connected(1)
    assert len(gs) == 1 and gs[0].n == 1


def test_enumerate_connected_order7_count():
    assert len(enumerate_connected(7)) == 853
