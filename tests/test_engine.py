import math

import numpy as np
import pytest

from qec.classify import enumerate_connected, is_isometric_subgraph
from qec.engine import (
    _psd_rank,
    adjacency_min_eigenvalue,
    distance_spectrum,
    is_cnd_exact,
    qec,
)
from qec.errors import DisconnectedError, OrderOneError
from qec.graphs import (
    build_family,
    complete,
    cycle,
    disjoint_union,
    distance_matrix,
    from_edges,
    induced_subgraph,
    multipartite,
    path,
)


def qec_power_oracle(g, restarts=100, iters=1500, seed=0):
    """Independent maximization oracle: projected power iteration, block of
    random restarts, best Rayleigh quotient wins."""
    d = distance_matrix(g).astype(float)
    n = g.n
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    shift = float(np.abs(d).sum(axis=1).max()) + 1.0
    op = proj @ (d + shift * np.eye(n)) @ proj
    rng = np.random.default_rng(seed)
    block = proj @ rng.standard_normal((n, restarts))
    block /= np.linalg.norm(block, axis=0)
    for _ in range(iters):
        block = op @ block
        block /= np.linalg.norm(block, axis=0)
    rayleigh = np.einsum("ij,ij->j", block, d @ block)
    return float(rayleigh.max())


def test_qec_k2():
    rep = qec(build_family(complete(2)))
    assert abs(rep.value + 1.0) < 1e-12
    assert np.allclose(rep.f, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-12)


def test_qec_k32():
    assert abs(qec(build_family(multipartite(3, 2))).value - 0.4) < 1e-10


def test_qec_c4_boundary():
    assert abs(qec(build_family(cycle(4))).value) < 1e-10


def test_qec_p3():
    assert abs(qec(build_family(path(3))).value + 2.0 / 3.0) < 1e-10


def test_qec_errors():
    with pytest.raises(OrderOneError):
        qec(build_family(complete(1)))
    with pytest.raises(DisconnectedError):
        qec(from_edges(2, []))
    with pytest.raises(OrderOneError):
        is_cnd_exact(build_family(complete(1)))


def test_report_invariants_small_orders():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            rep = qec(g)
            assert abs(float(rep.f @ rep.f) - 1.0) <= 1e-9
            assert abs(float(rep.f.sum())) <= 1e-9
            assert rep.residual <= 1e-8
            assert rep.lambda2 - 1e-9 <= rep.value < rep.lambda1
            assert rep.value >= -1.0 - 1e-12


def test_value_minus_one_iff_complete():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            is_complete = g.edge_count == n * (n - 1) // 2
            assert (abs(qec(g).value + 1.0) <= 1e-10) == is_complete


def test_exact_test_examples():
    assert is_cnd_exact(build_family(cycle(4)))
    assert not is_cnd_exact(build_family(multipartite(3, 2)))
    assert is_cnd_exact(build_family(complete(4)))


def test_sign_agreement_exact_vs_numeric():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            assert (qec(g).value <= 1e-9) == is_cnd_exact(g)


def test_exact_layer_against_atlas_oracle():
    # every connected class on 2..6 vertices from the networkx atlas; the
    # oracle side uses Floyd-Warshall distances, an explicit difference
    # basis, sympy ranks and numpy eigenvalues, and no qec code
    nx = pytest.importorskip("networkx")
    sp = pytest.importorskip("sympy")
    zeros = {n: [0, 0] for n in range(2, 7)}
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        if not 2 <= n <= 6 or not nx.is_connected(a):
            continue
        d = nx.floyd_warshall_numpy(a)
        e = np.eye(n)[:, :-1] - np.eye(n)[:, 1:]
        m = np.rint(-(e.T @ d @ e)).astype(int)
        basis = np.linalg.qr(np.eye(n) - 1.0 / n)[0][:, :n - 1]
        top = np.linalg.eigvalsh(basis.T @ d @ basis)[-1]
        g = from_edges(n, list(a.edges()))
        assert _psd_rank(distance_matrix(g)) == (top < 1e-9, sp.Matrix(m.tolist()).rank())
        value = qec(g).value
        assert (value == 0.0) == (abs(top) < 1e-9)
        zeros[n][0] += value == 0.0
        zeros[n][1] += abs(top) < 1e-9
        if value == 0.0:
            assert math.copysign(1.0, value) == 1.0
        else:
            assert abs(value - top) < 1e-9
    assert zeros == {2: [0, 0], 3: [0, 0], 4: [1, 1], 5: [3, 3], 6: [25, 25]}


def test_distance_spectrum_examples():
    assert np.allclose(distance_spectrum(build_family(complete(4))),
                       [3, -1, -1, -1], atol=1e-10)
    assert np.allclose(distance_spectrum(build_family(complete(2))),
                       [1, -1], atol=1e-12)
    # circulant distances (0,1,2,1): eigenvalues by discrete Fourier transform
    assert np.allclose(distance_spectrum(build_family(cycle(4))),
                       [4, 0, -2, -2], atol=1e-10)


def test_adjacency_min_eigenvalue_examples():
    assert adjacency_min_eigenvalue(from_edges(1, [])) == 0.0
    assert abs(adjacency_min_eigenvalue(from_edges(4, []))) < 1e-12
    two_k2 = disjoint_union(build_family(complete(2)), build_family(complete(2)))
    assert abs(adjacency_min_eigenvalue(two_k2) + 1.0) < 1e-10
    assert abs(adjacency_min_eigenvalue(build_family(cycle(5)))
               - 2.0 * math.cos(4.0 * math.pi / 5.0)) < 1e-10


def test_power_iteration_oracle_agreement():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            assert abs(qec(g).value - qec_power_oracle(g)) <= 1e-8


def test_heredity_for_isometric_subgraphs():
    # distance submatrix is principal, so the subgraph value cannot exceed
    for g in enumerate_connected(6):
        full = qec(g).value
        for drop in range(6):
            s = tuple(v for v in range(6) if v != drop)
            h = induced_subgraph(g, s)
            from qec.graphs import is_connected
            if not is_connected(h):
                continue
            if not is_isometric_subgraph(g, s):
                continue
            assert qec(h).value <= full + 1e-9


def test_determinism():
    g = build_family(multipartite(3, 2, 1))
    r1, r2 = qec(g), qec(g)
    assert r1.value == r2.value
    assert np.array_equal(r1.f, r2.f)
    assert r1.mu == r2.mu
