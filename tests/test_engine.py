import math
import random
import sys

import numpy as np
import pytest

from constructions import disjoint_union, is_connected
from isometry import is_isometric_subgraph
from per_graph import adjacency_min_eigenvalue, psd_rank
from qec import kernels
from qec.classify import enumerate_connected
from qec.engine import (
    _hyperplane_basis,
    _psd_zero,
    _psd_zero_stack,
    is_cnd_exact,
    prime_stack,
    qec,
    qec_value,
)
from qec.errors import DisconnectedError, OrderOneError
from qec.graph6 import parse_graph6
from qec.graphs import (
    build_family,
    complete,
    cycle,
    distance_matrix,
    distance_stack,
    from_edges,
    from_mask,
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


def test_qec_value_solves_only_where_qec_is_not_exactly_zero(monkeypatch):
    """`qec_value` reads the exact verdict first: C4 (graph6 Cr), PSD and
    singular, is +0.0 from no eigensolve; K3 (Bw) takes one."""
    solves = []
    monkeypatch.setattr(sys.modules["qec.engine"], "eigvalsh",
                        lambda m: solves.append(m.shape) or kernels.eigvalsh(m))
    assert (qec_value(parse_graph6("Cr")).hex(), solves) == ((0.0).hex(), [])
    value = qec_value(parse_graph6("Bw"))
    assert (abs(value + 1.0) < 1e-12, solves) == (True, [(1, 2, 2)])


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


def test_one_factorization_per_graph(monkeypatch):
    engine = sys.modules["qec.engine"]
    from qec.embedding import embed

    calls = []

    def counted(d):
        calls.append(d.shape[0])
        return _psd_zero(d)

    monkeypatch.setattr(engine, "_psd_zero", counted)
    g = build_family(cycle(6))
    assert is_cnd_exact(g)
    assert qec(g).value == 0.0
    assert embed(g).dim == 3
    assert calls == [6]


def _implied(d: np.ndarray) -> tuple[bool, bool]:
    """(psd, zero) from `psd_rank`'s (psd, rank): zero is PSD and singular."""
    psd, rank = psd_rank(d)
    return psd, psd and rank < len(d) - 1


def test_psd_rank_stack_equals_per_matrix_elimination():
    """One stack per order: every class on 2..7 vertices, and 200 seeded
    random connected graphs on each of 8, 9 and 10 vertices, give the
    (psd, zero) that `psd_rank`'s (psd, rank) implies, as two bool arrays;
    `_psd_zero` gives it for each matrix alone."""
    rng = random.Random(20261018)
    stacks = [[g.adj for g in enumerate_connected(n)] for n in range(2, 8)]
    for n in (8, 9, 10):
        stack = []
        while len(stack) < 200:
            density = rng.uniform(0.15, 0.8)
            g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                               if rng.random() < density])
            if is_connected(g):
                stack.append(g.adj)
        stacks.append(stack)
    ranks = set()
    for stack in stacks:
        dist = distance_stack(np.stack(stack))
        psd, zero = _psd_zero_stack(dist)
        assert psd.dtype == zero.dtype == bool and psd.shape == zero.shape == (len(dist),)
        want = [psd_rank(d) for d in dist]
        implied = [(p, p and r < len(d) - 1) for d, (p, r) in zip(dist, want)]
        assert list(zip(psd.tolist(), zero.tolist())) == implied
        assert [_psd_zero(d) for d in dist] == implied
        ranks |= {(len(dist[0]), p, r) for p, r in want}
    # both verdicts and rank-deficient matrices occur at every order from 6 on
    for n in range(6, 11):
        assert {(n, True, n - 1), (n, False, n - 1), (n, True, n - 2)} <= ranks


def test_psd_rank_stack_guards_int64(monkeypatch):
    """Symmetric integer matrices with entries from 1 to 10^6 overflow int64
    unless routed to `_psd_zero`, and so do 3-vertex ones whose M has one
    diagonal entry near 2^60 and small others (a Hadamard bound taken on
    wrapped squares would pass them).  The stack, and `_psd_zero` alone,
    agree with `psd_rank` on all of them; the stack eliminates the small
    ones itself."""
    engine = sys.modules["qec.engine"]
    rng = np.random.default_rng(7)
    stacks = []
    for n in (3, 5, 8):
        for scale in (1, 3, 10, 100, 10 ** 4, 10 ** 6):
            d = rng.integers(0, scale + 1, size=(40, n, n))
            stacks.append(np.triu(d, 1) + np.triu(d, 1).transpose(0, 2, 1))
    far = rng.integers(1 << 58, 1 << 59, size=40)
    near = rng.integers(1, 4, size=(2, 40))
    d = np.zeros((40, 3, 3), dtype=np.int64)
    d[:, 0, 1], d[:, 0, 2], d[:, 1, 2] = far, far + near[0], near[1]
    stacks.append(d + d.transpose(0, 2, 1))
    alone = []

    def counted(d):
        alone.append(d.shape[0])
        return _psd_zero(d)

    monkeypatch.setattr(engine, "_psd_zero", counted)
    for dist in stacks:
        psd, zero = _psd_zero_stack(dist)
        want = [_implied(d) for d in dist]
        assert list(zip(psd.tolist(), zero.tolist())) == want
        assert [_psd_zero(d) for d in dist] == want
    assert 40 < len(alone) < sum(map(len, stacks)) // 2
    assert alone[-40:] == [3] * 40  # every matrix of the last stack


def test_psd_zero_stack_against_sympy(monkeypatch):
    """(psd, zero) of symmetric integer M against sympy's PSD test and rank,
    which share no code with qec: each M is handed over as D = -S^T M S, S
    the left inverse of the difference basis E (S_il = 1 for l <= i), so
    -E^T D E = M.  One case per branch of the in-order elimination: a zero
    pivot whose row is zero only after a step, a zero pivot with a nonzero
    row (at the start and after a step), a negative pivot (at the start and
    after a step), the all-zero matrix, seeded Gram and indefinite matrices,
    and entries large enough that every matrix of the stack goes to the
    per-matrix fallback.  `_psd_zero` decides each case alone the same way."""
    sp = pytest.importorskip("sympy")
    engine = sys.modules["qec.engine"]
    cases = {
        "zero row after a step": [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        "zero row after two steps": [[2, 1, 1, 0], [1, 2, 1, 0], [1, 1, 2, 0], [0, 0, 0, 3]],
        "zero pivot, nonzero row": [[0, 1, 0], [1, 2, 0], [0, 0, 1]],
        "zero pivot, nonzero row after a step": [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
        "negative pivot": [[-1, 0, 0], [0, 2, 1], [0, 1, 2]],
        "negative pivot after a step": [[1, 2, 0], [2, 1, 0], [0, 0, 1]],
        "all zero": [[0] * 4] * 4,
    }
    rng = np.random.default_rng(11)
    for k in (3, 4, 6):
        for t in range(12):
            a = rng.integers(-3, 4, size=(k, k - t % 3))  # rank k - t % 3 at most
            cases[f"gram {k} {t}"] = (a @ a.T).tolist()
            b = rng.integers(-4, 5, size=(k, k))
            cases[f"indefinite {k} {t}"] = (np.triu(b) + np.triu(b, 1).T).tolist()
    big = [rng.integers(-10 ** 6, 10 ** 6, size=(8, r)) for r in (5, 5, 5, 8, 8, 8)]
    large = [(a @ a.T).tolist() for a in big] + [[[10 ** 9, 1], [1, -1]], [[10 ** 9, 0], [0, 0]]]

    def stack(ms):
        k = len(ms[0])
        s = np.tri(k, k + 1, dtype=np.int64)
        e = np.eye(k + 1, k, dtype=np.int64) - np.eye(k + 1, k, -1, dtype=np.int64)
        d = np.array([-s.T @ np.array(m, dtype=np.int64) @ s for m in ms])
        assert all((-(e.T @ di @ e)).tolist() == m for di, m in zip(d, ms))
        return d

    def oracle(m):
        m = sp.Matrix(m)
        psd = bool(m.is_positive_semidefinite)
        return psd, psd and m.rank() < m.rows

    seen = set()
    for name, m in cases.items():
        psd, zero = _psd_zero_stack(stack([m]))
        assert (bool(psd[0]), bool(zero[0])) == oracle(m), name
        assert _psd_zero(stack([m])[0]) == oracle(m), name
        seen.add(oracle(m))
    assert seen == {(True, True), (True, False), (False, False)}
    alone = []
    monkeypatch.setattr(engine, "_psd_zero", lambda d: alone.append(d) or _psd_zero(d))
    for ms in (large[:6], large[6:7], large[7:]):
        psd, zero = _psd_zero_stack(stack(ms))
        assert list(zip(psd.tolist(), zero.tolist())) == [oracle(m) for m in ms]
    assert len(alone) == len(large)
    assert {oracle(m) for m in large} == {(True, False), (True, True), (False, False)}


def test_sweep_eliminates_its_graphs_as_one_stack(monkeypatch):
    """classify_all(7) decides no matrix alone: prime_stack makes every exact
    test, the distance tables are built by stacked eliminations and the
    pendant remainders of sieve step 5 are table reads.  prime_stack's
    verdicts, and the records' zero values, are those of `psd_rank`, and the
    sweep keeps no distance, factorization or eigenvalue memo on a graph."""
    engine = sys.modules["qec.engine"]
    from qec.classify import classify_all

    calls = []

    def counted(d):
        calls.append(d.shape[0])
        return _psd_zero(d)

    monkeypatch.setattr(engine, "_psd_zero", counted)
    records, summary = classify_all(7, workers=1)
    assert tuple(summary) == (452, 388, 13)
    assert calls == []
    dist = distance_stack(np.array([r.graph.adj for r in records]))
    exact, _ = prime_stack(dist)
    ranks = [psd_rank(d) for d in dist]
    assert exact.tolist() == [psd for psd, _ in ranks]
    assert [r.qec_value == 0 for r in records] == [psd and rank < 6 for psd, rank in ranks]
    assert all((r.graph._dist, r.graph._psd, r.graph._top) == (None, None, None) for r in records)


def test_stacked_values_against_eigvalsh():
    """One stack per order n <= 7: the batched top eigenvalues, and the values
    read from them, against numpy eigvalsh of D (Floyd-Warshall) projected
    on a QR basis of the difference vectors, not the Householder one."""
    from test_graphs import floyd_warshall

    for n in range(2, 8):
        graphs = enumerate_connected(n)
        dist = distance_stack(np.array([g.adj for g in graphs]))
        values = prime_stack(dist)[1]
        diff = np.eye(n)[:, :-1] - np.eye(n)[:, 1:]
        q = np.linalg.qr(diff)[0]
        for g, d, value in zip(graphs, dist, values.tolist()):
            top = np.linalg.eigvalsh(q.T @ floyd_warshall(g) @ q)[-1]
            assert abs(value - top) < 1e-9
            assert abs(qec_value(g) - top) < 1e-9
            assert np.array_equal(d, floyd_warshall(g))
    assert _hyperplane_basis(7) is _hyperplane_basis(7)
    assert not _hyperplane_basis(7).flags.writeable


def test_stacked_values_equal_unbatched_solves_bitwise():
    """Batching changes no bit: each value of a per-order stack is the
    `qec_value` of the same mask built alone, and each nonzero one the top
    eigenvalue that a 2-D matmul and values-only eigvalsh of that graph alone
    give, so sweep records do not depend on how the sweep is stacked."""
    for n in range(2, 8):
        graphs = enumerate_connected(n)
        dist = distance_stack(np.array([g.adj for g in graphs]))
        values = prime_stack(dist)[1]
        q = _hyperplane_basis(n)
        for g, d, value in zip(graphs, dist, values.tolist()):
            assert value.hex() == qec_value(from_mask(n, g.mask)).hex()
            m = q.T @ d.astype(float) @ q
            assert value == 0 or value.hex() == float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1]).hex()


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
        assert psd_rank(distance_matrix(g)) == (top < 1e-9, sp.Matrix(m.tolist()).rank())
        value = qec(g).value
        assert (value == 0.0) == (abs(top) < 1e-9)
        zeros[n][0] += value == 0.0
        zeros[n][1] += abs(top) < 1e-9
        if value == 0.0:
            assert math.copysign(1.0, value) == 1.0
        else:
            assert abs(value - top) < 1e-9
    assert zeros == {2: [0, 0], 3: [0, 0], 4: [1, 1], 5: [3, 3], 6: [25, 25]}


def distance_spectrum(g):
    """Distance-matrix eigenvalues in descending order."""
    return kernels.jacobi_eigh(distance_matrix(g).astype(float))[0]


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
    for n in range(2, 7):
        for g in enumerate_connected(n):
            assert abs(qec(g).value - qec_power_oracle(g)) <= 1e-8


def test_heredity_for_isometric_subgraphs():
    # distance submatrix is principal, so the subgraph value cannot exceed
    for g in enumerate_connected(6):
        full = qec(g).value
        for drop in range(6):
            s = tuple(v for v in range(6) if v != drop)
            h = induced_subgraph(g, s)
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
