import itertools

import numpy as np
import pytest

import per_graph
from constructions import add_apex, is_isomorphic
from qec.classify import enumerate_connected
from qec.embedding import (
    RANK_CUTOFF,
    Embedding,
    _ldl_points,
    embed,
    gram_from_distance,
    pendant_rule,
    verify_embedding,
)
from qec.engine import is_cnd_exact, qec
from qec.errors import DimensionMismatchError, NotQEError
from qec.graphs import (
    build_family,
    complete,
    compose,
    cycle,
    distance_matrix,
    multipartite,
    path,
)


def test_gram_k2():
    d = distance_matrix(build_family(complete(2)))
    assert np.allclose(gram_from_distance(d), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_gram_c4_psd_rank2():
    g = gram_from_distance(distance_matrix(build_family(cycle(4))))
    vals = np.linalg.eigvalsh(g)
    assert vals.min() > -1e-12
    assert np.sum(vals > 1e-10) == 2


def test_gram_k32_indefinite():
    g = gram_from_distance(distance_matrix(build_family(multipartite(3, 2))))
    assert np.linalg.eigvalsh(g).min() < -1e-6


def test_gram_row_sums_vanish():
    for g in enumerate_connected(5):
        gram = gram_from_distance(distance_matrix(g))
        assert np.abs(gram.sum(axis=1)).max() <= 1e-12


def test_ldl_points_match_per_graph_reference():
    """The stacked LDL^T against the Python-float one of tests/per_graph.py,
    points and pivots to the bit: on the distance matrices of every class on
    2..7 vertices (the non-QE ones have negative pivots, which leave zero
    columns), and those scaled by 1e-11 (every pivot below the absolute
    floor, so every point at the origin) and by RANK_CUTOFF (K2's pivot is at
    the floor, and is discarded)."""
    for n in range(2, 8):
        d = np.array([distance_matrix(g) for g in enumerate_connected(n)], dtype=float)
        for scale in (1.0, 1e-11, RANK_CUTOFF):
            points, pivots = _ldl_points(scale * d)
            for got, piv, one in zip(points, pivots, scale * d):
                want, want_piv = per_graph.ldl_points(one)
                assert np.array_equal(got, want) and piv.tolist() == want_piv, (n, scale)
        assert (_ldl_points(d)[1] < 0).any() == (n >= 5)
        assert _ldl_points(d)[0].any() and not _ldl_points(1e-11 * d)[0].any()
    assert not _ldl_points(np.array([[[0.0, RANK_CUTOFF], [RANK_CUTOFF, 0.0]]]))[0].any()


def test_embed_c4_unit_square():
    c4 = build_family(cycle(4))
    e = embed(c4)
    assert e.dim == 2
    d = distance_matrix(c4)
    assert verify_embedding(e, d) <= 1e-10
    sq = {round(float(np.sum((e.coords[i] - e.coords[j]) ** 2)), 6)
          for i, j in itertools.combinations(range(4), 2)}
    assert sq == {1.0, 2.0}


def test_embed_k3_equilateral():
    k3 = build_family(complete(3))
    e = embed(k3)
    assert e.dim == 2
    for i, j in itertools.combinations(range(3), 2):
        assert abs(float(np.sum((e.coords[i] - e.coords[j]) ** 2)) - 1.0) < 1e-12


def test_embed_rejects_non_qe():
    with pytest.raises(NotQEError):
        embed(build_family(multipartite(3, 2)))


def test_verify_detects_corruption():
    k3 = build_family(complete(3))
    e = embed(k3)
    coords = e.coords.copy()
    coords[0, 0] += 0.1
    bad = Embedding(dim=e.dim, coords=coords)
    assert verify_embedding(bad, distance_matrix(k3)) >= 0.01


def test_verify_dimension_mismatch():
    e = embed(build_family(complete(3)))
    with pytest.raises(DimensionMismatchError):
        verify_embedding(e, distance_matrix(build_family(complete(4))))


def test_embedding_dim_bound_and_defects():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            if not is_cnd_exact(g):
                continue
            e = embed(g)
            assert e.dim <= g.n - 1
            assert verify_embedding(e, distance_matrix(g)) <= 1e-8


def test_pendant_rule_c4():
    assert pendant_rule(build_family(cycle(4))) == 0.0


def test_pendant_rule_domino():
    domino = compose("cartesian", build_family(complete(2)), build_family(path(3)))
    assert pendant_rule(domino) == 0.0


def test_pendant_rule_k4_none():
    assert pendant_rule(build_family(complete(4))) is None


def test_pendant_rule_agrees_with_engine():
    for g in enumerate_connected(6):
        if pendant_rule(g) is not None:
            assert abs(qec(g).value) <= 1e-8


def test_six_vertex_pendant_graphs_number_ten():
    # independent reconstruction: attach a square to one edge of each
    # connected four-vertex graph; distinct classes = pendant-edge graphs
    from qec.canon import canonical_cert
    from qec.graphs import find_pendant_edge, from_edges

    built = set()
    for h in enumerate_connected(4):
        for (x, y) in h.edges():
            edges = h.edges() + [(x, 4), (4, 5), (5, y)]
            built.add(canonical_cert(from_edges(6, edges)))
    detected = {canonical_cert(g) for g in enumerate_connected(6)
                if find_pendant_edge(g) is not None}
    assert built == detected
    assert len(detected) == 10


def test_six_vertex_pendant_graphs_number_ten_in_atlas():
    # independent count: the networkx atlas lists each connected six-vertex
    # class once; look for a square a~a'~b'~b~a with deg(a') = deg(b') = 2
    nx = pytest.importorskip("networkx")

    def has_pendant_square(g):
        return any(ap not in (a, b) and bp not in (a, b, ap) and g.has_edge(ap, bp)
                   and g.degree(ap) == 2 and g.degree(bp) == 2
                   for a, b in g.edges() for ap in g[a] for bp in g[b])

    six = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 6 and nx.is_connected(g)]
    pendant = [g for g in six if has_pendant_square(g)]
    assert len(six) == 112
    assert len(pendant) == 10
    assert sorted(g.number_of_edges() for g in pendant) == [6, 6, 6, 7, 7, 7, 7, 8, 8, 9]


def test_worked_example_double_apex():
    # apex a square twice: the pentagon apexed on four of its five vertices
    c4 = build_family(cycle(4))
    g = add_apex(add_apex(c4, (0, 1)), (0, 3, 4))
    ref = add_apex(build_family(cycle(5)), (0, 1, 2, 3))
    assert is_isomorphic(g, ref)
    e = embed(g)
    assert verify_embedding(e, distance_matrix(g)) <= 1e-8
