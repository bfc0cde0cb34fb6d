import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from constructions import add_apex, cartesian_product, disjoint_union, is_connected, is_isomorphic, relabel
from qec.canon import canonical_cert
from qec.classify import enumerate_connected
from qec.errors import (
    BadParamsError,
    BadRootError,
    DisconnectedError,
    EmptySetError,
    OrderTooLargeError,
    OutOfRangeError,
    SelfLoopError,
)
from qec.graphs import (
    MAX_ORDER,
    FamilySpec,
    Graph,
    build_family,
    complement,
    complete,
    compose,
    cycle,
    distance_matrix,
    distance_stack,
    find_pendant_edge,
    from_edges,
    from_mask,
    induced_subgraph,
    knp4,
    multipartite,
    path,
    pendant_stack,
    wedge,
)
from qec.bits import n_bits
import per_graph


def floyd_warshall(g):
    """Independent all-pairs shortest-path oracle."""
    n = g.n
    big = 10 ** 6
    d = np.full((n, n), big, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j in g.edges():
        d[i, j] = d[j, i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def random_connected(n, rng):
    while True:
        mask = rng.getrandbits(n_bits(n))
        g = from_mask(n, mask)
        if is_connected(g):
            return g


def test_from_mask_keeps_its_mask(monkeypatch):
    import qec.graphs
    from qec.bits import pack_mask

    rng = random.Random(6)
    cases = [(n, rng.getrandbits(n_bits(n))) for n in range(1, 11) for _ in range(5)]
    graphs = []

    def no_repack(adj):
        raise AssertionError("from_mask re-packed its mask")

    monkeypatch.setattr(qec.graphs, "pack_mask", no_repack)
    for n, mask in cases:
        g = from_mask(n, mask)
        assert g.mask == mask
        graphs.append(g)
    monkeypatch.undo()
    assert [pack_mask(g.adj) for g in graphs] == [mask for _, mask in cases]


def test_from_mask_checks_order_and_mask_and_builds_read_only_graphs():
    for n, mask in ((0, 0), (11, 0), (12, 1)):
        with pytest.raises(OrderTooLargeError):
            from_mask(n, mask)
    for n, mask in ((3, 8), (3, -1), (1, 1)):
        with pytest.raises(BadParamsError):
            from_mask(n, mask)
    rng = random.Random(9)
    for n in range(1, 11):
        g = from_mask(n, rng.getrandbits(n_bits(n)))
        assert not g.adj.flags.writeable and g.adj.shape == (n, n)
        assert g == Graph(g.adj) and g.edge_count == np.count_nonzero(g.adj) // 2


def test_pickle_rebuilds_read_only_without_caches():
    import pickle

    from qec.engine import is_cnd_exact, qec_value

    rng = random.Random(7)
    for n in (5, 7, 8):
        while not is_connected(g := from_mask(n, rng.getrandbits(n_bits(n)))):
            pass
        cert = canonical_cert(g)
        size = len(pickle.dumps(g))
        d = distance_matrix(g)
        is_cnd_exact(g)
        qec_value(g)
        assert len(pickle.dumps(g)) == size
        h = pickle.loads(pickle.dumps(g))
        assert h == g and h._cert == cert
        assert h._dist is None and h._psd is None and h._top is None
        assert not h.adj.flags.writeable
        assert np.array_equal(distance_matrix(h), d)
        assert not distance_matrix(h).flags.writeable


def test_from_edges_complete_triangle():
    g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert g == build_family(complete(3))


def test_from_edges_duplicates_collapse():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_from_edges_edgeless_is_allowed_but_disconnected():
    g = from_edges(2, [])
    assert not is_connected(g)
    with pytest.raises(DisconnectedError):
        distance_matrix(g)


def test_from_edges_errors():
    with pytest.raises(SelfLoopError):
        from_edges(3, [(0, 0)])
    with pytest.raises(OutOfRangeError):
        from_edges(3, [(0, 3)])
    with pytest.raises(OrderTooLargeError):
        from_edges(11, [])


def test_distance_matrix_path3():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert distance_matrix(g).tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_distance_matrix_cycle5():
    d = distance_matrix(build_family(cycle(5)))
    assert d[0, 1] == 1
    assert d[0, 2] == 2


def test_distance_matrix_matches_floyd_warshall_small():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            assert np.array_equal(distance_matrix(g), floyd_warshall(g))


def test_distance_matrix_matches_floyd_warshall_random_order7():
    rng = random.Random(20240811)
    for _ in range(200):
        g = random_connected(7, rng)
        assert np.array_equal(distance_matrix(g), floyd_warshall(g))


def test_distance_stack_against_floyd_warshall():
    """Every class on 1..7 vertices, one stack per order, the seeded 8..10-vertex
    stacks of test_classify.kernel_stacks() and the path on 10 vertices, whose
    diameter 9 is the longest BFS of the order cap."""
    from test_classify import kernel_stacks

    stacks = [enumerate_connected(n) for n in range(1, 8)] + kernel_stacks()[-3:]
    stacks.append([build_family(path(10))])
    for graphs in stacks:
        n = graphs[0].n
        dist = distance_stack(np.stack([g.adj for g in graphs]))
        assert dist.shape == (len(graphs), n, n) and dist.dtype == np.int64 and not dist.flags.writeable
        for g, d in zip(graphs, dist):
            assert np.array_equal(d, floyd_warshall(g))
    assert dist.max() == 9


def test_distance_stack_rejects_disconnected():
    split = from_edges(5, [(0, 1), (2, 3), (3, 4)])
    connected = [g.adj for g in enumerate_connected(5)[:4]]
    with pytest.raises(DisconnectedError):
        distance_stack(np.stack(connected[:2] + [split.adj] + connected[2:]))
    with pytest.raises(DisconnectedError):
        distance_stack(split.adj[None])
    with pytest.raises(DisconnectedError):
        distance_matrix(split)


def diameter(g):
    return int(distance_matrix(g).max())


def test_diameter():
    assert diameter(build_family(complete(4))) == 1
    assert diameter(build_family(cycle(6))) == 3
    assert diameter(build_family(path(6))) == 5


def test_build_multipartite():
    g = build_family(multipartite(3, 2))
    assert g.n == 5
    assert g.edge_count == 6
    # parts {0,1,2} and {3,4} are independent sets
    assert not any(g.adj[i, j] for i in range(3) for j in range(3) if i != j)
    assert not g.adj[3, 4]


def test_wedge_1_is_star_product():
    w = build_family(wedge(5, 1))
    s = compose("star", build_family(complete(5)), build_family(complete(2)), roots=(0, 0))
    assert canonical_cert(w) == canonical_cert(s)


def test_wedge_full_is_complete():
    assert is_isomorphic(build_family(wedge(5, 5)), build_family(complete(6)))


def test_knp4_counts():
    g = build_family(knp4(6))
    assert g.n == 6
    assert g.edge_count == 12
    assert not g.adj[0, 1] and not g.adj[1, 2] and not g.adj[2, 3]


def test_family_bad_params():
    with pytest.raises(BadParamsError):
        FamilySpec("cycle", (2,))
    with pytest.raises(BadParamsError):
        FamilySpec("multipartite", (2, 3))
    with pytest.raises(BadParamsError):
        FamilySpec("wedge", (3, 4))
    with pytest.raises(BadParamsError):
        FamilySpec("knp4", (4,))
    with pytest.raises(BadParamsError):
        FamilySpec("blob", (3,))
    with pytest.raises(OrderTooLargeError):
        build_family(FamilySpec("path", (11,)))


def test_family_parse_roundtrip():
    for text in ("path:6", "multipartite:3,2", "wedge:5,2", "knp4:6"):
        assert str(FamilySpec.parse(text)) == text
    with pytest.raises(BadParamsError):
        FamilySpec.parse("path")
    with pytest.raises(BadParamsError):
        FamilySpec.parse("path:x")


def test_compose_cartesian_ladder():
    g = compose("cartesian", build_family(complete(2)), build_family(path(3)))
    assert g.n == 6
    assert g.edge_count == 7
    expected = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    assert is_isomorphic(g, expected)


def test_compose_cartesian_labels_against_definition():
    """The product keeps the labels (x, y) -> x n2 + y, adjacency entry for
    entry, against the definition's loop (`cartesian_product`) on seeded
    factor pairs of every order pair up to MAX_ORDER vertices in all."""
    rng = random.Random(30)
    pairs = 0
    for n1 in range(1, MAX_ORDER + 1):
        for n2 in range(1, MAX_ORDER // n1 + 1):
            for _ in range(4):
                g1 = from_mask(n1, rng.getrandbits(n_bits(n1)))
                g2 = from_mask(n2, rng.getrandbits(n_bits(n2)))
                assert compose("cartesian", g1, g2) == cartesian_product(g1, g2), (g1.edges(), g2.edges())
                pairs += 1
    assert pairs == 108


def test_compose_join_bipartite():
    g = compose("join", from_edges(3, []), from_edges(3, []))
    assert is_isomorphic(g, build_family(multipartite(3, 3)))


def test_compose_star_counts():
    g = compose("star", build_family(complete(5)), build_family(complete(2)), roots=(0, 0))
    assert g.n == 6
    assert g.edge_count == 11


def test_compose_size_invariants():
    rng = random.Random(7)
    for _ in range(25):
        n1, n2 = rng.randint(2, 3), rng.randint(2, 3)
        g1 = from_mask(n1, rng.getrandbits(n_bits(n1)))
        g2 = from_mask(n2, rng.getrandbits(n_bits(n2)))
        cart = compose("cartesian", g1, g2)
        assert cart.n == n1 * n2
        assert cart.edge_count == n1 * g2.edge_count + n2 * g1.edge_count
        join = compose("join", g1, g2)
        assert join.edge_count == g1.edge_count + g2.edge_count + n1 * n2


def test_compose_errors():
    k2 = build_family(complete(2))
    with pytest.raises(BadRootError):
        compose("star", k2, k2)
    with pytest.raises(BadRootError):
        compose("star", k2, k2, roots=(5, 0))
    with pytest.raises(BadParamsError):
        compose("tensor", k2, k2)


def test_add_apex_variants_not_isomorphic():
    c5 = build_family(cycle(5))
    g1 = add_apex(c5, (0, 1))
    g2 = add_apex(c5, (0, 2))
    assert canonical_cert(g1) != canonical_cert(g2)


def test_add_apex_wedge_and_wheel():
    assert is_isomorphic(add_apex(build_family(complete(5)), (0, 1, 2)),
                         build_family(wedge(5, 3)))
    wheel = add_apex(build_family(cycle(5)), (0, 1, 2, 3, 4))
    join = compose("join", build_family(complete(1)), build_family(cycle(5)))
    assert is_isomorphic(wheel, join)


def test_add_apex_empty():
    with pytest.raises(EmptySetError):
        add_apex(build_family(cycle(5)), ())


def test_induced_subgraph():
    c5 = build_family(cycle(5))
    assert is_isomorphic(induced_subgraph(c5, (0, 1, 2, 3)), build_family(path(4)))
    k6 = build_family(complete(6))
    assert is_isomorphic(induced_subgraph(k6, (1, 2, 4, 5)), build_family(complete(4)))
    k32 = build_family(multipartite(3, 2))
    assert is_isomorphic(induced_subgraph(k32, (0, 1, 3)), build_family(path(3)))
    with pytest.raises(EmptySetError):
        induced_subgraph(c5, ())


def test_induced_subgraph_of_full_set_is_identity():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected(6, rng)
        assert induced_subgraph(g, range(6)) == g


def test_find_pendant_edge_c4_least_witness():
    c4 = build_family(cycle(4))
    assert find_pendant_edge(c4) == (0, 1, 3, 2)


def test_find_pendant_edge_k4_none():
    assert find_pendant_edge(build_family(complete(4))) is None


def test_find_pendant_edge_domino():
    domino = compose("cartesian", build_family(complete(2)), build_family(path(3)))
    witness = find_pendant_edge(domino)
    assert witness is not None
    a, b, ap, bp = witness
    deg = domino.degrees()
    assert deg[ap] == 2 and deg[bp] == 2
    assert domino.adj[a, ap] and domino.adj[ap, bp] and domino.adj[bp, b] and domino.adj[b, a]


def test_pendant_witness_definition_on_enumerated():
    for g in enumerate_connected(6):
        witness = find_pendant_edge(g)
        if witness is None:
            continue
        a, b, ap, bp = witness
        assert len({a, b, ap, bp}) == 4
        deg = g.degrees()
        assert deg[ap] == 2 and deg[bp] == 2
        assert g.adj[a, ap] and g.adj[ap, bp] and g.adj[bp, b] and g.adj[b, a]


def oracle_graphs(nx):
    """networkx graphs: every connected class on 1..7 vertices from the atlas,
    then seeded random connected graphs on each of 8, 9 and 10 vertices:
    200 from sparse to dense, 40 with a planted pendant edge (a 4-cycle
    through two new degree-2 vertices) and 40 joins of two random regular
    graphs, each randomly relabeled."""
    graphs = [h for h in nx.graph_atlas_g()[1:] if nx.is_connected(h)]
    rng = random.Random(20261018)

    def connected_gnp(n, density):
        while True:
            h = nx.gnp_random_graph(n, density, seed=rng.getrandbits(32))
            if nx.is_connected(h):
                return h

    def relabeled(h):
        perm = list(h)
        rng.shuffle(perm)
        return nx.relabel_nodes(h, dict(zip(h, perm)))

    for n in (8, 9, 10):
        graphs += [connected_gnp(n, rng.uniform(0.1, 0.95)) for _ in range(200)]
        for _ in range(40):
            h = connected_gnp(n - 2, rng.uniform(0.2, 0.9))
            a, b = rng.choice(list(h.edges()))
            h.add_edges_from([(a, n - 2), (n - 2, n - 1), (n - 1, b)])
            graphs.append(relabeled(h))
        for _ in range(40):
            k = rng.randint(1, n - 1)
            parts = []
            for size in (k, n - k):
                degree = rng.choice([d for d in range(size) if d * size % 2 == 0])
                parts.append(nx.random_regular_graph(degree, size, seed=rng.getrandbits(32)))
            h = nx.disjoint_union(*parts)
            h.add_edges_from((u, v) for u in range(k) for v in range(k, n))
            graphs.append(relabeled(h))
    return graphs


def test_pendant_stack_matches_per_graph_walk():
    """`pendant_stack` against the bitset walk of tests/per_graph.py on every
    class on 1..7 vertices, one stack per order, and on 500 seeded random
    graphs on each of 4, 5, 8, 9 and 10 vertices (G(n, p), p uniform in
    0.1..0.7, connected or not), as a stack, reversed, and graph by graph
    through `find_pendant_edge`, a stack of one."""
    rng = random.Random(20261019)
    stacks = [enumerate_connected(n) for n in range(1, 8)]
    for n in (4, 5, 8, 9, 10):
        stacks.append([from_mask(n, sum(1 << t for t in range(n_bits(n)) if rng.random() < p))
                       for p in (rng.uniform(0.1, 0.7) for _ in range(500))])
    found = {}
    for graphs in stacks:
        n = graphs[0].n
        want = [per_graph.find_pendant_edge(g) for g in graphs]
        for order in (list(range(len(graphs))), list(range(len(graphs)))[::-1]):
            got = pendant_stack(np.array([graphs[k].adj for k in order]))
            assert got.shape == (len(graphs), 4) and got.dtype == np.int64
            assert [None if row[0] < 0 else tuple(row) for row in got.tolist()] == [want[k] for k in order], n
        assert [find_pendant_edge(g) for g in graphs] == want, n
        found[n] = found.get(n, 0) + sum(w is not None for w in want)
    assert found[7] == 56 and min(found[n] for n in (4, 5, 8, 9, 10)) >= 10, found


def test_find_pendant_edge_against_networkx():
    # the least (a, b, a', b') in lexicographic order over networkx adjacency
    nx = pytest.importorskip("networkx")
    found = 0
    for h in oracle_graphs(nx):
        deg = dict(h.degree())
        witnesses = [(a, b, ap, bp) for a, b in itertools.permutations(h, 2) if h.has_edge(a, b)
                     for ap in h[a] for bp in h[b]
                     if len({a, b, ap, bp}) == 4 and h.has_edge(ap, bp)
                     and deg[ap] == deg[bp] == 2]
        want = min(witnesses, default=None)
        assert find_pendant_edge(from_edges(h.number_of_nodes(), h.edges())) == want
        found += want is not None and h.number_of_nodes() >= 8
    assert found >= 120


def test_complement_and_union():
    k3 = build_family(complete(3))
    assert complement(k3).edge_count == 0
    u = disjoint_union(k3, k3)
    assert u.n == 6 and u.edge_count == 6 and not is_connected(u)


@given(st.integers(2, 7), st.data())
def test_relabel_preserves_adjacency(n, data):
    mask = data.draw(st.integers(0, (1 << n_bits(n)) - 1))
    perm = data.draw(st.permutations(range(n)))
    g = from_mask(n, mask)
    h = relabel(g, perm)
    for i, j in itertools.combinations(range(n), 2):
        assert h.adj[perm[i], perm[j]] == g.adj[i, j]
