import itertools
import random

import pytest

from constructions import add_apex, is_isomorphic, relabel
from qec.bits import pair_list
from qec.canon import CanonicalCert, canonical_cert
from qec.classify import enumerate_connected
from qec.errors import OrderTooLargeError
from qec.graphs import (
    build_family,
    complement,
    complete,
    compose,
    cycle,
    from_edges,
    from_mask,
    multipartite,
    path,
)


def brute_force_cert(g):
    """Independent oracle: minimize the packed mask over all permutations."""
    n = g.n
    pairs = pair_list(n)
    best = None
    for perm in itertools.permutations(range(n)):
        mask = 0
        for t, (i, j) in enumerate(pairs):
            if g.adj[perm[i], perm[j]]:
                mask |= 1 << t
        if best is None or mask < best:
            best = mask
    return CanonicalCert(n, best)


def test_cert_equals_brute_force_all_small():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            assert canonical_cert(g) == brute_force_cert(g)


def test_cert_equals_brute_force_sample_order6():
    rng = random.Random(99)
    graphs = enumerate_connected(6)
    for g in rng.sample(graphs, 20):
        assert canonical_cert(g) == brute_force_cert(g)


def test_cert_invariant_under_relabeling():
    rng = random.Random(42)
    targets = [
        build_family(path(6)),
        build_family(cycle(6)),
        build_family(multipartite(3, 3)),
        compose("cartesian", build_family(complete(2)), build_family(path(3))),
        add_apex(build_family(cycle(5)), (0, 2)),
    ]
    for g in targets:
        cert = canonical_cert(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_cert(relabel(g, perm)) == cert


def test_path_relabelings_equal():
    g1 = from_edges(3, [(0, 1), (1, 2)])
    g2 = from_edges(3, [(1, 0), (0, 2)])
    assert canonical_cert(g1) == canonical_cert(g2)
    assert is_isomorphic(g1, g2)


def test_apex_variants_distinct():
    c5 = build_family(cycle(5))
    assert not is_isomorphic(add_apex(c5, (0, 1)), add_apex(c5, (0, 2)))


def test_k4_vs_c4():
    assert not is_isomorphic(build_family(complete(4)), build_family(cycle(4)))


def test_isomorphism_is_equivalence_relation():
    rng = random.Random(5)
    base = enumerate_connected(5)
    graphs = []
    for g in base[:8]:
        graphs.append(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabel(g, perm))
    for a in graphs:
        assert is_isomorphic(a, a)
    for a, b in itertools.combinations(graphs, 2):
        assert is_isomorphic(a, b) == is_isomorphic(b, a)
    for a, b, c in itertools.combinations(graphs, 3):
        if is_isomorphic(a, b) and is_isomorphic(b, c):
            assert is_isomorphic(a, c)


def test_streaming_cert_order9():
    sparse = build_family(cycle(9))
    dense = complement(sparse)  # 27 of 36 pairs
    perm = [4, 7, 0, 2, 8, 1, 5, 3, 6]
    for g in (sparse, dense):
        cert = canonical_cert(g)
        assert canonical_cert(relabel(g, perm)) == cert
        assert cert.n == 9 and bin(cert.bits).count("1") == g.edge_count


def test_cert_str_roundtrippable():
    cert = canonical_cert(build_family(cycle(6)))
    text = str(cert)
    n, bits = text.split(":")
    assert int(n) == 6
    assert int(bits, 16) == cert.bits


def test_order_cap():
    with pytest.raises(OrderTooLargeError):
        from_mask(11, 0)


def test_enumeration_counts_match_known_values():
    # connected graphs up to isomorphism on 1..6 vertices
    assert [len(enumerate_connected(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_enumeration_is_cert_sorted_and_duplicate_free():
    for n in range(1, 8):
        graphs = enumerate_connected(n)
        assert all(g.mask == g._cert.bits for g in graphs)
        certs = [canonical_cert(g) for g in graphs]
        assert certs == sorted(certs)
        assert len(set(certs)) == len(certs)


def _atlas_connected(nx, n):
    return [h for h in nx.graph_atlas_g() if h.number_of_nodes() == n and nx.is_connected(h)]


def _bfs_connected(g):
    reached, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for v in range(g.n):
            if g.adj[u, v] and v not in reached:
                reached.add(v)
                frontier.append(v)
    return len(reached) == g.n


def test_enumeration_equals_atlas_certificates_up_to_order6():
    nx = pytest.importorskip("networkx")
    for n in range(1, 7):
        expected = {brute_force_cert(from_edges(n, h.edges())).bits
                    for h in _atlas_connected(nx, n)}
        assert {g.mask for g in enumerate_connected(n)} == expected


@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_enumeration_order7_against_atlas():
    nx = pytest.importorskip("networkx")
    assert len(_atlas_connected(nx, 7)) == 853
    graphs = enumerate_connected(7)
    assert len(graphs) == 853
    assert all(_bfs_connected(g) for g in graphs)
    buckets = {}
    for g in graphs:
        h = nx.from_numpy_array(g.adj.astype(int))
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            assert not nx.is_isomorphic(a, b)


def test_enumeration_rejects_large_order():
    with pytest.raises(OrderTooLargeError):
        enumerate_connected(8)
