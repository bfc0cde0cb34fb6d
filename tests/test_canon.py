import itertools
import math
import random

import numpy as np
import pytest

from constructions import add_apex, is_isomorphic, relabel
from qec.bits import n_bits, pair_list
from qec import canon
from qec.canon import TABLE_MAX, CanonicalCert, canonical_cert, least_masks, perm_powers
from qec.classify import ENUM_MAX_ORDER, enumerate_connected
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
from relabelings import min_permuted_mask, perm_table


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


def numpy_brute_force_cert(g, chunk=40_320):
    """Independent oracle in numpy: relabel the adjacency by every permutation
    (vertex i of the image is vertex perm[i] of g), pack each image's upper
    triangle in graph6 pair order, and keep the least mask.  Permutations
    stream in chunks, so order 9 needs no 362,880-row array."""
    n = g.n
    ii = np.array([i for j in range(n) for i in range(j)])
    jj = np.array([j for j in range(n) for i in range(j)])
    weights = np.array([1 << t for t in range(len(ii))], dtype=np.int64)
    adj = g.adj.astype(np.int64)
    perms = itertools.permutations(range(n))
    best = None
    while block := list(itertools.islice(perms, chunk)):
        p = np.array(block)
        least = int((adj[p[:, ii], p[:, jj]] @ weights).min())
        best = least if best is None else min(best, least)
    return CanonicalCert(n, best)


def test_cert_equals_reference_on_seeded_masks():
    """The power-table product against the int8 shift-and-add reference over
    all n! relabelings, on random masks and the empty and complete masks."""
    rng = random.Random(2026)
    for n in range(2, 9):
        full = (1 << n_bits(n)) - 1
        masks = [0, full] + [rng.getrandbits(n_bits(n)) for _ in range(25 if n < 8 else 8)]
        for mask in masks:
            assert canonical_cert(from_mask(n, mask)).bits == min_permuted_mask(mask, perm_table(n))


def test_every_class_to_order7_is_its_own_certificate():
    """Each enumerated class mask, on a fresh graph and relabeled once at
    random, has itself as certificate, and it is the least mask of the
    relabeled graph over all n! relabelings (the int8 shift-and-add reference)."""
    rng = random.Random(17)
    for n in range(1, 8):
        for g in enumerate_connected(n):
            perm = list(range(n))
            rng.shuffle(perm)
            moved = relabel(g, perm)
            for h in (from_mask(n, g.mask), moved):
                assert canonical_cert(h).bits == g.mask
            assert min_permuted_mask(moved.mask, perm_table(n)) == g.mask


@pytest.mark.parametrize("n, count", [(8, 4), (9, 2)])
def test_cert_equals_numpy_brute_force(n, count):
    rng = random.Random(80 + n)
    for _ in range(count):
        g = from_mask(n, rng.getrandbits(n_bits(n)))
        assert canonical_cert(g) == numpy_brute_force_cert(g)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + inner + [(i, 5 + i) for i in range(5)])


def _orders_9_and_10():
    c9 = build_family(cycle(9))
    return [c9, complement(c9), build_family(cycle(10)), _petersen(),
            from_mask(10, random.Random(10).getrandbits(n_bits(10)))]


def test_cert_invariant_under_relabeling_orders_9_and_10():
    rng = random.Random(910)
    for g in _orders_9_and_10():
        cert = canonical_cert(g)
        assert cert.n == g.n and bin(cert.bits).count("1") == g.edge_count
        perms = [[4, 7, 0, 2, 8, 1, 5, 3, 6] + list(range(9, g.n))]
        for _ in range(3):
            perms.append(rng.sample(range(g.n), g.n))
        for perm in perms:
            assert canonical_cert(relabel(g, perm)) == cert


def test_cert_names_an_isomorphic_graph_orders_9_and_10():
    nx = pytest.importorskip("networkx")
    for g in _orders_9_and_10():
        cert = canonical_cert(g)
        rebuilt = from_mask(g.n, cert.bits)
        assert nx.is_isomorphic(nx.from_numpy_array(rebuilt.adj.astype(int)),
                                nx.from_numpy_array(g.adj.astype(int)))


def test_petersen_and_pentagonal_prism_differ():
    prism = compose("cartesian", build_family(cycle(5)), build_family(complete(2)))
    petersen = _petersen()
    assert prism.n == petersen.n == 10 and prism.edge_count == petersen.edge_count == 15
    assert sorted(prism.degrees()) == sorted(petersen.degrees())
    assert canonical_cert(prism) != canonical_cert(petersen)


def test_one_cell_power_table_covers_every_subgraph_order():
    """Orbit marking in the subgraph tables reads perm_powers((k,)) as every
    relabeling of k < ENUM_MAX_ORDER vertices, within the 720-column bound."""
    for k in range(1, ENUM_MAX_ORDER):
        assert perm_powers((k,)).shape == (n_bits(k), math.factorial(k))
        assert math.factorial(k) <= TABLE_MAX


def _circulant(n, steps):
    return from_edges(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def _symmetric_graphs():
    """Graphs whose many ties and twins make the cut branch most: the cube,
    K_{4,4}, C8, K_{3,3,3}, the 3 x 3 rook's graph, a circulant and the
    Petersen graph; the 10-vertex cases of the table bound below add K10, its
    complement, the star, K_{5,5}, K_{2,2,2,2,2} and C10."""
    cube = from_edges(8, [(a, b) for a in range(8) for b in range(a + 1, 8) if (a ^ b).bit_count() == 1])
    rook = from_edges(9, [(a, b) for a in range(9) for b in range(a + 1, 9) if a // 3 == b // 3 or a % 3 == b % 3])
    return [cube, build_family(multipartite(4, 4)), build_family(cycle(8)), build_family(multipartite(3, 3, 3)),
            rook, _circulant(9, (1, 3)), _petersen()]


@pytest.mark.parametrize("index", range(7))
def test_cert_equals_numpy_brute_force_on_symmetric_graphs(index):
    g = _symmetric_graphs()[index]
    h = relabel(g, random.Random(index).sample(range(g.n), g.n))
    assert canonical_cert(h) == numpy_brute_force_cert(h)


def test_power_tables_hold_at_most_720_relabelings(monkeypatch):
    """Every table the kernel reads has at most TABLE_MAX = 720 columns and
    36 rows (207 KB): certifying every class on 2..7 vertices, relabeled, and
    the graphs that branch most on 8..10 vertices, including those whose
    certificate is known: K10 (all 45 bits), its complement (0) and the star
    (vertex 0 joined to the rest)."""
    shapes = []
    monkeypatch.setattr(canon, "perm_powers", lambda sizes: shapes.append(perm_powers(sizes).shape) or perm_powers(sizes))
    rng = random.Random(720)
    for n in range(2, 8):
        masks = [relabel(g, rng.sample(range(n), n)).mask for g in enumerate_connected(n)]
        assert least_masks(np.stack([from_mask(n, m).adj for m in masks])).tolist() == [
            g.mask for g in enumerate_connected(n)]
    known = [(build_family(complete(10)), (1 << 45) - 1), (from_mask(10, 0), 0),
             (from_edges(10, [(0, j) for j in range(1, 10)]), sum(1 << n_bits(j) for j in range(1, 10)))]
    for g, bits in known:
        assert canonical_cert(relabel(g, rng.sample(range(10), 10))).bits == bits
    for g in _symmetric_graphs() + [build_family(multipartite(5, 5)), build_family(multipartite(2, 2, 2, 2, 2)),
                                    build_family(cycle(10)), _circulant(10, (1, 3))]:
        canonical_cert(relabel(g, rng.sample(range(g.n), g.n)))
    assert max(cols for _, cols in shapes) == TABLE_MAX
    assert max(rows for rows, _ in shapes) <= n_bits(9) and max(r * c * 8 for r, c in shapes) <= 207_360


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
