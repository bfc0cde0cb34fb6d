import itertools
import math
import pickle
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import per_graph
from aliases import known_graphs
from constructions import add_apex, is_connected, is_isomorphic, neighbor_masks
from isometry import is_isometric_subgraph
from qec.bits import n_bits, pack_mask
from qec.canon import CanonicalCert, canonical_cert
from qec.classify import (
    BOUNDARY_TOL,
    VERDICTS,
    ClassificationRecord,
    Step5,
    Verdict,
    _block_tables,
    _blocks_qe,
    _class_certs,
    _class_masks,
    _class_stack,
    _component_table,
    _distance_table,
    _family_index,
    _isometric,
    _join_stack,
    _pack,
    _run_sieve,
    _split_stack,
    _step5_stack,
    _sweep,
    _witness_stack,
    classify,
    classify_all,
    enumerate_connected,
    non_qe_witness,
    sieve_trace,
)
from qec.cli import main
from qec.embedding import DEFECT_TOL, RANK_CUTOFF, _ldl_points, _lift_order, embed, pendant_rule
from qec.engine import is_cnd_exact, prime_stack, qec, qec_value
from qec.errors import (
    BadParamsError,
    DisconnectedError,
    DisconnectedSubgraphError,
    NotQEError,
    OrderTooLargeError,
)
from qec.formulas import formula_value
from qec.graph6 import parse_graph6, to_graph6
from qec.graphs import (
    Graph,
    build_family,
    complete,
    compose,
    cycle,
    distance_matrix,
    distance_stack,
    from_edges,
    from_mask,
    induced_subgraph,
    multipartite,
    pendant_stack,
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


def test_isometry_rule_and_distance_cache_against_networkx():
    # networkx only on the oracle side: connectivity of the induced subgraph
    # and Floyd-Warshall of subgraph against graph; each graph's subsets go
    # through the witness kernel's isometry test as one stack of one graph
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)
    cases = []
    for h in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(h):
            continue
        n = h.number_of_nodes()
        if n <= 6:
            subsets = [s for k in range(2, n + 1) for s in itertools.combinations(range(n), k)]
        else:
            subsets = [tuple(sorted(rng.sample(range(n), rng.choice((5, 6))))) for _ in range(3)]
        cases.append((h, subsets))
    seen = {True: 0, False: 0}
    for h, subsets in cases:
        n = h.number_of_nodes()
        g = from_edges(n, h.edges())
        d = distance_matrix(g)
        dh = nx.floyd_warshall_numpy(h, nodelist=range(n))
        assert np.array_equal(d, dh)
        assert distance_matrix(g) is d
        with pytest.raises(ValueError):
            d[0, 0] = 1
        bits = np.array([sum(1 << v for v in s) for s in subsets], dtype=np.int64)
        got = _isometric(g.adj[None], d[None], bits, n_bits(n))[0]
        for s, flag in zip(subsets, got.tolist()):
            sub = h.subgraph(s)
            want = nx.is_connected(sub) and np.array_equal(
                nx.floyd_warshall_numpy(sub, nodelist=s), dh[np.ix_(s, s)])
            assert flag == want, (sorted(h.edges()), s)
            seen[want] += 1
    order7 = [subsets for h, subsets in cases if h.number_of_nodes() == 7]
    assert len(order7) == 853 and sum(map(len, order7)) >= 2000
    assert min(seen.values()) > 1000, seen


def _hyperplane(k):
    """Orthonormal basis of the complement of the all-ones vector (SVD)."""
    u, _, _ = np.linalg.svd(np.ones((k, 1)))
    return u[:, 1:]


def _every_mask_oracle(k):
    """Reach and distances of every labeled mask on k vertices, by numpy
    alone: boolean matrix powers of the adjacency, pairs in graph6 order.
    Returns the pairs, the (2^(k(k-1)/2), k, k) reach after k - 1 steps, and
    the distances (0 where a pair is out of reach)."""
    pairs = [(i, j) for j in range(1, k) for i in range(j)]  # graph6 order
    masks = np.arange(1 << len(pairs))
    adj = np.zeros((masks.size, k, k), dtype=np.int64)
    for t, (i, j) in enumerate(pairs):
        adj[:, i, j] = adj[:, j, i] = masks >> t & 1
    step = adj | np.eye(k, dtype=np.int64)
    reach, dist = step.astype(bool), adj.astype(float)
    for length in range(2, k):
        grown = (reach @ step) > 0
        dist[grown & ~reach] = length
        reach = grown
    return pairs, reach, dist


def _oracle_non_qe(k, reach, dist):
    """Non-QE marks of every labeled mask on k vertices, by numpy alone: a
    connected mask is non-QE when the top eigenvalue of its distance matrix
    projected onto the all-ones complement is positive."""
    non_qe = np.zeros(len(reach), dtype=bool)
    if k >= 2:
        connected = reach.all(axis=(1, 2))
        q = _hyperplane(k)
        top = np.linalg.eigvalsh(q.T @ dist[connected] @ q)[:, -1]
        assert not ((top > 1e-9) & (top < 1e-3)).any()  # the margin separates
        non_qe[connected] = top > 1e-9
    return non_qe


def test_non_qe_table_against_numpy_oracle():
    # numpy only on the oracle side, over every labeled mask at once: the
    # masks the distance table marks (entry >= 0) are the oracle's non-QE ones
    counts = []
    for k in range(2, 7):
        _, reach, dist = _every_mask_oracle(k)
        want = _oracle_non_qe(k, reach, dist)
        marked = _distance_table(k) >= 0
        assert np.array_equal(marked, want), k
        counts.append(int(marked.sum()))
    assert counts == [0, 0, 0, 40, 5860]


def test_subgraph_tables_against_numpy_oracle():
    # numpy only on the oracle side (`_every_mask_oracle`), over every labeled
    # mask on 1..6 vertices: a vertex's component is its row of the reach
    # matrix, and each mask the oracle marks non-QE holds its distances packed
    # 4 bits a pair in graph6 order; every other distance entry is -1
    for k in range(1, 7):
        pairs, reach, dist = _every_mask_oracle(k)
        comps, dists = _component_table(k), _distance_table(k)
        for table in (comps, dists):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.reshape(-1)[0] = 1
        assert comps.dtype == np.uint8 and comps.shape == (reach.shape[0], k)
        assert np.array_equal(comps, reach @ (1 << np.arange(k))), k
        packed = sum(dist[:, i, j].astype(np.int64) << 4 * t for t, (i, j) in enumerate(pairs))
        want = np.where(_oracle_non_qe(k, reach, dist), packed, -1)
        assert dists.dtype == np.int64 and np.array_equal(dists, want), k
    assert (_distance_table(6) >= 0).sum() == 5860 and int(dist.max()) == 5


def test_subgraph_tables_build_lean():
    """Each k = 6 table builds from uint8 row bitsets of the masks, with no
    (2^15, 6, 6) temporary: a tracemalloc peak below 2 MB, the distance
    table's elimination of the class stack and orbit marking included."""
    _class_stack(6)
    for build in (_component_table, _distance_table):
        tracemalloc.start()
        try:
            table = build.__wrapped__(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (build.__name__, peak)
        assert table.tobytes() == build(6).tobytes()


def test_split_and_tables_refuse_orders_past_the_sieve():
    """The sieve, and so the star split, runs up to ENUM_MAX_ORDER vertices
    only, and the tables it reads stop below that: an 8-vertex stack raises
    OrderTooLargeError before any table is read or built, and each builder
    refuses k >= ENUM_MAX_ORDER before allocating anything."""
    builders = (_block_tables, _component_table, _distance_table)
    before = [build.cache_info() for build in builders]
    with pytest.raises(OrderTooLargeError, match="star split supports up to 7 vertices, got 8"):
        _split_stack(*stacked([build_family(cycle(8))]))
    assert [build.cache_info() for build in builders] == before
    for build in (_component_table, _distance_table):
        for k in (7, 8, 10):
            tracemalloc.start()
            try:
                with pytest.raises(OrderTooLargeError, match=f"cover 1..6 vertices, got {k}"):
                    build(k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 << 10, (build.__name__, k, peak)
    assert [build.cache_info().currsize for build in builders] == [info.currsize for info in before]


def test_non_qe_table_builds_with_one_stacked_elimination(monkeypatch):
    cached = _distance_table(6)
    engine = sys.modules["qec.engine"]
    single = engine._psd_zero
    calls = []
    monkeypatch.setattr(engine, "_psd_zero", lambda d: calls.append(d) or single(d))
    table = _distance_table.__wrapped__(6)
    assert calls == []
    assert table.dtype == cached.dtype and table.tobytes() == cached.tobytes()


def test_witness_is_first_isometric_non_qe_subset_order8():
    # networkx and numpy only on the oracle side; sets of five or six
    # vertices are decided by table in the library, sets of seven by slice
    nx = pytest.importorskip("networkx")
    qs = {size: _hyperplane(size) for size in (5, 6, 7)}

    def first_witness(h):
        d = nx.floyd_warshall_numpy(h, nodelist=range(8))
        for size in (5, 6, 7):
            for s in itertools.combinations(range(8), size):
                ds = d[np.ix_(s, s)]
                if np.linalg.eigvalsh(qs[size].T @ ds @ qs[size])[-1] <= 1e-9:
                    continue
                sub = h.subgraph(s)
                if nx.is_connected(sub) and np.array_equal(
                        nx.floyd_warshall_numpy(sub, nodelist=s), ds):
                    return s
        return None

    rng = random.Random(20261018)
    sizes = {size: 0 for size in (None, 5, 6, 7)}
    while sum(sizes.values()) < 400:
        h = nx.gnp_random_graph(8, rng.uniform(0.2, 0.9), seed=rng.randrange(1 << 30))
        if not nx.is_connected(h):
            continue
        want = first_witness(h)
        assert non_qe_witness(from_edges(8, h.edges())) == want, sorted(h.edges())
        sizes[None if want is None else len(want)] += 1
    assert min(sizes.values()) >= 3, sizes


def _join_oracle(nx, h, side, rest):
    """QEC of the join h = h[side] + h[rest] of two regular graphs, from
    networkx degrees and numpy eigvalsh of the parts' adjacency matrices."""
    (n1, r1, low1), (n2, r2, low2) = [
        (len(part), max(dict(h.subgraph(part).degree()).values()),
         np.linalg.eigvalsh(nx.to_numpy_array(h, nodelist=part)).min()) for part in (side, rest)]
    return -2.0 + max(-low1, -low2, (2.0 * n1 * n2 - r1 * n2 - r2 * n1) / (n1 + n2))


def test_regular_join_split_against_networkx():
    # networkx only on the oracle side: components of the complement by least
    # vertex, unions containing the first tried by size, regularity by degrees;
    # the per-graph reference and the stacked step 4, each graph a stack of one
    nx = pytest.importorskip("networkx")
    from test_graphs import oracle_graphs

    found = 0
    for h in oracle_graphs(nx):
        parts = sorted(sorted(c) for c in nx.connected_components(nx.complement(h)))
        want = None
        for size, chosen in ((size, chosen) for size in range(len(parts) - 1)
                             for chosen in itertools.combinations(parts[1:], size)):
            side = sorted(parts[0] + [v for c in chosen for v in c])
            rest = sorted(set(h) - set(side))
            if nx.is_regular(h.subgraph(side)) and nx.is_regular(h.subgraph(rest)):
                want = (side, rest)
                break
        g = from_edges(h.number_of_nodes(), h.edges())
        got, stacked = per_graph.regular_join_split(g), _join_stack(g.adj[None])[0]
        if want is None:
            assert got is None and stacked is None
            continue
        for part, vertices in zip(got, want):
            assert np.array_equal(part.adj, nx.to_numpy_array(h, nodelist=vertices) > 0)
        assert stacked[:2] == (len(want[0]), len(want[1]))
        assert abs(stacked[2] - _join_oracle(nx, h, *want)) < 1e-9
        found += h.number_of_nodes() >= 8
    assert found >= 120


def _random_join(rng, n):
    """A random graph on n vertices whose complement is disconnected: 2..4
    groups, a random graph inside each and every edge between them, then
    randomly relabeled.  A group's complement may split further, so some
    graphs have three or more complement components."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    groups = [range(a, b) for a, b in zip([0] + cuts, cuts + [n])]
    group_of = {v: k for k, group in enumerate(groups) for v in group}
    density = rng.choice((0.0, 0.3, 0.6, 1.0, rng.random()))
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if group_of[u] != group_of[v] or rng.random() < density]
    label = rng.sample(range(n), n)
    return from_edges(n, [(label[u], label[v]) for u, v in edges])


def test_join_stack_matches_per_graph_reference():
    """`_join_stack` against the per-graph step 4 of tests/per_graph.py (the
    sides by `combinations` of complement components, each part an induced
    subgraph solved alone): the same part orders and a `.hex()`-equal value,
    on every class on 4..7 vertices that reaches step 4 and on 150 seeded
    random joins on each of 5..7 vertices (`_random_join`), each set as one
    stack, reversed, and each graph as a stack of one."""
    rng = random.Random(19)
    sets = [[r.graph for r in classify_all(n)[0] if r.sieve_step in ("step4", "step5", "step6")]
            for n in range(4, 8)]
    assert [len(graphs) for graphs in sets] == [0, 2, 25, 168]
    sets += [[_random_join(rng, n) for _ in range(150)] for n in range(5, 8)]
    joins, many, later = 0, 0, 0
    for graphs in filter(None, sets):
        n = graphs[0].n
        want = [per_graph.step4(from_mask(n, g.mask)) for g in graphs]
        want = [None if w is None else (w[0], w[1], w[2].hex()) for w in want]

        def run(stack):
            got = _join_stack(np.array([g.adj for g in stack]))
            return [None if j is None else (j[0], j[1], j[2].hex()) for j in got]

        assert run(graphs) == want, n
        assert run(graphs[::-1]) == want[::-1], n
        assert [run([g])[0] for g in graphs] == want, n
        for g, w in zip(graphs, want):
            rows = neighbor_masks(g)
            every = (1 << n) - 1
            comps = per_graph.component_masks([every & ~row & ~(1 << v) for v, row in enumerate(rows)], every)
            many += len(comps) >= 3 and w is not None
            later += len(comps) >= 3 and w is not None and w[0] != bin(comps[0]).count("1")
        joins += sum(w is not None for w in want)
    assert sum(w is not None for w in map(per_graph.step4, sets[3])) == 4  # n = 7: step 4 decides 4
    assert joins >= 300 and many >= 250 and later >= 80, (joins, many, later)


def test_warm_sweep_builds_no_join_part(monkeypatch):
    """A warm classify_all(7) decides step 4 over its stack: no part is built
    as an induced subgraph and no part's adjacency eigenvalue is solved alone."""
    classify_all(7)
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for module in ("qec", "qec.graphs", "qec.classify", "qec.embedding", "qec.engine", "qec.formulas"):
        for name in ("induced_subgraph", "adjacency_min_eigenvalue"):
            if hasattr(sys.modules[module], name):
                monkeypatch.setattr(sys.modules[module], name, counted(name, getattr(sys.modules[module], name)))
    records, _ = classify_all(7)
    monkeypatch.undo()
    assert calls == []
    assert sum(r.sieve_step == "step4" for r in records) == 4


def test_trace_of_the_step4_classes(capsys):
    """The four order-7 classes that step 4 decides trace their parts and the
    join formula's value, its floating-point noise where the value is 0, which
    the margin rule decides QE."""
    want = {"FsnV?": "(1+6), formula 4.4408920985e-16 -> QE",
            "Ftvn_": "(1+6), formula 8.881784197e-16 -> QE",
            "F~zn_": "(3+4), formula -0.142857142857 -> QE",
            "F}vn_": "(2+5), formula -0.38196601125 -> QE"}
    assert {to_graph6(r.graph) for r in classify_all(7)[0] if r.sieve_step == "step4"} == set(want)
    for text, join in want.items():
        assert main(["trace", text]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"step4: join of regular parts {join}"


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


def record_fields(r):
    """Every field of a record, the QEC value bit for bit, and the value `qec`
    reports for a fresh copy of its graph (one value path)."""
    fresh = from_mask(r.graph.n, r.graph.mask)
    return (r.graph.n, r.graph.mask, r.cert, r.qec_value.hex(), qec(fresh).value.hex(),
            r.verdict, r.witness, r.sieve_step)


@pytest.mark.parametrize("n", range(2, 8))
def test_sweep_matches_single_graph_classify(n):
    """The stacked sweep against `classify` on graphs with no memo, each
    going through the kernels alone (a stack of one)."""
    records, _ = classify_all(n, workers=1)
    single = sorted((classify(g) for g in enumerate_connected(n)), key=lambda r: r.cert)
    assert [record_fields(r) for r in records] == [record_fields(r) for r in single]


def test_classify_all_order_bounds():
    with pytest.raises(OrderTooLargeError):
        classify_all(8)


@pytest.mark.parametrize("workers", [0, 2, None])
def test_classify_all_runs_on_one_worker(workers):
    with pytest.raises(BadParamsError):
        classify_all(4, workers=workers)


def _glued(rng, n):
    """A random connected graph on n vertices with a cut vertex: two random
    connected parts, one of at least n - 3 vertices, sharing one vertex,
    randomly relabeled."""
    def part(k):
        while True:
            g = from_mask(k, rng.getrandbits(n_bits(k)) | rng.getrandbits(n_bits(k)))
            if is_connected(g):
                return g
    a = rng.randrange(n - 3, n)
    g = compose("star", part(a), part(n + 1 - a), roots=(rng.randrange(a), 0))
    label = rng.sample(range(n), n)
    return from_edges(n, [(label[i], label[j]) for i, j in g.edges()])


def _primary_with_tree(rng, primary, n):
    """A non-QE primary graph with n - primary.n vertices hung on it as a
    random tree, randomly relabeled.  The primary part is isometric, and its
    isometric subsets, alone or with tree vertices, are QE, so its vertex set
    is the least witness."""
    edges = primary.edges()
    for new in range(primary.n, n):
        edges.append((rng.randrange(new), new))
    label = rng.sample(range(n), n)
    return from_edges(n, [(label[i], label[j]) for i, j in edges])


def stacked(graphs):
    """Adjacency and distance stacks of graphs of one order, as the stacked
    kernels take them."""
    return np.array([g.adj for g in graphs]), np.array([distance_matrix(g) for g in graphs])


def kernel_stacks():
    """Every class on 2..7 vertices, one stack per order, then seeded stacks
    on 8, 9 and 10 vertices: G(n, p) graphs with p in 0.3..0.9, graphs glued
    at a cut vertex (`_glued`) and the 13 seven-vertex primaries with a tree
    hung on (`_primary_with_tree`), so that witnesses and split blocks of 7
    or more vertices occur."""
    stacks = [enumerate_connected(n) for n in range(2, 8)]
    primaries = [r.graph for r in classify_all(7)[0] if r.verdict is Verdict.NON_QE_PRIMARY]
    rng = random.Random(20261018)
    for n in (8, 9, 10):
        stack = [_glued(rng, n) for _ in range(60)]
        stack += [_primary_with_tree(rng, p, n) for p in primaries]
        while len(stack) < 200:
            p = rng.uniform(0.3, 0.9)
            g = from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            if is_connected(g):
                stack.append(g)
        stacks.append(stack)
    return stacks


def test_stacked_kernels_match_per_graph_reference():
    """`_witness_stack` on every stack, and `_split_stack` up to
    ENUM_MAX_ORDER vertices, against the per-graph search of
    tests/per_graph.py, on each stack, the stack reversed and shuffled, and
    each graph as a stack of one; every graph is rebuilt from its mask so no
    memo is shared.  Past ENUM_MAX_ORDER, where the sieve never runs, the
    split refuses the stack; witnesses of 7 or more vertices, which take
    the elimination path, still occur there."""
    rng = random.Random(7)
    big_witness = 0
    for stack in kernel_stacks():
        n = stack[0].n
        fresh = [from_mask(n, g.mask) for g in stack]
        witnesses = [per_graph.non_qe_witness(g) for g in fresh]
        splits = [per_graph.star_qe_split(g) for g in fresh] if n <= 7 else None
        for order in (list(range(len(stack))), list(range(len(stack)))[::-1],
                      rng.sample(range(len(stack)), len(stack))):
            again = [from_mask(n, stack[k].mask) for k in order]
            assert _witness_stack(*stacked(again)) == [witnesses[k] for k in order], n
            if splits is None:
                with pytest.raises(OrderTooLargeError):
                    _split_stack(*stacked(again))
            else:
                assert _split_stack(*stacked(again)) == [splits[k] for k in order], n
        for k, g in enumerate(stack):
            assert non_qe_witness(from_mask(n, g.mask)) == witnesses[k]
            if splits is not None:
                assert _split_stack(*stacked([from_mask(n, g.mask)])) == [splits[k]]
        big_witness += sum(w is not None and len(w) >= 7 for w in witnesses)
    assert big_witness >= 40, big_witness


def _recorded_blocks(monkeypatch, run):
    """Every (packed stack, distances, graphs, blocks) that `run()` passes to
    classify._blocks_qe."""
    calls = []
    module = sys.modules["qec.classify"]
    blocks_qe = module._blocks_qe
    monkeypatch.setattr(module, "_blocks_qe", lambda *args: calls.append(args) or blocks_qe(*args))
    run()
    monkeypatch.undo()
    return calls


def test_block_tables_match_per_graph_packing(monkeypatch):
    """`_blocks_qe`, which reads each block's order and labeled mask from
    `_block_tables`, against the gather-and-pack reference of
    tests/per_graph.py: on every (graph, block) of the star-split and step-5
    calls of classify_all(n), n = 2..7 (whose witness search reads its
    blocks' verdicts from `_distance_table`), and of the witness and step-5
    kernels over kernel_stacks()'s 8-10-vertex stacks (which hold blocks of
    7 or more vertices), each call's stack whole and each of its graphs as a
    stack of one with its own blocks.  The reference reads its adjacency off
    the distances (d = 1), not off the packed stack the kernel reads."""
    calls = []
    for n in range(2, 8):
        calls += _recorded_blocks(monkeypatch, lambda: classify_all(n))
    for stack in kernel_stacks()[-3:]:
        stacks = stacked(stack)
        calls += _recorded_blocks(monkeypatch, lambda: (_witness_stack(*stacks), _step5_stack(*stacks)))
    sizes, counts, singles = Counter(), Counter(), 0
    for packed, dist, which, blocks in calls:
        counts[dist.shape[-1]] += len(blocks)
        want = per_graph.blocks_qe(dist == 1, dist, which, blocks)
        assert np.array_equal(_blocks_qe(packed, dist, which, blocks), want)
        sizes.update((dist.shape[-1], bin(b).count("1")) for b in blocks.tolist())
        for i in np.unique(which).tolist():
            at = np.flatnonzero(which == i)
            one = _blocks_qe(packed[:, i:i + 1], dist[i:i + 1], np.zeros(len(at), dtype=np.intp), blocks[at])
            assert np.array_equal(one, want[at])
            singles += 1
    assert counts[7] == 2496 + 20 and singles > 385 + 20
    for n in (8, 9, 10):
        assert sizes[n, 7] and sizes[n, n - 1], (n, sizes)


def test_sweep_reads_subgraph_tables_instead_of_isometry(monkeypatch):
    """classify_all(7) tests no subset for isometry: its witness search
    compares `_distance_table` entries, so `_isometric` never runs, and
    `_blocks_qe` gets only the star split's 2,496 blocks (385 graphs) and
    step 5's 20."""
    module = sys.modules["qec.classify"]
    isometric, asked = module._isometric, []
    monkeypatch.setattr(module, "_isometric", lambda *args: asked.append(args) or isometric(*args))
    calls = _recorded_blocks(monkeypatch, lambda: classify_all(7))
    assert asked == []
    assert [(len(blocks), len(set(which.tolist()))) for _, _, which, blocks in calls] == [(2496, 385), (20, 20)]


def test_block_tables_are_read_only_and_small():
    """The tables hold each bitset's order and, below ENUM_MAX_ORDER vertices,
    its sub-masks as int16: at most 0.3 MB up to 7 vertices, 4 MB at 10."""
    for n in range(1, 11):
        orders, parts = _block_tables(n)
        assert orders.dtype == np.int8 and parts.dtype == np.int16
        assert parts.shape == (1 << n, -(-n_bits(n) // 8), 256)
        for table in (orders, parts):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.reshape(-1)[0] = 1
        assert orders.nbytes + parts.nbytes <= (0.3e6 if n <= 7 else 4e6), n
        assert orders.tolist() == [bin(s).count("1") for s in range(1 << n)]


def test_classification_record_is_frozen_and_pickles():
    """A record refuses attribute assignment and round-trips through pickle,
    graph, certificate, verdict and witness included."""
    records, _ = classify_all(6)
    rec = next(r for r in records if r.witness is not None)
    with pytest.raises(AttributeError):
        rec.verdict = Verdict.QE
    back = pickle.loads(pickle.dumps(records))
    assert back == records and {type(r) for r in back} == {ClassificationRecord}


def test_block_tables_refuse_sub_masks_past_int16(monkeypatch):
    """With the cap at 8 the tables would hold the 21-bit sub-masks of
    7-vertex blocks, which int16 wraps: building them raises OverflowError
    instead, while 6-vertex blocks (15 bits) still fit."""
    monkeypatch.setattr(sys.modules["qec.classify"], "ENUM_MAX_ORDER", 8)
    _block_tables.cache_clear()
    try:
        for n in (7, 8, 10):
            with pytest.raises(OverflowError, match="21-bit sub-masks of 7-vertex blocks"):
                _block_tables(n)
        assert _block_tables(6)[1].dtype == np.int16
    finally:
        _block_tables.cache_clear()


def _reference_step5(g):
    """Step 5 of g by the per-graph reference, embedding every graph that has
    no pendant lift, whatever its verdict."""
    lift = per_graph.pendant_lift(g)
    if lift is not None:
        return Step5(True, lift)
    return Step5(False, per_graph.ldl_defect(distance_matrix(g)))


def test_step5_kernel_matches_per_graph_reference():
    """`_step5_stack` against the per-graph lift and LDL^T embedding of
    tests/per_graph.py, Python floats one entry at a time, on every class on
    2..7 vertices: the pendant outcome and the defect to the bit, on each
    order's stack, reversed and shuffled, and on each graph as a stack of
    one; `embed` (eigh principal coordinates) and `pendant_rule` (stacks of
    one) against the reference too.  Every graph is rebuilt from its mask,
    so no memo is shared."""
    rng = random.Random(5)
    lifts = 0
    for n in range(2, 8):
        stack = enumerate_connected(n)
        want = [_reference_step5(from_mask(n, g.mask)) for g in stack]
        for order in (list(range(len(stack))), list(range(len(stack)))[::-1],
                      rng.sample(range(len(stack)), len(stack))):
            again = [from_mask(n, stack[k].mask) for k in order]
            assert _step5_stack(*stacked(again)) == [want[k] for k in order], n
        for g, outcome in zip(stack, want):
            one = [from_mask(n, g.mask)]
            assert _step5_stack(*stacked(one)) == [outcome]
            assert pendant_rule(from_mask(n, g.mask)) == (0.0 if outcome.lifted else None)
            if is_cnd_exact(from_mask(n, g.mask)):
                got, ref = embed(from_mask(n, g.mask)), per_graph.embed(from_mask(n, g.mask))
                assert got.dim == ref.dim and np.array_equal(got.coords, ref.coords)
            else:
                with pytest.raises(NotQEError):
                    embed(from_mask(n, g.mask))
        lifts += sum(outcome.lifted for outcome in want)
    assert lifts == 1 + 2 + 10 + 52


def test_step5_defects_separate_qe_from_non_qe():
    """Step 5 calls a graph QE when its LDL^T embedding's defect is at most
    1e-8, reading no exact verdict.  On every class with no pendant lift on
    2..7 vertices the QE defects stay below 1e-13 and the non-QE ones above
    0.02 (least 1/2, 1/3 and 1/3 at n = 5, 6, 7)."""
    for n in range(2, 8):
        graphs = enumerate_connected(n)
        outcomes = _step5_stack(*stacked(graphs))
        qe = [o.defect for g, o in zip(graphs, outcomes) if not o.lifted and is_cnd_exact(g)]
        non_qe = [o.defect for g, o in zip(graphs, outcomes) if not is_cnd_exact(g)]
        assert max(qe) <= 1e-13, n
        assert not any(o.lifted for g, o in zip(graphs, outcomes) if not is_cnd_exact(g))
        if n >= 5:
            assert min(non_qe) >= 0.02, n


def _relabeled_step5(n, count=20):
    """Every class on n vertices under the identity and `count` seeded
    relabelings: per labeling its adjacency and distance stacks, exact
    verdicts, `_step5_stack` outcomes and the pendant witnesses of the lifted
    graphs (-1s elsewhere), which `_gram_defects` factors a' and b' last."""
    rng = random.Random(100 + n)
    adj0 = np.array([g.adj for g in enumerate_connected(n)])
    exact = np.array([is_cnd_exact(g) for g in enumerate_connected(n)])
    for labels in [list(range(n))] + [rng.sample(range(n), n) for _ in range(count)]:
        adj = adj0[:, labels][:, :, labels]
        dist = distance_stack(adj)
        outcomes = _step5_stack(adj, dist)
        lifted = np.array([o.lifted for o in outcomes])
        yield adj, dist, exact, outcomes, np.where(lifted[:, None], pendant_stack(adj), -1)


def test_step5_is_invariant_under_relabeling():
    """An LDL^T depends on the vertex order, where an eigensolve did not: on
    every class on 2..7 vertices under 20 seeded relabelings, `lifted` and
    `defect <= DEFECT_TOL` equal the identity labeling's, and the QE test of
    step 5 equals the exact verdict."""
    for n in range(2, 8):
        want = None
        for _, _, exact, outcomes, _ in _relabeled_step5(n):
            got = [(o.lifted, o.defect <= DEFECT_TOL) for o in outcomes]
            want = got if want is None else want
            assert got == want, n
            assert [lifted or qe for lifted, qe in got] == exact.tolist(), n


def test_pendant_lift_is_the_factorization_with_a_b_last():
    """For every lifted graph on 4..7 vertices under seeded relabelings, the
    LDL^T in `_lift_order` puts a' and b' at x_a + e and x_b + e, e the unit
    axis of a''s pivot (which is 1; b''s is 0), within 1e-12."""
    lifts_seen = 0
    for n in range(4, 8):
        for _, dist, _, _, lifts in _relabeled_step5(n):
            at = np.flatnonzero(lifts[:, 0] >= 0)
            order = _lift_order(n, lifts[at])
            d = dist[at[:, None, None], order[:, :, None], order[:, None, :]]
            points, pivots = _ldl_points(d)
            graphs, pos = np.arange(len(at)), np.argsort(order, axis=1)  # each vertex's row
            assert (pos[graphs, lifts[at, 2]] == n - 2).all() and (pos[graphs, lifts[at, 3]] == n - 1).all()
            axis = np.eye(n - 1)[n - 3]
            for anchor, row in ((0, n - 2), (1, n - 1)):
                gap = points[graphs, row] - points[graphs, pos[graphs, lifts[at, anchor]]] - axis
                assert np.abs(gap).max() <= 1e-12, n
            assert np.abs(pivots[:, n - 3] - 1).max() <= 1e-12 and np.abs(pivots[:, n - 2]).max() <= 1e-12
            lifts_seen += len(at)
    assert lifts_seen == 21 * (1 + 2 + 10 + 52)


def test_step5_pivots_keep_their_margins():
    """Each QE class on 2..7 vertices, under the identity and 20 seeded
    relabelings, factored as step 5 orders it: every kept pivot is at least
    1e-3 (the least is 1/12) and every discarded one at most 1e-12 in
    magnitude (the largest is a few 1e-15), far on either side of the
    RANK_CUTOFF floor."""
    kept, dropped = [], []
    for n in range(2, 8):
        for _, dist, exact, _, lifts in _relabeled_step5(n):
            order = _lift_order(n, lifts[exact])
            d = dist[exact][np.arange(exact.sum())[:, None, None], order[:, :, None], order[:, None, :]]
            pivots = _ldl_points(d)[1]
            kept += pivots[pivots > RANK_CUTOFF].tolist()
            dropped += pivots[pivots <= RANK_CUTOFF].tolist()
    assert min(kept) >= 1e-3 and max(map(abs, dropped)) <= 1e-12


def _sweep_margins() -> dict[str, tuple[float, float]]:
    """The margins each sieve tolerance sits in, from the sweep's own columns
    over every class on 2..7 vertices (the class stack, as `_sweep` labels
    it), as (largest value that must fall at or below the tolerance, least
    one that must fall above it):
    - BOUNDARY_TOL: |value| of the closed forms, join formulas and step-6
      values (steps 3, 4 and 6) where the QEC column is exactly 0, against
      the least |value| where it is not;
    - DEFECT_TOL: the step-5 defect of the graphs reaching step 5 or 6 whose
      verdict column says QE, against those it says non-QE;
    - RANK_CUTOFF: |pivot| of the pivots dropped and least pivot kept by
      step 5's LDL^T of those QE graphs, in step 5's vertex order."""
    margins: dict[str, tuple[list, list]] = {name: ([], []) for name in ("BOUNDARY_TOL", "DEFECT_TOL", "RANK_CUTOFF")}
    for n in range(2, 8):
        (masks, values, verdicts, witnesses, _), _ = _sweep(n)
        adj, packed, dist = _class_stack(n)
        sieve = _run_sieve(adj, dist, packed, masks, witnesses, _split_stack(adj, dist, packed))
        for i, info in sieve.detail.items():
            step = int(sieve.step[i])
            if step in (3, 4, 6):  # a closed form (spec, value), a join (n1, n2, value) or a value
                margins["BOUNDARY_TOL"][values[i] != 0.0].append(abs(info if step == 6 else info[-1]))
        at = np.flatnonzero(sieve.step >= 5)
        outcomes = _step5_stack(adj[at], dist[at], packed[:, at])
        qe = np.array(verdicts)[at] == 0
        for outcome, is_qe in zip(outcomes, qe.tolist()):
            margins["DEFECT_TOL"][not is_qe].append(outcome.defect)
        lifted = np.array([o.lifted for o in outcomes], dtype=bool)[qe]
        lifts = np.where(lifted[:, None], pendant_stack(adj[at[qe]]), -1)
        order = _lift_order(n, lifts)
        d = dist[at[qe]][np.arange(len(order))[:, None, None], order[:, :, None], order[:, None, :]]
        pivots = _ldl_points(d.astype(float))[1].ravel()
        margins["RANK_CUTOFF"][0].extend(np.abs(pivots[pivots <= RANK_CUTOFF]).tolist())
        margins["RANK_CUTOFF"][1].extend(pivots[pivots > RANK_CUTOFF].tolist())
    return {name: (max(below), min(above)) for name, (below, above) in margins.items()}


def test_tolerances_sit_inside_their_measured_margins():
    """Each sieve tolerance lies inside the margin the sweep measures on 2..7
    vertices, with headroom h on both sides: h x the largest value at or
    below it <= the tolerance <= the least value above it / h.  h is 10^3,
    and 10^4 for RANK_CUTOFF, whose kept pivots (least 1/4) sit nearer.
    Measured: boundary values at most 4.6e-13 against 0.0544 (the least
    non-QE QEC; the least QE value off the boundary is 1/7); QE defects at
    most 1.4e-15 against 0.4; dropped pivots at most 9.5e-16 against 0.25.
    A tolerance moved within its headroom still passes; one moved 10^6-fold
    does not."""
    headroom = {"BOUNDARY_TOL": 1e3, "DEFECT_TOL": 1e3, "RANK_CUTOFF": 1e4}
    tolerances = {"BOUNDARY_TOL": BOUNDARY_TOL, "DEFECT_TOL": DEFECT_TOL, "RANK_CUTOFF": RANK_CUTOFF}
    margins = _sweep_margins()
    assert margins["BOUNDARY_TOL"][0] < 5e-13 and margins["BOUNDARY_TOL"][1] == pytest.approx(0.0544, abs=1e-4)
    assert margins["DEFECT_TOL"][0] < 1e-14 and margins["DEFECT_TOL"][1] == pytest.approx(0.4)
    assert margins["RANK_CUTOFF"][0] < 1e-15 and margins["RANK_CUTOFF"][1] == pytest.approx(0.25)
    for name, (below, above) in margins.items():
        h = headroom[name]
        assert h * below <= tolerances[name] <= above / h, (name, below, above)


def test_trace_prints_the_reference_sieve(capsys):
    for n in range(2, 8):
        for g in enumerate_connected(n):
            assert main(["trace", to_graph6(g)]) == 0
            want = [f"{step}: {outcome}" for step, outcome
                    in per_graph.sieve_trace(from_mask(n, g.mask))]
            assert capsys.readouterr().out.splitlines() == want, to_graph6(g)


def _random_connected(rng, n):
    """A G(n, p) graph, p uniform in 0.2..0.9, drawn until connected; its
    labels are those of the draw, not canonical ones."""
    while True:
        p = rng.uniform(0.2, 0.9)
        g = from_mask(n, sum(1 << t for t in range(n_bits(n)) if rng.random() < p))
        if is_connected(g):
            return g


def test_stacked_sieve_matches_per_graph_reference():
    """`_run_sieve` over a stack against the per-graph sieve of
    tests/per_graph.py, which looks certificates up in dicts and finds the
    witness, split and step 5 per graph: the deciding step and the verdict of
    every class on 2..7 vertices, one stack per order keyed by the class
    masks, and of 200 seeded random connected graphs on each of 4..7
    vertices, keyed by their certificates, as a stack and reversed."""
    rng = random.Random(15)
    stacks = [(enumerate_connected(n), _class_masks(n)) for n in range(2, 8)]
    for n in range(4, 8):
        graphs = [_random_connected(rng, n) for _ in range(200)]
        stacks.append((graphs, np.array([canonical_cert(g).bits for g in graphs])))
    seen = set()
    for graphs, certs in stacks:
        n = graphs[0].n
        want = [per_graph.sieve(from_mask(n, g.mask))[1:] for g in graphs]
        for order in (list(range(len(graphs))), list(range(len(graphs)))[::-1]):
            again = [from_mask(n, graphs[k].mask) for k in order]
            adj, dist = stacked(again)
            sieve = _run_sieve(adj, dist, _pack(adj), certs[order], _witness_stack(adj, dist), _split_stack(adj, dist))
            got = [(VERDICTS[v], f"step{k}") for v, k in zip(sieve.verdict.tolist(), sieve.step.tolist())]
            assert got == [want[k] for k in order], n
        seen.update(step for _, step in want)
    assert seen == {f"step{k}" for k in range(1, 7)}


def test_sweep_raises_when_the_sieve_disagrees(monkeypatch, capsys):
    """The sweep checks the sieve against the exact verdicts: with every step-5
    outcome turned into a verified pendant lift, the primaries that step 6
    decides come out QE, and classify_all raises, naming the first of them;
    `qec enumerate`, which writes the sweep's columns, exits 3 on it."""
    first = next(r for r in classify_all(6)[0] if r.sieve_step == "step6")
    module = sys.modules["qec.classify"]
    step5 = module._step5_stack
    monkeypatch.setattr(module, "_step5_stack",
                        lambda *stack: [Step5(True, 0.0) for _ in step5(*stack)])
    with pytest.raises(AssertionError, match=f"sieve verdict QE disagrees with exact verdict "
                                             f"NonQePrimary of {first.cert}"):
        classify_all(6)
    with pytest.raises(AssertionError, match="sieve verdict QE disagrees"):
        classify_all(7)
    assert main(["enumerate", "--n", "6"]) == 3
    assert capsys.readouterr() == ("", f"internal error: sieve verdict QE disagrees with exact verdict "
                                       f"NonQePrimary of {first.cert}\n")


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
    # ELr? is the six-vertex primary with QEC (-4 + sqrt 19)/3; step 6 solves
    # that value itself, bit for bit qec_value's, and follows it
    g = parse_graph6("ELr?")
    assert sieve_trace(g)[-1] == ("step6", "direct computation: QEC = 0.11963298118 -> NonQePrimary")
    adj, dist = g.adj[None], distance_matrix(g)[None]
    sieve = _run_sieve(adj, dist, _pack(adj), np.array([canonical_cert(g).bits]), [None], _split_stack(adj, dist))
    want = ([6], Verdict.NON_QE_PRIMARY, {0: qec_value(g)})
    assert (sieve.step.tolist(), VERDICTS[sieve.verdict[0]], sieve.detail) == want
    # the margin rule is strict: a value at BOUNDARY_TOL is QE, the next float above it non-QE
    kernels = sys.modules["qec.kernels"]
    for value, verdict in ((BOUNDARY_TOL, Verdict.QE), (np.nextafter(BOUNDARY_TOL, 1.0), Verdict.NON_QE_PRIMARY)):
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "eigvalsh", lambda m: np.full(m.shape[:-1], value))
            sieve = _run_sieve(adj, dist, _pack(adj), np.array([canonical_cert(g).bits]), [None],
                               _split_stack(adj, dist))
        assert (sieve.step.tolist(), VERDICTS[sieve.verdict[0]]) == ([6], verdict)
    # a doctored step-6 eigensolve reaches the sieve, whose check against the exact verdict trips
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "eigvalsh", lambda m: np.full(m.shape[:-1], -0.5))
        with pytest.raises(AssertionError, match="sieve verdict QE disagrees with exact verdict NonQePrimary"):
            sieve_trace(g)
    # a doctored QEC value leaves the sieve as it was, and the sign check trips
    monkeypatch.setattr(sys.modules["qec.classify"], "qec_value", lambda h: -0.5)
    with pytest.raises(AssertionError, match="QEC -0.5 contradicts exact verdict NonQePrimary"):
        sieve_trace(g)


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


def test_second_sweep_classifies_again_without_enumerating(monkeypatch):
    """Only constants of the class list outlive a sweep (the class masks, their
    certificates and the class stack of adjacency, packed masks and
    distances): a second classify_all(7) marks no orbit and certifies no
    graph, but runs its own
    stacked elimination over all 853 classes and its own values-only
    eigensolve over the 689 whose QEC is not exactly 0, on graphs of its own,
    and returns equal records."""
    first, _ = classify_all(7)
    engine, kernels, canon = (sys.modules[f"qec.{name}"] for name in ("engine", "kernels", "canon"))
    orbits, certified, eliminated, solved = [], [], [], []

    def counted(fn, log):
        return lambda *args: log.append(args[0]) or fn(*args)

    monkeypatch.setattr(kernels, "orbit_min_mark", counted(kernels.orbit_min_mark, orbits))
    for module in (canon, sys.modules["qec.classify"]):
        monkeypatch.setattr(module, "least_masks", counted(canon.least_masks, certified))
    stack = counted(engine._psd_zero_stack, eliminated)
    monkeypatch.setattr(engine, "_psd_zero_stack", stack)
    monkeypatch.setattr(sys.modules["qec.classify"], "_psd_zero_stack", stack)
    monkeypatch.setattr(engine, "eigvalsh", counted(engine.eigvalsh, solved))
    second, _ = classify_all(7)
    monkeypatch.undo()
    assert orbits == [] and certified == []
    assert [d.shape for d in eliminated] == [(853, 7, 7)]
    assert [m.shape for m in solved] == [(689, 6, 6)]  # Q^T D Q where M is not PSD and singular
    assert not {id(r.graph) for r in first} & {id(r.graph) for r in second}
    assert hash(tuple(second)) == hash(tuple(first)) and second == first


def test_warm_sweep_decides_step5_in_no_eigensolve(monkeypatch):
    """A warm classify_all(7) eliminates no matrix alone: the pendant
    remainders of step 5 are distance-table reads.  Its one stacked
    elimination covers the 853 classes, and step 5 makes no eigensolve: one
    LDL^T per graph embeds the 164 graphs that reach it.  The sweep's only
    eigensolves are prime_stack's values, step 4's regular parts, one solve
    per part order, and step 6's own values of the 10 graphs it decides."""
    classify_all(7)
    engine, embedding, kernels = (sys.modules[f"qec.{name}"] for name in ("engine", "embedding", "kernels"))
    single, stacked, solved, parts, values, sixes = [], [], [], [], [], []

    def counted(fn, log):
        return lambda *args: log.append(args[0]) or fn(*args)

    monkeypatch.setattr(engine, "_psd_zero", counted(engine._psd_zero, single))
    monkeypatch.setattr(embedding, "_psd_zero", counted(embedding._psd_zero, single))
    stack = counted(engine._psd_zero_stack, stacked)
    monkeypatch.setattr(engine, "_psd_zero_stack", stack)
    monkeypatch.setattr(sys.modules["qec.classify"], "_psd_zero_stack", stack)
    monkeypatch.setattr(embedding, "jacobi_eigh", counted(embedding.jacobi_eigh, solved))
    monkeypatch.setattr(engine, "jacobi_eigh", counted(engine.jacobi_eigh, solved))
    monkeypatch.setattr(kernels, "jacobi_eigh", counted(kernels.jacobi_eigh, parts))
    monkeypatch.setattr(engine, "eigvalsh", counted(engine.eigvalsh, values))
    monkeypatch.setattr(kernels, "eigvalsh", counted(kernels.eigvalsh, sixes))
    records, _ = classify_all(7)
    monkeypatch.undo()
    assert single == []
    assert [d.shape for d in stacked] == [(853, 7, 7)]
    assert solved == []
    assert [d.shape for d in parts] == [(2, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4), (1, 5, 5), (2, 6, 6)]
    assert [d.shape for d in values] == [(689, 6, 6)]
    assert [d.shape for d in sixes] == [(10, 6, 6)]
    assert sum(r.sieve_step == "step5" for r in records) == 154


def test_warm_sweep_and_report_evaluate_no_closed_form(monkeypatch, capsys):
    """Each closed form is evaluated as its family index is built: after a
    warm-up, classify_all(7) and `qec enumerate --n 7` (whose records list
    their closed forms) call formula_value zero times."""
    classify_all(7)
    assert main(["enumerate", "--n", "7"]) == 0
    calls = []
    for name in ("qec.classify", "qec.cli", "qec.formulas"):
        monkeypatch.setattr(sys.modules[name], "formula_value", lambda spec: calls.append(spec) or formula_value(spec))
    records, _ = classify_all(7)
    assert main(["enumerate", "--n", "7"]) == 0
    monkeypatch.undo()
    assert calls == []
    assert sum(r.sieve_step == "step3" for r in records) == 12
    assert capsys.readouterr().out.count('"family": ') == 2 * len(_family_index(7)) == 2 * 21


def test_class_certificates_are_made_once_and_shared():
    """The certificates of an order's classes are one tuple per process, in
    class-mask order; the fresh graphs and records of every sweep share it."""
    for n in range(1, 8):
        certs = _class_certs(n)
        assert type(certs) is tuple and certs == tuple(CanonicalCert(n, m) for m in _class_masks(n).tolist())
    first, second = classify_all(7)[0], classify_all(7)[0]
    assert all(a.cert is b.cert is cert for a, b, cert in zip(first, second, _class_certs(7)))
    assert all(r.graph._cert is r.cert for r in second)
    assert not {id(r.graph) for r in first} & {id(r.graph) for r in second}


def test_family_index_values_are_fresh_closed_forms():
    for n in range(2, 8):
        for spec, value in _family_index(n).values():
            assert value.hex() == formula_value(spec).hex(), spec


def test_class_stack_is_read_only_and_equals_an_uncached_build():
    """An order's class stack is three read-only arrays made once per process:
    the classes' adjacency, its packed masks and its distances, equal to an
    uncached build and to each class's graph built alone."""
    for n in range(2, 8):
        stack, fresh = _class_stack(n), _class_stack.__wrapped__(n)
        assert _class_stack(n) is stack and fresh is not stack
        for cached, built in zip(stack, fresh):
            assert not cached.flags.writeable and not built.flags.writeable
            assert cached.dtype == built.dtype and cached.shape == built.shape
            assert cached.tobytes() == built.tobytes(), n
            with pytest.raises(ValueError):
                cached[0] = 0
        adj, packed, dist = stack
        graphs = [from_mask(n, mask) for mask in _class_masks(n).tolist()]
        assert np.array_equal(adj, [g.adj for g in graphs])
        assert np.array_equal(dist, [distance_matrix(g) for g in graphs])
        assert np.array_equal(packed, _pack(adj))


def test_warm_sweep_runs_no_unpack_bfs_or_pack(monkeypatch, capsys):
    """classify_all(7) and `qec enumerate --n 7` read the class stack and write
    nothing into it.  After one run of each, both run again with no call to
    unpack_stack, distance_stack or _pack: the class stack holds their results.
    Each still runs its one stacked elimination over the 853 classes, and the
    graphs of classify_all are views of the stack that keep no memo."""
    stack = _class_stack(7)
    before = [a.tobytes() for a in stack]
    classify_all(7)
    assert main(["enumerate", "--n", "7"]) == 0
    expected = capsys.readouterr().out
    classify, graphs, engine = (sys.modules[f"qec.{name}"] for name in ("classify", "graphs", "engine"))
    calls, stacked = [], []

    def counted(fn, log):
        return lambda *args: log.append(fn.__name__) or fn(*args)

    for module in (classify, graphs):
        for name in ("unpack_stack", "distance_stack"):
            monkeypatch.setattr(module, name, counted(getattr(module, name), calls))
    monkeypatch.setattr(classify, "_pack", counted(classify._pack, calls))
    eliminate = engine._psd_zero_stack
    monkeypatch.setattr(engine, "_psd_zero_stack", lambda dist: stacked.append(dist.shape) or eliminate(dist))
    records, summary = classify_all(7)
    assert main(["enumerate", "--n", "7"]) == 0
    monkeypatch.undo()
    assert calls == []
    assert stacked == [(853, 7, 7)] * 2
    assert tuple(summary) == (452, 388, 13) and capsys.readouterr().out == expected
    assert all((r.graph._dist, r.graph._psd, r.graph._top) == (None, None, None) for r in records)
    assert all(np.shares_memory(r.graph.adj, stack[0]) for r in records)
    assert _class_stack(7) is stack and [a.tobytes() for a in stack] == before


def test_class_stack_refuses_orders_past_enumeration():
    """`_class_stack` covers the enumerated orders only: it refuses 0, 8 and
    10 before building or enumerating anything, and caches nothing."""
    builders = (_class_stack, _class_masks)
    before = [build.cache_info().currsize for build in builders]
    for n in (0, 8, 10):
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLargeError, match=f"class stacks cover 1..7 vertices, got {n}"):
                _class_stack(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, (n, peak)
    assert [build.cache_info().currsize for build in builders] == before


def test_class_masks_are_read_only_and_graphs_fresh():
    for n in range(1, 8):
        masks = _class_masks(n)
        assert masks.dtype == np.int64 and not masks.flags.writeable
        with pytest.raises(ValueError):
            masks[0] = 1
        assert np.array_equal(masks, _class_masks.__wrapped__(n)), n
    graphs = enumerate_connected(6)
    values = prime_stack(distance_stack(np.array([g.adj for g in graphs])))[1].tolist()
    assert all((g._dist, g._psd, g._top) == (None, None, None) for g in graphs)  # a sweep keeps no memo
    assert [qec_value(g) for g in graphs] == values
    for g in graphs:  # spoil every memo
        g._dist = np.zeros((6, 6), dtype=np.int64)
        g._psd, g._top, g._cert = (True, True), -1.0, CanonicalCert(6, 0)
    again = enumerate_connected(6)
    assert not {id(g) for g in graphs} & {id(g) for g in again}
    assert not {id(g.adj) for g in graphs} & {id(g.adj) for g in again}
    for g in again:
        assert (g._dist, g._psd, g._top) == (None, None, None)
        assert g._cert == CanonicalCert(6, g.mask)
    assert [g.mask for g in again] == _class_masks(6).tolist()
    assert [qec_value(g) for g in again] == values
    for n in range(1, 8):  # every invariant the constructor checks, unchecked here
        for g in enumerate_connected(n):
            assert g.adj.dtype == bool and g.adj.shape == (n, n) and not g.adj.flags.writeable
            with pytest.raises(ValueError):
                g.adj[0, 0] = True
            assert np.array_equal(g.adj, g.adj.T) and not g.adj.diagonal().any()
            assert pack_mask(g.adj) == g.mask and g == Graph(g.adj)
            assert g.edge_count == np.count_nonzero(g.adj) // 2
