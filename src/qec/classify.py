"""QE classification: exact verdicts, isometric witnesses, enumeration, sieve.

The authoritative verdict is always the exact integer test; a non-QE graph
is *primary* when no proper isometrically embedded connected induced
subgraph is non-QE.  The sieve, a six-step decision pipeline (products,
witnesses, families, regular joins, embeddings, direct computation), gives
every graph of a stack its deciding step and verdict in one pass
(`_run_sieve`), reading no exact verdict or QEC value.  Everything after the
exact test runs in one body, `_classify_stack`: one witness search, star
split and sieve over a stack, then its columns, checked over the whole stack
against the exact verdicts (the sieve agrees, and QEC > 0 exactly for non-QE
graphs).  `_sweep` hands it an order's `_class_stack` (adjacency, packed masks
and distances, made once per process) and its own exact verdicts and values
from `prime_stack`, for `qec enumerate` and `classify_all`; `classify` and
`sieve_trace` hand it one graph with its exact verdict and value decided
alone, and `sieve_trace` writes the steps from what decided it.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .bits import n_bits, pair_list, pair_rows_cols, unpack_stack
from .canon import CanonicalCert, canonical_cert, least_masks, perm_powers
# `embed`, `pendant_rule` and `verify_embedding` stay bound here, unused:
# perfbench/tracing.py traces its embedding layers through them
from .embedding import (  # noqa: F401
    DEFECT_TOL,
    _gram_defects,
    embed,
    pendant_rule,
    verify_embedding,
)
# `qec` stays bound here, unused: perfbench/tracing.py traces its engine.qec layer through it
from .engine import _projected, _psd_zero_stack, is_cnd_exact, prime_stack, qec, qec_value  # noqa: F401
from .errors import BadParamsError, OrderOneError, OrderTooLargeError
from .formulas import formula_value, regular_join_value
# `induced_subgraph` stays bound here, unused: perfbench/tracing.py traces its graphs.induced layer through it
from .graphs import (  # noqa: F401
    FamilySpec,
    Graph,
    build_family,
    compose,
    distance_matrix,
    distance_stack,
    _from_masks,
    from_mask,
    induced_subgraph,
    pendant_stack,
)

ENUM_MAX_ORDER = 7
BOUNDARY_TOL = 1e-9


class Verdict(str, Enum):
    QE = "QE"
    NON_QE_PRIMARY = "NonQePrimary"
    NON_QE_NON_PRIMARY = "NonQeNonPrimary"


class Summary(NamedTuple):
    qe: int
    non_primary: int
    primary: int


Witness = tuple[int, ...] | None  # a least isometric non-QE subgraph's vertices
Split = tuple[int, int, int] | None  # cut vertex v and the two QE parts' orders
Join = tuple[int, int, float] | None  # two regular parts' orders and the join formula's value


class ClassificationRecord(NamedTuple):
    """One graph's classification: the graph, its class's certificate, QEC,
    exact verdict, witness (non-QE non-primary graphs) and deciding sieve step."""

    graph: Graph
    cert: CanonicalCert
    qec_value: float
    verdict: Verdict
    witness: Witness
    sieve_step: str | None


# ---------------------------------------------------------------------------
# isometric subgraphs, witnesses and star splits, stacked


@lru_cache(maxsize=None)
def _subset_pairs(n: int) -> np.ndarray:
    """Read-only (2^n, n(n-1)/2) int8 index: at S, the flat positions u n + v
    of the pairs u < v inside the vertex bitset S in graph6 order, then 0,
    the pair (0, 0).  Adjacency read there is S's own labeled mask."""
    u, v = np.array(pair_rows_cols(n))
    bits = 1 << u | 1 << v
    inside = np.arange(1 << n)[:, None] & bits == bits
    order = np.argsort(~inside, axis=1, kind="stable")
    pairs = np.where(np.take_along_axis(inside, order, axis=1), (u * n + v)[order], 0)
    pairs = pairs.astype(np.int8)
    pairs.setflags(write=False)
    return pairs


@lru_cache(maxsize=None)
def _witness_candidates(n: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The sets of 5..n-1 vertices by size, then in `combinations` order: as
    read-only bitsets, and as the vertex tuples a witness search returns."""
    sets = tuple(s for size in range(5, n) for s in combinations(range(n), size))
    bits = np.array([sum(1 << v for v in s) for s in sets], dtype=np.int16)
    bits.setflags(write=False)
    return bits, sets


def _isometric(adj: np.ndarray, dist: np.ndarray, subsets: np.ndarray, width: int) -> np.ndarray:
    """(graph, subset) flags over a stack: does the vertex bitset S induce an
    isometric subgraph?  `width` bounds the pairs inside one subset.

    S is isometric iff every pair u < v in S at distance k >= 2 has a
    neighbour w of u in S with d(w, v) = k - 1, that is < k (`toward`, which
    holds v when u ~ v).  Only if: take w on a shortest u-v path inside S.
    If, by induction on k: d_S(w, v) = k - 1, so d_S(u, v) <= k.  Such an S
    is connected, and its distances are the slice d[S, S].
    """
    n = adj.shape[-1]
    toward = (adj[:, :, None, :] & (dist[:, None] < dist[..., None])) @ (1 << np.arange(n))
    toward = toward.reshape(len(adj), -1).astype(np.int16)
    toward[:, 0] = -1  # the padding pair asks nothing
    return (toward[:, _subset_pairs(n)[subsets, :width]] & subsets[:, None]).all(axis=2)


@lru_cache(maxsize=None)
def _block_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of the vertex bitsets S of a graph on n vertices: the
    order of S (2^n int8), and (2^n, bytes of a mask, 256) int16 sub-masks.
    At (S, k, b): the bits of S's own labeled mask, in graph6 pair order, that
    byte k of a graph's packed mask holds when its value is b (mask bit t is
    bit t % 8 of byte t // 8); zero where S has ENUM_MAX_ORDER or more vertices.
    Raises OverflowError if a sub-mask the tables hold would pass int16's 15 bits."""
    largest = min(n, ENUM_MAX_ORDER - 1)
    if n_bits(largest) > 15:
        raise OverflowError(f"block tables of order {n} would hold {n_bits(largest)}-bit sub-masks of "
                            f"{largest}-vertex blocks (ENUM_MAX_ORDER = {ENUM_MAX_ORDER}); int16 holds 15")
    members = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    orders = members.sum(axis=1)
    u, v = pair_rows_cols(n)
    inside = members[:, u] & members[:, v] & (orders < ENUM_MAX_ORDER)[:, None]
    weight = np.zeros((1 << n, -(-n_bits(n) // 8) * 8), dtype=np.int32)
    weight[:, :n_bits(n)] = inside << np.maximum(inside.cumsum(axis=1) - 1, 0)
    parts = weight.reshape(-1, 8) @ (np.arange(256) >> np.arange(8)[:, None] & 1).astype(np.int32)
    orders, parts = orders.astype(np.int8), parts.astype(np.int16).reshape(1 << n, -1, 256)
    orders.setflags(write=False)
    parts.setflags(write=False)
    return orders, parts


def _pack(adj: np.ndarray) -> np.ndarray:
    """(bytes of a mask, len(adj)) intp: byte k of each graph's labeled mask, packed in graph6 pair
    order (mask bit t is bit t % 8 of byte t // 8), plus 256 k, its offset in a row of `_block_tables`."""
    u, v = pair_rows_cols(adj.shape[-1])
    packed = np.packbits(adj[:, u, v], axis=1, bitorder="little").T.astype(np.intp)
    return packed + np.arange(0, 256 * len(packed), 256)[:, None]


def _sub_masks(packed: np.ndarray, n: int, which: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orders of the vertex bitsets `blocks` of the graphs `which` (broadcast) of a `_pack`ed stack on n vertices,
    and their labeled masks below ENUM_MAX_ORDER vertices (else 0): one `_block_tables` read per byte, summed."""
    orders, parts = _block_tables(n)
    start, flat = np.multiply(blocks, parts[0].size, dtype=np.intp), parts.reshape(-1)
    return orders[blocks], sum(flat[start + row[which]] for row in packed)


def _blocks_qe(packed: np.ndarray, dist: np.ndarray, which: np.ndarray,
               blocks: np.ndarray) -> np.ndarray:
    """Exact QE verdicts of isometric blocks, the vertex bitsets `blocks` of the graphs `which` of a `_pack`ed
    stack with distances `dist`.  Up to four vertices they are QE; below ENUM_MAX_ORDER, a `_distance_table` read
    at the labeled mask (`_sub_masks`); from there on (order 8 and up), one `_psd_zero_stack` per size over d[S, S]."""
    n = dist.shape[-1]
    sizes, masks = _sub_masks(packed, n, which, blocks)
    qe = np.ones(len(blocks), dtype=bool)
    for k in range(5, n):
        at = np.flatnonzero(sizes == k)
        if not len(at):
            continue
        if k < ENUM_MAX_ORDER:
            qe[at] = _distance_table(k)[masks[at]] < 0
        else:
            verts = np.nonzero(blocks[at, None] >> np.arange(n) & 1)[1].reshape(-1, k)
            d = dist[which[at, None, None], verts[:, :, None], verts[:, None, :]]
            qe[at] = _psd_zero_stack(d)[0]
    return qe


def _witness_stack(adj: np.ndarray, dist: np.ndarray, packed: np.ndarray | None = None) -> list[Witness]:
    """`non_qe_witness` of each graph of a stack (adjacency, distances, `_pack`ed by default) of one
    order.  A set S below ENUM_MAX_ORDER vertices qualifies iff the `_distance_table` entry at its
    labeled mask is d[S, S], packed alike; larger ones take `_isometric` and `_blocks_qe`."""
    count, n = adj.shape[:2]
    if not count or n < 6:
        return [None] * count
    packed = _pack(adj) if packed is None else packed
    subsets, sets = _witness_candidates(n)
    sizes, masks = _sub_masks(packed, n, np.arange(count)[:, None], subsets)
    entry = np.full(masks.shape, -1)  # -1 unless S is connected and non-QE
    for k in range(5, min(n, ENUM_MAX_ORDER)):
        entry[:, sizes == k] = _distance_table(k)[masks[:, sizes == k]]
    (gi, si), shifts = np.nonzero(entry >= 0), 4 * np.arange(n_bits(ENUM_MAX_ORDER - 1))
    slices = (dist.reshape(count, -1)[gi[:, None], _subset_pairs(n)[subsets[si], :len(shifts)]] << shifts).sum(axis=1)
    hit = np.zeros(masks.shape, dtype=bool)
    hit[gi, si] = entry[gi, si] == slices
    big = np.flatnonzero(sizes >= ENUM_MAX_ORDER)
    if len(big):
        hit[:, big] = _isometric(adj, dist, subsets[big], n_bits(n - 1))
        gi, si = np.nonzero(hit[:, big])
        hit[gi, big[si]] = ~_blocks_qe(packed, dist, gi, subsets[big[si]])
    first = hit.argmax(axis=1).tolist()
    return [sets[s] if any_ else None for s, any_ in zip(first, hit.any(axis=1).tolist())]


def non_qe_witness(g: Graph) -> Witness:
    """Least vertex set inducing a connected, isometric, non-QE proper
    subgraph, by size, then in `combinations` order; g is a stack of one.
    Sets of up to four vertices cannot work: those graphs are all QE."""
    return _witness_stack(g.adj[None], distance_matrix(g)[None])[0]


def _split_stack(adj: np.ndarray, dist: np.ndarray, packed: np.ndarray | None = None) -> list[Split]:
    """Cut vertex splitting each graph of a stack (adjacency, distances, `_pack`ed by default) on at most
    ENUM_MAX_ORDER vertices into two QE parts, the least v, then the first component
    of g - v by least vertex: (v, n1, n2).  Each part, one component of g - v or the
    rest, plus v, is an isometric block: a walk that leaves it returns through v."""
    count, n = adj.shape[:2]
    if n > ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"star split supports up to {ENUM_MAX_ORDER} vertices, got {n}")
    one, full = 1 << np.arange(n), (1 << n) - 1
    packed = _pack(adj) if packed is None else packed
    # comp[g, v, u]: u's component in g - v, in its labels; a hit where u leads it and g - v has another
    comp = _component_table(n - 1)[_sub_masks(packed, n, np.arange(count)[:, None], full - one)[1]]
    hit = (comp & -comp == one[:-1]) & (comp != full >> 1)
    gi, vi, ui = np.nonzero(hit)
    if not len(gi):
        return [None] * count
    part = comp[gi, vi, ui] + (comp[gi, vi, ui] >> vi << vi)  # in g's labels: bit v inserted
    qe = _blocks_qe(packed, dist, np.concatenate([gi, gi]), np.concatenate([part | one[vi], full ^ part]))
    hit[gi, vi, ui] = qe[:len(gi)] & qe[len(gi):]
    first = hit.reshape(count, -1).argmax(axis=1).tolist()
    comps = comp.reshape(count, -1)[np.arange(count), first].tolist()
    return [(f // (n - 1), c.bit_count() + 1, n - c.bit_count()) if h else None
            for f, c, h in zip(first, comps, hit.any(axis=(1, 2)).tolist())]


# ---------------------------------------------------------------------------
# enumeration up to isomorphism


@lru_cache(maxsize=None)
def _class_masks(n: int) -> np.ndarray:
    """Read-only ascending int64 array of the canonical masks of the connected
    classes on n vertices, built once per process from order n - 1's masks.

    Deleting a leaf of a spanning tree leaves a connected graph, so every
    connected graph on n >= 2 vertices is an order-(n - 1) class plus a
    vertex joined to a nonempty subset (vertex augmentation; McKay, J.
    Algorithms 26, 1998).  The classes are the distinct certificates of those
    candidates, made by one `least_masks` of their stack.
    """
    joined = np.arange(1, 1 << (n - 1)) << n_bits(n - 1)
    candidates = (_class_masks(n - 1)[:, None] | joined).ravel() if n > 1 else np.zeros(1, dtype=np.int64)
    certs = np.sort(least_masks(unpack_stack(n, candidates)))
    out = certs[np.diff(certs, prepend=-1) != 0]  # np.unique would import numpy.ma, 15 ms in a cold process
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _class_certs(n: int) -> tuple[CanonicalCert, ...]:
    """The certificates of the classes on n vertices, the `_class_masks(n)`
    in order: frozen values, made once per process and shared by every sweep."""
    return tuple(CanonicalCert(n, mask) for mask in _class_masks(n).tolist())


@lru_cache(maxsize=None)
def _class_stack(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only constants of the classes on n vertices, the `_class_masks(n)`
    in order, built once per process from no graph: their adjacency stack
    (one `unpack_stack`), its `_pack` and its `distance_stack` (one BFS)."""
    if not 1 <= n <= ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"class stacks cover 1..{ENUM_MAX_ORDER} vertices, got {n}")
    adj = unpack_stack(n, _class_masks(n))
    packed = _pack(adj)
    adj.setflags(write=False)
    packed.setflags(write=False)
    return adj, packed, distance_stack(adj)


def _class_graphs(n: int) -> list[Graph]:
    """`enumerate_connected(n)`: fresh views of the class stack's adjacency,
    each graph holding its class's certificate and no memo."""
    graphs = _from_masks(n, _class_masks(n).tolist(), _class_stack(n)[0])
    for g, cert in zip(graphs, _class_certs(n)):
        g._cert = cert
    return graphs


def enumerate_connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class, in
    certificate order: fresh graphs on every call, views of the adjacency
    stack that `_class_stack` unpacks once per process from the class masks."""
    if not 1 <= n <= ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"enumeration supports 1..{ENUM_MAX_ORDER} vertices, got {n}")
    return _class_graphs(n)


def _closed_rows(k: int, masks: np.ndarray) -> np.ndarray:
    """(len(masks), k) uint8 closed neighbourhoods, as bitsets, of labeled masks on k vertices."""
    rows = np.tile((1 << np.arange(k)).astype(np.uint8), (len(masks), 1))
    for t, (i, j) in enumerate(pair_list(k)):
        edge = (masks >> t & 1).astype(np.uint8)
        rows[:, i] |= edge << j
        rows[:, j] |= edge << i
    return rows


@lru_cache(maxsize=None)
def _component_table(k: int) -> np.ndarray:
    """Read-only uint8 table: at (labeled mask on k < ENUM_MAX_ORDER vertices, u), u's component as a bitset."""
    if not 1 <= k < ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"subgraph tables cover 1..{ENUM_MAX_ORDER - 1} vertices, got {k}")
    comp = _closed_rows(k, np.arange(1 << n_bits(k)))
    for w in range(k):  # rows holding w take w's row
        comp |= comp[:, w:w + 1] * (comp >> w & 1)
    comp.setflags(write=False)
    return comp


@lru_cache(maxsize=None)
def _distance_table(k: int) -> np.ndarray:
    """Read-only int64 table over the labeled masks on k < ENUM_MAX_ORDER vertices: -1, but at the
    relabelings of the non-QE connected classes (k = 5: 40 of 1,024; k = 6: 5,860 of 32,768; none
    below) their distances, 4 bits a pair in graph6 order (< 16 to MAX_ORDER).  Built once, the
    classes decided by one stacked elimination of `_class_stack(k)`, their orbits marked in a bitmap."""
    if not 1 <= k < ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"subgraph tables cover 1..{ENUM_MAX_ORDER - 1} vertices, got {k}")
    marks = np.zeros(1 << n_bits(k), dtype=np.uint8)
    for mask in _class_masks(k)[~_psd_zero_stack(_class_stack(k)[2])[0]].tolist():
        kernels.orbit_min_mark(mask, perm_powers((k,)), marks)
    masks, table = np.flatnonzero(marks), np.full(1 << n_bits(k), -1)
    reach = rows = _closed_rows(k, masks)
    (i, j), weights = pair_rows_cols(k), 1 << 4 * np.arange(n_bits(k))
    table[masks] = weights.sum()  # d(i, j) counts the steps s >= 0 before j is in reach of i
    for _ in range(k - 2):
        table[masks] += (~reach[:, i] >> j & 1) @ weights
        reach = np.bitwise_or.reduce([rows[:, w:w + 1] * (reach >> w & 1) for w in range(k)])
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# sieve support: product, family and join recognizers


@lru_cache(maxsize=None)
def _qe_cartesian_products(n: int) -> dict[CanonicalCert, tuple[int, int]]:
    """Certificates, ascending, of Cartesian products of two smaller QE
    graphs, whose verdicts are `_distance_table` reads, certified as one stack."""
    found: dict[CanonicalCert, tuple[int, int]] = {}
    for a in range(2, n):
        if n % a or a > n // a:
            continue
        left, right = ([from_mask(k, mask) for mask in _class_masks(k).tolist()
                        if _distance_table(k)[mask] < 0] for k in (a, n // a))
        prods = np.stack([compose("cartesian", g1, g2).adj for g1 in left for g2 in right])
        for bits in least_masks(prods).tolist():
            found.setdefault(CanonicalCert(n, bits), (a, n // a))
    return dict(sorted(found.items()))


@lru_cache(maxsize=None)
def _family_index(n: int) -> dict[CanonicalCert, tuple[FamilySpec, float]]:
    """Certificate -> (family spec, closed-form value) for every closed-form
    family member on n >= 2 vertices, certificates ascending; built once per
    order, the members certified as one `least_masks` stack."""
    specs = [FamilySpec("complete", (n,)), FamilySpec("path", (n,))] + ([FamilySpec("cycle", (n,))] if n >= 3 else [])
    specs += [FamilySpec("multipartite", parts) for parts in _partitions(n) if len(parts) >= 2]
    specs += [FamilySpec("wedge", (n - 1, m)) for m in range(1, n)] + ([FamilySpec("knp4", (n,))] if n >= 5 else [])
    bits = least_masks(np.stack([build_family(spec).adj for spec in specs])).tolist()
    # the first spec of equal certificates wins
    index = dict(reversed([(CanonicalCert(n, b), (spec, formula_value(spec))) for b, spec in zip(bits, specs)]))
    return dict(sorted(index.items()))


def _partitions(total: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _join_sides(n: int) -> np.ndarray:
    """Read-only (2^(n-1) - 1, n) int64 0/1 rows: the complement components
    (by least vertex) on one side of a join, component 0 with each
    `combinations` of components 1..n-1, by size, up to n - 2 of them.  A
    graph with c < n components, the rest empty, meets its own sides in the
    same order, each before the repeats that add empty components."""
    picks = [(0,) + chosen for size in range(n - 1) for chosen in combinations(range(1, n), size)]
    sides = np.zeros((len(picks), n), dtype=np.int64)
    for row, pick in zip(sides, picks):
        row[list(pick)] = 1
    sides.setflags(write=False)
    return sides


def _join_stack(adj: np.ndarray) -> list[Join]:
    """Sieve step 4 of each graph of a stack (N, n, n): a split g = G1 + G2
    (graph join) with both parts regular, as (n1, n2, value of the join
    formula), or None.  Each part is a union of components of the complement:
    G1 the first side of `_join_sides` with both parts regular.  Every vertex
    of a part is adjacent to all of the other, so a part is regular exactly
    when g's degrees are constant on it, that is, when it lies in the bitset
    of vertices whose degree is its least vertex's.  The parts' least
    adjacency eigenvalues come from one `jacobi_eigh` per part order."""
    count, n = adj.shape[:2]
    joins: list[Join] = [None] * count
    reach = (~adj).astype(np.float32)  # the complement with loops, squared until it reaches
    for _ in range(n.bit_length() if count else 0):
        reach = np.minimum(reach @ reach, 1)
    split = np.flatnonzero(reach[:, 0].min(axis=1) == 0)
    if not len(split):
        return joins
    one, every = 1 << np.arange(n), (1 << n) - 1
    comp = (reach[split] @ one).astype(np.int64)  # each vertex's component, as a bitset
    gi, vi = np.nonzero(comp & -comp == one)  # the components' least vertices
    comps = np.zeros(comp.shape, dtype=np.int64)  # each graph's components by least vertex, then 0s
    comps[gi, np.arange(len(gi)) - np.searchsorted(gi, gi)] = comp[gi, vi]
    deg = adj[split].sum(axis=2)
    same = (deg[:, :, None] == deg[:, None, :]) @ one  # at (g, u): the vertices of u's degree
    side = comps @ _join_sides(n).T  # each holds vertex 0
    rest = every - side
    least = np.frexp(rest & -rest)[1] - 1
    ok = (rest != 0) & (side & ~same[:, :1] == 0) & (rest & ~same[np.arange(len(split))[:, None], least] == 0)
    hit = np.flatnonzero(ok.any(axis=1))
    first = side[hit, ok[hit].argmax(axis=1)]
    parts, hit = np.concatenate([first, every - first]), np.concatenate([hit, hit])
    owner, orders = split[hit], ((parts[:, None] & one) != 0).sum(axis=1)
    degree = deg[hit, np.frexp(parts & -parts)[1] - 1] - n + orders  # inside the part
    low = np.empty(len(parts))
    for k in set(orders.tolist()):
        at = np.flatnonzero(orders == k)
        verts = np.nonzero(parts[at, None] & one)[1].reshape(-1, k)
        sub = adj[owner[at, None, None], verts[:, :, None], verts[:, None, :]]
        low[at] = kernels.jacobi_eigh(sub.astype(float))[0][:, -1]
    for i, n1, n2, r1, r2, low1, low2 in zip(owner.tolist(), *orders.reshape(2, -1).tolist(),
                                             *degree.reshape(2, -1).tolist(), *low.reshape(2, -1).tolist()):
        joins[i] = (n1, n2, regular_join_value(n1, r1, low1, n2, r2, low2))
    return joins


# ---------------------------------------------------------------------------
# the sieve


class Step5(NamedTuple):
    """Sieve step 5 of one graph: did a pendant lift verify, and the defect
    of its LDL^T embedding (a lifted graph's with a' and b' last)."""

    lifted: bool
    defect: float


def _step5_stack(adj: np.ndarray, dist: np.ndarray, packed: np.ndarray | None = None) -> list[Step5]:
    """Step 5 of each graph of a stack (adjacency, distances, `_pack`ed by default) of one order, from no
    exact test of the graph and no eigensolve: a graph with a pendant witness (a, b, a', b') (`pendant_stack`)
    whose remainder G - {a', b'} is QE, a `_blocks_qe` read of that isometric block, is lifted.  One LDL^T
    per graph embeds the stack, a lifted graph with a' and b' last (`_gram_defects`, which checks the lift)."""
    if not len(adj):
        return []
    n = adj.shape[-1]
    pendants = pendant_stack(adj)
    at = np.flatnonzero(pendants[:, 0] >= 0)
    lifted = np.zeros(len(adj), dtype=bool)
    if len(at):
        blocks = (1 << n) - 1 - (1 << pendants[at, 2]) - (1 << pendants[at, 3])
        lifted[at] = _blocks_qe(_pack(adj) if packed is None else packed, dist, at, blocks)
    defects = _gram_defects(dist, np.where(lifted[:, None], pendants, -1))
    return [Step5(*outcome) for outcome in zip(lifted.tolist(), defects.tolist())]


VERDICTS = tuple(Verdict)  # a stack's verdicts index it: QE 0, primary 1, non-primary 2
_STEP_NAMES = tuple(f"step{k}" for k in range(7))  # a sieve step's name by its number, 1-6
_PASSED = ("not a nontrivial product of QE graphs", "no isometric non-QE proper subgraph",
           "no closed-form family match", "not a join of two regular graphs",
           "no pendant edge, no embedding")  # the trace of the steps before the deciding one


class Sieve(NamedTuple):
    """Each graph's deciding step (1-6) and verdict (into VERDICTS), and by graph
    what decided it past a star split or witness: cartesian factor orders,
    family spec and value, join part orders and value, step-5 outcome or QEC."""

    step: np.ndarray
    verdict: np.ndarray
    detail: dict[int, object]


def _cert_hits(index: dict[CanonicalCert, object], certs: np.ndarray, todo: np.ndarray) -> dict:
    """Graph -> entry of `index` (certificates ascending) at its certificate
    bits, over the graphs `todo`: one search, with 2^62 above every mask."""
    if not index or not len(todo):
        return {}
    bits = np.array([cert.bits for cert in index] + [1 << 62])
    at = np.searchsorted(bits, certs[todo])
    hit = bits[at] == certs[todo]
    entries = list(index.values())
    return {i: entries[k] for i, k in zip(todo[hit].tolist(), at[hit].tolist())}


def _run_sieve(adj: np.ndarray, dist: np.ndarray, packed: np.ndarray, certs: np.ndarray,
               witnesses: Sequence[Witness], splits: Sequence[Split]) -> Sieve:
    """The sieve over a stack (adjacency, distances, `_pack`) of one order, given
    the graphs' certificate bits, witnesses and star splits, and no exact verdict
    or QEC: steps 1-4 decide the stack at once (star split, QE cartesian product,
    witness, family, regular join); one `_step5_stack` embeds the rest, and step 6
    solves the values of what is left.  Steps 3, 4 and 6 share one margin rule:
    non-QE (primary) iff the value is above BOUNDARY_TOL, else QE."""
    n = adj.shape[-1]
    step = np.where([split is None for split in splits], 0, 1)
    verdict = np.zeros(len(step), dtype=np.int64)
    detail: dict[int, object] = _cert_hits(_qe_cartesian_products(n), certs, np.flatnonzero(step == 0))
    step[list(detail)] = 1
    witnessed = (step == 0) & [witness is not None for witness in witnesses]
    step[witnessed], verdict[witnessed] = 2, 2
    if step.all():  # a stack decided by its splits and witnesses
        return Sieve(step, verdict, detail)
    for i, (spec, value) in _cert_hits(_family_index(n), certs, np.flatnonzero(step == 0)).items():
        step[i], verdict[i], detail[i] = 3, value > BOUNDARY_TOL, (spec, value)
    todo = np.flatnonzero(step == 0)
    for i, join in zip(todo.tolist(), _join_stack(adj[todo])):
        if join is not None:
            step[i], verdict[i], detail[i] = 4, join[2] > BOUNDARY_TOL, join
    todo = np.flatnonzero(step == 0)
    for i, outcome in zip(todo.tolist(), _step5_stack(adj[todo], dist[todo], packed[:, todo])):
        if outcome.lifted or outcome.defect <= DEFECT_TOL:
            step[i], detail[i] = 5, outcome
    todo = np.flatnonzero(step == 0)  # step 2 has ruled out a witness, so non-QE here is primary
    values = kernels.eigvalsh(_projected(dist[todo]))[:, 0]
    step[todo], verdict[todo] = 6, values > BOUNDARY_TOL
    detail.update(zip(todo.tolist(), values.tolist()))
    return Sieve(step, verdict, detail)


# ---------------------------------------------------------------------------
# classification


def _classify_stack(adj: np.ndarray, dist: np.ndarray, packed: np.ndarray, exact: np.ndarray, values: np.ndarray,
                    bits: np.ndarray) -> tuple[np.ndarray, list[Witness], list, Sieve | None, list[Split] | None]:
    """Everything after the exact test for a stack of one order (adjacency, distances,
    `_pack`), given its exact verdicts, QEC values and certificate bits: one witness
    search over the whole stack and, up to ENUM_MAX_ORDER vertices, one star split
    and sieve, none of which reads the verdicts or values; then the sieve and the
    sign of QEC checked against the exact verdicts (AssertionError at the first
    graph that breaks either).  Returns the verdicts (into VERDICTS), witnesses
    and step names (None past ENUM_MAX_ORDER), the sieve and splits."""
    n = adj.shape[-1]
    witnesses = _witness_stack(adj, dist, packed)
    verdict = np.where(exact, 0, np.where([w is not None for w in witnesses], 2, 1))
    sieve = splits = None
    if n <= ENUM_MAX_ORDER:
        splits = _split_stack(adj, dist, packed)
        sieve = _run_sieve(adj, dist, packed, bits, witnesses, splits)
    if sieve is not None and (sieve.verdict != verdict).any():
        i = int((sieve.verdict != verdict).argmax())
        raise AssertionError(f"sieve verdict {VERDICTS[sieve.verdict[i]].value} disagrees with "
                             f"exact verdict {VERDICTS[verdict[i]].value} of {CanonicalCert(n, int(bits[i]))}")
    if ((values > 0) != (verdict != 0)).any():
        i = int(((values > 0) != (verdict != 0)).argmax())
        raise AssertionError(f"QEC {values.tolist()[i]!r} contradicts exact verdict "
                             f"{VERDICTS[verdict[i]].value} of {CanonicalCert(n, int(bits[i]))}")
    steps = [None] * len(adj) if sieve is None else list(map(_STEP_NAMES.__getitem__, sieve.step.tolist()))
    return verdict, witnesses, steps, sieve, splits


def _records(graphs: Sequence[Graph], certs: Sequence[CanonicalCert], values: Sequence[float], verdicts: Sequence[int],
             witnesses: Sequence[Witness], steps: Sequence[str | None]) -> list[ClassificationRecord]:
    """Records of a stack from its checked columns (`_classify_stack`)."""
    return list(map(ClassificationRecord._make, zip(
        graphs, certs, values, map(VERDICTS.__getitem__, verdicts), witnesses, steps)))


def _classify_one(g: Graph) -> tuple[list[ClassificationRecord], Sieve | None, list[Split] | None]:
    """`_classify_stack` of g alone, a connected graph on two or more vertices,
    its exact verdict and value decided per matrix (`is_cnd_exact`,
    `qec_value`); the BFS raises DisconnectedError before anything else runs."""
    adj, dist = g.adj[None], distance_matrix(g)[None]
    cert, exact, value = canonical_cert(g), is_cnd_exact(g), qec_value(g)
    verdicts, witnesses, steps, sieve, splits = _classify_stack(adj, dist, _pack(adj), np.array([exact]),
                                                                np.array([value]), np.array([cert.bits]))
    return _records([g], [cert], [value], verdicts.tolist(), witnesses, steps), sieve, splits


def sieve_trace(g: Graph) -> list[tuple[str, str]]:
    """Replay the decision pipeline; the last entry is the deciding rule,
    written from what decided it, after the steps it passed."""
    if not 2 <= g.n <= ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"sieve supports 2..{ENUM_MAX_ORDER} vertices, got {g.n}")
    (record,), sieve, (split,) = _classify_one(g)
    step, info, verdict = int(sieve.step[0]), sieve.detail.get(0), VERDICTS[sieve.verdict[0]].value
    if split is not None:
        text = f"star product of QE factors ({split[1]}+{split[2]} glued at {split[0]}) -> QE"
    elif step == 1:
        text = f"cartesian product of QE factors ({info[0]}x{info[1]}) -> QE"
    elif step == 2:
        text = f"isometric non-QE subgraph on {set(record.witness)} -> non-QE, non-primary"
    elif step == 3:
        text = f"matches family {info[0]}, closed form {info[1]:.12g} -> {verdict}"
    elif step == 4:
        text = f"join of regular parts ({info[0]}+{info[1]}), formula {info[2]:.12g} -> {verdict}"
    elif step == 5 and info.lifted:
        text = "pendant edge: lifted embedding verified, QEC = 0 -> QE"
    elif step == 5:
        text = f"explicit embedding constructed (defect {info.defect:.3g}) -> QE"
    else:
        text = f"direct computation: QEC = {info:.12g} -> {verdict}"
    return [(f"step{k}", passed) for k, passed in enumerate(_PASSED[:step - 1], 1)] + [(f"step{step}", text)]


def classify(g: Graph) -> ClassificationRecord:
    """Exact verdict, witness, numeric QEC and, up to ENUM_MAX_ORDER vertices,
    sieve step of one connected graph (`_classify_stack` of g alone)."""
    if g.n < 2:
        raise OrderOneError("classification needs at least two vertices")
    return _classify_one(g)[0][0]


def _sweep(n: int) -> tuple[tuple, Summary]:
    """The checked columns of the classes on n vertices (masks, QEC values,
    verdicts into VERDICTS, witnesses, steps) and their summary, from no graph:
    `prime_stack` of the `_class_stack` distances, then `_classify_stack`."""
    if not 2 <= n <= ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"classification sweep supports 2..{ENUM_MAX_ORDER}, got {n}")
    masks, (adj, packed, dist) = _class_masks(n), _class_stack(n)
    exact, values = prime_stack(dist)
    verdicts, witnesses, steps, _, _ = _classify_stack(adj, dist, packed, exact, values, masks)
    qe, primary, non_primary = np.bincount(verdicts, minlength=len(VERDICTS)).tolist()
    return (masks, values.tolist(), verdicts.tolist(), witnesses, steps), Summary(qe, non_primary, primary)


def classify_all(n: int, *, workers: int = 1) -> tuple[list[ClassificationRecord], Summary]:
    """Classify every connected graph on n vertices; records in certificate
    order, built from the checked columns of `_sweep` over the class stack,
    on fresh graphs that are views of its adjacency.  `workers` must be 1:
    the sweep runs in this process."""
    if workers != 1:
        raise BadParamsError(f"classify_all runs on one worker, got workers={workers!r}")
    if not 2 <= n <= ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"classification sweep supports 2..{ENUM_MAX_ORDER}, got {n}")
    graphs = _class_graphs(n)
    (_, *columns), summary = _sweep(n)
    return _records(graphs, _class_certs(n), *columns), summary
