"""Per-graph witness search, star split, pendant search and sieve: the
reference for the stacked kernels of `qec.classify`, `qec.graphs` and
`qec.embedding`.

Each search walks one graph's vertex subsets in Python, the order the
kernels must reproduce: witnesses by size, then in `combinations` order;
splits by cut vertex, then by the least vertex of the component.  Blocks
below seven vertices read the library's `_distance_table` (checked against a
numpy oracle in `test_classify.py`); larger ones are eliminated alone, by
`psd_rank`, a general-pivot elimination that shares no code with the
library's in-order rule and is the reference for it.
`blocks_qe` decides a stack's blocks by gathering each block's pairs from
the adjacency and packing them with one integer product, the reference for
the table reads of `qec.classify._blocks_qe`.
Step 4 splits one graph at a time: the complement's components on bitsets,
each side's regularity by popcounts, and the parts built as induced
subgraphs whose eigenvalues `qec_join_regular` solves one at a time
(`adjacency_min_eigenvalue`).
Step 5 embeds one graph at a time by an in-order LDL^T of its base-point
Gram matrix in Python floats, entry by entry, in the stacked kernel's order
of operations (`ldl_points`); a pendant remainder is built as an induced
subgraph with its own BFS and exact test, and the lift is that
factorization with a' and b' last.  A graph is embedded when its exact
verdict says QE.  The sieve decides one graph at a time by
certificate-dict lookups and writes every step's text as it goes.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from constructions import neighbor_masks, reach
from qec.bits import n_bits, pair_list
from qec.canon import canonical_cert
from qec.classify import (
    BOUNDARY_TOL,
    ENUM_MAX_ORDER,
    Step5,
    Verdict,
    _distance_table,
    _family_index,
    _qe_cartesian_products,
    _sign_verdict,
    _subset_pairs,
)
from qec.embedding import DEFECT_TOL, RANK_CUTOFF, Embedding
from qec.engine import _psd_zero_stack, is_cnd_exact, qec_value
from qec.errors import NotQEError, NotRegularError
from qec.formulas import formula_value, qec_formula_exact, regular_join_value
from qec.graphs import FamilySpec, Graph, distance_matrix, induced_subgraph
from qec.kernels import jacobi_eigh


def psd_rank(d: np.ndarray) -> tuple[bool, int]:
    """(psd, rank) of M = -E^T D E, E the difference basis e_i - e_{i+1} of
    1-perp, by fraction-free (Bareiss, Math. Comp. 22, 1968) elimination on
    Python ints: the general-pivot reference for `qec.engine._psd_zero`.

    Pivots are positive diagonal entries while they last: M is PSD iff no
    negative diagonal appears and, once none is positive, the active block
    is zero.  Otherwise any nonzero pivot goes on, to count the rank.  Every
    entry stays a minor of M, so each division by the previous pivot is exact.
    """
    m = (-np.diff(np.diff(d, axis=0), axis=1)).tolist()  # M_ij = -(E^T D E)_ij
    rows, cols = list(range(len(m))), list(range(len(m)))
    psd, rank, prev = True, 0, 1
    while rows:
        pivot = None
        if psd:  # rows == cols so far
            if any(m[i][i] < 0 for i in rows):
                psd = False
            else:
                pivot = next(((i, i) for i in rows if m[i][i] > 0), None)
        if pivot is None:
            pivot = next(((i, j) for i in rows for j in cols if m[i][j]), None)
            if pivot is None:
                break
            psd = False
        r, c = pivot
        rows.remove(r)
        cols.remove(c)
        p = m[r][c]
        for i in rows:
            for j in cols:
                m[i][j] = (p * m[i][j] - m[i][c] * m[r][j]) // prev
        prev = p
        rank += 1
    return psd, rank


def set_bits(mask: int) -> list[int]:
    """Vertices of the bitset `mask`, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def component_masks(rows: Sequence[int], todo: int) -> list[int]:
    """Components of the vertex bitset `todo` as bitsets, by least vertex;
    `rows` are adjacency bitsets with no edge leaving `todo`."""
    comps = []
    while todo:
        comps.append(reach(rows, todo & -todo))
        todo &= ~comps[-1]
    return comps


def qe_slice(d: np.ndarray, rows: Sequence[int], vertices: Sequence[int]) -> bool:
    """Exact QE test of the isometric induced subgraph on the sorted
    `vertices`, whose distance matrix is the slice d[S, S] of the ambient one:
    below ENUM_MAX_ORDER vertices, a `_distance_table` read at its labeled mask
    (graph6 pair order, from the adjacency bitsets `rows`); else on the slice."""
    k = len(vertices)
    if k >= ENUM_MAX_ORDER:
        return psd_rank(d[np.ix_(vertices, vertices)])[0]
    mask = 0
    for t, (i, j) in enumerate(pair_list(k)):
        mask |= (rows[vertices[j]] >> vertices[i] & 1) << t
    return _distance_table(k)[mask] < 0


def blocks_qe(adj: np.ndarray, dist: np.ndarray, which: np.ndarray,
              blocks: np.ndarray) -> np.ndarray:
    """Exact QE verdicts of the isometric blocks `blocks` (vertex bitsets) of
    the graphs `which` of a stack (adjacency, distances): each block's order
    by shifting its bitset, its labeled mask by one gather of its pairs
    (`_subset_pairs`) and one product with the bit weights; below
    ENUM_MAX_ORDER a `_distance_table` read, from there on one elimination per
    size over the slices d[S, S]."""
    n = adj.shape[-1]
    sizes = (blocks[:, None] >> np.arange(n) & 1).sum(axis=1)
    pos = _subset_pairs(n)[blocks, :n_bits(min(n - 1, ENUM_MAX_ORDER - 1))]
    masks = adj.reshape(len(adj), -1)[which[:, None], pos] @ (1 << np.arange(pos.shape[1]))
    qe = np.ones(len(blocks), dtype=bool)
    for k in set(sizes.tolist()) & set(range(5, n)):
        at = np.flatnonzero(sizes == k)
        if k < ENUM_MAX_ORDER:
            qe[at] = _distance_table(k)[masks[at]] < 0
        else:
            verts = np.nonzero(blocks[at, None] >> np.arange(n) & 1)[1].reshape(-1, k)
            d = dist[which[at, None, None], verts[:, :, None], verts[:, None, :]]
            qe[at] = _psd_zero_stack(d)[0]
    return qe


def isometry_rule(g: Graph) -> Callable[[int], bool]:
    """Predicate on vertex bitsets S: does S induce an isometric subgraph?
    (Every pair at distance k >= 2 has a neighbour of one end, inside S, at
    distance k - 1 from the other.)"""
    d = distance_matrix(g)
    closer = g.adj[:, None, :] & (d.T[None, :, :] == d[:, :, None] - 1)
    toward = (closer @ (1 << np.arange(g.n))).tolist()
    far = [((1 << u) | (1 << v), toward[u][v])
           for u, v in combinations(range(g.n), 2) if d[u, v] >= 2]
    return lambda bits: all(w & bits for pair, w in far if pair & bits == pair)


def non_qe_witness(g: Graph) -> tuple[int, ...] | None:
    """Least vertex set inducing a connected, isometric, non-QE proper subgraph."""
    d = distance_matrix(g)
    rows = neighbor_masks(g)
    isometric = isometry_rule(g)
    for size in range(5, g.n):
        for s in combinations(range(g.n), size):
            if isometric(sum(1 << v for v in s)) and not qe_slice(d, rows, s):
                return s
    return None


def star_qe_split(g: Graph) -> tuple[int, int, int] | None:
    """Cut vertex splitting g into two QE parts; returns (v, n1, n2)."""
    d = distance_matrix(g)
    rows = neighbor_masks(g)
    every = (1 << g.n) - 1
    for v in range(g.n):
        cut = 1 << v
        comps = component_masks([row & ~cut for row in rows], every & ~cut)
        if len(comps) < 2:
            continue
        for comp in comps:
            side, other = set_bits(comp | cut), set_bits(every & ~comp)
            if qe_slice(d, rows, side) and qe_slice(d, rows, other):
                return (v, len(side), len(other))
    return None


def find_pendant_edge(g: Graph) -> tuple[int, int, int, int] | None:
    """Least witness (a, b, a', b') with a~a'~b'~b~a and deg(a') = deg(b') = 2,
    by walks over the adjacency bitsets."""
    rows = neighbor_masks(g)
    deg2 = sum(1 << v for v, row in enumerate(rows) if row.bit_count() == 2)
    for a, row in enumerate(rows):
        for b in set_bits(row) if row & deg2 else ():
            for ap in set_bits(row & deg2 & ~(1 << b)):
                far = rows[ap] & rows[b] & deg2 & ~(1 << a)  # a' has one other neighbour
                if far:
                    return (a, b, ap, far.bit_length() - 1)
    return None


def gram_embedding(d: np.ndarray) -> tuple[np.ndarray, Embedding]:
    """Eigenvalues (descending) of the centered Gram matrix -1/2 C D C of one
    distance matrix, and the embedding its eigenpairs above the rank cutoff
    give, each column signed so its largest entry in magnitude is positive."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    c = np.eye(n) - np.full((n, n), 1.0 / n)
    gram = -0.5 * (c @ d @ c)
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.T))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > RANK_CUTOFF * max(float(vals[0]), 0.0)
    coords = vecs[:, keep] * np.sqrt(vals[keep])
    for col in range(coords.shape[1]):
        pivot = int(np.argmax(np.abs(coords[:, col])))
        if coords[pivot, col] < 0:
            coords[:, col] = -coords[:, col]
    return vals, Embedding(dim=int(np.count_nonzero(keep)), coords=coords)


def ldl_points(d: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Points (n, n - 1) and pivots of one distance matrix from an in-order
    LDL^T of its base-point Gram matrix G0_ij = (d_0i + d_0j - d_ij) / 2,
    i, j >= 1: vertex 0 at the origin, vertex i at row i - 1 of L sqrt(P).
    A pivot p above RANK_CUTOFF gives the column c = A[k:, k] / sqrt(p) and
    A[i][j] -= c_i c_j over i, j > k; any other pivot a zero column."""
    d = np.asarray(d, dtype=float).tolist()
    n = len(d)
    a = [[0.5 * (d[0][j] + d[i][0] - d[i][j]) for j in range(1, n)] for i in range(1, n)]
    points = [[0.0] * (n - 1) for _ in range(n)]
    pivots = []
    for k in range(n - 1):
        pivots.append(a[k][k])
        if a[k][k] <= RANK_CUTOFF:
            continue
        root = math.sqrt(a[k][k])
        col = [a[i][k] / root for i in range(k, n - 1)]
        for i in range(k, n - 1):
            points[i + 1][k] = col[i - k]
        for i in range(k + 1, n - 1):
            for j in range(k + 1, n - 1):
                a[i][j] -= col[i - k] * col[j - k]
    return np.array(points).reshape(n, n - 1), pivots


def ldl_defect(d: np.ndarray) -> float:
    """Defect of the LDL^T embedding of one distance matrix."""
    return verify_embedding(Embedding(dim=len(d) - 1, coords=ldl_points(d)[0]), d)


def embed(g: Graph) -> Embedding:
    """Quadratic embedding of a QE graph; raises NotQEError otherwise."""
    if g.n == 1:
        return Embedding(dim=0, coords=np.zeros((1, 0)))
    if not is_cnd_exact(g):
        raise NotQEError("graph admits no quadratic embedding")
    vals, e = gram_embedding(distance_matrix(g))
    scale = max(float(vals[0]), 1.0)
    if float(vals[-1]) < -1e-6 * scale:
        raise ArithmeticError(f"Gram matrix of a QE graph has eigenvalue {vals[-1]}")
    return e


def verify_embedding(e: Embedding, d: np.ndarray) -> float:
    """Largest |squared point distance - graph distance| over all pairs."""
    d = np.asarray(d, dtype=float)
    sq = np.sum((e.coords[:, None, :] - e.coords[None, :, :]) ** 2, axis=2)
    return float(np.max(np.abs(sq - d)))


def lift_order(g: Graph) -> list[int] | None:
    """The vertices of g with its pendant witness's a' and b' last,
    (V - {a', b'} ascending, a', b'), when a pendant edge exists and the
    remainder, an induced subgraph, is QE; else None."""
    witness = find_pendant_edge(g)
    if witness is None:
        return None
    keep = [v for v in range(g.n) if v not in witness[2:]]
    h = induced_subgraph(g, keep)
    if h.n >= 2 and not is_cnd_exact(h):
        return None
    return keep + list(witness[2:])


def pendant_lift(g: Graph) -> float | None:
    """Defect of the lifted embedding when a pendant edge exists and the
    remainder is QE, else None: the LDL^T of g's distances in `lift_order`,
    whose leading rows embed the remainder and whose last two put a' and b'
    at height 1 above their anchors."""
    order = lift_order(g)
    if order is None:
        return None
    defect = ldl_defect(distance_matrix(g)[np.ix_(order, order)])
    if defect > 1e-8:
        raise ArithmeticError(f"pendant-edge extension failed to verify (defect {defect})")
    return defect


def step5(g: Graph, exact: bool) -> Step5:
    """Step 5 decided per graph by the exact verdict: the pendant lift, else
    the LDL^T embedding of a QE graph; a non-QE graph has none (defect inf)."""
    lift = pendant_lift(g)
    if lift is not None:
        return Step5(True, lift)
    if exact:
        return Step5(False, ldl_defect(distance_matrix(g)))
    return Step5(False, math.inf)


Head = tuple[list[tuple[str, str]], Verdict | None]  # steps 1-4 and their verdict


def _regular_on(rows: Sequence[int], side: int) -> bool:
    """Is the subgraph induced on the vertex bitset `side` regular?"""
    return len({(rows[v] & side).bit_count() for v in set_bits(side)}) == 1


def regular_join_split(g: Graph) -> tuple[Graph, Graph] | None:
    """Split g = G1 + G2 (graph join) with both parts regular, if possible.
    Each part is a union of components of the complement, found on bitsets."""
    rows = neighbor_masks(g)
    every = (1 << g.n) - 1
    comps = component_masks([every & ~row & ~(1 << v) for v, row in enumerate(rows)], every)
    for size in range(len(comps) - 1):
        for chosen in combinations(comps[1:], size):
            side = comps[0] | sum(chosen)
            if _regular_on(rows, side) and _regular_on(rows, every & ~side):
                return (induced_subgraph(g, set_bits(side)),
                        induced_subgraph(g, set_bits(every & ~side)))
    return None


def closed_form_matches(g: Graph) -> list[tuple[FamilySpec, float, str]]:
    """Closed-form families isomorphic to g, with value and exact expression,
    by one certificate lookup in the family index."""
    if g.n < 2:
        return []
    entry = _family_index(g.n).get(canonical_cert(g))
    return [] if entry is None else [(*entry, qec_formula_exact(entry[0]))]


def qec_join_regular(g1: Graph, g2: Graph) -> float:
    """QEC of the join of two regular graphs (either may be disconnected),
    each part's least adjacency eigenvalue solved alone."""
    return regular_join_value(g1.n, _regularity(g1), adjacency_min_eigenvalue(g1),
                              g2.n, _regularity(g2), adjacency_min_eigenvalue(g2))


def adjacency_min_eigenvalue(g: Graph) -> float:
    """Smallest adjacency eigenvalue (graph may be disconnected), by the
    `jacobi_eigh` call that `qec.classify._join_stack` makes per part order."""
    w = jacobi_eigh(g.adj.astype(float))[0]
    return float(w[-1])


def _regularity(g: Graph) -> int:
    deg = g.degrees()
    if len(set(int(x) for x in deg)) != 1:
        raise NotRegularError(f"degrees {sorted(deg)} are not constant")
    return int(deg[0])


def step4(g: Graph) -> tuple[int, int, float] | None:
    """Step 4 of g: the orders of its regular join parts (`regular_join_split`)
    and the join formula's value, or None."""
    join = regular_join_split(g)
    return None if join is None else (join[0].n, join[1].n, qec_join_regular(*join))


def sieve_head(g: Graph, exact: bool, witness, split) -> Head:
    """Steps 1-4 of the sieve, given g's exact verdict (read only by the
    boundary labels of steps 3 and 4), witness and star split: the steps
    taken and the verdict, None when none of them decides."""
    steps: list[tuple[str, str]] = []

    if split is not None:
        v, n1, n2 = split
        steps.append(("step1", f"star product of QE factors ({n1}+{n2} glued at {v}) -> QE"))
        return steps, Verdict.QE
    cart = _qe_cartesian_products(g.n).get(canonical_cert(g))
    if cart is not None:
        steps.append(("step1", f"cartesian product of QE factors ({cart[0]}x{cart[1]}) -> QE"))
        return steps, Verdict.QE
    steps.append(("step1", "not a nontrivial product of QE graphs"))

    if witness is not None:
        steps.append(("step2", f"isometric non-QE subgraph on {set(witness)} -> non-QE, non-primary"))
        return steps, Verdict.NON_QE_NON_PRIMARY
    steps.append(("step2", "no isometric non-QE proper subgraph"))

    entry = _family_index(g.n).get(canonical_cert(g))
    if entry is not None:
        spec, value = entry[0], formula_value(entry[0])  # the value afresh, not the index's
        verdict, label = _sign_verdict(value, exact)
        steps.append(("step3", f"matches family {spec}, closed form {value:.12g} -> {label}"))
        return steps, verdict
    steps.append(("step3", "no closed-form family match"))

    join = step4(g)
    if join is not None:
        n1, n2, value = join
        verdict, label = _sign_verdict(value, exact)
        steps.append(("step4", f"join of regular parts ({n1}+{n2}), formula {value:.12g} -> {label}"))
        return steps, verdict
    steps.append(("step4", "not a join of two regular graphs"))
    return steps, None


def sieve(g: Graph) -> tuple[list[tuple[str, str]], Verdict, str]:
    """(steps, verdict, deciding step) of g, with the witness, split and
    step 5 found per graph."""
    exact = is_cnd_exact(g)
    witness = None if exact else non_qe_witness(g)
    steps, verdict = sieve_head(g, exact, witness, star_qe_split(g))
    if verdict is not None:
        return steps, verdict, steps[-1][0]
    outcome = step5(g, exact)
    if outcome.lifted:
        steps.append(("step5", "pendant edge: lifted embedding verified, QEC = 0 -> QE"))
        return steps, Verdict.QE, "step5"
    if outcome.defect <= DEFECT_TOL:
        steps.append(("step5", f"explicit embedding constructed (defect {outcome.defect:.3g}) -> QE"))
        return steps, Verdict.QE, "step5"
    steps.append(("step5", "no pendant edge, no embedding"))
    value = qec_value(g)
    verdict = Verdict.NON_QE_PRIMARY if value > BOUNDARY_TOL else Verdict.QE
    steps.append(("step6", f"direct computation: QEC = {value:.12g} -> {verdict.value}"))
    return steps, verdict, "step6"


def sieve_trace(g: Graph) -> list[tuple[str, str]]:
    """The sieve's steps, with the witness, split and step 5 found per graph."""
    return sieve(g)[0]
