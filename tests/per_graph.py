"""Per-graph witness search and star split: the reference for the stacked
kernels of `qec.classify`.

Each function walks one graph's vertex subsets in Python, the order the
kernels must reproduce: witnesses by size, then in `combinations` order;
splits by cut vertex, then by the least vertex of the component.  Blocks
below seven vertices read the library's verdict tables (checked against a
numpy oracle in `test_classify.py`); larger ones are eliminated alone.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from qec.bits import pair_list
from qec.classify import ENUM_MAX_ORDER, _non_qe_table, _run_sieve
from qec.engine import _psd_rank, is_cnd_exact
from qec.graphs import Graph, component_masks, distance_matrix, set_bits


def qe_slice(d: np.ndarray, rows: Sequence[int], vertices: Sequence[int]) -> bool:
    """Exact QE test of the isometric induced subgraph on the sorted
    `vertices`, whose distance matrix is the slice d[S, S] of the ambient one:
    below ENUM_MAX_ORDER vertices, a `_non_qe_table` read at its labeled mask
    (graph6 pair order, from the adjacency bitsets `rows`); else on the slice."""
    k = len(vertices)
    if k >= ENUM_MAX_ORDER:
        return _psd_rank(d[np.ix_(vertices, vertices)])[0]
    mask = 0
    for t, (i, j) in enumerate(pair_list(k)):
        mask |= (rows[vertices[j]] >> vertices[i] & 1) << t
    return not _non_qe_table(k)[mask]


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
    rows = g.neighbor_masks()
    isometric = isometry_rule(g)
    for size in range(5, g.n):
        for s in combinations(range(g.n), size):
            if isometric(sum(1 << v for v in s)) and not qe_slice(d, rows, s):
                return s
    return None


def star_qe_split(g: Graph) -> tuple[int, int, int] | None:
    """Cut vertex splitting g into two QE parts; returns (v, n1, n2)."""
    d = distance_matrix(g)
    rows = g.neighbor_masks()
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


def sieve_trace(g: Graph) -> list[tuple[str, str]]:
    """The sieve's steps, with the witness and split found per graph."""
    exact = is_cnd_exact(g)
    witness = None if exact else non_qe_witness(g)
    return _run_sieve(g, exact, witness, star_qe_split(g))[0]
