"""Reference computations that the benchmark checks the program against.

Nothing here calls into `qec`.  graph6 is decoded and encoded by hand,
distances come from breadth-first search, QEC values from
`numpy.linalg.eigvalsh` of the distance matrix projected onto the
hyperplane orthogonal to the all-ones vector, isomorphism classes from a
brute-force minimum over all relabelings, and class counts from the
networkx graph atlas.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

# A verdict must agree in sign with the reference QEC outside this margin:
# QE means QEC < MARGIN, non-QE means QEC >= MARGIN.
MARGIN = 1e-9
DEFECT_TOL = 1e-8
VALUE_TOL = 1e-8

# Verdict counts of the complete classification stated in the paper.
PAPER_COUNTS = {
    6: {"QE": 85, "NonQeNonPrimary": 24, "NonQePrimary": 3},
    7: {"QE": 452, "NonQeNonPrimary": 388, "NonQePrimary": 13},
}

# Every graph on at most four vertices is QE, so a witness has >= 5 vertices.
MIN_WITNESS = 5


def g6_decode(text: str) -> np.ndarray:
    n = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> (5 - b) & 1 for ch in text[1:] for b in range(6)]
    adj = np.zeros((n, n), dtype=bool)
    t = 0
    for j in range(1, n):
        for i in range(j):
            adj[i, j] = adj[j, i] = bool(bits[t])
            t += 1
    return adj


def g6_encode(adj: np.ndarray) -> str:
    n = len(adj)
    bits = [int(adj[i][j]) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = (bits[k:k + 6] for k in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + int("".join(map(str, g)), 2)) for g in groups)


def distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances; -1 marks an unreachable pair."""
    n = len(adj)
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if dist[s, v] < 0:
                        dist[s, v] = dist[s, u] + 1
                        nxt.append(v)
            frontier = nxt
    return dist


@lru_cache(maxsize=None)
def _hyperplane(n: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, :n - 1]]))
    return q[:, 1:]


def qec_value(dist: np.ndarray) -> float:
    q = _hyperplane(len(dist))
    return float(np.linalg.eigvalsh(q.T @ dist @ q)[-1])


def _is_witness(adj: np.ndarray, dist: np.ndarray, subset) -> bool:
    """Does `subset` induce a connected, isometric, non-QE subgraph?"""
    idx = np.array(sorted(subset))
    sub = distances(adj[np.ix_(idx, idx)])
    if (sub < 0).any() or not np.array_equal(sub, dist[np.ix_(idx, idx)]):
        return False
    return qec_value(sub) >= MARGIN


def witness_valid(adj: np.ndarray, dist: np.ndarray, subset) -> bool:
    return MIN_WITNESS <= len(set(subset)) < len(adj) and _is_witness(adj, dist, subset)


@lru_cache(maxsize=None)
def verdict(g6: str) -> tuple[str, float]:
    """Reference verdict and QEC of a connected graph given as graph6."""
    adj = g6_decode(g6)
    dist = distances(adj)
    value = qec_value(dist)
    if value < MARGIN:
        return "QE", value
    n = len(adj)
    for size in range(MIN_WITNESS, n):
        if any(_is_witness(adj, dist, s) for s in itertools.combinations(range(n), size)):
            return "NonQeNonPrimary", value
    return "NonQePrimary", value


def embedding_defect(coords: np.ndarray, dist: np.ndarray) -> float:
    sq = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    return float(np.abs(sq - dist).max())


def class_key(adj: np.ndarray) -> tuple[int, int]:
    """Isomorphism-class key: order and least packed upper triangle over relabelings.

    Only relabelings that list vertices in order of an invariant (degree,
    then sorted distance row) are tried; isomorphic graphs share that set up
    to the isomorphism, so the minimum is still a complete invariant.
    """
    n = len(adj)
    if n < 2:
        return n, 0
    dist = distances(adj)
    inv = [(int(adj[v].sum()), tuple(sorted(dist[v].tolist()))) for v in range(n)]
    groups = [[v for v in range(n) if inv[v] == key] for key in sorted(set(inv))]
    perms = np.array([sum(parts, ()) for parts in
                      itertools.product(*(itertools.permutations(g) for g in groups))])
    ii, jj = np.triu_indices(n, 1)
    weights = np.int64(1) << np.arange(ii.size, dtype=np.int64)
    return n, int((adj[perms[:, ii], perms[:, jj]].astype(np.int64) @ weights).min())


@lru_cache(maxsize=None)
def atlas_classes() -> dict[tuple[int, int], tuple[str, str]]:
    """Class key -> (atlas id "A<index>", graph6) of every connected graph on 1..7 vertices."""
    import networkx as nx

    out = {}
    for index, g in enumerate(nx.graph_atlas_g()):
        n = g.number_of_nodes()
        if n and nx.is_connected(g):
            adj = nx.to_numpy_array(g, nodelist=range(n), dtype=bool)
            out[class_key(adj)] = (f"A{index}", g6_encode(adj))
    return out


def atlas_count(n: int) -> int:
    return sum(1 for key in atlas_classes() if key[0] == n)


def random_relabel(adj: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(len(adj))
    return adj[np.ix_(perm, perm)]
