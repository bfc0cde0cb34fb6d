"""Graph constructions, bitset connectivity and an isomorphism test used
only by the tests.

The library builds graphs from masks, edge lists and families; the tests
also relabel graphs, take disjoint unions and Cartesian products by
their definitions, add apex vertices, test
connectivity on adjacency bitsets (the library leaves that to its BFS) and
compare graphs up to isomorphism, with these helpers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from qec.canon import canonical_cert
from qec.errors import BadParamsError, EmptySetError, OrderTooLargeError, OutOfRangeError
from qec.graphs import MAX_ORDER, Graph, from_edges


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Rename vertex i to perm[i]."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise BadParamsError("not a permutation of 0..n-1")
    inv = np.empty(g.n, dtype=np.int64)
    inv[p] = np.arange(g.n)
    return Graph(g.adj[np.ix_(inv, inv)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    if g1.n + g2.n > MAX_ORDER:
        raise OrderTooLargeError(f"union has {g1.n + g2.n} vertices (max {MAX_ORDER})")
    edges = g1.edges() + [(g1.n + u, g1.n + v) for u, v in g2.edges()]
    return from_edges(g1.n + g2.n, edges)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """The Cartesian product by its definition, vertex (x, y) labelled
    x n2 + y: (x1, y1) ~ (x2, y2) when x1 = x2 and y1 ~ y2, or x1 ~ x2 and
    y1 = y2; the reference for `compose("cartesian", ...)`."""
    n1, n2 = g1.n, g2.n
    adj = np.zeros((n1 * n2, n1 * n2), dtype=bool)
    for x1 in range(n1):
        for y1 in range(n2):
            for x2 in range(n1):
                for y2 in range(n2):
                    if (x1 == x2 and g2.adj[y1, y2]) or (g1.adj[x1, x2] and y1 == y2):
                        adj[x1 * n2 + y1, x2 * n2 + y2] = True
    return Graph(adj)


def add_apex(g: Graph, attach: Iterable[int]) -> Graph:
    """New vertex n adjacent to exactly the given vertex set."""
    S = sorted(set(attach))
    if not S:
        raise EmptySetError("apex must attach to a non-empty vertex set")
    if S[0] < 0 or S[-1] >= g.n:
        raise OutOfRangeError(f"attach set {S} outside 0..{g.n - 1}")
    if g.n + 1 > MAX_ORDER:
        raise OrderTooLargeError(f"apex graph has {g.n + 1} vertices (max {MAX_ORDER})")
    return from_edges(g.n + 1, g.edges() + [(v, g.n) for v in S])


def neighbor_masks(g: Graph) -> tuple[int, ...]:
    """Adjacency rows packed as integer bitsets."""
    return tuple((g.adj @ (1 << np.arange(g.n))).tolist())


def reach(rows: Sequence[int], start: int) -> int:
    """Vertices reachable from the bitset `start` along adjacency bitsets `rows`."""
    prev = 0
    while start != prev:
        prev = start
        for i, row in enumerate(rows):
            if (start >> i) & 1:
                start |= row
    return start


def is_connected(g: Graph) -> bool:
    return reach(neighbor_masks(g), 1) == (1 << g.n) - 1


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_cert(g1) == canonical_cert(g2)
