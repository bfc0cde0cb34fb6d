"""Canonical certificates of isomorphism classes.

A certificate is the least packed adjacency mask over all vertex relabelings,
so two graphs have equal certificates exactly when they are isomorphic.  One
stacked kernel, `least_masks`, makes every certificate.  It minimises a stack
of graphs whose vertices sit in consecutive cells over the relabelings that
keep each cell in place; a graph alone is one cell.  Mask bit t is pair t in
graph6 order, so the top bits are the last vertex's column, least for a last
vertex u of the last cell with the least sum_j (2^c_j - 1) << start_j, for c_j
neighbours in cell j, put first.  Below it lies the least mask of G - u with
each cell split, u's neighbours first: the least-degree cut (vertex
individualization; McKay & Piperno, J. Symb. Comput. 60, 2014).  Of tied twins
only the first is cut, since swapping twins keeps the graph and its cells.  The
graphs with equal least columns recurse as one stack, until the cells allow at
most 720 relabelings, whose cached power table (`perm_powers`) then gives the
least masks in one product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .bits import n_bits, pair_index_matrix, pair_rows_cols
from .graphs import Graph

TABLE_MAX = 720  # relabelings in one power table: 6!, at most 36 bits x 720 float64 = 207 KB


@dataclass(frozen=True, order=True)
class CanonicalCert:
    """Isomorphism-class certificate: order plus minimal packed adjacency mask."""

    n: int
    bits: int

    def __str__(self) -> str:
        width = max(1, (n_bits(self.n) + 3) // 4)
        return f"{self.n}:{self.bits:0{width}x}"


def _tgt_from_perms(perms: np.ndarray, n: int) -> np.ndarray:
    """Bit-target table: row s, column p is the bit pair s moves to when vertex
    i of the relabeled graph is vertex perms[p, i] of the original."""
    inv = np.argsort(perms, axis=1).astype(np.int8)
    pim = pair_index_matrix(n)
    ii, jj = pair_rows_cols(n)
    return np.ascontiguousarray(pim[inv[:, ii], inv[:, jj]].T, dtype=np.int8)


@lru_cache(maxsize=None)
def perm_powers(sizes: tuple[int, ...]) -> np.ndarray:
    """Read-only float64 power table, 2.0 ** the bit-target table of the
    relabelings that keep each of the consecutive cells of `sizes` vertices in
    place: all k! relabelings of one cell of k (86 KB at k = 6)."""
    cells = [range(end - size, end) for end, size in zip(itertools.accumulate(sizes), sizes)]
    perms = [sum(parts, ()) for parts in itertools.product(*map(itertools.permutations, cells))]
    powers = np.ldexp(1.0, _tgt_from_perms(np.array(perms, dtype=np.int8), sum(sizes)))
    powers.setflags(write=False)
    return powers


def _cut(adj: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Least masks of an (N, n, n) adjacency stack over the relabelings that
    keep its consecutive cells of `sizes` vertices in place."""
    n = adj.shape[-1]
    if math.prod(map(math.factorial, sizes)) <= TABLE_MAX:
        ii, jj = pair_rows_cols(n)
        return kernels.relabeled_masks(adj[:, ii, jj], perm_powers(sizes)).min(axis=1).astype(np.int64)
    starts = np.cumsum((0,) + sizes[:-1])
    last = int(starts[-1])
    counts = np.add.reduceat(adj[:, last:], starts, axis=2, dtype=np.int64)  # (N, last cell, cells)
    cols = ((1 << counts) - 1 << starts).sum(axis=2)
    least = cols.min(axis=1)
    tied = cols == least[:, None]
    rows = adj[:, last:] @ (1 << np.arange(n))
    own, ahead = 1 << np.arange(last, n), np.arange(n - last)
    twins = (rows[:, :, None] ^ rows[:, None, :]) & ~(own[:, None] | own) == 0
    g, i = np.nonzero(tied & ~(tied[:, :, None] & twins & (ahead[:, None] < ahead)).any(axis=1))
    u = last + i
    # G - u, each cell split with u's neighbours first: a stable sort of the vertices by (cell, not a neighbour)
    key = 2 * np.repeat(np.arange(len(sizes)), sizes) + ~adj[g, u]
    key[np.arange(len(g)), u] = 2 * len(sizes)
    order = np.argsort(key, axis=1, kind="stable")[:, :-1]
    sub = adj[g[:, None, None], order[:, :, None], order[:, None, :]]
    below = np.empty(len(g), dtype=np.int64)
    for column in set(least.tolist()):
        at = least[g] == column
        near = counts[g[at][0], i[at][0]].tolist()
        rest = [size - c for size, c in zip(sizes, near)]
        rest[-1] -= 1  # u itself
        below[at] = _cut(sub[at], tuple(s for pair in zip(near, rest) for s in pair if s))
    # g ascends and every graph keeps a candidate, so each graph's candidates start at its searchsorted index
    return least << n_bits(n - 1) | np.minimum.reduceat(below, np.searchsorted(g, np.arange(len(adj))))


def least_masks(adj: np.ndarray) -> np.ndarray:
    """Certificate bits, int64, of each graph of a nonempty (N, n, n) boolean
    adjacency stack, cut 512 graphs at a time to bound the temporaries."""
    return np.concatenate([_cut(adj[lo:lo + 512], (adj.shape[-1],)) for lo in range(0, len(adj), 512)])


def canonical_cert(g: Graph) -> CanonicalCert:
    if g._cert is None:
        g._cert = CanonicalCert(g.n, int(least_masks(g.adj[None])[0]))
    return g._cert
