"""Canonical certificates of isomorphism classes.

A certificate is the minimum of the packed adjacency mask over all vertex
relabelings, so two graphs have equal certificates exactly when they are
isomorphic.  The search is exhaustive (at most 10! relabelings under the
order cap).  Each relabeling factors in exactly one way into a choice, in
order, of the vertices that go past position 7 (a `_tails` row) followed by
a relabeling of the first seven (a `perm_powers` column), so the products
of the tail rows' bits with the cached power table cover them all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .bits import n_bits, pair_index_matrix, pair_rows_cols
from .graphs import Graph


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
def perm_powers(n: int) -> np.ndarray:
    """Read-only float64 power table, 2.0 ** the bit-target table of the
    relabelings of vertices 0..6 that fix the rest: all n! relabelings for
    n <= 7 (847 KB at n = 7), 7! of them above (1.81 MB at n = 10)."""
    head = min(n, 7)
    perms = [p + tuple(range(head, n)) for p in itertools.permutations(range(head))]
    powers = np.ldexp(1.0, _tgt_from_perms(np.array(perms, dtype=np.int8), n))
    powers.setflags(write=False)
    return powers


@lru_cache(maxsize=None)
def _tails(n: int) -> np.ndarray:
    """Read-only (n! / 7!, n_bits(n)) int16 rows, one relabeling per ordered
    choice of the vertices put past position 7, the rest kept in order: bit t
    of the moved mask is bit row[t] of the original.  One identity row for
    n <= 7; 8, 72 and 720 rows at n = 8, 9 and 10."""
    ii, jj = pair_rows_cols(n)
    perms = np.array([[v for v in range(n) if v not in last] + list(last)
                      for last in itertools.permutations(range(n), max(0, n - 7))])
    tails = pair_index_matrix(n)[perms[:, ii], perms[:, jj]]
    tails.setflags(write=False)
    return tails


def canonical_cert(g: Graph) -> CanonicalCert:
    if g._cert is None:
        # One matrix-vector product per tail row.  Several rows at once make
        # a dgemm, which OpenBLAS threads wherever numpy was imported before
        # qec set OPENBLAS_NUM_THREADS; with the other CPU of a 2-CPU machine
        # busy, an 8-vertex certificate's 99th percentile was 4 ms that way
        # against 0.5 ms row by row.
        powers = perm_powers(g.n)
        bits = min(kernels.relabeled_masks(g.mask, row, powers).min() for row in _tails(g.n))
        g._cert = CanonicalCert(g.n, int(bits))
    return g._cert
