"""Canonical certificates and isomorphism testing.

A certificate is the minimum of the packed adjacency mask over all vertex
relabelings, so two graphs have equal certificates exactly when they are
isomorphic.  The search is exhaustive (at most 10! relabelings under the
order cap) and runs through the mask kernels; for n <= 8 the permutation
tables are cached, larger orders stream them in chunks.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .bits import n_bits, pair_index_matrix, pair_rows_cols
from .graphs import Graph

_TABLE_MAX_ORDER = 8
_CHUNK = 200_000


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
def perm_table(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    return _tgt_from_perms(perms, n)


def _tables(n: int) -> Iterator[np.ndarray]:
    """Bit-target tables that together hold every relabeling of n vertices."""
    if n <= _TABLE_MAX_ORDER:
        yield perm_table(n)
        return
    perms = itertools.permutations(range(n))
    while block := list(itertools.islice(perms, _CHUNK)):
        yield _tgt_from_perms(np.array(block, dtype=np.int8), n)


def canonical_cert(g: Graph) -> CanonicalCert:
    if g._cert is None:
        bits = min(kernels.min_permuted_mask(g.mask, t) for t in _tables(g.n))
        g._cert = CanonicalCert(g.n, bits)
    return g._cert


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_cert(g1) == canonical_cert(g2)
