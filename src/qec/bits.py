"""Upper-triangle bit packing shared by graphs, kernels, certificates and graph6.

Pair order is column-major, (0,1),(0,2),(1,2),(0,3),... — the order graph6
uses — so a packed mask doubles as the payload of the graph6 codec.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def n_bits(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (i, j), i < j, in column-major order."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


@lru_cache(maxsize=None)
def pair_rows_cols(n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = pair_list(n)
    ii = np.array([p[0] for p in pairs], dtype=np.int64)
    jj = np.array([p[1] for p in pairs], dtype=np.int64)
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj


@lru_cache(maxsize=None)
def pair_index_matrix(n: int) -> np.ndarray:
    """Symmetric (n, n) lookup from a vertex pair to its bit position (-1 on the diagonal)."""
    m = np.full((n, n), -1, dtype=np.int16)
    for t, (i, j) in enumerate(pair_list(n)):
        m[i, j] = t
        m[j, i] = t
    m.setflags(write=False)
    return m


def pack_mask(adj: np.ndarray) -> int:
    n = adj.shape[0]
    mask = 0
    for t, (i, j) in enumerate(pair_list(n)):
        if adj[i, j]:
            mask |= 1 << t
    return mask


@lru_cache(maxsize=None)
def _unpack_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (n, n) positions of each pair on both triangles, and the mask bit
    each reads."""
    ii, jj = pair_rows_cols(n)
    flat = np.concatenate([ii * n + jj, jj * n + ii])
    shifts = np.tile(np.arange(n_bits(n)), 2)
    flat.setflags(write=False)
    shifts.setflags(write=False)
    return flat, shifts


def unpack_stack(n: int, masks) -> np.ndarray:
    """(N, n, n) boolean adjacency of N packed masks: one broadcast shift of
    the masks, scattered onto the pairs of both triangles."""
    flat, shifts = _unpack_index(n)
    masks = np.asarray(masks, dtype=np.int64)
    adj = np.zeros((len(masks), n * n), dtype=bool)
    adj[:, flat] = masks[:, None] >> shifts & 1
    return adj.reshape(len(masks), n, n)

