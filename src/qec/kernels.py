"""Hot numeric kernels, in numpy.  ``active_backend`` names the
implementation for run reports; it is always "numpy".

- ``connected_masks``: every connected labeled graph on n vertices, as a
  packed upper-triangle edge mask; unused, kept for the benchmark's tracer;
- ``orbit_min_mark`` and ``min_permuted_mask``: relabeled masks, by one
  product with a float64 power table for orbit collapse, and bit by bit over
  an int8 bit-target table for certificates;
- ``jacobi_eigh`` and ``eigvalsh``: LAPACK's symmetric eigensolver with and
  without eigenvectors, eigenvalues descending, on one matrix or a stack.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import n_bits, pair_rows_cols


def active_backend() -> str:
    """Name of the kernel implementation."""
    return "numpy"


# ---------------------------------------------------------------------------
# connected-mask scan: all edge masks whose labeled graph is connected


def connected_masks(n: int) -> np.ndarray:
    """Ascending masks of all connected labeled graphs on n vertices."""
    if not 1 <= n <= 7:
        raise ValueError(f"mask scan is exponential in n*(n-1)/2; n={n} not in 1..7")
    nbits = n_bits(n)
    ii, jj = pair_rows_cols(n)
    eye = np.eye(n, dtype=np.uint8)
    doublings = max(1, math.ceil(math.log2(max(n - 1, 2))))
    kept = []
    chunk = 1 << 16
    for lo in range(0, 1 << nbits, chunk):
        part = np.arange(lo, min(lo + chunk, 1 << nbits), dtype=np.int64)
        bits = ((part[:, None] >> np.arange(nbits, dtype=np.int64)) & 1).astype(np.uint8)
        adj = np.zeros((part.size, n, n), dtype=np.uint8)
        adj[:, ii, jj] = bits
        adj |= adj.transpose(0, 2, 1)
        reach = adj | eye
        for _ in range(doublings):
            reach = (np.matmul(reach, reach) > 0).astype(np.uint8)
        kept.append(part[reach[:, 0, :].all(axis=1)])
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# permutation action on masks: orbit marking and canonical minimisation
#
# perm_tgt is a (B, P) int8 table: under relabeling p, bit s of the original
# mask becomes bit perm_tgt[s, p] of the relabeled mask.


def _images(mask: int, perm_tgt: np.ndarray) -> np.ndarray:
    """The P relabeled masks of `mask`, one per column of perm_tgt."""
    imgs = np.zeros(perm_tgt.shape[1], dtype=np.int64)
    for s in range(perm_tgt.shape[0]):
        if mask >> s & 1:
            imgs += np.left_shift(1, perm_tgt[s], dtype=np.int64)  # numpy < 2 would shift in int8
    return imgs


def _power_images(mask: int, powers: np.ndarray) -> np.ndarray:
    """`_images` as the bit row of `mask` times powers = 2.0 ** perm_tgt: exact
    in float64, as each image is a sum of distinct powers of two below 2^53."""
    bits = (mask >> np.arange(len(powers)) & 1).astype(np.float64)  # float: BLAS
    return (bits @ powers).astype(np.int64)


def orbit_min_mark(mask: int, powers: np.ndarray, seen: np.ndarray) -> int:
    """Mark every relabeling of `mask` in `seen` and return the minimal one."""
    imgs = _power_images(mask, powers)
    seen[imgs] = 1
    return int(imgs.min())


def min_permuted_mask(mask: int, perm_tgt: np.ndarray) -> int:
    """Minimum of `mask` under the relabelings in perm_tgt (and `mask` itself)."""
    return int(min(mask, _images(mask, perm_tgt).min()))


# ---------------------------------------------------------------------------
# symmetric eigensolver


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors (columns) of a symmetric
    matrix, or of each matrix in a stack (..., n, n) in one call.

    ``numpy.linalg.eigh`` (LAPACK), reordered.  The name is that of the Jacobi
    solver it replaced, kept because ``perfbench/tracing.py`` patches
    ``qec.engine.jacobi_eigh`` and ``qec.embedding.jacobi_eigh`` by name.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("jacobi_eigh expects a square matrix or a stack of them")
    w, v = np.linalg.eigh(a)
    return w[..., ::-1], v[..., ::-1]


def eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of a symmetric matrix, or of each matrix in a
    stack (..., n, n): ``numpy.linalg.eigvalsh`` (LAPACK), no eigenvectors."""
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=np.float64))[..., ::-1]
