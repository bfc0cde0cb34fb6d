"""Hot numeric kernels, in numpy.  ``active_backend`` names the
implementation for run reports; it is always "numpy".

- ``connected_masks``: every connected labeled graph on n vertices, as a
  packed upper-triangle edge mask; unused, kept for the benchmark's tracer;
- ``relabeled_masks``: masks' relabelings, as one product of their bit rows
  with a float64 table of powers of two; orbit marking (``orbit_min_mark``)
  and the certificate kernel's cell tables (``canon.least_masks``) both take
  their images from it;
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
# permutation action on masks: one float64 product for orbits and certificates
#
# powers is a (B, P) float64 table: under relabeling p, bit s of a mask
# becomes bit log2(powers[s, p]) of the relabeled mask.  A row of mask bits
# times powers sums distinct powers of two below 2^45, so it is exact.


def relabeled_masks(bits: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """(..., P) relabelings of the masks whose 0/1 bit rows are `bits`, by one
    BLAS product: each column of powers relabels every row."""
    return bits.astype(np.float64) @ powers


def orbit_min_mark(mask: int, powers: np.ndarray, seen: np.ndarray) -> int:
    """Mark every relabeling of `mask` in `seen` and return the minimal one."""
    imgs = relabeled_masks(mask >> np.arange(len(powers)) & 1, powers).astype(np.int64)
    seen[imgs] = 1
    return int(imgs.min())


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
