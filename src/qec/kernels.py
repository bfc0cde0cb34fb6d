"""Hot numeric kernels, in numpy.

- ``connected_masks``: every connected labeled graph on n vertices, as a
  packed upper-triangle edge mask (see qec.bits);
- ``orbit_min_mark`` and ``min_permuted_mask``: the permutation action on
  masks, for orbit collapse and canonical certificates;
- ``jacobi_eigh``: a deterministic cyclic Jacobi eigensolver for small dense
  symmetric matrices.

``active_backend`` names the implementation for run reports; it is always
"numpy".
"""

from __future__ import annotations

import math

import numpy as np

from .bits import n_bits, pair_rows_cols

JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100


def active_backend() -> str:
    """Name of the kernel implementation."""
    return "numpy"


# ---------------------------------------------------------------------------
# connected-mask scan: all edge masks whose labeled graph is connected


def connected_masks(n: int) -> np.ndarray:
    """Ascending masks of all connected labeled graphs on n vertices."""
    if not 1 <= n <= 7:
        raise ValueError(f"mask scan is exponential in n*(n-1)/2; n={n} not in 1..7")
    if n == 1:
        return np.zeros(1, dtype=np.int64)
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
# perm_src is a (P, B) int16 table: bit t of the relabeled mask is bit
# perm_src[p, t] of the original mask.


def _images(mask: int, perm_src: np.ndarray) -> np.ndarray:
    """The P relabeled masks of `mask`, one per row of perm_src."""
    nbits = perm_src.shape[1]
    bits = ((mask >> np.arange(nbits, dtype=np.int64)) & 1).astype(np.int64)
    return bits[perm_src] @ (np.int64(1) << np.arange(nbits, dtype=np.int64))


def orbit_min_mark(mask: int, perm_src: np.ndarray, seen: np.ndarray) -> int:
    """Mark every relabeling of `mask` in `seen` and return the minimal one."""
    if perm_src.shape[1] == 0:
        seen[0] = 1
        return 0
    imgs = _images(mask, perm_src)
    seen[imgs] = 1
    return int(imgs.min())


def min_permuted_mask(mask: int, perm_src: np.ndarray) -> int:
    """Minimum of `mask` under the relabelings in perm_src (and `mask` itself)."""
    if perm_src.shape[1] == 0:
        return 0
    return int(min(mask, _images(mask, perm_src).min()))


# ---------------------------------------------------------------------------
# cyclic Jacobi eigensolver for small dense symmetric matrices


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors (columns) of a symmetric matrix.

    Deterministic cyclic-by-row Jacobi rotations; convergence is an absolute
    bound, JACOBI_TOL, on the off-diagonal Frobenius norm.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_eigh expects a square matrix")
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        if math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2))) <= JACOBI_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app = float(a[p, p])
                aqq = float(a[q, q])
                rot = np.array([[c, s], [-s, c]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                v[:, [p, q]] = v[:, [p, q]] @ rot
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    w = np.diagonal(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]
