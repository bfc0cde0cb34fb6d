"""Explicit quadratic embeddings of QE graphs.

An embedding maps vertices to points whose squared Euclidean distances
reproduce the graph distances.  It exists exactly when the base-point Gram
matrix G0_ij = (d_0i + d_0j - d_ij) / 2 (i, j >= 1) is positive semidefinite
(Young & Householder, Psychometrika 3, 1938).  Step 5 and `pendant_rule` embed
by one in-order LDL^T of each G0 of a stack (`_ldl_points`); `embed` prints
principal coordinates, from one eigensolve of -1/2 C D C (C centers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import pair_rows_cols
from .engine import _psd_zero, is_cnd_exact
from .errors import DimensionMismatchError, NotQEError
# `induced_subgraph` stays bound here, unused: perfbench/tracing.py traces its graphs.induced layer through it
from .graphs import Graph, distance_matrix, find_pendant_edge, induced_subgraph  # noqa: F401
from .kernels import jacobi_eigh

RANK_CUTOFF = 1e-10  # LDL^T pivots at or below it are dropped; eigenvalues, at or below it times the largest
DEFECT_TOL = 1e-8  # an embedding within it reproduces the distances


@dataclass(frozen=True)
class Embedding:
    """Per-vertex coordinates; coords has one row per vertex, dim columns."""

    dim: int
    coords: np.ndarray


@lru_cache(maxsize=None)
def _centering(n: int) -> np.ndarray:
    """Read-only mean-centering projection C = I - J/n."""
    c = np.eye(n) - np.full((n, n), 1.0 / n)
    c.setflags(write=False)
    return c


def gram_from_distance(d: np.ndarray) -> np.ndarray:
    """Centered Gram matrix -1/2 C D C of a distance matrix, or of each in a
    stack (..., n, n); PSD iff D embeds quadratically."""
    d = np.asarray(d, dtype=float)
    c = _centering(d.shape[-1])
    gram = -0.5 * (c @ d @ c)
    return 0.5 * (gram + np.swapaxes(gram, -1, -2))


def _ldl_points(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points (m, n, n - 1) and pivots (m, n - 1) of each distance matrix of a
    stack (m, n, n), from an in-order LDL^T of its G0: vertex 0 at the origin,
    vertex i >= 1 at row i - 1 of L sqrt(P).  At step k, a pivot p = A[k, k]
    of the reduced matrix A above RANK_CUTOFF (an absolute floor) makes column
    k c = A[k:, k] / sqrt(p), and A[k+1:, k+1:] loses c[1:] c[1:]^T; any other
    pivot, a negative one too, leaves a zero column and A as it was, so a
    matrix that does not embed gets points that fail to."""
    m, n = d.shape[:2]
    gram = 0.5 * (d[:, :1, 1:] + d[:, 1:, :1] - d[:, 1:, 1:])
    points = np.zeros((m, n, n - 1))
    for k in range(n - 1):
        pivot = gram[:, k, k]
        col = points[:, k + 1:, k] = gram[:, k:, k] / np.sqrt(np.where(pivot > RANK_CUTOFF, pivot, np.inf))[:, None]
        gram[:, k + 1:, k + 1:] -= col[:, 1:, None] * col[:, None, 1:]
    return points, np.diagonal(gram, axis1=1, axis2=2)


def _defect_stack(coords: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Largest |squared point distance - graph distance| over all pairs, for
    each embedding (points, columns) of a stack against its distance matrix;
    each pair once (a distance matrix is symmetric, with zero diagonal)."""
    u, v = pair_rows_cols(d.shape[-1])
    sq = np.sum((coords[:, u] - coords[:, v]) ** 2, axis=2)
    return np.abs(sq - d[:, u, v]).max(axis=1, initial=0.0)


def _lift_order(n: int, lifts: np.ndarray) -> np.ndarray:
    """(m, n) vertex orders: at a row (a, b, a', b') of `lifts`, the other
    vertices ascending, then a', then b'; at a row of -1s, 0..n-1."""
    v = np.arange(n)
    return np.argsort(v + n * (v == lifts[:, 2:3]) + 2 * n * (v == lifts[:, 3:4]), axis=1)


def _gram_defects(d: np.ndarray, lifts: np.ndarray) -> np.ndarray:
    """Defect of the LDL^T embedding of each matrix of a stack (m, n, n), in
    `_lift_order`.  A row (a, b, a', b') of `lifts` is a pendant witness whose
    remainder S = G - {a', b'} is QE; it is isometric (a path through a' runs
    a-a'-b'-b, and ab is shorter), and the factorization is prefix-consistent,
    so S's rows embed it.  Its lift x_a' = (x_a, 1), x_b' = (x_b, 1) realises
    the same G0, so these are a' and b''s rows (b''s pivot is 0): the defect
    checks the lift, and ArithmeticError is raised when one fails to verify."""
    m, n = d.shape[:2]
    order = _lift_order(n, lifts)
    d = d[np.arange(m)[:, None, None], order[:, :, None], order[:, None, :]]
    defects = _defect_stack(_ldl_points(d)[0], d)
    if (worst := defects[lifts[:, 0] >= 0].max(initial=0.0)) > DEFECT_TOL:
        raise ArithmeticError(f"pendant-edge extension failed to verify (defect {worst})")
    return defects


def embed(g: Graph) -> Embedding:
    """Quadratic embedding of a QE graph; raises NotQEError otherwise."""
    if g.n == 1:
        return Embedding(dim=0, coords=np.zeros((1, 0)))
    if not is_cnd_exact(g):
        raise NotQEError("graph admits no quadratic embedding")
    (vals,), (vecs,) = jacobi_eigh(gram_from_distance(distance_matrix(g)[None]))
    if float(vals[-1]) < -1e-6 * max(float(vals[0]), 1.0):
        raise ArithmeticError(f"Gram matrix of a QE graph has eigenvalue {vals[-1]}")
    keep = vals > RANK_CUTOFF * max(float(vals[0]), 0.0)  # the principal coordinates, leading
    coords = vecs[:, keep] * np.sqrt(vals[keep])
    # each column signed so that its largest entry in magnitude is positive
    coords = coords * np.copysign(1.0, coords[np.abs(coords).argmax(axis=0), np.arange(coords.shape[1])])
    coords.setflags(write=False)
    return Embedding(dim=coords.shape[1], coords=coords)


def verify_embedding(e: Embedding, d: np.ndarray) -> float:
    """Largest |squared point distance - graph distance| over all pairs."""
    d = np.asarray(d, dtype=float)
    if e.coords.shape[0] != d.shape[0]:
        raise DimensionMismatchError(
            f"embedding has {e.coords.shape[0]} points, distance matrix order {d.shape[0]}")
    return float(_defect_stack(e.coords[None], d[None])[0])


def pendant_rule(g: Graph) -> float | None:
    """QEC = 0 when a pendant edge exists and the remainder is QE, else None.

    The remainder's verdict is its own exact test, and the lift is verified
    by one LDL^T with a' and b' last (`_gram_defects`).
    """
    witness = find_pendant_edge(g)
    if witness is None:
        return None
    d = distance_matrix(g)
    keep = [v for v in range(g.n) if v not in witness[2:]]
    if not _psd_zero(d[np.ix_(keep, keep)])[0]:
        return None
    _gram_defects(d[None], np.array([witness]))
    return 0.0
