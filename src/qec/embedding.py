"""Explicit quadratic embeddings of QE graphs.

An embedding maps vertices to points whose squared Euclidean distances
reproduce the graph distances.  It exists exactly when the centered matrix
G = -1/2 C D C (C the mean-centering projection) is positive semidefinite,
in which case the rows of V sqrt(L) from its eigendecomposition realize it.
The kernels work on stacks of distance matrices of one order, one
eigensolve per stack; `embed`, `verify_embedding` and `pendant_rule` run
them as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .engine import _psd_rank, is_cnd_exact
from .errors import DimensionMismatchError, NotQEError
# `induced_subgraph` stays bound here, unused: perfbench/tracing.py traces its graphs.induced layer through it
from .graphs import Graph, distance_matrix, find_pendant_edge, induced_subgraph  # noqa: F401
from .kernels import jacobi_eigh

RANK_CUTOFF = 1e-10
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


def _gram_stack(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram embeddings of a stack (m, n, n) of distance matrices, one
    eigensolve: the eigenvalues (m, n), descending, the coordinates
    (m, n, n) and the dimensions (m,).  Column k holds eigenvector k times
    the root of its eigenvalue where that is above RANK_CUTOFF times the
    largest, else zeros; the kept columns lead.  A column's sign is the
    eigensolver's, which no distance between points depends on."""
    vals, vecs = jacobi_eigh(gram_from_distance(d))
    keep = vals > RANK_CUTOFF * np.maximum(vals[:, :1], 0.0)
    return vals, vecs * np.sqrt(np.where(keep, vals, 0.0))[:, None, :], keep.sum(axis=1)


def _defect_stack(coords: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Largest |squared point distance - graph distance| over all pairs, for
    each embedding (points, columns) of a stack against its distance matrix."""
    sq = np.sum((coords[:, :, None, :] - coords[:, None, :, :]) ** 2, axis=3)
    return np.abs(sq - d).max(axis=(1, 2))


def _gram_defects(d: np.ndarray) -> np.ndarray:
    """Defect of the Gram embedding of each matrix of a stack (m, n, n)."""
    _, coords, dims = _gram_stack(d)
    return _defect_stack(coords[..., :dims.max()], d)


def _pendant_lifts(d: np.ndarray, witnesses: Sequence[tuple[int, int, int, int]]) -> np.ndarray:
    """Defects of the lifted embeddings of a stack (m, n, n) of distance
    matrices, each of a graph with pendant witness (a, b, a', b') whose
    remainder G - {a', b'} is QE.  The remainder is isometric (a path through
    a' runs a-a'-b'-b, and ab is shorter), so its distances are the slice
    d[S, S]; its Gram embeddings come from one eigensolve, and a' and b' sit
    at height 1 above a and b in one more coordinate.  Raises ArithmeticError
    when a lift fails to verify."""
    m, n = d.shape[:2]
    at = np.arange(m)
    a, b, ap, bp = np.array(witnesses, dtype=np.int64).reshape(m, 4).T
    keep = np.ones((m, n), dtype=bool)
    keep[at, ap] = keep[at, bp] = False
    verts = np.nonzero(keep)[1].reshape(m, n - 2)
    _, base, dims = _gram_stack(d[at[:, None, None], verts[:, :, None], verts[:, None, :]])
    lifted = np.zeros((m, n, n - 1))
    lifted[at[:, None], verts, :n - 2] = base
    lifted[at, ap], lifted[at, bp] = lifted[at, a], lifted[at, b]
    lifted[at, ap, dims] = lifted[at, bp, dims] = 1.0
    defects = _defect_stack(lifted[..., :dims.max() + 1], d)
    if (defects > DEFECT_TOL).any():
        raise ArithmeticError(
            f"pendant-edge extension failed to verify (defect {defects.max()})")
    return defects


def embed(g: Graph) -> Embedding:
    """Quadratic embedding of a QE graph; raises NotQEError otherwise."""
    if g.n == 1:
        return Embedding(dim=0, coords=np.zeros((1, 0)))
    if not is_cnd_exact(g):
        raise NotQEError("graph admits no quadratic embedding")
    vals, coords, dims = _gram_stack(distance_matrix(g)[None])
    scale = max(float(vals[0, 0]), 1.0)
    if float(vals[0, -1]) < -1e-6 * scale:
        raise ArithmeticError(f"Gram matrix of a QE graph has eigenvalue {vals[0, -1]}")
    coords = coords[0, :, :dims[0]]
    # each column signed so that its largest entry in magnitude is positive
    coords = coords * np.copysign(1.0, coords[np.abs(coords).argmax(axis=0), np.arange(dims[0])])
    coords.setflags(write=False)
    return Embedding(dim=int(dims[0]), coords=coords)


def verify_embedding(e: Embedding, d: np.ndarray) -> float:
    """Largest |squared point distance - graph distance| over all pairs."""
    d = np.asarray(d, dtype=float)
    if e.coords.shape[0] != d.shape[0]:
        raise DimensionMismatchError(
            f"embedding has {e.coords.shape[0]} points, distance matrix order {d.shape[0]}")
    return float(_defect_stack(e.coords[None], d[None])[0])


def pendant_rule(g: Graph) -> float | None:
    """QEC = 0 when a pendant edge exists and the remainder is QE, else None.

    The embedding of the remainder is extended by one coordinate (the two
    pendant vertices sit at height 1 above their anchors) and verified.
    """
    witness = find_pendant_edge(g)
    if witness is None:
        return None
    d = distance_matrix(g)
    keep = [v for v in range(g.n) if v not in witness[2:]]
    if not _psd_rank(d[np.ix_(keep, keep)])[0]:
        return None
    _pendant_lifts(d[None], [witness])
    return 0.0
