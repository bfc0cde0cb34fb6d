"""Quadratic embedding constant: numeric value and exact QE decision.

QEC(G) is the maximum of <f, Df> over unit vectors f orthogonal to the
all-ones vector, D the distance matrix.  Numerically this is the largest
eigenvalue of Q^T D Q where Q spans the hyperplane 1-perp; the QE/non-QE
verdict, however, is always decided in exact rational arithmetic, because
several graph families sit exactly on the QEC = 0 boundary where any
floating-point sign test is fragile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OrderOneError
from .graphs import Graph, distance_matrix
from .kernels import jacobi_eigh


@dataclass(frozen=True)
class QecReport:
    """QEC value with its maximizer, multiplier, residual and spectral bounds.

    The maximizer satisfies D f = value * f + (mu/2) 1 up to `residual`;
    lambda1/lambda2 are the two largest distance-matrix eigenvalues and
    bracket the value (lambda2 <= value < lambda1).
    """

    value: float
    f: np.ndarray
    mu: float
    residual: float
    lambda1: float
    lambda2: float


def _hyperplane_basis(n: int) -> np.ndarray:
    """Orthonormal basis of 1-perp: trailing columns of the Householder
    reflection that sends the first coordinate axis to 1/sqrt(n)."""
    u = np.full(n, 1.0 / math.sqrt(n))
    w = -u.copy()
    w[0] += 1.0
    h = np.eye(n) - np.outer(w, w) * (2.0 / (w @ w))
    return h[:, 1:]


def qec(g: Graph) -> QecReport:
    """QEC of a connected graph on at least two vertices, with diagnostics."""
    if g.n < 2:
        raise OrderOneError("QEC is undefined on a single vertex")
    d = distance_matrix(g).astype(float)
    n = g.n
    q = _hyperplane_basis(n)
    m = q.T @ d @ q
    m = 0.5 * (m + m.T)
    w, vecs = jacobi_eigh(m)
    value = float(w[0])
    f = q @ vecs[:, 0]
    pivot = int(np.argmax(np.abs(f)))
    if f[pivot] < 0:
        f = -f
    f.setflags(write=False)
    ones = np.ones(n)
    df = d @ f
    mu = float(2.0 / n * (ones @ df))
    residual = float(np.linalg.norm(df - value * f - 0.5 * mu * ones))
    spectrum = jacobi_eigh(d)[0]
    return QecReport(value=value, f=f, mu=mu, residual=residual,
                     lambda1=float(spectrum[0]), lambda2=float(spectrum[1]))


def distance_spectrum(g: Graph) -> np.ndarray:
    """Distance-matrix eigenvalues in descending order."""
    return jacobi_eigh(distance_matrix(g).astype(float))[0]


def adjacency_min_eigenvalue(g: Graph) -> float:
    """Smallest adjacency eigenvalue (graph may be disconnected)."""
    if g.n == 1:
        return 0.0
    w = jacobi_eigh(g.adj.astype(float))[0]
    return float(w[-1])


def _psd_exact(m: list[list[Fraction]]) -> bool:
    """Positive-semidefiniteness by diagonally pivoted rational elimination.

    A symmetric matrix is PSD iff elimination never meets a negative
    diagonal and, once no positive pivot remains, the active block is
    entirely zero.
    """
    remaining = set(range(len(m)))
    while remaining:
        pivot = None
        for i in sorted(remaining):
            if m[i][i] < 0:
                return False
            if m[i][i] > 0 and pivot is None:
                pivot = i
        if pivot is None:
            return all(m[i][j] == 0 for i in remaining for j in remaining)
        remaining.discard(pivot)
        d = m[pivot][pivot]
        for i in remaining:
            if m[i][pivot] != 0:
                r = m[i][pivot] / d
                for j in remaining:
                    m[i][j] -= r * m[pivot][j]
    return True


def is_cnd_exact(g: Graph) -> bool:
    """Exact QE test: is x^T D x <= 0 for every x orthogonal to the all-ones
    vector?  Decided in rational arithmetic; authoritative for classification."""
    if g.n < 2:
        raise OrderOneError("QE test is undefined on a single vertex")
    d = distance_matrix(g)
    n = g.n
    # difference basis e_i - e_{i+1} spans 1-perp; M = -E^T D E is integral
    e = np.zeros((n, n - 1), dtype=np.int64)
    for i in range(n - 1):
        e[i, i] = 1
        e[i + 1, i] = -1
    m_int = -(e.T @ d @ e)
    m = [[Fraction(int(m_int[i, j])) for j in range(n - 1)] for i in range(n - 1)]
    return _psd_exact(m)
