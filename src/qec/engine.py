"""Quadratic embedding constant: numeric value and exact QE decision.

QEC(G) is the maximum of <f, Df> over unit vectors f orthogonal to the
all-ones vector, D the distance matrix.  Numerically this is the largest
eigenvalue of Q^T D Q where Q is an orthonormal basis of the hyperplane
1-perp (LAPACK).  The sign of QEC is decided exactly, because many graphs
sit on the QEC = 0 boundary where a floating-point sign test is fragile:
with the integral difference basis E of 1-perp, M = -E^T D E is PSD exactly
when the graph is QE, and by Sylvester's law of inertia QEC = 0 exactly when
M is PSD and singular.  Fraction-free integer elimination gives both facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """QEC of a connected graph on at least two vertices, with diagnostics.

    The value is +0.0 exactly when QEC = 0 (M PSD and singular, decided in
    integers); otherwise it is the eigensolver's.
    """
    if g.n < 2:
        raise OrderOneError("QEC is undefined on a single vertex")
    d_int = distance_matrix(g)
    d = d_int.astype(float)
    n = g.n
    q = _hyperplane_basis(n)
    m = q.T @ d @ q
    m = 0.5 * (m + m.T)
    w, vecs = jacobi_eigh(m)
    psd, rank = _psd_rank(d_int)
    value = 0.0 if psd and rank < n - 1 else float(w[0])
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
    w = jacobi_eigh(g.adj.astype(float))[0]
    return float(w[-1])


def _psd_rank(d: np.ndarray) -> tuple[bool, int]:
    """(psd, rank) of M = -E^T D E, E the difference basis e_i - e_{i+1} of
    1-perp, by fraction-free (Bareiss, Math. Comp. 22, 1968) elimination on
    Python ints.

    Pivots are positive diagonal entries while they last: M is PSD iff no
    negative diagonal appears and, once none is positive, the active block
    is zero.  Otherwise any nonzero pivot goes on, to count the rank.  Every
    entry stays a minor of M, so each division by the previous pivot is exact.
    """
    m = (-np.diff(np.diff(d, axis=0), axis=1)).tolist()  # M_ij = -(E^T D E)_ij
    rows, cols = list(range(len(m))), list(range(len(m)))
    psd, rank, prev = True, 0, 1
    while rows:
        pivot = None
        if psd:  # rows == cols so far
            if any(m[i][i] < 0 for i in rows):
                psd = False
            else:
                pivot = next(((i, i) for i in rows if m[i][i] > 0), None)
        if pivot is None:
            pivot = next(((i, j) for i in rows for j in cols if m[i][j]), None)
            if pivot is None:
                break
            psd = False
        r, c = pivot
        rows.remove(r)
        cols.remove(c)
        p = m[r][c]
        for i in rows:
            for j in cols:
                m[i][j] = (p * m[i][j] - m[i][c] * m[r][j]) // prev
        prev = p
        rank += 1
    return psd, rank


def is_cnd_exact(g: Graph) -> bool:
    """Exact QE test: is x^T D x <= 0 for every x orthogonal to the all-ones
    vector?  Decided in integer arithmetic; authoritative for classification."""
    if g.n < 2:
        raise OrderOneError("QE test is undefined on a single vertex")
    return _psd_rank(distance_matrix(g))[0]
