"""Quadratic embedding constant: numeric value and exact QE decision.

QEC(G) is the maximum of <f, Df> over unit vectors f orthogonal to the
all-ones vector, D the distance matrix.  Numerically this is the largest
eigenvalue of Q^T D Q where Q is an orthonormal basis of the hyperplane
1-perp (LAPACK).  The sign of QEC is decided exactly, because many graphs
sit on the QEC = 0 boundary where a floating-point sign test is fragile:
with the integral difference basis E of 1-perp, M = -E^T D E is PSD exactly
when the graph is QE, and by Sylvester's law of inertia QEC = 0 exactly when
M is PSD and singular.  One rule gives both facts: fraction-free integer
elimination in order on the diagonal, where a zero pivot must have a zero row
and no pivot may be negative.  It runs on Python ints for a single graph
(`_psd_zero`, kept on the graph) and in one int64 stack for a sweep
(`prime_stack`, given the distance stack an order's class list keeps,
`classify._class_stack`; it then solves values only where QEC is not exactly
0, keeping nothing).
`qec_value` is the value alone, from no eigenvector; `qec` reads it and
adds diagnostics, solving eigenvectors for the maximizer only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OrderOneError
from .graphs import Graph, distance_matrix
from .kernels import eigvalsh, jacobi_eigh


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


@lru_cache(maxsize=None)
def _hyperplane_basis(n: int) -> np.ndarray:
    """Orthonormal basis of 1-perp: trailing columns of the Householder
    reflection that sends the first coordinate axis to 1/sqrt(n).  Read-only,
    built once per order."""
    u = np.full(n, 1.0 / math.sqrt(n))
    w = -u.copy()
    w[0] += 1.0
    h = np.eye(n) - np.outer(w, w) * (2.0 / (w @ w))
    q = h[:, 1:]
    q.setflags(write=False)
    return q


def _projected(d: np.ndarray) -> np.ndarray:
    """Q^T D Q, symmetrized, for each D in a stack (N, n, n), n >= 2; each
    matrix is treated alone, so its eigenvalues do not depend on the stack."""
    q = _hyperplane_basis(d.shape[-1])
    m = q.T @ d.astype(float) @ q
    return 0.5 * (m + m.transpose(0, 2, 1))


def prime_stack(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact verdicts and `qec_value`s of the distance stack (N, n, n) of
    connected graphs of one order n >= 2: one stacked elimination
    (`_psd_zero_stack`), and +0.0 where QEC = 0 or one values-only batched
    eigensolve, each matrix alone (as `qec_value` solves it).  No BFS (a sweep
    passes its class stack's distances) and nothing kept on any graph."""
    psd, zero = _psd_zero_stack(dist)
    values = np.zeros(len(dist))
    values[~zero] = eigvalsh(_projected(dist[~zero]))[:, 0]
    return psd, values


def qec_value(g: Graph) -> float:
    """QEC alone: +0.0 exactly when M is PSD and singular (decided in integers,
    with no eigensolve), otherwise the top eigenvalue of Q^T D Q, memoized on g."""
    if g.n < 2:
        raise OrderOneError("QEC is undefined on a single vertex")
    if _graph_psd_zero(g)[1]:
        return 0.0
    if g._top is None:
        g._top = float(eigvalsh(_projected(distance_matrix(g)[None]))[0, 0])
    return g._top


def qec(g: Graph) -> QecReport:
    """QEC of a connected graph on at least two vertices, with diagnostics;
    the value is `qec_value`'s, the maximizer a top eigenvector of Q^T D Q."""
    value = qec_value(g)
    d = distance_matrix(g).astype(float)
    n = g.n
    f = _hyperplane_basis(n) @ jacobi_eigh(_projected(d[None]))[1][0, :, 0]
    pivot = int(np.argmax(np.abs(f)))
    if f[pivot] < 0:
        f = -f
    f.setflags(write=False)
    ones = np.ones(n)
    df = d @ f
    mu = float(2.0 / n * (ones @ df))
    residual = float(np.linalg.norm(df - value * f - 0.5 * mu * ones))
    spectrum = eigvalsh(d)
    return QecReport(value=value, f=f, mu=mu, residual=residual,
                     lambda1=float(spectrum[0]), lambda2=float(spectrum[1]))


def _psd_zero(d: np.ndarray) -> tuple[bool, bool]:
    """(psd, zero) of M = -E^T D E, E the difference basis e_i - e_{i+1} of
    1-perp: `_psd_zero_stack`'s fraction-free rule (Bareiss, Math. Comp. 22,
    1968) for one matrix, on Python ints, on the upper triangle, returning at
    the first step that proves M not PSD."""
    m = (-np.diff(np.diff(d, axis=0), axis=1)).tolist()  # M_ij = -(E^T D E)_ij
    k, zero, prev = len(m), False, 1
    for s in range(k):
        row = m[s]
        p = row[s]
        if p <= 0:
            if p < 0 or any(row[s + 1:]):
                return False, False
            zero = True  # a zero row carries the block on
            continue
        for i in range(s + 1, k):
            r, mi = row[i], m[i]
            for j in range(i, k):
                mi[j] = (p * mi[j] - r * row[j]) // prev
        prev = p
    return True, zero


def _psd_zero_stack(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psd, zero) of M = -E^T D E for each D in a stack (N, n, n), zero meaning
    PSD and singular (QEC = 0): fraction-free elimination in order on the diagonal.

    Each step reads the active block's first diagonal entry p and its row r
    (the block is symmetric): p > 0 is a Bareiss step (p m - r r^T) // prev on
    the rest; p = 0 with r = 0 passes the rest on, prev kept; any other p
    proves M not PSD, and the block is zeroed.  Proof: the block is a Schur
    complement S of M, congruent to diag(pivots, S), and a PSD S is zero in
    the row of a zero diagonal entry; so M is PSD iff no step zeroes it, and
    singular iff some p is 0.  Every entry is a minor of M: each division is
    exact, and each product within B^2, B the Hadamard bound (the product of
    M's row norms, each at least 1).  (k max|M|^2)^k < 2^62 bounds a whole
    stack (always at n <= 7: |M_ij| <= 2 diam); else matrices with B^2 >=
    2^62, or an entry at 2^24 or more, are zeroed and go to `_psd_zero`."""
    m = -np.diff(np.diff(dist, axis=1), axis=2)
    k = m.shape[-1]
    ok = np.ones(len(m), dtype=bool)
    if (k * int(np.abs(m).max(initial=0)) ** 2) ** k >= 1 << 62:
        ok &= (np.abs(m) < 1 << 24).all(axis=(1, 2))
        bound = np.ones(len(m), dtype=np.int64)  # B^2, while it stays below 2^62
        for s in np.maximum((m * m).sum(axis=2), 1).T:  # exact wherever ok
            ok &= s <= ((1 << 62) - 1) // bound
            bound *= np.where(ok, s, 1)
        m[~ok] = 0
    psd, singular, prev = np.ones(len(m), dtype=bool), np.zeros(len(m), dtype=bool), 1
    for size in range(k, 0, -1):  # m: (N, size, size)
        p, row = m[:, 0, 0], m[:, 0, 1:]
        bad = (p < 0) | (p == 0) & row.any(axis=1)
        psd &= ~bad
        m[bad] = 0
        singular |= p == 0
        p = np.where(p > 0, p, prev)  # a zero row carries the block on
        sub = m[:, 1:, 1:] * p[:, None, None]
        sub -= row[:, :, None] * row[:, None, :]
        if size < k:
            sub //= prev[:, None, None]
        m, prev = sub, p
    zero = psd & singular
    for i in np.flatnonzero(~ok).tolist():
        psd[i], zero[i] = _psd_zero(dist[i])
    return psd, zero


def _graph_psd_zero(g: Graph) -> tuple[bool, bool]:
    """`_psd_zero` of g's distance matrix, factored once and kept on g."""
    if g._psd is None:
        g._psd = _psd_zero(distance_matrix(g))
    return g._psd


def is_cnd_exact(g: Graph) -> bool:
    """Exact QE test: is x^T D x <= 0 for every x orthogonal to the all-ones
    vector?  Decided in integer arithmetic, once per graph (`qec` and `embed`
    reuse it); authoritative for classification."""
    if g.n < 2:
        raise OrderOneError("QE test is undefined on a single vertex")
    return _graph_psd_zero(g)[0]
