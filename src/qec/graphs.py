"""Core graph representation, standard families and constructions.

Graphs are labeled simple undirected graphs on vertices 0..n-1 with
1 <= n <= 10, stored as an immutable boolean adjacency matrix.  All
operations are pure; nothing here mutates a graph after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bits import n_bits, pack_mask, pair_list, unpack_stack
from .errors import (
    BadParamsError,
    BadRootError,
    DisconnectedError,
    EmptySetError,
    OutOfRangeError,
    SelfLoopError,
    OrderTooLargeError,
)

MAX_ORDER = 10


class Graph:
    """Labeled simple undirected graph; equality and hashing are label-sensitive.

    `mask` packs the upper adjacency triangle in column-major pair order
    (the graph6 bit order); certificates and the codec work on it directly.
    """

    # qec.engine sets _psd, (psd, zero), and _top, the top eigenvalue of Q^T D Q
    __slots__ = ("n", "adj", "_mask", "_cert", "_dist", "_psd", "_top")

    def __init__(self, adj: np.ndarray):
        adj = np.asarray(adj, dtype=bool).copy()
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise BadParamsError("adjacency matrix must be square")
        n = int(adj.shape[0])
        if n < 1 or n > MAX_ORDER:
            raise OrderTooLargeError(f"order {n} outside supported range 1..{MAX_ORDER}")
        raw = adj.tobytes()  # one byte per entry: the checks below are byte compares
        if any(raw[:: n + 1]):
            raise SelfLoopError("adjacency has a nonzero diagonal entry")
        if raw != adj.T.tobytes():
            raise BadParamsError("adjacency matrix must be symmetric")
        adj.setflags(write=False)
        self._set(adj, None)

    def _set(self, adj: np.ndarray, mask: int | None) -> None:
        """Take a checked read-only `adj`, its mask if known, and empty memos."""
        self.n, self.adj, self._mask = adj.shape[0], adj, mask
        self._cert = self._dist = self._psd = self._top = None

    @property
    def mask(self) -> int:
        if self._mask is None:
            self._mask = pack_mask(self.adj)
        return self._mask

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for (i, j) in pair_list(self.n) if self.adj[i, j]]

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=0).astype(np.int64)

    def __reduce__(self):
        """Pickle as (n, mask) and certificate, rebuilt by the constructor:
        read-only, and without the distance, factorization or eigenvalue caches."""
        return from_mask, (self.n, self.mask), (None, {"_cert": self._cert})

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    if n < 1 or n > MAX_ORDER:
        raise OrderTooLargeError(f"order {n} outside supported range 1..{MAX_ORDER}")
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        adj[u, v] = adj[v, u] = True
    return Graph(adj)


def _from_masks(n: int, masks: list[int], adj: np.ndarray | None = None) -> list[Graph]:
    """Graphs of packed masks on n vertices as views of their read-only (N, n, n)
    adjacency stack `adj`, by default one `unpack_stack`: no copy and none of
    the constructor's checks, which an unpacked mask passes."""
    if adj is None:
        adj = unpack_stack(n, masks)
        adj.setflags(write=False)
    graphs = [Graph.__new__(Graph) for _ in masks]
    for g, view, mask in zip(graphs, adj, masks):
        g._set(view, mask)
    return graphs


def from_mask(n: int, mask: int) -> Graph:
    if mask < 0 or mask >> n_bits(n):
        raise BadParamsError(f"mask {mask} does not fit order {n}")
    if n < 1 or n > MAX_ORDER:
        raise OrderTooLargeError(f"order {n} outside supported range 1..{MAX_ORDER}")
    return _from_masks(n, [int(mask)])[0]


def distance_stack(adj: np.ndarray) -> np.ndarray:
    """Read-only int64 distance matrices of a stack (N, n, n) of adjacency
    matrices, by BFS from every source at once: reach grows by one float32
    product with adj + I per step (BLAS; every entry counts at most n paths,
    so float32 is exact), and d(s, v) counts the steps before v is in reach of s."""
    eye = np.eye(adj.shape[-1], dtype=np.float32)
    step = adj + eye  # one edge, or stay
    reach, dist = step, 2 - step - eye  # after steps 0 and 1
    while True:
        grown = np.minimum(reach @ step, 1)
        if np.array_equal(grown, reach):
            break
        dist += 1 - grown
        reach = grown
    if not reach.all():
        raise DisconnectedError("distance matrix requires a connected graph")
    dist = dist.astype(np.int64)
    dist.setflags(write=False)
    return dist


def distance_matrix(g: Graph) -> np.ndarray:
    """`distance_stack` of g alone, computed once and cached on g: the same
    read-only array on every call, which callers slice or copy.  Raises
    DisconnectedError for a disconnected g.  An isometric induced subgraph on
    S has distances d[S, S]."""
    if g._dist is None:
        g._dist = distance_stack(g.adj[None])[0]
    return g._dist


# ---------------------------------------------------------------------------
# graph families


@dataclass(frozen=True)
class FamilySpec:
    """Tagged family description: kind plus integer parameters.

    Kinds: path(n), cycle(n), complete(n), star(m) [= K_{m,1}],
    multipartite(m1>=...>=mk), wedge(n, m) [K_n with an apex on m of its
    vertices], knp4(n) [K_n minus the three edges of a path on 4 vertices].
    """

    kind: str
    params: tuple[int, ...]

    _KINDS = ("path", "cycle", "complete", "star", "multipartite", "wedge", "knp4")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise BadParamsError(f"unknown family kind {self.kind!r}")
        p = tuple(int(x) for x in self.params)
        object.__setattr__(self, "params", p)
        if any(x < 1 for x in p):
            raise BadParamsError(f"{self.kind}: parameters must be positive")
        if self.kind in ("path", "complete", "star") and len(p) != 1:
            raise BadParamsError(f"{self.kind} takes a single parameter")
        if self.kind == "cycle" and (len(p) != 1 or p[0] < 3):
            raise BadParamsError("cycle needs one parameter >= 3")
        if self.kind == "multipartite":
            if len(p) < 2:
                raise BadParamsError("multipartite needs at least two parts")
            if list(p) != sorted(p, reverse=True):
                raise BadParamsError("multipartite parts must be sorted descending")
        if self.kind == "wedge":
            if len(p) != 2 or not 1 <= p[1] <= p[0]:
                raise BadParamsError("wedge needs parameters n, m with 1 <= m <= n")
        if self.kind == "knp4" and (len(p) != 1 or p[0] < 5):
            raise BadParamsError("knp4 needs one parameter >= 5")

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse a compact spec like "path:6", "multipartite:3,2" or "wedge:5,2"."""
        kind, sep, rest = text.strip().partition(":")
        if not sep or not rest:
            raise BadParamsError(f"cannot parse family spec {text!r}")
        try:
            params = tuple(int(tok) for tok in rest.split(","))
        except ValueError as exc:
            raise BadParamsError(f"cannot parse family spec {text!r}") from exc
        return cls(kind.strip(), params)

    def __str__(self) -> str:
        return f"{self.kind}:{','.join(str(x) for x in self.params)}"


def path(n: int) -> FamilySpec:
    return FamilySpec("path", (n,))


def cycle(n: int) -> FamilySpec:
    return FamilySpec("cycle", (n,))


def complete(n: int) -> FamilySpec:
    return FamilySpec("complete", (n,))


def star(m: int) -> FamilySpec:
    return FamilySpec("star", (m,))


def multipartite(*parts: int) -> FamilySpec:
    return FamilySpec("multipartite", tuple(parts))


def wedge(n: int, m: int) -> FamilySpec:
    return FamilySpec("wedge", (n, m))


def knp4(n: int) -> FamilySpec:
    return FamilySpec("knp4", (n,))


def build_family(spec: FamilySpec) -> Graph:
    """Canonical labeled realization of a family member.

    Labeling conventions (fixed so graph6 output is reproducible):
    multipartite parts occupy consecutive labels in the given order; the
    wedge apex is vertex n, glued to complete-graph vertices 0..m-1; knp4
    deletes the edges {0,1},{1,2},{2,3} of K_n.
    """
    kind, p = spec.kind, spec.params
    if kind == "path":
        return from_edges(p[0], [(i, i + 1) for i in range(p[0] - 1)])
    if kind == "cycle":
        return from_edges(p[0], [(i, (i + 1) % p[0]) for i in range(p[0])])
    if kind == "complete":
        n = p[0]
        return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "star":
        m = p[0]
        return from_edges(m + 1, [(i, m) for i in range(m)])
    if kind == "multipartite":
        bounds = np.cumsum((0,) + p)
        part_of = np.zeros(bounds[-1], dtype=int)
        for k in range(len(p)):
            part_of[bounds[k]:bounds[k + 1]] = k
        n = int(bounds[-1])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if part_of[i] != part_of[j]]
        return from_edges(n, edges)
    if kind == "wedge":
        n, m = p
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges += [(i, n) for i in range(m)]
        return from_edges(n + 1, edges)
    if kind == "knp4":
        n = p[0]
        deleted = {(0, 1), (1, 2), (2, 3)}
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in deleted]
        return from_edges(n, edges)
    raise BadParamsError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# constructions


def compose(kind: str, g1: Graph, g2: Graph,
            roots: tuple[int, int] | None = None) -> Graph:
    """Cartesian product, star product (glue at roots) or graph join."""
    if kind == "cartesian":
        n1, n2 = g1.n, g2.n
        if n1 * n2 > MAX_ORDER:
            raise OrderTooLargeError(f"product has {n1 * n2} vertices (max {MAX_ORDER})")
        # vertex (x, y) is x n2 + y: x moves along g1 with y fixed, or y along g2
        return Graph(np.kron(g1.adj, np.eye(n2, dtype=bool)) | np.kron(np.eye(n1, dtype=bool), g2.adj))
    if kind == "star":
        if roots is None:
            raise BadRootError("star product requires roots=(o1, o2)")
        o1, o2 = roots
        if not 0 <= o1 < g1.n:
            raise BadRootError(f"root {o1} not a vertex of the first factor")
        if not 0 <= o2 < g2.n:
            raise BadRootError(f"root {o2} not a vertex of the second factor")
        n = g1.n + g2.n - 1
        if n > MAX_ORDER:
            raise OrderTooLargeError(f"star product has {n} vertices (max {MAX_ORDER})")
        # g1 keeps its labels; g2's non-root vertices follow in order, o2 -> o1
        other = [v for v in range(g2.n) if v != o2]
        lift = {v: g1.n + k for k, v in enumerate(other)}
        lift[o2] = o1
        edges = g1.edges() + [(lift[u], lift[v]) for u, v in g2.edges()]
        return from_edges(n, edges)
    if kind == "join":
        n1, n2 = g1.n, g2.n
        if n1 + n2 > MAX_ORDER:
            raise OrderTooLargeError(f"join has {n1 + n2} vertices (max {MAX_ORDER})")
        edges = g1.edges() + [(n1 + u, n1 + v) for u, v in g2.edges()]
        edges += [(u, n1 + v) for u in range(n1) for v in range(n2)]
        return from_edges(n1 + n2, edges)
    raise BadParamsError(f"unknown composition kind {kind!r}")


def complement(g: Graph) -> Graph:
    adj = ~g.adj.copy()
    np.fill_diagonal(adj, False)
    return Graph(adj)


def induced_subgraph(g: Graph, subset: Iterable[int]) -> Graph:
    """Subgraph induced on the subset, relabeled 0..|S|-1 preserving order."""
    S = sorted(set(subset))
    if not S:
        raise EmptySetError("induced subgraph of an empty set")
    if S[0] < 0 or S[-1] >= g.n:
        raise OutOfRangeError(f"subset {S} outside 0..{g.n - 1}")
    idx = np.array(S, dtype=np.int64)
    return Graph(g.adj[np.ix_(idx, idx)])


def pendant_stack(adj: np.ndarray) -> np.ndarray:
    """`find_pendant_edge` of each graph of a stack (N, n, n) of adjacency
    matrices: rows (a, b, a', b'), or -1s where there is none.  A witness is
    fixed by a' of degree 2 and the neighbour a of it: b' is its other
    neighbour and b that of b'; the least key (a, b, a') wins."""
    count, n = adj.shape[:2]
    rows, deg2 = adj @ (1 << np.arange(n)), adj.sum(axis=2) == 2
    low = rows & -rows
    # a[g, a', k]: neighbour k of a' (frexp's exponent of 2^v is v + 1; of 0, 0)
    a = np.frexp(np.stack([low, rows ^ low], axis=2))[1] - 1
    g, ap, bp = np.arange(count)[:, None, None], np.arange(n)[:, None], a[..., ::-1]
    b = np.frexp(rows[g, bp] & ~(1 << ap))[1] - 1
    key = np.where(deg2[:, :, None] & deg2[g, bp] & adj[g, a, b], (a * n + b) * n + ap, n ** 3)
    key, bp = key.reshape(count, 2 * n), bp.reshape(count, 2 * n)
    first = np.arange(count), key.argmin(axis=1)
    best = key[first]  # n^3: no witness
    out = np.stack([best // (n * n), best // n % n, best % n, bp[first]], axis=1)
    return np.where(best[:, None] < n ** 3, out, -1)


def find_pendant_edge(g: Graph) -> tuple[int, int, int, int] | None:
    """Least witness (a, b, a', b') with a~a'~b'~b~a and deg(a') = deg(b') = 2;
    g is a stack of one."""
    witness = pendant_stack(g.adj[None])[0].tolist()
    return None if witness[0] < 0 else tuple(witness)
