"""QE classification: exact verdicts, isometric witnesses, enumeration, sieve.

The authoritative verdict is always the exact integer test; a non-QE graph
is *primary* when no proper isometrically embedded connected induced
subgraph is non-QE.  `sieve_trace` replays a six-step decision pipeline
(products, witnesses, families, regular joins, embeddings, direct
computation) and reports the first rule that decides a graph; `classify`
checks that its verdict agrees, and that QEC > 0 exactly for non-QE graphs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .bits import n_bits, pair_list
from .canon import CanonicalCert, canonical_cert, perm_powers
from .embedding import embed, pendant_rule, verify_embedding
from .engine import _psd_rank, is_cnd_exact, prime_stack, qec, qec_value
from .errors import (
    BadParamsError,
    DisconnectedError,
    OrderOneError,
    OrderTooLargeError,
)
from .formulas import formula_value, qec_formula_exact, qec_join_regular
from .graphs import (
    FamilySpec,
    Graph,
    build_family,
    component_masks,
    compose,
    distance_matrix,
    from_mask,
    induced_subgraph,
    is_connected,
    set_bits,
)

ENUM_MAX_ORDER = 7
BOUNDARY_TOL = 1e-9
POOL_MIN_GRAPHS = 500  # below (n <= 6), pool start-up costs more than it saves


class Verdict(str, Enum):
    QE = "QE"
    NON_QE_PRIMARY = "NonQePrimary"
    NON_QE_NON_PRIMARY = "NonQeNonPrimary"


class Summary(NamedTuple):
    qe: int
    non_primary: int
    primary: int


@dataclass(frozen=True)
class ClassificationRecord:
    graph: Graph
    cert: CanonicalCert
    qec_value: float
    verdict: Verdict
    witness: tuple[int, ...] | None
    sieve_step: str | None


# ---------------------------------------------------------------------------
# isometric subgraphs and witnesses


def _qe_slice(d: np.ndarray, rows: Sequence[int], vertices: Sequence[int]) -> bool:
    """Exact QE test of the isometric induced subgraph on the sorted
    `vertices`, whose distance matrix is the slice d[S, S] of the ambient one:
    below ENUM_MAX_ORDER vertices, a `_non_qe_table` read at its labeled mask
    (graph6 pair order, from the adjacency bitsets `rows`); else on the slice."""
    k = len(vertices)
    if k >= ENUM_MAX_ORDER:
        return _psd_rank(d[np.ix_(vertices, vertices)])[0]
    mask = 0
    for t, (i, j) in enumerate(pair_list(k)):
        mask |= (rows[vertices[j]] >> vertices[i] & 1) << t
    return not _non_qe_table(k)[mask]


def _isometry_rule(g: Graph) -> Callable[[int], bool]:
    """Predicate on vertex bitsets S: does S induce an isometric subgraph?

    S is isometric iff every pair u < v in S at distance k >= 2 has a
    neighbour w of u in S with d(w, v) = k - 1.  Only if: take w on a
    shortest u-v path inside S.  If, by induction on k: d_S(w, v) = k - 1,
    so d_S(u, v) <= k.  Such an S is connected, and its distances are the
    slice d[S, S].
    """
    d = distance_matrix(g)
    # toward[u][v]: neighbours w of u with d(w, v) = d(u, v) - 1, as a bitset
    closer = g.adj[:, None, :] & (d.T[None, :, :] == d[:, :, None] - 1)
    toward = (closer @ (1 << np.arange(g.n))).tolist()
    far = [((1 << u) | (1 << v), toward[u][v])
           for u, v in combinations(range(g.n), 2) if d[u, v] >= 2]
    return lambda bits: all(w & bits for pair, w in far if pair & bits == pair)


def non_qe_witness(g: Graph) -> tuple[int, ...] | None:
    """Least vertex set inducing a connected, isometric, non-QE proper subgraph.

    Sets smaller than five vertices cannot work (every graph on up to four
    vertices is QE), so the search starts at size five.  Each set is tested
    by `_isometry_rule` and decided by `_qe_slice` (a table read below 7 vertices).
    """
    d = distance_matrix(g)
    rows = g.neighbor_masks()
    isometric = _isometry_rule(g)
    for size in range(5, g.n):
        for s in combinations(range(g.n), size):
            if isometric(sum(1 << v for v in s)) and not _qe_slice(d, rows, s):
                return s
    return None


# ---------------------------------------------------------------------------
# enumeration up to isomorphism


def enumerate_connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Deleting a leaf of a spanning tree leaves a connected graph, so every
    connected graph on n >= 2 vertices is an order-(n - 1) class plus a
    vertex joined to a nonempty subset (vertex augmentation; McKay, J.
    Algorithms 26, 1998).  Each candidate orbit is marked when first met and
    contributes its smallest mask, its certificate; the output is sorted.
    """
    if not 1 <= n <= ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"enumeration supports 1..{ENUM_MAX_ORDER} vertices, got {n}")
    if n == 1:
        minima = [0]
    else:
        joined = np.arange(1, 1 << (n - 1)) << n_bits(n - 1)
        seen = np.zeros(1 << n_bits(n), dtype=np.uint8)
        minima = []
        for parent in enumerate_connected(n - 1):
            masks = parent.mask | joined
            for mask in masks[seen[masks] == 0].tolist():
                if not seen[mask]:  # an orbit marked since may cover it
                    minima.append(kernels.orbit_min_mark(mask, perm_powers(n), seen))
    out = [from_mask(n, mask) for mask in sorted(minima)]
    for g in out:
        g._cert = CanonicalCert(n, g.mask)
    return out


@lru_cache(maxsize=None)
def _non_qe_table(k: int) -> np.ndarray:
    """Read-only bitmap over the labeled masks on 2 <= k < ENUM_MAX_ORDER
    vertices, 1 exactly on the relabelings of the non-QE connected classes
    (k = 5: 40 of 1,024; k = 6: 5,860 of 32,768; none below).  Built once."""
    table = np.zeros(1 << n_bits(k), dtype=np.uint8)
    for h in enumerate_connected(k):
        if not is_cnd_exact(h):
            kernels.orbit_min_mark(h.mask, perm_powers(k), table)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# sieve support: product, family and join recognizers


def _qe_exact(g: Graph) -> bool:
    return g.n >= 2 and is_cnd_exact(g)


def _star_qe_split(g: Graph) -> tuple[int, int, int] | None:
    """Cut vertex splitting g into two QE parts; returns (v, n1, n2).

    Each part, one component of g - v or the rest, plus v, is an isometric
    block: a walk that leaves it returns through v, so it is not shortest.
    Its distance matrix is a slice of g's, and `_qe_slice` decides it.
    """
    d = distance_matrix(g)
    rows = g.neighbor_masks()
    every = (1 << g.n) - 1
    for v in range(g.n):
        cut = 1 << v
        comps = component_masks([row & ~cut for row in rows], every & ~cut)
        if len(comps) < 2:
            continue
        for comp in comps:
            side, other = set_bits(comp | cut), set_bits(every & ~comp)
            if _qe_slice(d, rows, side) and _qe_slice(d, rows, other):
                return (v, len(side), len(other))
    return None


@lru_cache(maxsize=None)
def _qe_cartesian_products(n: int) -> dict[CanonicalCert, tuple[int, int]]:
    """Certificates of Cartesian products of two smaller QE graphs."""
    found: dict[CanonicalCert, tuple[int, int]] = {}
    for a in range(2, n):
        if n % a or a > n // a:
            continue
        b = n // a
        left = [g for g in enumerate_connected(a) if _qe_exact(g)]
        right = [g for g in enumerate_connected(b) if _qe_exact(g)]
        for g1 in left:
            for g2 in right:
                prod = compose("cartesian", g1, g2)
                found.setdefault(canonical_cert(prod), (a, b))
    return found


@lru_cache(maxsize=None)
def _family_index(n: int) -> dict[CanonicalCert, FamilySpec]:
    """Certificate -> family spec for every closed-form family on n vertices."""
    index: dict[CanonicalCert, FamilySpec] = {}

    def put(spec: FamilySpec) -> None:
        index.setdefault(canonical_cert(build_family(spec)), spec)

    if n >= 2:
        put(FamilySpec("complete", (n,)))
        put(FamilySpec("path", (n,)))
    if n >= 3:
        put(FamilySpec("cycle", (n,)))
    for parts in _partitions(n):
        if len(parts) >= 2:
            put(FamilySpec("multipartite", parts))
    for m in range(1, n):
        put(FamilySpec("wedge", (n - 1, m)))
    if n >= 5:
        put(FamilySpec("knp4", (n,)))
    return index


def _partitions(total: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _regular_on(rows: Sequence[int], side: int) -> bool:
    """Is the subgraph induced on the vertex bitset `side` regular?"""
    return len({(rows[v] & side).bit_count() for v in set_bits(side)}) == 1


def _regular_join_split(g: Graph) -> tuple[Graph, Graph] | None:
    """Split g = G1 + G2 (graph join) with both parts regular, if possible.
    Each part is a union of components of the complement, found on bitsets."""
    rows = g.neighbor_masks()
    every = (1 << g.n) - 1
    comps = component_masks([every & ~row & ~(1 << v) for v, row in enumerate(rows)], every)
    for size in range(len(comps) - 1):
        for chosen in combinations(comps[1:], size):
            side = comps[0] | sum(chosen)
            if _regular_on(rows, side) and _regular_on(rows, every & ~side):
                return (induced_subgraph(g, set_bits(side)),
                        induced_subgraph(g, set_bits(every & ~side)))
    return None


def _sign_verdict(value: float, exact: bool) -> tuple[Verdict, str]:
    """Verdict and its trace label from a closed-form value; near zero the
    exact test decides, and the label says so."""
    if value > BOUNDARY_TOL:
        return Verdict.NON_QE_PRIMARY, Verdict.NON_QE_PRIMARY.value
    if value < -BOUNDARY_TOL:
        return Verdict.QE, Verdict.QE.value
    verdict = Verdict.QE if exact else Verdict.NON_QE_PRIMARY
    return verdict, f"{verdict.value} (boundary, exact test decides)"


# ---------------------------------------------------------------------------
# the sieve


def _run_sieve(g: Graph, exact: bool, witness: tuple[int, ...] | None):
    steps: list[tuple[str, str]] = []

    split = _star_qe_split(g)
    if split is not None:
        v, n1, n2 = split
        steps.append(("step1", f"star product of QE factors ({n1}+{n2} glued at {v}) -> QE"))
        return steps, Verdict.QE, "step1"
    cart = _qe_cartesian_products(g.n).get(canonical_cert(g))
    if cart is not None:
        steps.append(("step1", f"cartesian product of QE factors ({cart[0]}x{cart[1]}) -> QE"))
        return steps, Verdict.QE, "step1"
    steps.append(("step1", "not a nontrivial product of QE graphs"))

    if witness is not None:
        steps.append(("step2", f"isometric non-QE subgraph on {set(witness)} -> non-QE, non-primary"))
        return steps, Verdict.NON_QE_NON_PRIMARY, "step2"
    steps.append(("step2", "no isometric non-QE proper subgraph"))

    spec = _family_index(g.n).get(canonical_cert(g))
    if spec is not None:
        value = formula_value(spec)
        verdict, label = _sign_verdict(value, exact)
        steps.append(("step3", f"matches family {spec}, closed form {value:.12g} -> {label}"))
        return steps, verdict, "step3"
    steps.append(("step3", "no closed-form family match"))

    join = _regular_join_split(g)
    if join is not None:
        g1, g2 = join
        value = qec_join_regular(g1, g2)
        verdict, label = _sign_verdict(value, exact)
        steps.append(("step4", f"join of regular parts ({g1.n}+{g2.n}), formula {value:.12g} -> {label}"))
        return steps, verdict, "step4"
    steps.append(("step4", "not a join of two regular graphs"))

    if pendant_rule(g) is not None:
        steps.append(("step5", "pendant edge: lifted embedding verified, QEC = 0 -> QE"))
        return steps, Verdict.QE, "step5"
    if exact:
        defect = verify_embedding(embed(g), distance_matrix(g))
        steps.append(("step5", f"explicit embedding constructed (defect {defect:.3g}) -> QE"))
        return steps, Verdict.QE, "step5"
    steps.append(("step5", "no pendant edge, no embedding"))

    # decided by the number alone; step 2 has ruled out a witness, so
    # non-QE here is primary
    value = qec(g).value
    verdict = Verdict.NON_QE_PRIMARY if value > BOUNDARY_TOL else Verdict.QE
    steps.append(("step6", f"direct computation: QEC = {value:.12g} -> {verdict.value}"))
    return steps, verdict, "step6"


def sieve_trace(g: Graph) -> list[tuple[str, str]]:
    """Replay the decision pipeline; the last entry is the deciding rule."""
    if not 2 <= g.n <= ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"sieve supports 2..{ENUM_MAX_ORDER} vertices, got {g.n}")
    if not is_connected(g):
        raise DisconnectedError("sieve requires a connected graph")
    exact = is_cnd_exact(g)
    witness = None if exact else non_qe_witness(g)
    return _run_sieve(g, exact, witness)[0]


# ---------------------------------------------------------------------------
# classification


def classify(g: Graph, sieve: bool = True) -> ClassificationRecord:
    """Exact verdict, witness, numeric QEC and (when available) sieve step."""
    if g.n < 2:
        raise OrderOneError("classification needs at least two vertices")
    if not is_connected(g):
        raise DisconnectedError("classification requires a connected graph")
    exact = is_cnd_exact(g)
    witness = None if exact else non_qe_witness(g)
    if exact:
        verdict = Verdict.QE
    elif witness is not None:
        verdict = Verdict.NON_QE_NON_PRIMARY
    else:
        verdict = Verdict.NON_QE_PRIMARY
    step = None
    if sieve and g.n <= ENUM_MAX_ORDER:
        _, sieve_verdict, step = _run_sieve(g, exact, witness)
        if sieve_verdict != verdict:
            raise AssertionError(
                f"sieve verdict {sieve_verdict} disagrees with exact verdict {verdict}")
    value = qec_value(g)
    if (value > 0) != (verdict is not Verdict.QE):
        raise AssertionError(f"QEC {value!r} contradicts exact verdict {verdict}")
    return ClassificationRecord(
        graph=g,
        cert=canonical_cert(g),
        qec_value=value,
        verdict=verdict,
        witness=witness,
        sieve_step=step,
    )


def _sweep(graphs: list[Graph], sieve: bool) -> list[ClassificationRecord]:
    """Classify graphs of one order after one batched BFS, eigensolve and
    exact elimination over all of them; witnesses and sieve per graph."""
    prime_stack(graphs)
    return [classify(g, sieve=sieve) for g in graphs]


def _sweep_masks(args: tuple[int, list[int], bool]) -> list[ClassificationRecord]:
    n, masks, sieve = args
    return _sweep([from_mask(n, mask) for mask in masks], sieve)


def _worker_count() -> int:
    env = os.environ.get("QEC_THREADS", "").strip()
    if env:
        try:
            count = int(env)
        except ValueError as exc:
            raise BadParamsError(f"QEC_THREADS={env!r} is not an integer") from exc
        return max(1, count)
    return os.cpu_count() or 1


def classify_all(n: int, sieve: bool = True,
                 workers: int | None = None) -> tuple[list[ClassificationRecord], Summary]:
    """Classify every connected graph on n vertices; deterministic order.

    The graphs go through `_sweep` as one stack.  Sweeps of POOL_MIN_GRAPHS
    graphs or more are dealt out in strided slices over a process pool capped
    by QEC_THREADS (default: all cores), each slice a stack of its own;
    results are merged by certificate, so the output does not depend on
    scheduling.
    """
    if not 2 <= n <= ENUM_MAX_ORDER:
        raise OrderTooLargeError(f"classification sweep supports 2..{ENUM_MAX_ORDER}, got {n}")
    graphs = enumerate_connected(n)
    if workers is None:
        workers = _worker_count()
    if workers > 1 and len(graphs) >= POOL_MIN_GRAPHS:
        from concurrent.futures import ProcessPoolExecutor  # only big sweeps pay its import
        masks = [g.mask for g in graphs]
        chunks = min(4 * workers, len(masks))
        jobs = [(n, masks[i::chunks], sieve) for i in range(chunks)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [r for part in pool.map(_sweep_masks, jobs) for r in part]
    else:
        records = _sweep(graphs, sieve)
    records.sort(key=lambda r: r.cert)
    summary = Summary(
        qe=sum(r.verdict is Verdict.QE for r in records),
        non_primary=sum(r.verdict is Verdict.NON_QE_NON_PRIMARY for r in records),
        primary=sum(r.verdict is Verdict.NON_QE_PRIMARY for r in records),
    )
    return records, summary


def closed_form_matches(g: Graph) -> list[tuple[FamilySpec, float, str]]:
    """Closed-form families isomorphic to g, with value and exact expression."""
    if g.n < 2:
        return []
    spec = _family_index(g.n).get(canonical_cert(g))
    if spec is None:
        return []
    return [(spec, formula_value(spec), qec_formula_exact(spec))]
