"""Known entries of the standard small-graph catalog numbering.

External "Gm-n" ids come from user-supplied catalog files (McKay-style
lists); this module carries only the handful of entries whose structure is
pinned down by well-known identities, so the tests can name them without
any bundled data file.  Four entries (the two apexed-pentagon pairs) are
told apart by their exact QE verdict, and one entry is a fixture mask
derived by exhaustive classification and re-validated by the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from constructions import add_apex, disjoint_union
from qec.canon import canonical_cert
from qec.engine import is_cnd_exact
from qec.graph6 import Catalog, CatalogEntry, to_graph6
from qec.graphs import (
    FamilySpec,
    Graph,
    build_family,
    compose,
    from_mask,
)

# six-vertex graph with the quartic-root QEC; derived by exhaustive
# classification (see tests/test_classify.py) and kept as a fixture
_G6_84_MASK = 3579


def _k(n: int) -> Graph:
    return build_family(FamilySpec("complete", (n,)))


def _kbar(n: int) -> Graph:
    return from_mask(n, 0)


def _c5_apex(attach: tuple[int, ...], want_qe: bool) -> Graph:
    """The QE or non-QE member of an apexed-pentagon isomorphism pair."""
    base = build_family(FamilySpec("cycle", (5,)))
    variants = {
        2: ((0, 1), (0, 2)),
        3: ((0, 1, 2), (0, 1, 3)),
    }[len(attach)]
    for s in variants:
        g = add_apex(base, s)
        if is_cnd_exact(g) == want_qe:
            return g
    raise AssertionError("no apexed-pentagon variant with the requested verdict")


@lru_cache(maxsize=1)
def known_graphs() -> dict[str, Graph]:
    """Catalog id -> graph, for the structurally pinned-down entries."""
    c5 = build_family(FamilySpec("cycle", (5,)))
    k2uk2 = disjoint_union(_k(2), _k(2))
    named: dict[str, Graph] = {
        "G5-10": build_family(FamilySpec("multipartite", (3, 2))),
        "G6-1": build_family(FamilySpec("star", (5,))),
        "G6-6": build_family(FamilySpec("path", (6,))),
        "G6-16": add_apex(c5, (0,)),
        "G6-19": build_family(FamilySpec("cycle", (6,))),
        "G6-30": _c5_apex((0, 1), want_qe=False),
        "G6-32": _c5_apex((0, 1), want_qe=True),
        "G6-35": compose("cartesian", _k(2), build_family(FamilySpec("path", (3,)))),
        "G6-40": build_family(FamilySpec("multipartite", (4, 2))),
        "G6-59": _c5_apex((0, 1, 2), want_qe=True),
        "G6-60": _c5_apex((0, 1, 2), want_qe=False),
        "G6-61": build_family(FamilySpec("multipartite", (4, 1, 1))),
        "G6-73": build_family(FamilySpec("multipartite", (3, 3))),
        "G6-79": add_apex(c5, (0, 1, 2, 3)),
        "G6-80": compose("cartesian", _k(2), _k(3)),
        "G6-84": from_mask(6, _G6_84_MASK),
        "G6-88": compose("join", _kbar(2), k2uk2),
        "G6-92": compose("join", _k(1), c5),
        "G6-96": build_family(FamilySpec("multipartite", (3, 2, 1))),
        "G6-97": compose("join", _k(2), k2uk2),
        "G6-98": compose("star", _k(5), _k(2), roots=(0, 0)),
        "G6-104": build_family(FamilySpec("multipartite", (3, 1, 1, 1))),
        "G6-105": build_family(FamilySpec("wedge", (5, 2))),
        "G6-106": build_family(FamilySpec("knp4", (6,))),
        "G6-108": build_family(FamilySpec("multipartite", (2, 2, 2))),
        "G6-109": build_family(FamilySpec("wedge", (5, 3))),
        "G6-110": build_family(FamilySpec("multipartite", (2, 2, 1, 1))),
        "G6-111": build_family(FamilySpec("multipartite", (2, 1, 1, 1, 1))),
        "G6-112": _k(6),
    }
    return named


def builtin_catalog() -> Catalog:
    """Catalog of the known-named entries, ordered by id number."""
    named = known_graphs()

    def idkey(ident: str) -> tuple[int, int]:
        order, num = ident[1:].split("-")
        return int(order), int(num)

    entries = [
        CatalogEntry(ident, to_graph6(named[ident]), canonical_cert(named[ident]))
        for ident in sorted(named, key=idkey)
    ]
    return Catalog(entries)
