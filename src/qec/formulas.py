"""Closed-form QEC values for the standard families.

Each formula is cross-validated against the numeric engine by the test
suite; the engine stays the generic route, these are the fast exact ones.
"""

from __future__ import annotations

import math

from .errors import BadParamsError, UnsupportedFamilyError
from .graphs import FamilySpec


def qec_formula(spec: FamilySpec) -> float:
    """Closed form for complete/path/cycle/wedge/knp4 families."""
    kind, p = spec.kind, spec.params
    if kind == "complete":
        if p[0] < 2:
            raise BadParamsError("QEC of a complete graph needs n >= 2")
        return -1.0
    if kind == "path":
        n = p[0]
        if n < 2:
            raise BadParamsError("QEC of a path needs n >= 2")
        return -1.0 / (1.0 + math.cos(math.pi / n))
    if kind == "cycle":
        n = p[0]
        if n % 2 == 0:
            return 0.0
        return -1.0 / (4.0 * math.cos(math.pi / n) ** 2)
    if kind == "wedge":
        n, m = p
        return (-2.0 * n + m - 1.0 + math.sqrt(n * (n - m) * (m + 1))) / (n + 1.0)
    if kind == "knp4":
        n = p[0]
        if n <= 6:
            return (-3.0 + math.sqrt(5.0)) / 2.0
        return (-(n + 6.0) + math.sqrt((n + 6.0) ** 2 + 4.0 * n * (n - 10.0))) / (2.0 * n)
    raise UnsupportedFamilyError(f"no closed form dispatched for {spec}")


def qec_formula_exact(spec: FamilySpec) -> str:
    """Human-readable exact expression matching qec_formula."""
    kind, p = spec.kind, spec.params
    if kind == "complete":
        return "-1"
    if kind == "path":
        return f"-1/(1+cos(pi/{p[0]}))"
    if kind == "cycle":
        return "0" if p[0] % 2 == 0 else f"-1/(4*cos(pi/{p[0]})^2)"
    if kind == "wedge":
        n, m = p
        return f"({m - 2 * n - 1}+sqrt({n * (n - m) * (m + 1)}))/{n + 1}"
    if kind == "knp4":
        n = p[0]
        if n <= 6:
            return "(-3+sqrt(5))/2"
        return f"(-{n + 6}+sqrt({(n + 6) ** 2 + 4 * n * (n - 10)}))/{2 * n}"
    if kind in ("multipartite", "star"):
        parts = _as_parts(spec)
        if parts[0] == parts[1]:
            return str(parts[0] - 2)
        return f"-2-a, a the root of sum(m/(a+m))=0 in (-{parts[0]},-{parts[1]})"
    raise UnsupportedFamilyError(f"no closed form dispatched for {spec}")


def _as_parts(spec: FamilySpec) -> tuple[int, ...]:
    if spec.kind == "multipartite":
        return spec.params
    if spec.kind == "star":
        return (spec.params[0], 1)
    raise UnsupportedFamilyError(f"{spec} is not a complete multipartite family")


def qec_multipartite(parts) -> float:
    """QEC of the complete multipartite graph with the given descending parts."""
    p = tuple(int(x) for x in parts)
    if len(p) < 2 or any(x < 1 for x in p) or list(p) != sorted(p, reverse=True):
        raise BadParamsError(f"invalid multipartite parts {parts!r}")
    if p[0] == p[1]:
        return float(p[0] - 2)
    return -2.0 - _multipartite_alpha(p)


def _multipartite_alpha(parts: tuple[int, ...]) -> float:
    """Root of F(a) = sum m_i/(a+m_i) in the pole gap (-m1, -m2), by bisection."""

    def f(a: float) -> float:
        return sum(m / (a + m) for m in parts)

    eps = 1e-9
    lo, hi = -parts[0] + eps, -parts[1] - eps
    flo, fhi = f(lo), f(hi)
    if not (flo > 0.0 > fhi):
        raise ArithmeticError(f"bisection bracket lost for parts {parts}: F({lo})={flo}, F({hi})={fhi}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def formula_value(spec: FamilySpec) -> float:
    """Closed form for any supported family, dispatching multipartite kinds."""
    if spec.kind in ("multipartite", "star"):
        return qec_multipartite(_as_parts(spec))
    return qec_formula(spec)


def regular_join_value(n1: int, r1: int, low1: float, n2: int, r2: int, low2: float) -> float:
    """QEC of the join of an r1-regular graph on n1 vertices with an r2-regular
    one on n2, given their smallest adjacency eigenvalues low1 and low2."""
    cross = (2.0 * n1 * n2 - r1 * n2 - r2 * n1) / (n1 + n2)
    return -2.0 + max(-low1, -low2, cross)
