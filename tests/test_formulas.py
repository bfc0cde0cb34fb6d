import math

import pytest

from constructions import disjoint_union
from per_graph import qec_join_regular
from qec.engine import qec
from qec.errors import BadParamsError, NotRegularError, UnsupportedFamilyError
from qec.formulas import (
    _multipartite_alpha,
    formula_value,
    qec_formula,
    qec_multipartite,
)
from qec.graphs import (
    build_family,
    complete,
    compose,
    cycle,
    from_edges,
    knp4,
    multipartite,
    path,
    star,
    wedge,
)


def test_path_formula_values():
    assert abs(qec_formula(path(6)) - (-2.0 / (2.0 + math.sqrt(3.0)))) < 1e-12
    assert abs(qec_formula(path(3)) + 2.0 / 3.0) < 1e-12


def test_cycle_formula_values():
    assert abs(qec_formula(cycle(5)) - (-1.0 / (4.0 * math.cos(math.pi / 5) ** 2))) < 1e-12
    assert abs(qec_formula(cycle(5)) - (-3.0 + math.sqrt(5.0)) / 2.0) < 1e-12
    assert qec_formula(cycle(4)) == 0.0
    assert qec_formula(cycle(6)) == 0.0


def test_complete_formula():
    assert qec_formula(complete(5)) == -1.0


def test_wedge_formula_values():
    assert abs(qec_formula(wedge(5, 2)) - (-9.0 + math.sqrt(45.0)) / 6.0) < 1e-12
    # boundary m = n collapses to a complete graph
    for n in range(1, 9):
        assert abs(qec_formula(wedge(n, n)) + 1.0) < 1e-12


def test_knp4_formula_values():
    assert abs(qec_formula(knp4(6)) - (-3.0 + math.sqrt(5.0)) / 2.0) < 1e-12
    assert abs(qec_formula(knp4(7)) - (-13.0 + math.sqrt(85.0)) / 14.0) < 1e-12


def test_knp4_branches_take_the_max():
    # the returned branch is always the larger of the two candidate roots
    for n in range(5, 13):
        const = (-3.0 + math.sqrt(5.0)) / 2.0
        general = (-(n + 6.0) + math.sqrt((n + 6.0) ** 2 + 4.0 * n * (n - 10.0))) / (2.0 * n)
        assert abs(qec_formula(knp4(n)) - max(const, general)) < 1e-12


def test_formula_unsupported_kinds():
    with pytest.raises(UnsupportedFamilyError):
        qec_formula(multipartite(3, 2))
    with pytest.raises(UnsupportedFamilyError):
        qec_formula(star(4))
    with pytest.raises(BadParamsError):
        qec_formula(complete(1))
    with pytest.raises(BadParamsError):
        qec_formula(path(1))


def test_multipartite_values():
    assert qec_multipartite((3, 3)) == 1.0
    assert abs(qec_multipartite((3, 2)) - 0.4) < 1e-11
    # alpha solves 5/(a+5) + 1/(a+1) = 0 at a = -5/3
    assert abs(qec_multipartite((5, 1)) + 1.0 / 3.0) < 1e-11
    # alpha solves 4/(a+4) + 2/(a+2) = 0 at a = -8/3
    assert abs(qec_multipartite((4, 2)) - 2.0 / 3.0) < 1e-11


def test_multipartite_alpha_bracket():
    for parts in ((3, 2), (5, 1), (4, 2), (4, 3, 1), (5, 2, 1), (3, 2, 2, 1)):
        if parts[0] == parts[1]:
            continue
        alpha = _multipartite_alpha(parts)
        assert -parts[0] < alpha < -parts[1]
        assert abs(sum(m / (alpha + m) for m in parts)) < 1e-9


def test_multipartite_bad_params():
    with pytest.raises(BadParamsError):
        qec_multipartite((3,))
    with pytest.raises(BadParamsError):
        qec_multipartite((2, 3))
    with pytest.raises(BadParamsError):
        qec_multipartite((3, 0))


def test_join_regular_values():
    kbar2 = from_edges(2, [])
    k2uk2 = disjoint_union(build_family(complete(2)), build_family(complete(2)))
    assert abs(qec_join_regular(kbar2, k2uk2) - 1.0 / 3.0) < 1e-10
    k1 = build_family(complete(1))
    c5 = build_family(cycle(5))
    wheel_value = -2.0 + (1.0 + math.sqrt(5.0)) / 2.0  # -2 - 2cos(4pi/5)
    assert abs(qec_join_regular(k1, c5) - wheel_value) < 1e-10
    kbar3 = from_edges(3, [])
    assert abs(qec_join_regular(kbar3, kbar3) - qec_multipartite((3, 3))) < 1e-10


def test_join_regular_rejects_irregular():
    p3 = build_family(path(3))
    with pytest.raises(NotRegularError):
        qec_join_regular(p3, build_family(complete(2)))


def test_join_formula_matches_engine_on_join_graph():
    kbar2 = from_edges(2, [])
    k2uk2 = disjoint_union(build_family(complete(2)), build_family(complete(2)))
    g = compose("join", kbar2, k2uk2)
    assert abs(qec_join_regular(kbar2, k2uk2) - qec(g).value) < 1e-9


def test_formula_vs_engine_spot():
    for spec in (path(5), cycle(7), complete(6), wedge(6, 3), knp4(8),
                 multipartite(4, 2, 1), star(5)):
        g = build_family(spec)
        assert abs(formula_value(spec) - qec(g).value) < 1e-8
