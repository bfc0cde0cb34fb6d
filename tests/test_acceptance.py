"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest -s tests/test_acceptance.py -v` to see the per-criterion lines,
the seven-vertex stretch criterion (11) included.

Criteria 3 and 9 assert corrected reference constants.  The originals
were contradicted by exact computation: criterion 3 stated the cubic
5v^3+26v^2+24v-6 (a miscopy of 6v^3+26v^2+24v-6, twice 3v^3+13v^2+12v-3)
and the four-digit values 0.2034 and 0.1313 (the true values round to
0.2032 and 0.1314); criterion 9 counted 8 six-vertex pendant-edge graphs
where there are 10.  The exact evidence lives in test_classify.py (sympy
factorisation, networkx atlas scan) and test_embedding.py (square-on-edge
reconstruction, networkx atlas count); README's "Corrected reference
constants" section has the details.
"""

import itertools
import math

import pytest

from qec.bits import n_bits
from qec.canon import canonical_cert, is_isomorphic
from qec.classify import Verdict, classify, classify_all, enumerate_connected, is_isometric_subgraph
from qec.embedding import embed, verify_embedding
from qec.engine import is_cnd_exact, qec
from qec.errors import NotQEError
from qec.formulas import formula_value, qec_join_regular, qec_multipartite
from qec.graph6 import parse_graph6, to_graph6
from qec.graphs import (
    FamilySpec,
    add_apex,
    build_family,
    complete,
    compose,
    cycle,
    distance_matrix,
    find_pendant_edge,
    from_mask,
    induced_subgraph,
    knp4,
    multipartite,
    path,
    wedge,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def six():
    return classify_all(6, workers=1)


@pytest.fixture(scope="module")
def five():
    return classify_all(5, workers=1)


def _partitions(total, largest=None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_criterion_01_six_vertex_classification(six):
    records, summary = six
    ok = len(records) == 112 and tuple(summary) == (85, 24, 3)
    _line(1, ok, f"{len(records)} classes, counts {tuple(summary)} (want 112 and (85, 24, 3))")
    assert len(records) == 112
    assert tuple(summary) == (85, 24, 3)


def test_criterion_02_five_vertex_baseline(five):
    records, summary = five
    primaries = [r for r in records if r.verdict is Verdict.NON_QE_PRIMARY]
    non_qe = [r for r in records if r.verdict is not Verdict.QE]
    values = sorted(r.qec_value for r in primaries)
    target_small = 4.0 / (11.0 + math.sqrt(161.0))
    ok_values = (len(values) == 2
                 and abs(values[0] - target_small) <= 1e-8
                 and abs(values[1] - 0.4) <= 1e-8)
    k32 = build_family(multipartite(3, 2))
    ok_k32 = any(is_isomorphic(r.graph, k32) for r in primaries)
    ok = (len(records) == 21 and len(non_qe) == 2 and len(primaries) == 2
          and ok_values and ok_k32)
    _line(2, ok, f"21 classes, non-QE values {[round(v, 9) for v in values]}, K_{{3,2}} found: {ok_k32}")
    assert len(records) == 21
    assert len(non_qe) == 2 and len(primaries) == 2
    assert ok_values, f"primary values {values} vs (2/5, 4/(11+sqrt(161)))={0.4, target_small}"
    assert ok_k32


def test_criterion_03_primary_trio_values(six):
    records, _ = six
    values = sorted(r.qec_value for r in records if r.verdict is Verdict.NON_QE_PRIMARY)

    def cubic(v):
        return abs(3 * v ** 3 + 13 * v ** 2 + 12 * v - 3)

    def quartic(v):
        return abs(3 * v ** 4 + 14 * v ** 3 + 18 * v ** 2 + 5 * v - 1)

    quad_target = (-4.0 + math.sqrt(19.0)) / 3.0
    v_quad = min(values, key=lambda v: abs(v - quad_target))
    rest = sorted(v for v in values if v != v_quad)
    v_cubic, v_quartic = min(
        ((a, b) for a, b in itertools.permutations(rest, 2)),
        key=lambda ab: cubic(ab[0]) + quartic(ab[1]))
    ok_quad = abs(v_quad - quad_target) <= 1e-8
    ok_cubic = cubic(v_cubic) <= 1e-6
    ok_quartic = quartic(v_quartic) <= 1e-6
    ok_positive = all(v > 0 for v in values)
    approx_targets = (0.1196, 0.2032, 0.1314)
    approx_errors = {t: min(abs(v - t) for v in values) for t in approx_targets}
    ok_approx = all(err <= 5e-5 for err in approx_errors.values())
    ok = ok_quad and ok_cubic and ok_quartic and ok_positive and ok_approx
    _line(3, ok, f"values {[round(v, 9) for v in values]}; cubic residual {cubic(v_cubic):.3g}, "
                 f"approx errors {[f'{t}:{e:.2g}' for t, e in approx_errors.items()]}")
    assert ok_quad, f"no primary value within 1e-8 of (-4+sqrt(19))/3: {values}"
    assert ok_positive
    assert ok_quartic, f"quartic residual {quartic(v_quartic)} for value {v_quartic}"
    assert ok_cubic, (
        f"no primary QEC value satisfies the cubic 3v^3+13v^2+12v-3 within 1e-6: "
        f"residual {cubic(v_cubic):.6g} at v={v_cubic!r}")
    assert ok_approx, (
        f"four-digit reference approximations not all matched within 5e-5: {approx_errors}")


def test_criterion_04_non_primary_witnesses(six, five):
    records6, _ = six
    five_primaries = [r.graph for r in five[0] if r.verdict is Verdict.NON_QE_PRIMARY]
    non_primary = [r for r in records6 if r.verdict is Verdict.NON_QE_NON_PRIMARY]
    ok = len(non_primary) == 24
    for rec in non_primary:
        witness = rec.witness
        sub = induced_subgraph(rec.graph, witness)
        good = (len(witness) == 5
                and is_isometric_subgraph(rec.graph, witness)
                and not is_cnd_exact(sub)
                and any(is_isomorphic(sub, p) for p in five_primaries))
        ok = ok and good
    _line(4, ok, f"{len(non_primary)} non-primary graphs, each with a 5-vertex primary witness")
    assert ok


def test_criterion_05_closed_form_sweeps():
    checks: list[tuple[str, float, float]] = []
    for n in range(2, 9):
        checks.append((f"path:{n}", formula_value(path(n)), qec(build_family(path(n))).value))
        checks.append((f"complete:{n}", -1.0, qec(build_family(complete(n))).value))
    for n in range(3, 9):
        checks.append((f"cycle:{n}", formula_value(cycle(n)), qec(build_family(cycle(n))).value))
    for n in range(1, 9):
        for m in range(1, n + 1):
            spec = wedge(n, m)
            if n + 1 >= 2:
                checks.append((str(spec), formula_value(spec), qec(build_family(spec)).value))
    for n in range(5, 10):
        checks.append((f"knp4:{n}", formula_value(knp4(n)), qec(build_family(knp4(n))).value))
    for total in range(2, 9):
        for parts in _partitions(total):
            if len(parts) < 2:
                continue
            g = build_family(FamilySpec("multipartite", parts))
            checks.append((f"multipartite:{parts}", qec_multipartite(parts), qec(g).value))
    # joins of two regular graphs totalling six vertices (regular parts of
    # every order 1..5, connected or not, one representative per class)
    regulars: dict[int, list] = {k: [] for k in range(1, 6)}
    for k in range(1, 6):
        seen = set()
        for mask in range(1 << n_bits(k)):
            g = from_mask(k, mask)
            deg = g.degrees()
            if not (deg == deg[0]).all():
                continue
            cert = canonical_cert(g)
            if cert in seen:
                continue
            seen.add(cert)
            regulars[k].append(g)
    join_count = 0
    for n1 in range(1, 6):
        n2 = 6 - n1
        if n1 > n2:
            continue
        for g1 in regulars[n1]:
            for g2 in regulars[n2]:
                join = compose("join", g1, g2)
                checks.append((f"join:{n1}+{n2}", qec_join_regular(g1, g2), qec(join).value))
                join_count += 1
    worst = max(abs(a - b) for _, a, b in checks)
    ok = worst <= 1e-8
    _line(5, ok, f"{len(checks)} formula-vs-engine checks (incl. {join_count} regular joins), max delta {worst:.3g}")
    bad = [(name, a, b) for name, a, b in checks if abs(a - b) > 1e-8]
    assert ok, f"formula/engine disagreement: {bad[:5]}"


def test_criterion_06_boundary_exactness():
    k2 = build_family(complete(2))
    cases = {
        "C4": build_family(cycle(4)),
        "C6": build_family(cycle(6)),
        "K2xP3": compose("cartesian", k2, build_family(path(3))),
        "K2xK3": compose("cartesian", k2, build_family(complete(3))),
    }
    results = {name: (is_cnd_exact(g), qec(g).value) for name, g in cases.items()}
    ok = all(exact and abs(v) <= 1e-9 for exact, v in results.values())
    _line(6, ok, ", ".join(f"{k}: qec={v:.2g}" for k, (_, v) in results.items()))
    assert ok, results


def test_criterion_07_spectral_bound(six):
    records, _ = six
    ok = True
    for rec in records:
        rep = qec(rec.graph)
        if not (rep.lambda2 - 1e-9 <= rep.value < rep.lambda1):
            ok = False
    k6 = qec(build_family(complete(6)))
    equality = abs(k6.value - k6.lambda2) <= 1e-10 and abs(k6.value + 1.0) <= 1e-10
    ok = ok and equality
    _line(7, ok, f"lambda2 <= QEC < lambda1 on all 112; K6 equality at -1: {equality}")
    assert ok


def test_criterion_08_embeddings(six):
    records, _ = six
    qe_count = embedded = 0
    for n in range(2, 6):
        for g in enumerate_connected(n):
            if is_cnd_exact(g):
                qe_count += 1
                if verify_embedding(embed(g), distance_matrix(g)) <= 1e-8:
                    embedded += 1
    for rec in records:
        if rec.verdict is Verdict.QE:
            qe_count += 1
            if verify_embedding(embed(rec.graph), distance_matrix(rec.graph)) <= 1e-8:
                embedded += 1
    rejected = 0
    non_qe_total = 0
    for rec in records:
        if rec.verdict is Verdict.QE:
            continue
        non_qe_total += 1
        try:
            embed(rec.graph)
        except NotQEError:
            rejected += 1
    worked = add_apex(add_apex(build_family(cycle(4)), (0, 1)), (0, 3, 4))
    worked_defect = verify_embedding(embed(worked), distance_matrix(worked))
    ok = (embedded == qe_count and rejected == non_qe_total == 27
          and worked_defect <= 1e-8)
    _line(8, ok, f"{embedded}/{qe_count} QE graphs embedded, {rejected}/27 non-QE rejected, "
                 f"worked-example defect {worked_defect:.2g}")
    assert ok


def test_criterion_09_pendant_rule(six):
    records, _ = six
    pendant_records = [r for r in records if find_pendant_edge(r.graph) is not None]
    values_ok = all(abs(r.qec_value) <= 1e-8 for r in pendant_records)
    count = len(pendant_records)
    ok = values_ok and count == 10
    _line(9, ok, f"{count} six-vertex pendant-edge graphs, all with |QEC| <= 1e-8: {values_ok}")
    assert values_ok
    assert count == 10, (
        f"found {count} six-vertex graphs with a pendant edge, not 10 (one per edge orbit of "
        f"the six connected four-vertex graphs, a square glued onto that edge)")


def test_criterion_10_complete_multipartite_primaries():
    expected_primary = {(3, 2), (5, 1, 1), (4, 1, 1, 1), (3, 1, 1, 1, 1)}
    seen_primary = set()
    ok = True
    for total in range(2, 8):
        for parts in _partitions(total):
            if len(parts) < 2:
                continue
            rec = classify(build_family(FamilySpec("multipartite", parts)))
            value = qec_multipartite(parts)
            if rec.verdict is Verdict.NON_QE_PRIMARY:
                seen_primary.add(parts)
            elif rec.verdict is Verdict.NON_QE_NON_PRIMARY:
                ok = ok and value > 1e-9
            else:
                ok = ok and value <= 1e-9
    ok = ok and seen_primary == expected_primary
    _line(10, ok, f"primary multipartites on <= 7 vertices: {sorted(seen_primary)}")
    assert seen_primary == expected_primary
    assert ok


def test_criterion_11_seven_vertex_stretch():
    count = len(enumerate_connected(7))
    ok = count == 853
    _line(11, ok, f"enumerate_connected(7) -> {count} classes (want 853)")
    assert ok


def test_criterion_12_graph6_roundtrip():
    total = 0
    ok = True
    for n in range(1, 7):
        for g in enumerate_connected(n):
            total += 1
            if parse_graph6(to_graph6(g)) != g:
                ok = False
    _line(12, ok, f"{total} enumerated graphs round-tripped bit-identically")
    assert ok
