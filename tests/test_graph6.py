import pytest
from hypothesis import given, strategies as st

from aliases import builtin_catalog, known_graphs
from constructions import relabel
from qec.bits import n_bits
from qec.canon import canonical_cert
from qec.classify import enumerate_connected
from qec.engine import is_cnd_exact
from qec.errors import (
    BadHeaderError,
    BadLengthError,
    CatalogParseError,
    OrderTooLargeError,
    TrailingGarbageError,
)
from qec.graph6 import identify, load_catalog, parse_graph6, to_graph6
from qec.graphs import (
    build_family,
    complete,
    cycle,
    from_edges,
    from_mask,
    multipartite,
    path,
)


def test_parse_hand_encoded_records():
    assert parse_graph6("Bw") == build_family(complete(3))
    assert parse_graph6("Bg") == from_edges(3, [(0, 1), (1, 2)])
    assert parse_graph6("Dhc") == build_family(cycle(5))


def test_encode_hand_encoded_records():
    assert to_graph6(build_family(complete(3))) == "Bw"
    assert to_graph6(from_edges(3, [(0, 1), (1, 2)])) == "Bg"
    assert to_graph6(build_family(cycle(5))) == "Dhc"
    assert to_graph6(build_family(cycle(6))) == "EhEG"


def test_header_prefix_is_skipped():
    assert parse_graph6(">>graph6<<Bw") == build_family(complete(3))


def test_parse_errors():
    with pytest.raises(BadLengthError):
        parse_graph6("")
    with pytest.raises(BadHeaderError):
        parse_graph6(chr(62) + "w")
    with pytest.raises(OrderTooLargeError):
        parse_graph6("~??")
    with pytest.raises(OrderTooLargeError):
        parse_graph6(chr(63 + 12) + "?" * 11)
    with pytest.raises(BadLengthError):
        parse_graph6("B")
    with pytest.raises(TrailingGarbageError):
        parse_graph6("Bww")
    with pytest.raises(TrailingGarbageError):
        parse_graph6("B{")  # nonzero padding bits


@given(st.integers(1, 7), st.data())
def test_roundtrip_random_masks(n, data):
    mask = data.draw(st.integers(0, (1 << n_bits(n)) - 1))
    g = from_mask(n, mask)
    assert parse_graph6(to_graph6(g)) == g


def test_roundtrip_all_enumerated():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert parse_graph6(to_graph6(g)) == g


def test_load_catalog_and_identify(tmp_path):
    lines = ["G6-19 EhEG", "Bw", "G6-112 " + to_graph6(build_family(complete(6)))]
    f = tmp_path / "catalog.g6"
    f.write_text("\n".join(lines) + "\n", encoding="ascii")
    catalog = load_catalog(f)
    assert [e.id for e in catalog.entries] == ["G6-19", "G3-2", "G6-112"]
    assert not catalog.warnings
    assert identify(build_family(cycle(6)), catalog) == "G6-19"
    # identification is labeling independent
    shuffled = relabel(build_family(cycle(6)), [3, 5, 1, 0, 2, 4])
    assert identify(shuffled, catalog) == "G6-19"
    # order mismatch: K3 against a catalog with K3 present under 3 vertices
    assert identify(build_family(complete(4)), catalog) is None


def test_identify_small_graph_not_in_six_vertex_catalog(tmp_path):
    f = tmp_path / "catalog.g6"
    f.write_text("G6-19 EhEG\n", encoding="ascii")
    catalog = load_catalog(f)
    assert identify(build_family(complete(3)), catalog) is None


def test_catalog_parse_error_line_number(tmp_path):
    f = tmp_path / "catalog.g6"
    f.write_text("G6-1 @@@@\n", encoding="ascii")
    with pytest.raises(CatalogParseError) as err:
        load_catalog(f)
    assert err.value.line == 1


def test_catalog_too_many_fields(tmp_path):
    f = tmp_path / "catalog.g6"
    f.write_text("G6-1 Bw extra\n", encoding="ascii")
    with pytest.raises(CatalogParseError):
        load_catalog(f)


def test_catalog_duplicate_id(tmp_path):
    f = tmp_path / "catalog.g6"
    f.write_text("A Bw\nA Bg\n", encoding="ascii")
    with pytest.raises(CatalogParseError):
        load_catalog(f)


def test_catalog_duplicate_cert_warns(tmp_path):
    g = build_family(cycle(6))
    h = relabel(g, [2, 4, 0, 5, 1, 3])
    f = tmp_path / "catalog.g6"
    f.write_text(f"A {to_graph6(g)}\nB {to_graph6(h)}\n", encoding="ascii")
    catalog = load_catalog(f)
    assert len(catalog.entries) == 2
    assert len(catalog.warnings) == 1
    assert "isomorphic" in catalog.warnings[0]


def test_builtin_catalog_consistency():
    catalog = builtin_catalog()
    named = known_graphs()
    assert len(catalog.entries) == len(named)
    for entry in catalog.entries:
        assert entry.cert == canonical_cert(parse_graph6(entry.g6))
    # six-vertex entries are pairwise non-isomorphic
    certs = [e.cert for e in catalog.entries]
    assert len(set(certs)) == len(certs)


def test_builtin_catalog_known_identities():
    catalog = builtin_catalog()
    assert identify(build_family(cycle(6)), catalog) == "G6-19"
    assert identify(build_family(multipartite(3, 3)), catalog) == "G6-73"
    assert identify(build_family(path(6)), catalog) == "G6-6"
    assert identify(build_family(complete(6)), catalog) == "G6-112"


def test_builtin_catalog_verdict_split_pairs():
    named = known_graphs()
    assert not is_cnd_exact(named["G6-30"])
    assert is_cnd_exact(named["G6-32"])
    assert is_cnd_exact(named["G6-59"])
    assert not is_cnd_exact(named["G6-60"])
    assert not is_cnd_exact(named["G6-84"])
