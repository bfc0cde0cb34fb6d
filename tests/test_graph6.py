import random

import pytest
from hypothesis import given, strategies as st

from aliases import builtin_catalog, known_graphs
from constructions import relabel
from qec.bits import n_bits
from qec.canon import canonical_cert
from qec.classify import enumerate_connected
from qec.cli import main
from qec.engine import is_cnd_exact
from qec.errors import (
    BadHeaderError,
    BadLengthError,
    CatalogParseError,
    OrderTooLargeError,
    QecError,
    TrailingGarbageError,
)
from qec.graph6 import Catalog, CatalogEntry, identify, load_catalog, parse_graph6, to_graph6
from qec.graphs import (
    MAX_ORDER,
    build_family,
    complete,
    cycle,
    from_edges,
    from_mask,
    multipartite,
    path,
)


def reference_parse_graph6(text):
    """graph6 decoding bit by bit: the reference for the table-driven codec."""
    record = text.strip()
    if record.startswith(">>graph6<<"):
        record = record[len(">>graph6<<"):]
    if not record:
        raise BadLengthError("empty graph6 record")
    first = ord(record[0])
    if first == 126:
        raise OrderTooLargeError("multi-byte order encoding")
    if not 63 <= first <= 125:
        raise BadHeaderError("invalid order byte")
    n = first - 63
    if n < 1:
        raise BadHeaderError("zero vertices")
    if n > MAX_ORDER:
        raise OrderTooLargeError("order too large")
    body = record[1:]
    nbits = n_bits(n)
    need = (nbits + 5) // 6
    if len(body) < need:
        raise BadLengthError("short payload")
    if len(body) > need:
        raise TrailingGarbageError("extra bytes")
    mask = 0
    for k, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise BadLengthError("invalid payload byte")
        for b in range(6):
            t = 6 * k + b
            bit = (val >> (5 - b)) & 1
            if t < nbits:
                mask |= bit << t
            elif bit:
                raise TrailingGarbageError("nonzero padding bits")
    return from_mask(n, mask)


def reference_to_graph6(g):
    """graph6 encoding bit by bit: the reference for the table-driven codec."""
    nbits = n_bits(g.n)
    out = [chr(63 + g.n)]
    for k in range((nbits + 5) // 6):
        val = 0
        for b in range(6):
            t = 6 * k + b
            if t < nbits and (g.mask >> t) & 1:
                val |= 1 << (5 - b)
        out.append(chr(63 + val))
    return "".join(out)


def test_codec_matches_bit_by_bit_reference():
    """Every mask on up to 5 vertices and 300 seeded random masks on each of
    6..10 vertices encode and decode as the bit-by-bit reference does; every
    nonzero padding pattern is rejected by both."""
    rng = random.Random(66)
    cases = [(n, mask) for n in range(1, 6) for mask in range(1 << n_bits(n))]
    cases += [(n, rng.getrandbits(n_bits(n))) for n in range(6, 11) for _ in range(300)]
    for n, mask in cases:
        g = from_mask(n, mask)
        text = to_graph6(g)
        assert text == reference_to_graph6(g), (n, mask)
        assert parse_graph6(text) == reference_parse_graph6(text) == g
    for n in range(2, 11):
        text = to_graph6(from_mask(n, (1 << n_bits(n)) - 1))
        for pad in range(1, 1 << (-n_bits(n) % 6)):
            bad = text[:-1] + chr(ord(text[-1]) + pad)
            for parse in (parse_graph6, reference_parse_graph6):
                with pytest.raises(TrailingGarbageError):
                    parse(bad)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except QecError as exc:
        return type(exc)


@given(st.integers(55, 130), st.text(st.characters(min_codepoint=55, max_codepoint=135), max_size=9))
def test_parse_errors_match_reference(order, body):
    text = chr(order) + body
    assert _parse_outcome(parse_graph6, text) == _parse_outcome(reference_parse_graph6, text)


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


def test_catalog_indexes_once_first_id_wins():
    """`by_cert` is built once per catalog, the same mapping on every call,
    and a repeated certificate keeps its first id."""
    c6, k3 = build_family(cycle(6)), build_family(complete(3))
    entries = [CatalogEntry(ident, to_graph6(g), canonical_cert(g))
               for ident, g in (("A", c6), ("B", k3), ("C", relabel(c6, [2, 4, 0, 5, 1, 3])))]
    catalog = Catalog(entries)
    index = catalog.by_cert()
    assert index == {canonical_cert(c6): "A", canonical_cert(k3): "B"}
    assert catalog.by_cert() is index
    assert identify(relabel(c6, [5, 4, 3, 2, 1, 0]), catalog) == "A"
    assert identify(k3, catalog) == "B"
    assert identify(build_family(complete(4)), catalog) is None


def test_catalog_parse_error_line_number(tmp_path):
    f = tmp_path / "catalog.g6"
    f.write_text("G6-1 @@@@\n", encoding="ascii")
    with pytest.raises(CatalogParseError) as err:
        load_catalog(f)
    assert err.value.line == 1


@pytest.mark.parametrize("record", ["J????????????", "~??~"])
def test_catalog_over_large_order_names_its_line(tmp_path, record):
    f = tmp_path / "catalog.g6"
    f.write_text(f"A Bw\n\nB {record}\n", encoding="ascii")
    with pytest.raises(CatalogParseError) as err:
        load_catalog(f)
    assert err.value.line == 3
    assert str(err.value).startswith(f"line 3: bad graph6 record {record!r}: ")


def test_catalog_non_ascii_byte_names_its_line(tmp_path, capsys):
    f = tmp_path / "catalog.g6"
    f.write_bytes(b"B Bw\r\na A\xe9\n")
    with pytest.raises(CatalogParseError) as err:
        load_catalog(f)
    assert err.value.line == 2
    assert str(err.value) == "line 2: non-ASCII byte 0xe9 at column 4"
    assert main(["identify", "Bw", "--catalog", str(f)]) == 1
    assert capsys.readouterr().err == "error: line 2: non-ASCII byte 0xe9 at column 4\n"


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
