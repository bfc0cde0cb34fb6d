"""Bit-exact graph6 codec and catalog files.

Format: byte0 is 63+n (n <= 62); the following bytes encode the upper
adjacency triangle in column-major pair order, six bits per byte, big-endian
within each group, zero-padded, each group value offset by 63.  Only the
headerless variant is emitted; a leading ">>graph6<<" marker is skipped on
input.  Orders beyond the package cap of 10 vertices are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import n_bits
from .canon import CanonicalCert, canonical_cert, least_masks
from .errors import (
    BadHeaderError,
    BadLengthError,
    CatalogParseError,
    Graph6Error,
    OrderTooLargeError,
    TrailingGarbageError,
)
from .graphs import MAX_ORDER, Graph, from_mask

_HEADER = ">>graph6<<"
# a payload byte's six bits, reversed: mask bit 6k + b is bit 5 - b of byte k
_REV6 = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))
_CHARS = tuple(chr(63 + rev) for rev in _REV6)  # the payload character of six mask bits


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 record."""
    record = text.strip()
    if record.startswith(_HEADER):
        record = record[len(_HEADER):]
    if not record:
        raise BadLengthError("empty graph6 record")
    first = ord(record[0])
    if first == 126:
        raise OrderTooLargeError("multi-byte order encoding (n > 62) is not supported")
    if not 63 <= first <= 125:
        raise BadHeaderError(f"invalid order byte {record[0]!r}")
    n = first - 63
    if n < 1:
        raise BadHeaderError("graph6 record with zero vertices")
    if n > MAX_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds supported maximum {MAX_ORDER}")
    body = record[1:]
    nbits = n_bits(n)
    need = (nbits + 5) // 6
    if len(body) < need:
        raise BadLengthError(f"need {need} payload bytes for n={n}, got {len(body)}")
    if len(body) > need:
        raise TrailingGarbageError(f"{len(body) - need} extra bytes after payload")
    mask = 0
    for k, ch in enumerate(body):
        if not 63 <= ord(ch) < 127:
            raise BadLengthError(f"invalid payload byte {ch!r}")
        mask |= _REV6[ord(ch) - 63] << 6 * k
    if mask >> nbits:
        raise TrailingGarbageError("nonzero padding bits")
    return from_mask(n, mask)


def to_graph6(g: Graph) -> str:
    """Encode a graph; parse_graph6(to_graph6(g)) reproduces g exactly."""
    mask = g.mask
    return chr(63 + g.n) + "".join([_CHARS[mask >> t & 63] for t in range(0, n_bits(g.n), 6)])


def to_graph6_column(n: int, masks: np.ndarray) -> list[str]:
    """`to_graph6` of the graphs on n vertices with packed int64 `masks`, in
    one array pass: each record's bytes as one row, read as one string."""
    codes = np.empty((len(masks), 1 + -(-n_bits(n) // 6)), dtype=np.uint8)
    codes[:, 0] = 63 + n
    codes[:, 1:] = np.array(_REV6, dtype=np.uint8)[masks[:, None] >> np.arange(0, n_bits(n), 6) & 63] + 63
    return codes.view(f"S{codes.shape[1]}").ravel().astype(str).tolist()


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    g6: str
    cert: CanonicalCert


@dataclass
class Catalog:
    """Loaded catalog: entries in file order plus non-fatal warnings."""

    entries: list[CatalogEntry]
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._by_cert: dict[CanonicalCert, str] = {}
        for e in self.entries:
            self._by_cert.setdefault(e.cert, e.id)

    def by_cert(self) -> dict[CanonicalCert, str]:
        """Certificate -> id of its first entry, indexed once, on construction."""
        return self._by_cert


def load_catalog(path) -> Catalog:
    """Read newline-separated graph6 records, each optionally prefixed by an id.

    Missing ids default to "G<order>-<lineno>".  Duplicate certificates are
    reported as warnings; duplicate ids are an error.  The records of each
    order are certified as one `least_masks` stack.
    """
    parsed: list[tuple[int, str, str, Graph]] = []
    seen_ids: set[str] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode("ascii").strip()
            except UnicodeDecodeError as exc:
                raise CatalogParseError(
                    lineno, f"non-ASCII byte {raw[exc.start]:#04x} at column {exc.start + 1}") from exc
            if not line:
                continue
            tokens = line.split()
            if len(tokens) == 1:
                ident, g6 = None, tokens[0]
            elif len(tokens) == 2:
                ident, g6 = tokens
            else:
                raise CatalogParseError(lineno, f"expected 'id g6' or 'g6', got {len(tokens)} fields")
            try:
                g = parse_graph6(g6)
            except (Graph6Error, OrderTooLargeError) as exc:
                raise CatalogParseError(lineno, f"bad graph6 record {g6!r}: {exc}") from exc
            if ident is None:
                ident = f"G{g.n}-{lineno}"
            if ident in seen_ids:
                raise CatalogParseError(lineno, f"duplicate id {ident!r}")
            seen_ids.add(ident)
            parsed.append((lineno, ident, g6, g))
    for n in {g.n for *_, g in parsed}:
        graphs = [g for *_, g in parsed if g.n == n]
        for g, bits in zip(graphs, least_masks(np.stack([g.adj for g in graphs])).tolist()):
            g._cert = CanonicalCert(n, bits)
    catalog = Catalog([CatalogEntry(ident, g6, g._cert) for _, ident, g6, g in parsed])
    first = catalog.by_cert()
    catalog.warnings = [f"line {lineno}: {e.id} is isomorphic to earlier entry {first[e.cert]}"
                        for (lineno, *_), e in zip(parsed, catalog.entries) if first[e.cert] != e.id]
    return catalog


def identify(g: Graph, catalog: Catalog) -> str | None:
    """Catalog id of the graph's isomorphism class, independent of labeling."""
    return catalog.by_cert().get(canonical_cert(g))
