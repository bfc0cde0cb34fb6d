"""Command-line interface producing machine-readable classification reports.

Exit codes: 0 success, 1 usage or parse error or a closed stdout (silent),
2 connected/supported-input violations, 3 internal invariant breach (never
expected).  All floats are printed with 12 significant digits and JSON
reports use canonical key order, so outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from . import __version__
# `classify_all` stays bound here, unused: perfbench patches it to one worker
from .classify import (VERDICTS, ClassificationRecord, _cert_hits, _family_index, _sweep, classify,  # noqa: F401
                       classify_all, sieve_trace)
from .embedding import embed, verify_embedding
from .engine import is_cnd_exact, qec
from .errors import BadParamsError, CatalogParseError, Graph6Error, QecError
from .formulas import formula_value, qec_formula_exact
from .graph6 import identify, load_catalog, parse_graph6, to_graph6, to_graph6_column
from .graphs import FamilySpec, Graph, build_family, distance_matrix

_USAGE_ERRORS = (Graph6Error, CatalogParseError, BadParamsError, OSError, ValueError)

_CSV_COLUMNS = ["id", "graph6", "n", "edges", "qec", "verdict", "witness",
                "sieve_step", "closed_form"]
_VERDICT_TEXTS = tuple(verdict.value for verdict in VERDICTS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


_fmt = "{:.12g}".format  # a float's text with 12 significant digits


def _read_graph(arg: str) -> Graph:
    text = arg
    if arg == "-":
        text = ""
        for line in sys.stdin.read().splitlines():
            if line.strip():
                text = line.strip()
                break
    return parse_graph6(text)


class _Rows:
    """Dicts on one tuple of str keys, held by column: `columns` maps each key to its values in
    row order, `digits` float columns to the `.12g` texts their values are read from.  `_json_text`
    writes it as the list of those dicts, by column (`_json_columns`), and `_records_csv` as CSV rows."""

    __slots__ = ("columns", "digits")

    def __init__(self, columns: dict[str, list], digits: dict[str, list[str]]):
        self.columns, self.digits = columns, digits


def _record_rows(n: int, masks: np.ndarray, bits: np.ndarray, values: Sequence[float], verdicts: Sequence[int],
                 witnesses: Sequence, steps: Sequence, ident: str | None = None) -> _Rows:
    """The report fields of graphs of one order, by column, from their packed masks, certificate
    bits, QEC values, verdicts (into VERDICTS), witnesses and sieve steps: graph6 texts and edge counts
    from the masks in one pass, each value formatted once, closed forms only at the family members
    among the certificates."""
    closed_forms = [[] for _ in range(len(masks))]
    for i, (spec, value) in _cert_hits(_family_index(n), bits, np.arange(len(bits))).items():
        closed_forms[i] = [{"family": str(spec), "value": _round12(value), "exact": qec_formula_exact(spec)}]
    digits = list(map(_fmt, values))
    return _Rows({
        "id": [ident] * len(masks),
        "graph6": to_graph6_column(n, masks),
        "n": [n] * len(masks),
        "edges": list(map(int.bit_count, masks.tolist())),
        "qec": list(map(float, digits)),
        "verdict": list(map(_VERDICT_TEXTS.__getitem__, verdicts)),
        "witness": list(witnesses),
        "sieve_step": list(steps),
        "closed_forms": closed_forms,
    }, {"qec": digits})


def _record_dict(rec: ClassificationRecord, ident: str | None = None) -> dict:
    """The report fields of one record: the one-row case of `_record_rows`."""
    rows = _record_rows(rec.graph.n, np.array([rec.graph.mask]), np.array([rec.cert.bits]), [rec.qec_value],
                        [VERDICTS.index(rec.verdict)], [rec.witness], [rec.sieve_step], ident)
    return {key: column[0] for key, column in rows.columns.items()}


def _report(input_desc: str, records: list[dict] | _Rows, summary: dict | None = None) -> dict:
    if summary is None:
        verdicts = [r["verdict"] for r in records if r["verdict"]]
        summary = {
            "qe": verdicts.count("QE"),
            "non_primary": verdicts.count("NonQeNonPrimary"),
            "primary": verdicts.count("NonQePrimary"),
        }
    return {
        "version": __version__,
        "input": input_desc,
        "records": records,
        "summary": summary,
    }


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# json's text of each scalar type
_JSON_SCALARS = {str: encode_basestring_ascii, bool: lambda v: "true" if v else "false",
                 int: int.__repr__, type(None): lambda v: "null",
                 float: lambda v: _JSON_FLOATS.get(text := float.__repr__(v), text)}


def _dump_json(payload: dict) -> str:
    """`json.dumps(payload, sort_keys=True, separators=(", ", ": "), indent=1)`,
    byte for byte, without json's pure-Python indenting encoder."""
    return _json_text(payload, "\n")


def _json_text(value, newline: str) -> str:
    """json's text of `value` on a line that `newline` starts.  Values of the
    exact types the reports hold (a key type of _JSON_SCALARS, list, tuple,
    dict of str keys, _Rows) are written here, a list of one scalar type in
    one map; any other value by json itself, whose text indents one level
    deeper on each newline and holds no newline in a string."""
    kind, inner = type(value), newline + " "
    if write := _JSON_SCALARS.get(kind):
        return write(value)
    if kind is _Rows:
        rows = _json_columns(value.columns, value.digits, inner)
        return "[" + inner + rows + newline + "]" if rows else "[]"
    if kind is dict and all(type(key) is str for key in value):
        items = [encode_basestring_ascii(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        return "{" + inner + (", " + inner).join(items) + newline + "}" if items else "{}"
    if kind is list or kind is tuple:
        kinds = {*map(type, value)}
        items = (map(write, value) if len(kinds) == 1 and (write := _JSON_SCALARS.get(kinds.pop()))
                 else [_json_text(item, inner) for item in value])
        return "[" + inner + (", " + inner).join(items) + newline + "]" if value else "[]"
    return json.dumps(value, sort_keys=True, separators=(", ", ": "), indent=1).replace("\n", newline)


def _digits_texts(digits: list[str]) -> list[str]:
    """json's texts of the floats of `.12g` texts, as repr writes them: the text
    with a point and no exponent, or an exponent from -99 to -5; an integer
    with `.0`; else repr (an exponent 12 to 15 it writes out, subnormals, NaN)."""
    return [text if "e" not in text and "." in text or text[-4:-2] == "e-"
            else text + ".0" if text.lstrip("-").isdigit()
            else _JSON_SCALARS[float](float(text)) for text in digits]


def _json_columns(columns: dict[str, list], digits: dict[str, list[str]], newline: str) -> str:
    """json's text of the rows of `columns` (str keys, values by column) on `newline` lines,
    comma-separated: a column with `digits` from them, a column of one scalar type through its writer
    in one map, any other cell inline when it is a scalar or [], else by `_json_text` once per object
    in its column; then one format of all rows into the row template."""
    inner = newline + " "
    keys = sorted(columns)
    template = "{" + inner + (", " + inner).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys) + newline + "}"
    texts = []
    for key, column in zip(keys, map(columns.__getitem__, keys)):
        if key in digits:
            texts.append(_digits_texts(digits[key]))
        elif len(kinds := {*map(type, column)}) == 1 and (write := _JSON_SCALARS.get(kinds.pop())):
            texts.append(map(write, column))
        else:
            known = {}
            texts.append([write(item) if (write := _JSON_SCALARS.get(type(item)))
                          else "[]" if type(item) is list and not item
                          else known.get(id(item)) or known.setdefault(id(item), _json_text(item, inner))
                          for item in column])
    rows = list(zip(*texts))
    return (", " + newline).join([template] * len(rows)) % tuple(chain.from_iterable(rows))


def _records_csv(rows: _Rows) -> str:
    """The CSV table of report rows, header first."""
    columns = rows.columns
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(zip(
        [ident or "" for ident in columns["id"]], columns["graph6"], columns["n"], columns["edges"],
        rows.digits["qec"], [verdict or "" for verdict in columns["verdict"]],
        [" ".join(map(str, witness)) if witness else "" for witness in columns["witness"]],
        [step or "" for step in columns["sieve_step"]],
        [forms[0]["exact"] if forms else "" for forms in columns["closed_forms"]]))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compute(args) -> int:
    g = _read_graph(args.graph6)
    report = qec(g)
    verdict = None
    if args.exact:
        verdict = "QE" if is_cnd_exact(g) else "non-QE"
    if args.json:
        rec = {
            "id": None,
            "graph6": to_graph6(g),
            "n": g.n,
            "edges": g.edge_count,
            "qec": _round12(report.value),
            "mu": _round12(report.mu),
            "residual": _round12(report.residual),
            "lambda1": _round12(report.lambda1),
            "lambda2": _round12(report.lambda2),
            "maximizer": [_round12(x) for x in report.f],
            "verdict": verdict,
        }
        print(_dump_json(_report(f"compute {to_graph6(g)}", [rec])))
        return 0
    print(f"graph6: {to_graph6(g)}")
    print(f"n: {g.n}")
    print(f"edges: {g.edge_count}")
    print(f"qec: {_fmt(report.value)}")
    print(f"mu: {_fmt(report.mu)}")
    print(f"residual: {_fmt(report.residual)}")
    print(f"lambda1: {_fmt(report.lambda1)}")
    print(f"lambda2: {_fmt(report.lambda2)}")
    if verdict is not None:
        print(f"verdict: {verdict}")
    return 0


def _cmd_classify(args) -> int:
    rec = classify(_read_graph(args.graph6))
    if args.json:
        row = _record_dict(rec)
        print(_dump_json(_report(f"classify {row['graph6']}", [row])))
        return 0
    print(f"graph6: {to_graph6(rec.graph)}")
    print(f"verdict: {rec.verdict.value}")
    print(f"qec: {_fmt(rec.qec_value)}")
    print(f"witness: {' '.join(map(str, rec.witness)) if rec.witness else 'none'}")
    print(f"sieve_step: {rec.sieve_step}")
    return 0


def _cmd_enumerate(args) -> int:
    (masks, *columns), summary = _sweep(args.n)
    rows = _record_rows(args.n, masks, masks, *columns)
    if args.format == "json":
        table = _dump_json(_report(f"enumerate n={args.n}", rows, summary._asdict()))
    else:
        table = _records_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(table if table.endswith("\n") else table + "\n")
    else:
        print(table)
    print(f"qe={summary.qe} non_primary={summary.non_primary} primary={summary.primary}")
    return 0


def _cmd_family(args) -> int:
    spec = FamilySpec.parse(args.spec)
    value = formula_value(spec)
    engine_value = qec(build_family(spec)).value
    print(f"family: {spec}")
    print(f"formula: {_fmt(value)}")
    print(f"exact: {qec_formula_exact(spec)}")
    print(f"engine: {_fmt(engine_value)}")
    print(f"delta: {_fmt(abs(value - engine_value))}")
    return 0


def _cmd_embed(args) -> int:
    g = _read_graph(args.graph6)
    emb = embed(g)
    header = ["vertex"] + [f"x{k + 1}" for k in range(emb.dim)]
    print(",".join(header))
    for v in range(g.n):
        row = [str(v)] + [_fmt(x) for x in emb.coords[v]]
        print(",".join(row))
    if args.check:
        defect = verify_embedding(emb, distance_matrix(g))
        print(f"# defect {_fmt(defect)}")
    return 0


def _cmd_identify(args) -> int:
    g = _read_graph(args.graph6)
    catalog = load_catalog(args.catalog)
    for warning in catalog.warnings:
        print(f"# warning: {warning}", file=sys.stderr)
    ident = identify(g, catalog)
    print(ident if ident is not None else "unknown")
    return 0


def _cmd_trace(args) -> int:
    g = _read_graph(args.graph6)
    for step, outcome in sieve_trace(g):
        print(f"{step}: {outcome}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qec", description="quadratic embedding constants of small graphs")
    parser.add_argument("--version", action="version", version=f"qec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="QEC report for one graph")
    p.add_argument("graph6", help="graph6 record, or - for stdin")
    p.add_argument("--exact", action="store_true", help="add the exact QE verdict")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("classify", help="QE / non-QE verdict with witness")
    p.add_argument("graph6")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="classify all connected graphs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write the table to this file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("family", help="closed form vs engine for a family spec")
    p.add_argument("spec", help="e.g. path:6, multipartite:3,2, wedge:5,2, knp4:6")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("embed", help="coordinates of a quadratic embedding (CSV)")
    p.add_argument("graph6")
    p.add_argument("--check", action="store_true", help="verify and print the defect")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("identify", help="catalog id of a graph")
    p.add_argument("graph6")
    p.add_argument("--catalog", required=True)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("trace", help="sieve steps for one graph")
    p.add_argument("graph6")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: stay quiet, and send what is still
        # buffered to devnull so the flush at interpreter exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant breach; never expected
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
