"""Sequence files: the on-disk interchange format for moments and pmfs.

JSON documents with a schema_version, a kind ("moments" or "pmf"), a
backend ("exact" or "decimal"), and values as strings. Exact values are
rationals serialized "num/den" (plain integers stay plain); they are never
written as decimals. Decimal values always travel with precision_bits and
enough digits that reading them back at that precision is lossless. One
codec per backend (_codec) writes and reads the values, a pmf's
entry_error and its tail_mass alike, and one builder (_to_doc) writes
every document.

A plain CSV form (header row, index/value columns) is supported for
spreadsheets; it carries no metadata, so the backend is inferred from the
value strings, and it carries moments only: a decimal pmf needs its
entry_error, which only JSON carries. read_text and write_text make the
JSON-or-CSV choice for every caller: a text that opens with '{' is read as
JSON and any other as CSV, and only moments are written as CSV, on request.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Optional, Union

from .distributions import DiscretePMF
from .exceptions import SequenceFileError
from .moment_algebra import MomentSequence, _as_mpf, check_precision_bits, mpmath

SCHEMA_VERSION = 1

_KINDS = ("moments", "pmf")
_BACKENDS = ("exact", "decimal")


def _digits_for(bits: int) -> int:
    return max(17, int(bits * 0.30103) + 3)


def _decimal_str(x, bits: int) -> str:
    with mpmath.workprec(bits):
        return mpmath.nstr(_as_mpf(x), _digits_for(bits), strip_zeros=False)


def _parse_decimal(s: str, bits: int):
    with mpmath.workprec(bits):
        try:
            x = mpmath.mpf(s)
        except ValueError as exc:
            raise SequenceFileError(f"bad decimal value {s!r}: {exc}") from None
    if not mpmath.isfinite(x):
        raise SequenceFileError(f"bad decimal value {s!r}: not finite")
    return x


def _parse_exact(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SequenceFileError(f"bad exact value {s!r}: {exc}") from None


def _codec(exact: bool, bits: Optional[int]) -> tuple:
    """(encode, decode) between one number and its string on a backend:
    "num/den" for exact, the digits of `bits` for decimal. Values,
    entry_error and tail_mass all travel through it."""
    if exact:
        return (lambda v: str(Fraction(v))), _parse_exact
    return (lambda v: _decimal_str(v, bits)), (lambda s: _parse_decimal(s, bits))


def _to_doc(kind: str, seq, values, numbers: dict, meta: dict) -> dict:
    """The one document body: seq's backend, `values` and every number of
    `numbers` that is not None in the backend's strings, then every meta
    entry that is set."""
    encode = _codec(seq.exact, seq.precision_bits)[0]
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind,
           "backend": "exact" if seq.exact else "decimal",
           "values": [encode(v) for v in values]}
    if not seq.exact:
        doc["precision_bits"] = seq.precision_bits
    doc.update((key, encode(v)) for key, v in numbers.items() if v is not None)
    doc.update((key, v) for key, v in meta.items() if v)
    return doc


def moments_to_doc(m: MomentSequence, generator: Optional[str] = None,
                   params: Optional[dict] = None,
                   tolerance: Optional[str] = None) -> dict:
    """Build the JSON document for a moment sequence, with provenance."""
    return _to_doc("moments", m, m.values, {},
                   {"generator": generator, "params": params, "tolerance": tolerance})


def pmf_to_doc(pmf: DiscretePMF, generator: Optional[str] = None,
               params: Optional[dict] = None) -> dict:
    """Build the JSON document for a pmf; an exact pmf omits a zero
    entry_error."""
    error = pmf.entry_error if pmf.entry_error or not pmf.exact else None
    return _to_doc("pmf", pmf, pmf.masses, {"entry_error": error, "tail_mass": pmf.tail_mass},
                   {"generator": generator, "params": params})


def doc_to_json(doc: dict) -> str:
    """Deterministic serialization: sorted keys, two-space indent. Strict
    JSON: a nan or infinite float raises ValueError instead of printing a
    token that JSON parsers refuse."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def parse_doc(text: Union[str, bytes, dict]) -> dict:
    """Parse and validate a sequence-file document."""
    if isinstance(text, dict):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SequenceFileError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SequenceFileError("top level must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SequenceFileError(f"unsupported schema_version "
                                f"{doc.get('schema_version')!r}")
    if doc.get("kind") not in _KINDS:
        raise SequenceFileError(f"kind must be one of {_KINDS}")
    if doc.get("backend") not in _BACKENDS:
        raise SequenceFileError(f"backend must be one of {_BACKENDS}")
    values = doc.get("values")
    if not isinstance(values, list) or not values:
        raise SequenceFileError("values must be a non-empty list")
    if not all(isinstance(v, str) for v in values):
        raise SequenceFileError("values must be strings")
    if not all(isinstance(doc.get(k, ""), str) for k in ("entry_error", "tail_mass")):
        raise SequenceFileError("entry_error and tail_mass must be strings")
    if doc["backend"] == "decimal":
        try:
            check_precision_bits(doc.get("precision_bits"))
        except ValueError as exc:
            raise SequenceFileError(f"decimal backend: {exc}") from None
    return doc


def sequence_from_doc(text: Union[str, bytes, dict]) -> Union[MomentSequence, DiscretePMF]:
    """Parse a document as parse_doc does, and materialize it as a
    MomentSequence or DiscretePMF."""
    doc = parse_doc(text)
    exact = doc["backend"] == "exact"
    bits = None if exact else doc["precision_bits"]
    decode = _codec(exact, bits)[1]
    values = tuple(decode(s) for s in doc["values"])
    try:
        if doc["kind"] == "moments":
            return MomentSequence(values, exact, bits)
        tail_mass = doc.get("tail_mass")
        return DiscretePMF(values, exact, bits, decode(doc.get("entry_error", "0")),
                           None if tail_mass is None else decode(tail_mass))
    except ValueError as exc:
        raise SequenceFileError(str(exc)) from None


def load_json(path: str) -> Union[MomentSequence, DiscretePMF]:
    with open(path, "r", encoding="utf-8") as fh:
        return sequence_from_doc(fh.read())


def dump_json(obj: Union[MomentSequence, DiscretePMF], path: str, **meta) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_text(obj, **meta))


# ---------------------------------------------------------------------------
# CSV convenience form


def write_csv(m: MomentSequence, fh) -> None:
    """Two columns, index and value, with a header row, to the open text
    buffer fh."""
    w = csv.writer(fh)
    w.writerow(["index", "value"])
    encode = _codec(m.exact, m.precision_bits)[0]
    for i, v in enumerate(m.values):
        w.writerow([i, encode(v)])


def read_csv(fh, precision_bits: int = 128) -> MomentSequence:
    """Read the CSV form of a moment sequence back from the open text buffer
    fh; the rows must be indexed 0, 1, 2, ... in order.

    The backend is inferred: values all parseable as rationals mean exact,
    anything with a decimal point or exponent means decimal at
    `precision_bits`.
    """
    rows = list(csv.reader(fh))
    if not rows or [c.strip().lower() for c in rows[0]] != ["index", "value"]:
        raise SequenceFileError("CSV must start with an 'index,value' header")
    body = [r for r in rows[1:] if r]
    if not body:
        raise SequenceFileError("CSV has no data rows")
    strings = []
    for i, r in enumerate(body):
        if len(r) != 2:
            raise SequenceFileError(f"malformed CSV row {r!r}")
        if r[0].strip() != str(i):
            raise SequenceFileError(f"CSV row {i} has index {r[0].strip()!r}; "
                                    f"indices must run 0, 1, 2, ... in order")
        strings.append(r[1].strip())
    plain = all(set(s) <= set("0123456789/-") for s in strings)
    backend = "exact" if plain else "decimal"
    doc = {"schema_version": SCHEMA_VERSION, "kind": "moments", "backend": backend,
           "values": strings}
    if backend == "decimal":
        doc["precision_bits"] = precision_bits
    return sequence_from_doc(doc)


def csv_text(m: MomentSequence) -> str:
    buf = io.StringIO()
    write_csv(m, buf)
    return buf.getvalue()


def read_text(text: str, precision_bits: int = 128) -> Union[MomentSequence, DiscretePMF]:
    """The sequence in a file's text: JSON when the text opens with '{',
    after any white space, else the CSV form, whose decimal values are read
    at precision_bits. No file name is consulted, so a pipe reads as a file
    does."""
    if text.lstrip().startswith("{"):
        return sequence_from_doc(text)
    return read_csv(io.StringIO(text), precision_bits)


def write_text(obj: Union[MomentSequence, DiscretePMF], as_csv: bool = False, **meta) -> str:
    """The text of a sequence file: moments as CSV when as_csv, else as JSON
    with meta as moments_to_doc takes it; a pmf always as JSON, the one
    form that carries its entry_error, with meta as pmf_to_doc takes it."""
    if isinstance(obj, DiscretePMF):
        if as_csv:
            raise SequenceFileError("CSV carries moments only; a pmf is written as JSON")
        return doc_to_json(pmf_to_doc(obj, **meta))
    return csv_text(obj) if as_csv else doc_to_json(moments_to_doc(obj, **meta))
