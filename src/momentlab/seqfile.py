"""Sequence files: the on-disk interchange format for moments and pmfs.

JSON documents with a schema_version, a kind ("moments" or "pmf"), a
backend ("exact" or "decimal"), and values as strings. Exact values are
rationals serialized "num/den" (plain integers stay plain); they are never
written as decimals. Decimal values always travel with precision_bits and
enough digits that reading them back at that precision is lossless.

jsonable is the one encoder, of files and reports alike: a number, a
report record or a container of them becomes its JSON form. One builder
(_to_doc) writes every document, and one reader (sequence_from_doc) reads
every value back. Exact entries outgrow Python's 4300-digit int-string
limit (mu_120 = 2^14400 of the q = 2 lattice has 4335 digits), so these
two and write_csv run inside no_digit_limit, which lifts the limit for
its block.

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
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Union

from .distributions import DiscretePMF
from .exceptions import SequenceFileError
from .moment_algebra import (MomentSequence, Record, _as_mpf, _is_mpf, check_precision_bits,
                             mpmath)

SCHEMA_VERSION = 1

_KINDS = ("moments", "pmf")
_BACKENDS = ("exact", "decimal")


@contextmanager
def no_digit_limit():
    """Lift Python's int-string digit limit for the block and give the
    caller's limit back on the way out, also when the block raises.
    CPython before 3.10.7 has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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


def jsonable(obj, bits: Optional[int] = None):
    """The JSON form of obj, recursively: a Fraction as "num/den" (a plain
    integer stays plain), an mpf with the digits of `bits` (default
    mpmath's), a Record as the dict of its fields, a tuple as a list.
    Strict, as doc_to_json is: any other type raises TypeError."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if _is_mpf(obj):
        return _decimal_str(obj, bits or mpmath.mp.prec)
    if isinstance(obj, Record):
        return {name: jsonable(getattr(obj, name), bits) for name in obj._fields}
    if isinstance(obj, dict):
        return {str(k): jsonable(v, bits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x, bits) for x in obj]
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _to_doc(kind: str, seq, values, numbers: dict, meta: dict) -> dict:
    """The one document body: seq's backend, `values` and every number of
    `numbers` that is not None, encoded by jsonable at seq's precision (an
    exact entry is a Fraction, so it reads "num/den"), then every meta
    entry that is set."""
    bits = seq.precision_bits
    with no_digit_limit():
        doc = {"schema_version": SCHEMA_VERSION, "kind": kind,
               "backend": "exact" if seq.exact else "decimal",
               "values": jsonable(values, bits)}
        doc.update((key, jsonable(v, bits)) for key, v in numbers.items() if v is not None)
    if not seq.exact:
        doc["precision_bits"] = bits
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
    # one decoder per backend, for values, entry_error and tail_mass alike
    decode = _parse_exact if exact else (lambda s: _parse_decimal(s, bits))
    with no_digit_limit():
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
    with no_digit_limit():
        w.writerows(enumerate(jsonable(m.values, m.precision_bits)))


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
