"""Sequence files: the on-disk interchange format for moments and pmfs.

JSON documents with a schema_version, a kind ("moments" or "pmf"), a
backend ("exact" or "decimal"), and values as strings. Exact values are
rationals serialized "num/den" (plain integers stay plain); they are never
written as decimals. Decimal values always travel with precision_bits and
enough digits that reading them back at that precision is lossless. A
plain CSV form (header row, index/value columns) is supported for
spreadsheets; it carries no metadata, so the backend is inferred from the
value strings, and it carries moments only: a decimal pmf needs its
entry_error, which only JSON carries.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Optional, Union

from .distributions import DiscretePMF
from .exceptions import SequenceFileError
from .moment_algebra import MomentSequence, check_precision_bits, mpmath

SCHEMA_VERSION = 1

_KINDS = ("moments", "pmf")
_BACKENDS = ("exact", "decimal")


def _digits_for(bits: int) -> int:
    return max(17, int(bits * 0.30103) + 3)


def _decimal_str(x, bits: int) -> str:
    with mpmath.workprec(bits):
        return mpmath.nstr(mpmath.mpf(x), _digits_for(bits), strip_zeros=False)


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


def _value_strings(values, exact: bool, bits: Optional[int]) -> list:
    if exact:
        return [str(Fraction(v)) for v in values]
    return [_decimal_str(v, bits) for v in values]


def moments_to_doc(m: MomentSequence, generator: Optional[str] = None,
                   params: Optional[dict] = None,
                   tolerance: Optional[str] = None) -> dict:
    """Build the JSON document for a moment sequence, with provenance."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "moments",
        "backend": "exact" if m.exact else "decimal",
        "values": _value_strings(m.values, m.exact, m.precision_bits),
    }
    if not m.exact:
        doc["precision_bits"] = m.precision_bits
    if generator:
        doc["generator"] = generator
    if params:
        doc["params"] = params
    if tolerance:
        doc["tolerance"] = tolerance
    return doc


def pmf_to_doc(pmf: DiscretePMF, generator: Optional[str] = None,
               params: Optional[dict] = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "pmf",
        "backend": "exact" if pmf.exact else "decimal",
        "values": _value_strings(pmf.masses, pmf.exact, pmf.precision_bits),
    }
    if pmf.exact:
        if pmf.entry_error:
            doc["entry_error"] = str(Fraction(pmf.entry_error))
    else:
        doc["precision_bits"] = pmf.precision_bits
        doc["entry_error"] = _decimal_str(pmf.entry_error, pmf.precision_bits)
    if pmf.tail_mass is not None:
        doc["tail_mass"] = (str(Fraction(pmf.tail_mass)) if pmf.exact
                            else _decimal_str(pmf.tail_mass, pmf.precision_bits))
    if generator:
        doc["generator"] = generator
    if params:
        doc["params"] = params
    return doc


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
    bits = doc.get("precision_bits")
    if exact:
        values = [_parse_exact(s) for s in doc["values"]]
    else:
        values = [_parse_decimal(s, bits) for s in doc["values"]]
    try:
        if doc["kind"] == "moments":
            if exact:
                return MomentSequence.from_exact(values)
            return MomentSequence.from_approx(values, bits)
        entry_error = doc.get("entry_error", "0")
        tail_mass = doc.get("tail_mass")
        if exact:
            return DiscretePMF(tuple(values), exact=True,
                               entry_error=_parse_exact(entry_error),
                               tail_mass=None if tail_mass is None
                               else _parse_exact(tail_mass))
        return DiscretePMF(tuple(values), exact=False, precision_bits=bits,
                           entry_error=_parse_decimal(entry_error, bits),
                           tail_mass=None if tail_mass is None
                           else _parse_decimal(tail_mass, bits))
    except ValueError as exc:
        raise SequenceFileError(str(exc)) from None


def load_json(path: str) -> Union[MomentSequence, DiscretePMF]:
    with open(path, "r", encoding="utf-8") as fh:
        return sequence_from_doc(fh.read())


def dump_json(obj: Union[MomentSequence, DiscretePMF], path: str, **meta) -> None:
    doc = (moments_to_doc(obj, **meta) if isinstance(obj, MomentSequence)
           else pmf_to_doc(obj, **meta))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc_to_json(doc))


# ---------------------------------------------------------------------------
# CSV convenience form


def write_csv(m: MomentSequence, fh) -> None:
    """Two columns, index and value, with a header row, to the open text
    buffer fh."""
    w = csv.writer(fh)
    w.writerow(["index", "value"])
    for i, s in enumerate(_value_strings(m.values, m.exact, m.precision_bits)):
        w.writerow([i, s])


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
