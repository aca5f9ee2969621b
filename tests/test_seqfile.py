"""Sequence files round-trip every value, exact or decimal: moments through
JSON and CSV, pmfs through JSON, the one form that carries their
entry_error. Decimal values come back bit for bit at their precision."""
import json
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from momentlab import seqfile
from momentlab.cli import main
from momentlab.distributions import DiscretePMF
from momentlab.exceptions import SequenceFileError
from momentlab.moment_algebra import MomentSequence

exact_values = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9)
bits_choice = st.sampled_from((64, 128, 192, 256))


@st.composite
def decimals(draw, bits, size):
    """`size` mpf values with a full `bits`-bit mantissa, any sign, over a
    wide range of exponents."""
    out = []
    with mpmath.workprec(bits):
        for _ in range(size):
            man = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
            exp = draw(st.integers(-bits - 200, 200))
            sign = draw(st.sampled_from((1, -1)))
            out.append(sign * mpmath.ldexp(mpf(man), exp - bits))
    return out


def through_json(obj):
    return seqfile.read_text(seqfile.write_text(obj))


def through_csv(obj, **kw):
    return seqfile.read_text(seqfile.write_text(obj, True), **kw)


class TestMoments:
    @settings(max_examples=40, deadline=None)
    @given(rest=st.lists(exact_values, max_size=10))
    def test_exact(self, rest):
        m = MomentSequence.from_exact([1] + rest)
        for back in (through_json(m), through_csv(m)):
            assert back.exact and back.values == m.values

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), bits=bits_choice, size=st.integers(0, 8))
    def test_decimal(self, data, bits, size):
        m = MomentSequence.from_approx([mpf(1)] + data.draw(decimals(bits, size)), bits)
        for back in (through_json(m), through_csv(m, precision_bits=bits)):
            assert not back.exact and back.precision_bits == bits
            assert back.values == m.values


class TestPmf:
    @settings(max_examples=40, deadline=None)
    @given(masses=st.lists(exact_values, min_size=1, max_size=10),
           entry_error=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9),
           tail=st.none() | exact_values)
    def test_exact(self, masses, entry_error, tail):
        pmf = DiscretePMF(tuple(masses), exact=True, entry_error=entry_error, tail_mass=tail)
        back = through_json(pmf)
        assert back.exact and back.masses == pmf.masses
        assert back.entry_error == entry_error and back.tail_mass == tail

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), bits=bits_choice, size=st.integers(1, 8), with_tail=st.booleans())
    def test_decimal(self, data, bits, size, with_tail):
        masses = data.draw(decimals(bits, size))
        entry_error, tail = (abs(x) for x in data.draw(decimals(bits, 2)))
        pmf = DiscretePMF(tuple(masses), exact=False, precision_bits=bits,
                          entry_error=entry_error, tail_mass=tail if with_tail else None)
        back = through_json(pmf)
        assert not back.exact and back.precision_bits == bits
        assert back.masses == pmf.masses
        assert back.entry_error == entry_error
        assert back.tail_mass == (tail if with_tail else None)


    def test_decimal_with_a_rational_tail(self):
        pmf = DiscretePMF((mpf("0.5"), mpf("0.25")), exact=False, precision_bits=96,
                          entry_error=mpf("1e-20"), tail_mass=Fraction(1, 3))
        back = seqfile.sequence_from_doc(seqfile.pmf_to_doc(pmf))
        assert back == pmf and isinstance(back.tail_mass, mpf)


def test_exact_values_are_never_decimals():
    m = MomentSequence.from_exact([1, Fraction(1, 3), Fraction(-7, 2), 5])
    assert seqfile.moments_to_doc(m)["values"] == ["1", "1/3", "-7/2", "5"]


def test_load_json_parses_once(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    seqfile.dump_json(MomentSequence.from_exact([1, 2, 5]), str(path))
    calls = []
    parse = seqfile.parse_doc
    monkeypatch.setattr(seqfile, "parse_doc", lambda text: calls.append(text) or parse(text))
    assert seqfile.load_json(str(path)).values == (1, 2, 5)
    assert len(calls) == 1


def test_documents_are_strict_json():
    """doc_to_json refuses nan and infinity rather than print a token that
    JSON parsers reject."""
    assert seqfile.doc_to_json({"b": 2.5}) == '{\n  "b": 2.5\n}\n'
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            seqfile.doc_to_json({"b": value})


def test_text_form_follows_the_first_character():
    """read_text takes a text that opens with '{', after any white space, as
    JSON and any other as CSV; write_text gives a pmf no CSV form."""
    m = MomentSequence.from_exact([1, Fraction(1, 3), 5])
    json_text, csv_text = seqfile.write_text(m), seqfile.write_text(m, True)
    assert json_text.startswith("{") and csv_text.startswith("index,value")
    assert seqfile.read_text("\n  " + json_text) == seqfile.read_text(csv_text) == m
    with pytest.raises(SequenceFileError, match="index,value"):
        seqfile.read_text(" [1, 2]")
    pmf = DiscretePMF((Fraction(1, 2), Fraction(1, 4)))
    assert seqfile.read_text(seqfile.write_text(pmf, generator="g")) == pmf
    with pytest.raises(SequenceFileError, match="moments only"):
        seqfile.write_text(pmf, True)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="CPython before 3.10.7 has no int-string digit limit")
def test_files_past_the_digit_limit(tmp_path):
    """Every read and write of a file lifts Python's 4300-digit int-string
    limit for its own run and gives the caller's back: mu_120 = 2^14400 of
    the q = 2 lattice has 4335 digits."""
    assert sys.get_int_max_str_digits() == 4300
    path = tmp_path / "deep.json"
    assert main(["moments", "lattice", "--q", "2", "--upto", "120", "-o", str(path)]) == 0
    assert sys.get_int_max_str_digits() == 4300
    m = seqfile.load_json(str(path))
    assert sys.get_int_max_str_digits() == 4300
    assert m[120] == 2 ** 14400
    copy = tmp_path / "copy.json"
    seqfile.dump_json(m, str(copy))
    assert sys.get_int_max_str_digits() == 4300
    assert seqfile.load_json(str(copy)) == m
    for as_csv in (False, True):
        text = seqfile.write_text(m, as_csv)
        assert sys.get_int_max_str_digits() == 4300
        assert seqfile.read_text(text) == m
        assert sys.get_int_max_str_digits() == 4300
    # the error comes after the entries past the limit are read
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["values"].append("x")
    with pytest.raises(SequenceFileError, match="bad exact value 'x'"):
        seqfile.sequence_from_doc(doc)
    assert sys.get_int_max_str_digits() == 4300
