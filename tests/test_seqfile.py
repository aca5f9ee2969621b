"""Sequence files round-trip every value, exact or decimal, through JSON and
CSV; decimal values come back bit for bit at their precision."""
import io
from fractions import Fraction

import mpmath
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from momentlab import seqfile
from momentlab.distributions import DiscretePMF
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
    doc = (seqfile.moments_to_doc(obj) if isinstance(obj, MomentSequence)
           else seqfile.pmf_to_doc(obj))
    return seqfile.sequence_from_doc(seqfile.parse_doc(seqfile.doc_to_json(doc)))


def through_csv(obj, **kw):
    return seqfile.read_csv(io.StringIO(seqfile.csv_text(obj)), **kw)


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
        # the CSV form carries values only
        back = through_csv(pmf, kind="pmf")
        assert back.exact and back.masses == pmf.masses

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
        back = through_csv(pmf, kind="pmf", precision_bits=bits)
        assert back.masses == pmf.masses and back.precision_bits == bits


def test_exact_values_are_never_decimals():
    m = MomentSequence.from_exact([1, Fraction(1, 3), Fraction(-7, 2), 5])
    assert seqfile.moments_to_doc(m)["values"] == ["1", "1/3", "-7/2", "5"]
