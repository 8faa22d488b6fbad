import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from topoforms.exact import (DomainError, Rat, Surd, is_square, isqrt,
                             surd_cmp_rat, surd_floor)


def test_isqrt_is_square():
    assert isqrt(0) == 0
    assert isqrt(24) == 4
    assert is_square(144) and not is_square(145)
    assert not is_square(-4)


class TestRat:
    def test_normalization(self):
        assert Rat(2, 4) == Rat(1, 2)
        assert Rat(1, -2) == Rat(-1, 2)

    def test_infinities(self):
        inf = Rat(1, 0)
        assert inf == Rat(5, 0)
        assert Rat(-3, 0) < Rat(0, 1) < inf
        assert inf.invert() == Rat(0, 1)
        assert Rat(0, 1).invert() == inf

    def test_floor(self):
        assert Rat(-5, 18).floor() == -1
        assert Rat(7, 2).floor() == 3

    @given(st.fractions(), st.fractions())
    def test_matches_fraction_arithmetic(self, x, y):
        rx = Rat(x.numerator, x.denominator)
        ry = Rat(y.numerator, y.denominator)
        assert rx + ry == Rat((x + y).numerator, (x + y).denominator)
        assert rx * ry == Rat((x * y).numerator, (x * y).denominator)
        assert (rx < ry) == (x < y)


SMALL = st.integers(-30, 30)
NONSQ = st.sampled_from([2, 3, 5, 13, 24, 37, 96])


class TestSurd:
    def test_canonical(self):
        s = Surd(2, 4, 6, 5)
        assert (s.p, s.q, s.r) == (1, 2, 3)
        t = Surd(1, 1, -2, 5)
        assert t.r > 0

    def test_requires_nonsquare(self):
        with pytest.raises(DomainError):
            Surd(0, 1, 1, 9)

    @given(SMALL, SMALL, SMALL, NONSQ)
    def test_float_agreement(self, p, q, r, d):
        if r == 0:
            return
        s = Surd(p, q, r, d)
        approx = (p + q * math.sqrt(d)) / r
        assert math.isclose(float(s), approx)
        assert surd_floor(s) == math.floor(approx)
        assert s.sign() == (0 if approx == 0 else math.copysign(1, approx))

    @given(SMALL, SMALL, SMALL, NONSQ)
    def test_invert_roundtrip(self, p, q, r, d):
        if r == 0 or (p == 0 and q == 0):
            return
        s = Surd(p, q, r, d)
        assert s.invert().invert() == s
        assert s * s.invert() == Surd(1, 0, 1, d)

    @given(SMALL, SMALL, SMALL, NONSQ,
           st.fractions(min_value=-50, max_value=50, max_denominator=500))
    def test_cmp_rat(self, p, q, r, d, x):
        if r == 0:
            return
        s = Surd(p, q, r, d)
        c = surd_cmp_rat(s, Rat(x.numerator, x.denominator))
        diff = (p + q * math.sqrt(d)) / r - float(x)
        # q*sqrt(d) is irrational unless q=0, so ties only happen exactly
        if q != 0 or Fraction(p, r) != x:
            assert c == math.copysign(1, diff)
        else:
            assert c == 0

    def test_conj_and_floor(self):
        z = Surd(-1, 1, 2, 5)  # (-1+sqrt5)/2
        assert z.conj() == Surd(-1, -1, 2, 5)
        assert surd_floor(z) == 0
        assert surd_floor(Surd(-1, -1, 2, 5)) == -2
