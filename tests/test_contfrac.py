from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from topoforms.contfrac import (CFExpansion, fd_member, general_cf,
                                lr_decompose, normalize_parity, real_cf)
from topoforms.exact import DomainError, Rat, Surd, is_square, surd_floor


def _as_fraction(terms):
    val = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        val = a + 1 / val
    return val


def test_rational_cf():
    cf = real_cf(Rat(18, 7))
    assert cf.terms == [2, 1, 1, 3] and cf.period is None
    assert real_cf(Rat(-5, 18)).terms == [-1, 1, 2, 1, 1, 2]
    assert real_cf(3).terms == [3]


def test_cf_of_infinity_rejected():
    with pytest.raises(DomainError):
        real_cf(Rat(1, 0))


def test_surd_cf_periodic():
    cf = real_cf(Surd(0, 1, 1, 24))  # sqrt(24)
    assert cf.terms == [4] and cf.period == [1, 8]
    golden = real_cf(Surd(1, 1, 2, 5))
    assert golden.terms == [] and golden.period == [1]


def ref_real_cf(x):
    # the Surd loop real_cf replaced: floor, subtract, invert, until a
    # complete quotient repeats
    terms = []
    seen = {}
    cur = x
    while True:
        key = cur.key()
        if key in seen:
            i = seen[key]
            return CFExpansion(terms[:i], period=terms[i:])
        seen[key] = len(terms)
        a = surd_floor(cur)
        terms.append(a)
        cur = (cur - a).invert()


def test_real_cf_matches_surd_loop_on_small_surds():
    # every sqrt(D) and (p + sqrt(D))/r with D < 2000, r <= 5, |p| <= 4
    for D in range(2, 2000):
        if is_square(D):
            continue
        for r in range(1, 6):
            for p in range(-4, 5):
                x = Surd(p, 1, r, D)
                assert real_cf(x) == ref_real_cf(x), x


@given(st.integers(-500, 500), st.sampled_from([1, -1, 2, -2, 3, -3, 5, -7]),
       st.integers(1, 60), st.integers(2, 3000))
def test_real_cf_matches_surd_loop(p, q, r, d):
    # q of either sign; d is not square-free in general (12, 18, 2000, ...)
    if is_square(d):
        return
    x = Surd(p, q, r, d)
    assert real_cf(x) == ref_real_cf(x)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=8),
       st.booleans())
def test_normalize_parity_preserves_value(terms, want_odd):
    cf = CFExpansion(terms)
    out = normalize_parity(cf, want_odd)
    assert (len(out.terms) - 1) % 2 == (1 if want_odd else 0)
    assert _as_fraction(out.terms) == _as_fraction(terms)


def test_fd_member():
    i = Surd(0, 1, 1, -1)  # the imaginary unit, a corner of F
    assert fd_member(i, "F")
    assert fd_member(i + 1, "F") is False
    half = Surd(-1, 1, 2, -3)  # (-1+sqrt(-3))/2, on the circle, x<0
    assert fd_member(half, "F")
    assert fd_member(-half, "F") is False  # x>0 boundary excluded
    assert fd_member(-half, "F_prime")
    inside = Surd(0, 1, 4, -1)  # i/4, in SF
    assert not fd_member(inside, "F")
    assert fd_member(inside, "F_or_SF")
    with pytest.raises(DomainError):
        fd_member(Surd(0, 1, 1, 5), "F")


SMALLC = st.integers(-20, 20)
NEGD = st.sampled_from([-1, -3, -5, -20, -24])


@given(SMALLC, st.integers(1, 20), st.integers(1, 20), NEGD)
def test_general_cf_tail_in_fprime(p, q, r, d):
    z = Surd(p, q, r, d)
    cf = general_cf(z)
    assert fd_member(cf.tail, "F_prime")
    assert not cf.tail.is_zero()
    # unwind: z == a0 + 1/(a1 + 1/(... + tail))
    back = cf.tail + cf.terms[-1]
    for a in reversed(cf.terms[:-1]):
        back = back.invert() + a
    assert back == z


@given(SMALLC, st.integers(1, 20), st.integers(1, 20), NEGD)
def test_lr_decompose_lands_in_f_or_sf(p, q, r, d):
    z = Surd(p, q, r, d)
    word, z1, needs_s = lr_decompose(z)
    assert fd_member(z1, "F_or_SF")
    assert needs_s == (not fd_member(z1, "F"))
    for i, (letter, _) in enumerate(word):
        assert letter == ("L" if i % 2 == 0 else "R")


def test_paper_general_cf_example():
    # (36 + sqrt(-20)) / 94
    z = Surd(36, 1, 94, -20)
    cf = general_cf(z)
    assert cf.terms == [0, 2, 1]
