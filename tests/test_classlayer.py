"""The class-number layer against the enumerations it replaced.

The reference functions below are the sweeps over every well triple and
pair with sum <= n, the O(n) scalar well count with the Moebius inversion
that gave h from h*, the Theta(D^1.5) trial division of Omega_D, the Surd
ceiling of the Zagier step, and a count of reduced forms; the reduced-form
list, the tables, omega_enumerate, zagier_step and h_pos must agree with
them exactly.
"""

from fractions import Fraction
from functools import cache
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import mobius

from topoforms import classnum
from topoforms.classnum import (_BATCH, _SHORT, _wells, _wells_table,
                                euler_phi, h_neg, h_neg_table, h_pos,
                                hstar_neg, hurwitz, hurwitz_table, moebius_mu)
from topoforms.exact import DomainError, Surd, is_square, isqrt, surd_floor
from topoforms.forms import QuadForm, UniMat, act
from topoforms.reduce import (divisor_rows, is_reduced_neg, is_simply_reduced,
                              omega_enumerate, reduce_simple_cycle,
                              reduced_forms, zagier_step)
from topoforms.riverword import h1, principal_form, river_period
from topoforms.series import hurwitz_series, series_seed

LIMIT = 4000


# ------------------------------------------------------------- reference

def _triples(nmax):
    # e > f > g > 0 with s = ef+fg+ge <= nmax
    g = 1
    while 3 * g * g + 6 * g + 2 <= nmax:
        f = g + 1
        while f * (f + 1) + g * (2 * f + 1) <= nmax:
            base = f * g
            stride = f + g
            e = f + 1
            s = base + e * stride
            while s <= nmax:
                yield s, e, f, g
                e += 1
                s += stride
            f += 1
        g += 1


def _pairs_sq(nmax):
    # e, f > 0 with s = e^2 + 2ef <= nmax
    e = 1
    while e * e + 2 * e <= nmax:
        f = 1
        s = e * e + 2 * e
        while s <= nmax:
            yield s, e, f
            f += 1
            s += 2 * e
        e += 1


def ref_h_neg_table(limit):
    odd_h = [0] * (limit + 1)  # index n = |D| for odd D
    even_max = limit // 4
    even_h = [0] * (even_max + 1)  # index n = |D|/4 for even D
    for s, e, f, g in _triples(limit):
        if gcd(gcd(e, f), g) != 1:
            continue
        allodd = e & f & g & 1
        if allodd:
            if s % 4 == 3:
                odd_h[s] += 2
        else:
            if s <= even_max:
                even_h[s] += 2
    for s, e, f in _pairs_sq(limit):
        if gcd(e, f) != 1:
            continue
        allodd = e & f & 1
        if allodd:
            if s % 4 == 3:
                odd_h[s] += 1
        else:
            if s <= even_max:
                even_h[s] += 1
    for f in range(1, isqrt(even_max) + 1):
        for e in range(f + 1, even_max // f + 1):
            if gcd(e, f) == 1:
                even_h[e * f] += 1
    out = {}
    for D in range(-limit, 0):
        m4 = D % 4
        if m4 == 1:
            out[D] = 1 if D == -3 else odd_h[-D]
        elif m4 == 0:
            out[D] = 1 if D == -4 else even_h[-D // 4]
    return out


def ref_wells_table(limit):
    """h* of every -limit <= D < 0 as an int64 array indexed by |D|, by one
    numpy slice add per progression of wells, found by nested loops."""
    odd = np.zeros(limit + 1, np.int64)  # all-odd wells of n = |D|
    even = np.zeros(limit // 4 + 1, np.int64)  # all wells of n = |D|/4
    for sums, step in ((odd, 2), (even, 1)):
        top = len(sums) - 1
        g = 1
        while 3 * g * g < top:
            # ef+fg+ge = fg + e(f+g) over e > f > g
            f = g + step
            s = f * g + (f + step) * (f + g)
            while s <= top:
                sums[s::step * (f + g)] += 2
                f += step
                s = f * g + (f + step) * (f + g)
            g += step
        e = 1
        while e * e + 2 * e <= top:  # e^2 + 2ef over f > 0
            sums[e * e + 2 * e::2 * step * e] += 1
            e += step
    for f in range(1, isqrt(limit // 4) + 1):  # ef over e >= f
        even[f * f::f] += 1
    # all-odd sums are 3 mod 4, so the slots 0 mod 4 are free for even D
    odd[::4] = even
    return odd


def ref_hstar_table(limit):
    # the filters of the scalar h* count, bucketed by s in one sweep
    odd_h = [0] * (limit + 1)
    even_max = limit // 4
    even_h = [0] * (even_max + 1)
    for s, e, f, g in _triples(limit):
        if e & f & g & 1:
            odd_h[s] += 2
        if s <= even_max:
            even_h[s] += 2
    for s, e, f in _pairs_sq(limit):
        if e == f:
            continue
        if e & f & 1:
            odd_h[s] += 1
        if s <= even_max:
            even_h[s] += 1
    for n in range(1, limit + 1):
        if n % 3 == 0 and is_square(n // 3):
            odd_h[n] += 1
            if n <= even_max:
                even_h[n] += 1
    for f in range(1, isqrt(even_max) + 1):
        for e in range(f, even_max // f + 1):
            even_h[e * f] += 1
    out = {}
    for D in range(-limit, 0):
        if D % 4 == 1:
            out[D] = odd_h[-D]
        elif D % 4 == 0:
            out[D] = even_h[-D // 4]
    return out


def ref_hurwitz_table(nmax):
    vals = [Fraction(0)] * (nmax + 1)
    inner_max = nmax  # odd bucket uses n directly, even bucket n/4
    for s, e, f, g in _triples(inner_max):
        allodd = e & f & g & 1
        if allodd and s % 4 == 3:
            vals[s] += 2
        if 4 * s <= nmax:
            vals[4 * s] += 2
    for s, e, f in _pairs_sq(inner_max):
        if e == f:
            continue
        allodd = e & f & 1
        if allodd and s % 4 == 3:
            vals[s] += 1
        if 4 * s <= nmax:
            vals[4 * s] += 1
    e = 1
    while 3 * e * e <= inner_max:
        s = 3 * e * e
        if s % 4 == 3:
            vals[s] += Fraction(1, 3)
        if 4 * s <= nmax:
            vals[4 * s] += Fraction(1, 3)
        e += 1
    for f in range(1, inner_max + 1):
        if f * f > inner_max:
            break
        for e in range(f, inner_max // f + 1):
            s = e * f
            if 4 * s <= nmax:
                # ordered pairs at weight 1/2: (e,f) and (f,e) when distinct
                vals[4 * s] += 1 if e != f else Fraction(1, 2)
    out = {}
    for n in range(1, nmax + 1):
        if n % 4 in (0, 3):
            out[n] = vals[n]
    return out


def ref_wells(n, odd):
    """h* of D = -n (odd D) or D = -4n (even D), by the well count: for each
    g, f + g runs over the divisors d of n + g^2 in (2g, sqrt(n + g^2))."""
    step = 2 if odd else 1
    total = 0
    g = 1
    while 3 * g * g < n:
        m = n + g * g
        # f + g = d and e + g = m/d with 2g < d < m/d
        total += sum(2 for d in range(2 * g + step, isqrt(m - 1) + 1, step)
                     if m % d == 0 and not (odd and m // d % 2))
        g += step
    for d in range(1, isqrt(n) + 1):
        if n % d:
            continue
        t = n // d - d  # e = d and 2f = t in e(e + 2f) = n
        if t > 0 and t % 2 == 0 and (not odd or t // 2 % 2):
            total += 1
        if not odd:  # f = d <= e = n/d in ef = n
            total += 1
    return total


def ref_hstar(D):
    return ref_wells(-D, True) if D % 2 else ref_wells(-D // 4, False)


def ref_counts(D):
    """(h, h*, H) of D < 0 from the well count: h by Moebius inversion over
    the square divisors k^2 of D, H by weighting the classes of j[1,1,1]
    and j[1,0,1] by 1/3 and 1/2."""
    hstar = ref_hstar(D)
    h = sum(mobius(k) * ref_hstar(D // (k * k))
            for k in range(1, isqrt(-D) + 1)
            if D % (k * k) == 0 and D // (k * k) % 4 in (0, 1))
    n = -D
    H = Fraction(hstar)
    if n % 3 == 0 and is_square(n // 3):
        H -= Fraction(2, 3)
    elif n % 4 == 0 and is_square(n // 4):
        H -= Fraction(1, 2)
    return h, hstar, H


def ref_reduced_forms(D, primitive):
    """Reduced forms |b| <= a <= c of D < 0, b >= 0 when |b| = a or a = c."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if not primitive or gcd(gcd(a, b), c) == 1:
                count += 1
        a += 1
    return count


def ref_omega_enumerate(D):
    out = []
    root = isqrt(D)
    kmax = root if root * root < D else root - 1
    for k in range(-kmax, kmax + 1):
        if (k * k - D) % 4 != 0:
            continue
        n = (D - k * k) // 4
        for a in range(1, n + 1):
            if n % a != 0:
                continue
            t = 2 * a - k
            if t > 0 and t * t > D:
                out.append((a, k))
    out.sort(key=lambda e: (e[1], e[0]))
    return out


def ref_zagier_step(q):
    a, b, c = q
    D = q.discriminant()
    k = -surd_floor(Surd(-b, -1, 2 * a, D))
    return act(q, UniMat(k, 1, -1, 0))


def ref_h_pos(D):
    """Distinct simple cycles over every primitive simply reduced form."""
    cycles, seen = set(), set()
    for b in range(-isqrt(D), isqrt(D) + 1):
        if (D - b * b) % 4 or b * b == D:
            continue
        n = (D - b * b) // 4
        for a in [a for a in range(1, n + 1) if n % a == 0]:
            q = QuadForm(a, b, -(n // a))
            if q in seen or q.content() != 1 or not is_simply_reduced(q):
                continue
            cycle = reduce_simple_cycle(q).canonical
            cycles.add(cycle)
            seen.update(cycle)
    return len(cycles)


# ----------------------------------------------------------------- tests

def _discs_neg(limit):
    return [D for D in range(-limit, 0) if D % 4 in (0, 1)]


def test_scalar_counts_match_sweeps():
    h, hstar = ref_h_neg_table(LIMIT), ref_hstar_table(LIMIT)
    H = ref_hurwitz_table(LIMIT)
    for D in _discs_neg(LIMIT):
        assert h_neg(D) == h[D], D
        assert hstar_neg(D) == hstar[D], D
        got = hurwitz(-D)
        assert type(got) is Fraction and got == H[-D], D


def test_counts_match_well_count():
    for D in _discs_neg(LIMIT):
        assert (h_neg(D), hstar_neg(D), hurwitz(-D)) == ref_counts(D), D


@given(st.integers(1, 250000), st.booleans())
@settings(max_examples=20, deadline=None)
def test_counts_match_well_count_large(m, even):
    D = -4 * m if even else 1 - 4 * m
    assert (h_neg(D), hstar_neg(D), hurwitz(-D)) == ref_counts(D)


def test_reduced_forms_are_reduced():
    for D in range(-3000, 0):
        if D % 4 not in (0, 1):
            continue
        forms = list(reduced_forms(D))
        assert len(set(forms)) == len(forms) == hstar_neg(D), D
        for a, b, c in forms:
            assert is_reduced_neg((a, b, c)), (D, a, b, c)
            assert b * b - 4 * a * c == D, (D, a, b, c)


@pytest.mark.parametrize("D", [0, 5, -1, -2, -5, -6])
def test_reduced_forms_domain(D):
    with pytest.raises(DomainError):
        list(reduced_forms(D))


# hurwitz_series(D, 8) as the former kernel listed the reduced forms; D = -64
# has (4, 0, 4), weighted 1/2, beside (4, 4, 5), weighted 1, with 4a^2 = |D|
HURWITZ_SERIES_8 = {
    -3: ("0x1.54d7b911bfd59p-2", 766),
    -4: ("0x1.ff255e9f4d8d2p-2", 766),
    -23: ("0x1.7e614c827941ep+1", 2298),
    -47: ("0x1.3dcadf743dd10p+2", 3830),
    -64: ("0x1.ba7344d4ed81cp+1", 3064),
    -140: ("0x1.f7fd43179a01bp+2", 6128),
    -299: ("0x1.f140815ec74bap+2", 6128),
    -1000: ("0x1.6bc32cade648bp+3", 9192),
}


@pytest.mark.parametrize("D", sorted(HURWITZ_SERIES_8))
def test_hurwitz_series_pinned(D):
    rep = hurwitz_series(D, 8)
    assert (rep.value.hex(), rep.terms_used) == HURWITZ_SERIES_8[D]


def test_factorization_helpers_match_sympy():
    from sympy import totient
    for m in range(1, 3000):
        assert euler_phi(m) == totient(m), m
        assert moebius_mu(m) == mobius(m), m


@pytest.mark.parametrize("call", [
    lambda: hstar_neg(-6), lambda: h_neg(-5), lambda: h_pos(6),
    lambda: divisor_rows(7, 1, 5), lambda: principal_form(6),
    lambda: river_period(7), lambda: h1(-6), lambda: hurwitz_series(-5, 3),
    lambda: series_seed(6)])
def test_one_discriminant_check(call):
    with pytest.raises(DomainError, match="discriminant must be 0 or 1 mod 4"):
        call()


def test_tables_match_scalar_counts():
    h, H = h_neg_table(LIMIT), hurwitz_table(LIMIT)
    assert list(h) == _discs_neg(LIMIT)
    assert list(H) == [n for n in range(1, LIMIT + 1) if n % 4 in (0, 3)]
    for D in _discs_neg(LIMIT):
        assert type(h[D]) is int and h[D] == h_neg(D), D
        assert type(H[-D]) is Fraction and H[-D] == hurwitz(-D), D


def _assert_wells_table(limit):
    got, want = _wells_table(limit), ref_wells_table(limit)
    assert got.dtype == np.int64 and np.array_equal(got, want), limit


def test_wells_table_matches_slice_loop():
    for limit in range(401):
        _assert_wells_table(limit)


def _bincounted(limit, step):
    # the terms of the triples _wells_table counts by np.bincount for the
    # all-odd (step 2) or the even-D wells of limit
    top = limit if step == 2 else limit // 4
    size = (limit + 1) // 4 if step == 2 else top + 1
    start, stride, _ = _wells(top, step)[0]
    count = (size - 1 - start) // stride + 1
    return int(count[count <= _SHORT].sum())


@cache
def _kernel_boundaries(most=2 * 10 ** 5):
    """Limits <= most where the kernel changes shape: where the progressions
    of compact stride 1 to 4 first exceed _SHORT terms, and where the terms
    bincounted in either class first reach a multiple of _BATCH."""
    out = [4 * _SHORT * s for s in range(1, 5)]
    for step in (1, 2):
        k = 1
        while _bincounted(most, step) >= k * _BATCH:
            lo, hi = 0, most  # bisect for the least limit reaching k batches
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _bincounted(mid, step) >= k * _BATCH:
                    hi = mid
                else:
                    lo = mid
            out.append(hi)
            k += 1
    return out


@given(st.one_of(
    st.integers(401, 2 * 10 ** 5),
    st.builds(int.__add__, st.deferred(lambda: st.sampled_from(
        _kernel_boundaries())), st.integers(-40, 40))))
@settings(max_examples=30, deadline=None)
def test_wells_table_matches_slice_loop_near_boundaries(limit):
    _assert_wells_table(limit)


@given(st.integers(0, 1500), st.integers(0, 40), st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_wells_table_any_split(limit, short, extra):
    # every split into slice adds and bincount batches counts the same; small
    # batches put a row across a batch's end at most limits
    with mock.patch.object(classnum, "_SHORT", short), \
            mock.patch.object(classnum, "_BATCH", short + extra):
        _assert_wells_table(limit)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 7, 8, 12, 16, 27, 48])
def test_small_tables(limit):
    assert h_neg_table(limit) == ref_h_neg_table(limit)
    assert hurwitz_table(limit) == ref_hurwitz_table(limit)


@given(st.integers(1, 49999), st.booleans())
@settings(max_examples=25, deadline=None)
def test_counts_match_reduced_forms(m, even):
    D = -4 * m if even else -(4 * m + 3)
    assert h_neg(D) == ref_reduced_forms(D, primitive=True)
    assert hstar_neg(D) == ref_reduced_forms(D, primitive=False)


def test_omega_enumerate_matches_trial_division():
    for D in range(1, 1500):
        if D % 4 in (0, 1):
            assert [(e.a, e.k) for e in omega_enumerate(D)] == ref_omega_enumerate(D), D
        else:  # no discriminant: the trial division finds nothing
            assert ref_omega_enumerate(D) == []
            with pytest.raises(DomainError):
                omega_enumerate(D)


def _check_zagier_step(a, b, c):
    q = QuadForm(a, b, c)
    D = q.discriminant()
    if a == 0 or D <= 0 or is_square(D):
        return
    got = zagier_step(q)
    assert type(got) is QuadForm and got == ref_zagier_step(q), q


def test_zagier_step_matches_surd_ceiling_small():
    # every small form, so that 2a | b + isqrt(D) occurs for both signs of a
    for a in range(-12, 13):
        for b in range(-12, 13):
            for c in range(-12, 13):
                _check_zagier_step(a, b, c)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
@settings(max_examples=200)
def test_zagier_step_matches_surd_ceiling(a, b, c):
    _check_zagier_step(a, b, c)


def test_h_pos_counts_simple_cycles():
    for D in range(2, 2000):
        if D % 4 in (0, 1) and not is_square(D):
            assert h_pos(D) == ref_h_pos(D), D


@pytest.mark.parametrize("table", [h_neg_table, hurwitz_table])
def test_negative_table_limit_is_a_domain_error(table):
    for limit in (-1, -2, -5):
        with pytest.raises(DomainError, match="table limit"):
            table(limit)
