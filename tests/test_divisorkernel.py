"""The divisor kernel `reduce.divisor_rows` and the enumerations moved onto
it, against the loops they replaced.

The reference functions below are the former trial loops of
`omega_enumerate` and `series._all_reduced_neg` (whose list of reduced
forms `reduce.reduced_forms` now gives), the smallest-prime-factor
sieve path (`_spf_sieve`, `_factor`, `_divisors`) of `square_log_identity`
with one float rounding per term, and the depth-first Stern-Brocot walk and
gcd-filtered lattice sum of `eisenstein_check`.  The kernel's rows are
checked against sympy's divisor counts on Hypothesis discriminants.
"""

from math import fsum, gcd, isqrt, log

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy import divisor_count

from topoforms import series
from topoforms.exact import DomainError
from topoforms.forms import QuadForm
from topoforms.reduce import (OmegaEntry, divisor_rows, omega_enumerate,
                              reduced_forms, z_forms, zagier_classes,
                              zstar_forms)
from topoforms.series import (W1, eisenstein_check, root_product_all,
                              square_log_identity)

# ------------------------------------------------------------- reference


def ref_omega_enumerate(D):
    """The former trial loop of omega_enumerate."""
    out = []
    root = isqrt(D)
    kmax = root if root * root < D else root - 1
    for k in range(-kmax, kmax + 1):
        if (k * k - D) % 4 != 0:
            continue
        n = (D - k * k) // 4
        small = [a for a in range(1, isqrt(n) + 1) if n % a == 0]
        large = [n // a for a in reversed(small) if a * a != n]
        for a in small + large:
            t = 2 * a - k
            if t > 0 and t * t > D:
                out.append(OmegaEntry(a, k))
    return out


def ref_all_reduced_neg(D):
    """The former trial loop of series._all_reduced_neg."""
    out = []
    b = 0
    while b * b <= -D // 3:
        n4 = b * b - D
        if n4 % 4 == 0:
            n = n4 // 4
            a = max(b, 1)
            while a * a <= n:
                if n % a == 0:
                    c = n // a
                    out.append(QuadForm(a, b, c))
                    if 0 < b < a < c:
                        out.append(QuadForm(a, -b, c))
                a += 1
        b += 1
    out.sort()
    return out


def _spf_sieve(limit):
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _factor(n, spf):
    out = {}
    while n > 1:
        p = spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def _divisors(fac):
    divs = [1]
    for p, e in fac.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return divs


def ref_square_log_identity(m, bmax):
    """The former per-divisor loop of square_log_identity."""
    D = m * m
    lhs = series.euler_phi(m) * log(m / 2)
    s2 = fsum(m / q.b for q in z_forms(D) if q.content() == 1)
    s3 = fsum(W1(r / m) for r in range(1, m) if gcd(r, m) == 1)
    spf = _spf_sieve(bmax + m)
    m3 = float(m ** 3)
    s1_terms = []
    for ab in range(m + 2, bmax + 1, 2):
        fac = _factor(ab - m, spf)
        for p, e in _factor(ab + m, spf).items():
            fac[p] = fac.get(p, 0) + e
        fac[2] -= 2
        if fac[2] == 0:
            del fac[2]
        n4 = (ab * ab - m * m) // 4
        for b in (ab, -ab):
            for a in _divisors(fac):
                c = n4 // a
                if a + b + c <= 0 or gcd(gcd(a, b), c) != 1:
                    continue
                s1_terms.append(m3 / (3.0 * b * (b + 2 * a) * (b + 2 * c)))
    return lhs, fsum(s1_terms) + s2 + s3


def ref_eisenstein_lhs(g, radius):
    """The former depth-first Stern-Brocot walk of the edge sum."""
    cutoff2 = min(radius, 1000) ** 2
    g2 = float(g * g)
    terms = []
    stack = [(1, 1)]
    while stack:
        x, y = stack.pop()
        n = x * x + y * y
        if n > cutoff2:
            continue
        gn = float(g * n)
        terms.append(g2 / (gn * gn))
        stack.append((x, x + y))
        stack.append((x + y, y))
    return 1.0 + fsum(terms)


def ref_coprime_lattice_sum(radius):
    """1 + the sum of 1/(x^2 + y^2)^2 over coprime x, y >= 1 within the
    radius, each term rounded once and the sum rounded once."""
    r2 = radius * radius
    terms = []
    ys = np.arange(1, radius + 1)
    for x in range(1, radius + 1):
        n = x * x + ys * ys
        keep = (n <= r2) & (np.gcd(x, ys) == 1)
        terms += (1.0 / n[keep].astype(float) ** 2).tolist()
    return 1.0 + fsum(terms)


# ----------------------------------------------------------------- kernel

DISCS = st.builds(lambda n, r: 4 * n + r, st.integers(-2_500_000, 2_500_000),
                  st.sampled_from((0, 1)))


def _check_rows(D, start, stop):
    b, a, c = divisor_rows(D, start, stop)
    assert b.dtype == a.dtype == c.dtype == np.int64
    assert (a > 0).all()
    assert (a * c == np.abs(b * b - D) // 4).all()
    want = list(range(start, stop, 2))
    assert np.isin(b, want).all()
    counts = np.bincount(b - start, minlength=len(want) * 2)[::2]
    for x, n in zip(want, counts.tolist()):
        assert n == divisor_count(abs(x * x - D) // 4), (D, x)
        assert len(set(a[b == x].tolist())) == n, (D, x)


@pytest.mark.parametrize("D, start, stop", [
    (-4 * 1000003, 0, 41),      # v = 1000003 at b = 0: a prime cofactor
    (1 - 4 * 3 ** 12, 1, 61),   # v = 3^12 at b = 1: a prime power
    (-(1 << 22), 0, 81),        # v = 2^20 at b = 0: p = 2
    (4 * 3 * 5 * 7 * 11 * 13, 0, 241),  # p | D: the one root 0
    (4 * 9 * 25 * 7, 0, 421),   # p^2 | D
    (45 * 45, 47, 2001),        # D = m^2: roots +-m, double where p | m
    (45 * 45, -2001, -46),      # negative b
    (5, -1, 2),                 # both signs around 0
    (0, 2, 200),
    (1, 3, 3),                  # an empty range
])
def test_rows_are_every_divisor(D, start, stop):
    _check_rows(D, start, stop)


@given(DISCS, st.integers(-3000, 3000), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_rows_are_every_divisor_of_hypothesis_values(D, start, length):
    start += (start - D) % 2
    stop = start + 2 * length
    assume(all(b * b != D for b in range(start, stop, 2)))
    _check_rows(D, start, stop)


def test_kernel_entry_checks():
    for D in (6, 7, -5, -6):
        with pytest.raises(DomainError):
            divisor_rows(D, D % 2, 11)
    with pytest.raises(DomainError):
        divisor_rows(20, 1, 11)  # b must have the parity of D
    with pytest.raises(DomainError):
        divisor_rows(49, 1, 11)  # b^2 = D at b = 7


# -------------------------------------------------------- enumerations

def test_omega_enumerate_matches_trial_loop():
    for D in range(1, 3000):
        if D % 4 in (0, 1):
            assert omega_enumerate(D) == ref_omega_enumerate(D), D


@given(st.integers(4, 10 ** 7))
@example(10 ** 7 + 1)
@settings(max_examples=5, deadline=None)
def test_omega_enumerate_matches_trial_loop_large(D):
    D -= D % 4 // 2 * 2  # 2, 3 mod 4 to 0, 1 mod 4
    assert omega_enumerate(D) == ref_omega_enumerate(D)


def test_all_reduced_neg_matches_trial_loop():
    for D in range(-3000, 0):
        if D % 4 in (0, 1):
            assert sorted(reduced_forms(D)) == ref_all_reduced_neg(D), D


@pytest.mark.parametrize("D", [6, 7, 10, 11])
def test_no_discriminant_is_a_domain_error(D):
    for fn in (omega_enumerate, z_forms, zstar_forms, zagier_classes,
               root_product_all):
        with pytest.raises(DomainError):
            fn(D)


# ------------------------------------------------------- series sums

@pytest.mark.parametrize("m", range(3, 46, 2))
def test_square_log_identity_matches_reference_every_m(m):
    for bmax in (m, m + 2, 400, 401):
        assert square_log_identity(m, bmax) == ref_square_log_identity(m, bmax)


def test_square_log_identity_matches_reference():
    for m, bmax in ((3, 1500), (5, 1001), (7, 901), (9, 701), (15, 801)):
        assert (square_log_identity(m, bmax)
                == ref_square_log_identity(m, bmax)), m


@pytest.mark.parametrize("m, bmax", [(3, 4201), (7, 9001)])
def test_square_log_identity_across_kernel_calls(m, bmax):
    # |b| runs over more than one kernel call of 2048 values
    assert square_log_identity(m, bmax) == ref_square_log_identity(m, bmax)


@pytest.mark.parametrize("g, radius", [
    (1, 300), (3, 300), (2, 1000),
    (3001, 300),     # (g n)^2 beyond 2^53: rounded once, as x x
    (10 ** 17, 20),  # g n beyond int64: Python ints
])
def test_eisenstein_lhs_matches_depth_first_walk(g, radius):
    assert eisenstein_check(g, radius)[0] == ref_eisenstein_lhs(g, radius)


@pytest.mark.parametrize("radius", [2, 3, 50, 300, 1000])
def test_eisenstein_rhs_within_an_ulp_of_the_exact_sum(radius):
    # the Moebius sum reorders the terms: allow one ulp of the value ~1.39
    rhs = eisenstein_check(1, radius)[1]
    assert abs(rhs - ref_coprime_lattice_sum(radius)) <= 2.0 ** -52
