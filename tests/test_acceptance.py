"""End-to-end acceptance checks: printed-value reproductions, oracle
cross-checks, and exact certificates, one test per criterion."""

import math
import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from sympy.solvers.diophantine.diophantine import diop_DN

from topoforms.classnum import (euler_phi, h_neg_table, h_square,
                                hurwitz_table, r3, r3_primitive, r3_via_class,
                                r3p_via_class, upsilon, upsilon_odd)
from topoforms.exact import Surd, is_square
from topoforms.forms import QuadForm, act
from topoforms.reduce import (gauss_cycle, reduce_negative,
                              reduce_simple_cycle, reduce_square, z_forms,
                              zagier_cycle, zstar_forms)
from topoforms.riverword import (Necklace, epsilon, epsilon_star, necklace_of,
                                 negative_pell, pell_fundamental,
                                 principal_form, topograph_of_necklace,
                                 topograph_of_word, word_of)
from topoforms.series import (W1, eisenstein_check, root_product,
                              root_product_all, series_neg_profile,
                              series_pos, series_seed, series_square,
                              square_log_identity)


def _discs_pos(limit):
    return [D for D in range(5, limit + 1)
            if D % 4 in (0, 1) and not is_square(D)]


# 1. river series at D=96 reproduce the printed partial sums to 1e-6

def test_01_river_series_96():
    r1, r2 = series_pos(series_seed(96), 15)
    assert abs(r1.value - 4.5838550) < 1e-6
    assert abs(r2.value - 4.5848597) < 1e-6
    assert abs(r1.target - 4.5848633) < 1e-6
    assert r1.target == 2 * math.log(float(epsilon(96)))


# 2. square-discriminant series at D=324

def test_02_square_series_324():
    r1, r2 = series_square(series_seed(324), 15)
    assert abs(r1.value - 4.3911059) < 5e-4
    assert abs(r2.value - 4.3944308) < 5e-4
    assert abs(r1.target - 4.3944492) < 1e-6


# 3. definite-vertex series converge monotonically; depth-20 partial sums
#    land within 1e-3 (relative) of 4 pi and 24 pi

def test_03_definite_series_convergence():
    t1, t2 = 4 * math.pi, 24 * math.pi
    prof20 = series_neg_profile(QuadForm(1, 0, 5), [5, 10, 15, 20])  # D=-20
    prof31 = series_neg_profile(QuadForm(1, 1, 8), [5, 10, 15, 20])  # D=-31
    res1 = [t1 - prof20[d][0] for d in (5, 10, 15, 20)]
    res2 = [t2 - prof31[d][1] for d in (5, 10, 15, 20)]
    # all terms are positive, so residuals shrink monotonically from above
    assert all(a > b > 0 for a, b in zip(res1, res1[1:]))
    assert all(a > b > 0 for a, b in zip(res2, res2[1:]))
    assert res1[-1] / t1 < 1e-3
    assert res2[-1] / t2 < 1e-3


# 4. well-count class numbers match a brute reduced-form census, |D| <= 10^4

def test_04_class_number_oracle():
    limit = 10 ** 4
    counts = {}
    for a in range(1, isqrt(limit // 3) + 1):
        for b in range(-a, a + 1):
            if (b * b + limit) // (4 * a) < a:
                continue
            for c in range(a, (b * b + limit) // (4 * a) + 1):
                D = b * b - 4 * a * c
                if D >= 0:
                    continue
                if (abs(b) == a or a == c) and b < 0:
                    continue
                if gcd(gcd(a, b), c) == 1:
                    counts[D] = counts.get(D, 0) + 1
    table = h_neg_table(limit)
    assert table[-3] == 1 and table[-4] == 1
    for D, h in table.items():
        assert h == counts.get(D, 0), D


# 5. square discriminants: h = phi(m) and h* = m, formula vs canonical count

def test_05_square_class_counts():
    for m in range(1, 501):
        assert h_square(m * m) == (euler_phi(m), m)
        # one seed per rightmost river edge, plus the edge on the lake
        seeds = [QuadForm(a, m - 2 * a, a - m) for a in range(1, m)]
        seeds.append(QuadForm(0, m, m))
        canon = {reduce_square(q).canonical for q in seeds}
        assert len(canon) == m, m
        assert sum(1 for q in canon if gcd(q.b, q.c) == 1) == euler_phi(m)


# 6. sums of three squares against the class-number formulas, n <= 2000

def test_06_three_squares():
    N = 2000
    s = isqrt(N)
    xs = np.arange(-s, s + 1)
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    n = (X * X + Y * Y + Z * Z).ravel()
    brute = np.bincount(n, minlength=N + 1)[:N + 1]
    g = np.gcd(np.gcd(np.abs(X), np.abs(Y)), np.abs(Z)).ravel()
    brute_p = np.bincount(n[g == 1], minlength=N + 1)[:N + 1]
    H = hurwitz_table(4 * N)
    hn = h_neg_table(4 * N)

    def formula(k):
        while k % 4 == 0:
            k //= 4
        if k % 8 == 7:
            return 0
        if k % 8 == 3:
            return int(12 * (H[4 * k] - 2 * H[k]))
        return int(12 * H[4 * k])

    def formula_p(k):
        m = k % 8
        if m in (0, 4, 7):
            return 0
        if m == 3:
            return 12 * (hn[-4 * k] - hn[-k])
        return 12 * hn[-4 * k]

    for k in range(1, N + 1):
        assert formula(k) == brute[k], k
        if k > 3:
            assert formula_p(k) == brute_p[k], k
    # the library entry points agree with the batch formulas
    for k in (1, 2, 3, 11, 42, 427, 1999):
        assert r3_via_class(k) == brute[k] == r3(k)
        if k > 3:
            assert r3p_via_class(k) == brute_p[k] == r3_primitive(k)

    # Upsilon identities by one shared sweep over ordered solutions
    ups = [Fraction(0)] * (N + 1)
    for e in range(0, N + 1):
        for f in range(0, (N if e == 0 else N // e) + 1):
            if e + f == 0 or e * f > N:
                continue
            for k in range(e * f, N + 1, e + f):
                gg = (k - e * f) // (e + f)
                ups[k] += Fraction(1, 2) if 0 in (e, f, gg) else 1
    upso = [0] * (N + 1)
    for e in range(1, N + 1, 2):
        for f in range(1, N // e + 1, 2):
            if e * f > N:
                break
            for k in range(e * f + e + f, N + 1, e + f):
                if ((k - e * f) // (e + f)) % 2 == 1:
                    upso[k] += 1
    for k in range(1, N + 1):
        assert ups[k] == 3 * H[4 * k], k
        if k % 4 == 3:
            assert upso[k] == 3 * H[k], k
    # spot check the quadratic-time entry points
    for k in (1, 7, 30, 59):
        assert upsilon(k) == ups[k]
        assert upsilon_odd(k) == upso[k]


# 7. Pell fundamental solutions against an independent oracle, D <= 2000

def _pell_oracle(D):
    cands = []
    for t, u in diop_DN(D, 4):
        t, u = abs(int(t)), abs(int(u))
        if u > 0 and t * t - D * u * u == 4:
            cands.append((u, t))
    for x, y in diop_DN(D, 1):
        x, y = abs(int(x)), abs(int(y))
        if y > 0:
            cands.append((2 * y, 2 * x))
    for a, b in diop_DN(D, -4):
        a, b = abs(int(a)), abs(int(b))
        if b > 0:
            cands.append((a * b, (a * a + D * b * b) // 2))
    u, t = min(cands)
    return t, u


def _neg_pell_oracle(D):
    cands = []
    for a, b in diop_DN(D, -4):
        a, b = abs(int(a)), abs(int(b))
        if b > 0 and a * a - D * b * b == -4:
            cands.append((b, a))
    for x, y in diop_DN(D, -1):
        x, y = abs(int(x)), abs(int(y))
        if y > 0:
            cands.append((2 * y, 2 * x))
    if not cands:
        return None
    u, t = min(cands)
    return t, u


def test_07_pell():
    for D in _discs_pos(2000):
        s = pell_fundamental(D)
        assert (s.t, s.u) == _pell_oracle(D), D
        n = negative_pell(D)
        got = None if n is None else (n.t, n.u)
        assert got == _neg_pell_oracle(D), D
        if n is not None:
            es = epsilon_star(D)
            assert es * es == epsilon(D)  # exact, not approximate
    s148 = pell_fundamental(148)
    assert (s148.t, s148.u) == (146, 12)  # epsilon = 73 + 12 sqrt(37)
    assert epsilon(148) == Surd(73, 6, 1, 148)
    from topoforms.classnum import h_pos
    assert h_pos(148) == 3
    n145 = negative_pell(145)
    assert (n145.t, n145.u) == (24, 2)


# 8. root products equal eps_D per class and eps_D^h overall, D <= 500

def test_08_root_products():
    for D in _discs_pos(500):
        eps = epsilon(D)
        seen = set()
        for f in zstar_forms(D):
            if f.content() != 1:
                continue
            key = reduce_simple_cycle(f).canonical
            if key in seen:
                continue
            seen.add(key)
            assert root_product(f) == eps, (D, f)
        acc = Surd(1, 0, 1, D)
        for _ in range(len(seen)):
            acc = acc * eps
        assert root_product_all(D) == acc, D


# 9. necklace and word bijections with exact counts and the worked tables

def _lyndon_count(n):
    from topoforms.classnum import moebius_mu
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += moebius_mu(n // d) * 2 ** d
    return total // n


def test_09_bijections():
    # primitive necklaces of each length 2..12
    for n in range(2, 13):
        necks = set()
        for v in range(2 ** n):
            bits = format(v, f"0{n}b")
            try:
                neck = Necklace(bits)
            except Exception:
                continue
            if len(neck.bits) == n:
                necks.add(neck)
        assert len(necks) == _lyndon_count(n), n
        for neck in necks:
            q = topograph_of_necklace(neck)
            assert q.content() == 1
            assert necklace_of(q) == neck

    neck_table = {
        "01": 5, "001": 12, "011": 12, "0001": 21, "0011": 8, "0111": 21,
        "00001": 32, "00011": 60, "00101": 96, "00111": 60, "01011": 96,
        "01111": 32,
    }
    for bits, D in neck_table.items():
        assert topograph_of_necklace(bits).discriminant() == D, bits

    # words of length 0..12 decode to distinct primitive square topographs
    seen_forms = set()
    for n in range(0, 13):
        for v in range(2 ** n):
            w = format(v, f"0{n}b") if n else ""
            q = topograph_of_word(w)
            assert q.content() == 1 and q.discriminant() == q.b ** 2
            assert word_of(q) == w
            assert q not in seen_forms
            seen_forms.add(q)
    # together with distinctness this pins 2^(n-1) topographs per river
    # length n (a length-l word rides a river of l+1 edges)
    word_table = {
        None: QuadForm(0, 1, 1), "": QuadForm(0, 2, 1), "0": QuadForm(0, 3, 1),
        "1": QuadForm(0, 3, 2), "00": QuadForm(0, 4, 1),
        "01": QuadForm(0, 5, 2), "10": QuadForm(0, 5, 3),
        "11": QuadForm(0, 4, 3), "000": QuadForm(0, 5, 1),
        "001": QuadForm(0, 7, 2), "010": QuadForm(0, 8, 3),
        "011": QuadForm(0, 7, 3),
    }
    for w, q in word_table.items():
        assert topograph_of_word(w) == q
        assert word_of(q) == w


# 10. reduction certificates: exact transforms on random forms per regime

def _scramble(rng, q, span=4):
    from topoforms.forms import MAT_L, MAT_R, MAT_S
    m = {"L": MAT_L, "R": MAT_R, "S": MAT_S}
    for _ in range(rng.randint(1, span)):
        q = act(q, m[rng.choice("LRS")])
    return q


def test_10_reduction_certificates():
    rng = random.Random(20250825)
    checked = 0
    while checked < 1000:  # negative discriminants
        a, c = rng.randint(1, 40), rng.randint(1, 40)
        bmax = isqrt(4 * a * c - 1)
        b = rng.randint(-bmax, bmax)
        q = QuadForm(a, b, c)
        if q.discriminant() >= 0 or q.discriminant() < -10 ** 4:
            continue
        res = reduce_negative(q)
        assert act(q, res.transform) == res.canonical
        checked += 1
    for _ in range(1000):  # square discriminants
        m = rng.randint(1, 90)
        q = _scramble(rng, QuadForm(0, m, rng.randint(1, m)))
        res = reduce_square(q)
        assert act(q, res.transform) == res.canonical
    discs = _discs_pos(10 ** 4)
    for _ in range(1000):  # non-square positive discriminants
        q = _scramble(rng, principal_form(rng.choice(discs)))
        res = reduce_simple_cycle(q)
        assert act(q, res.transform) == res.canonical[0]

    res = reduce_negative(QuadForm(47, -36, 7))
    assert res.canonical == QuadForm(2, 2, 3)
    assert res.steps == (("L", 0), ("R", 2), ("L", 1), ("S", 1))
    res = reduce_negative(QuadForm(42, 22, 3))
    assert res.canonical == QuadForm(2, 2, 3)
    assert res.steps == (("L", -1), ("R", 1), ("L", 2), ("R", 1))
    res = reduce_square(QuadForm(13, -60, 63))
    assert res.canonical == QuadForm(0, 18, 7)
    assert res.steps == (("L", 2), ("R", 1), ("L", -1), ("R", 1), ("L", 2),
                         ("R", 1), ("L", 1), ("R", 2))


# 11. Gauss, Zagier, and simple cycles induce the same class partition

def test_11_equivalence_methods_agree():
    for D in _discs_pos(500):
        seeds = [q for q in z_forms(D) if q.content() == 1]
        keys = [(reduce_simple_cycle(q).canonical, gauss_cycle(q),
                 zagier_cycle(q)) for q in seeds]
        for i in range(len(seeds)):
            for j in range(i + 1, len(seeds)):
                same = [keys[i][k] == keys[j][k] for k in range(3)]
                assert same[0] == same[1] == same[2], (D, seeds[i], seeds[j])


# 12. the log identity closes through the W1 quadrature

def test_12_log_identity():
    assert abs(W1(0) - 0.270363) < 1e-5
    assert abs(W1(0.5) - (-0.115932)) < 1e-5
    for m in (5, 7):
        lhs, rhs = square_log_identity(m)
        assert abs(lhs - rhs) < 1e-5, m


# 13. discriminant-zero edge sum vs the coprime Eisenstein lattice sum

def test_13_eisenstein():
    lhs, rhs = eisenstein_check(radius=10 ** 4)
    assert abs(lhs - rhs) < 1e-3
