"""The numpy level kernel of the series against the per-vertex loops it
replaced.

The reference functions below are the former pure-Python level-order loops
of `series._neg_scan`, `series_pos` and `series_square`, with exact integer
labels and one float rounding per term.  The kernel must reproduce their
values and term counts bit for bit, on the int64 path, on its Python-int
fallbacks (products beyond 2^53, labels beyond int64) and on forms moved far
from their reduced representative.
"""

import math
import random
from math import fsum, gcd, log

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoforms import series
from topoforms.exact import Surd, is_square, isqrt
from topoforms.forms import QuadForm
from topoforms.reduce import reduce_simple_cycle, reduce_square, zstar_forms
from topoforms.riverword import epsilon, principal_form
from topoforms.series import (W1, W2, SeriesReport, hurwitz_series,
                              root_product, series_neg, series_neg_profile,
                              series_pos, series_seed, series_square)
from topoforms.topograph import _labels, _levels, find_river

_MOVES = {
    "L": lambda a, b, c: (a, b + 2 * a, a + b + c),
    "R": lambda a, b, c: (a + b + c, b + 2 * c, c),
    "Li": lambda a, b, c: (a, b - 2 * a, a - b + c),
    "Ri": lambda a, b, c: (a - b + c, b - 2 * c, c),
}


def _moved(form, word):
    a, b, c = form
    for move in word:
        a, b, c = _MOVES[move](a, b, c)
    return QuadForm(a, b, c)


# ------------------------------------------------------------- reference

def ref_neg_scan(q, checkpoints):
    q = -q if q.a < 0 else q
    maxdepth = max(checkpoints)
    want = set(checkpoints)
    a, b, c = q
    t = a - b + c
    level1 = [1.0 / abs(a * c * t)]
    level2 = [abs(a + c + t) / float((a * c * t) ** 2)]
    out = {}
    fa = [a, c, t]
    fb = [b, -b + 2 * c, -b + 2 * a]
    fc = [c, t, a]
    terms = 1
    for depth in range(1, maxdepth + 1):
        na, nb, nc = [], [], []
        t1, t2 = [], []
        for a, b, c in zip(fa, fb, fc):
            h = a + b + c
            p = a * c * h
            t1.append(1.0 / abs(p))
            t2.append(abs(a + c + h) / float(p * p))
            na += [a, h]
            nb += [b + 2 * a, b + 2 * c]
            nc += [h, c]
        terms += len(fa)
        level1.append(fsum(t1))
        level2.append(fsum(t2))
        if depth in want:
            out[depth] = (fsum(level1), fsum(level2), terms)
        fa, fb, fc = na, nb, nc
    if 0 in want:
        out[0] = (level1[0], level2[0], 1)
    return out


def ref_series_pos(q, depth):
    D = q.discriminant()
    river = find_river(q)
    sqD = math.sqrt(D)
    d32, d52, d92 = D ** 1.5, D ** 2.5, D ** 4.5
    sums1, sums2 = [], []
    terms = 0
    for edge in river.edges:
        a, b, c = edge.form
        h = a + b + c
        if h > 0:
            ta, tb, tc = a, b + 2 * a, h
        else:
            ta, tb, tc = h, b + 2 * c, c
        et = abs(tb)
        sums1.append(sqD / et)
        sums2.append(sqD / et + d32 / (3 * et ** 3))
        terms += 1
        fa, fb, fc = [ta], [tb], [tc]
        t1, t2 = [], []
        for _ in range(depth + 1):
            na, nb, nc = [], [], []
            for a, b, c in zip(fa, fb, fc):
                f = b + 2 * a
                g = b + 2 * c
                p = b * f * g
                t1.append(d32 / abs(p))
                t2.append(d52 * abs(b + 2 * a + 2 * c) / float(p) ** 2
                          + d92 / (3 * abs(float(p)) ** 3))
                na += [a, a + b + c]
                nb += [f, g]
                nc += [a + b + c, c]
            terms += len(fa)
            fa, fb, fc = na, nb, nc
        sums1.append(fsum(t1))
        sums2.append(fsum(t2))
    target = 2 * log(float(epsilon(D)))
    return (SeriesReport("mt", D, depth, fsum(sums1), target, terms),
            SeriesReport("mt2", D, depth, fsum(sums2), target, terms))


def ref_square_vertex(m, r1, r2, r3):
    """Both terms of the square sums at the vertex (r1, r2, r3), or None at
    a lake vertex."""
    m3, m5, m9 = float(m ** 3), float(m ** 5), float(m ** 9)
    if r1 == 0 or r2 == 0 or r3 == 0:
        return None
    neg = (r1 < 0) + (r2 < 0) + (r3 < 0)
    if neg in (1, 2):
        if neg == 1:
            odd = min(x for x in (r1, r2, r3) if x < 0)
        else:
            odd = max(x for x in (r1, r2, r3) if x > 0)
        et = abs((r1 + r2 + r3) - 2 * odd)
        return m / et, m / et + m3 / (3 * et ** 3)
    e = r2 + r3 - r1
    f = r1 + r3 - r2
    g = r1 + r2 - r3
    p = e * f * g
    return (m3 / abs(p),
            m5 * abs(e + f + g) / float(p) ** 2
            + m9 / (3 * abs(float(p)) ** 3))


def ref_series_square(q, depth):
    D = q.discriminant()
    m = isqrt(D)
    r = reduce_square(q).canonical.c
    g0 = gcd(m, r)
    if m > 1 and g0 == 1:
        s_res = pow(r, -1, m) or m
    else:
        s_res = r
    river = find_river(q)
    k = len(river.edges)
    a, b, c = river.edges[k // 2].form if k else QuadForm(r, -m, 0)
    verts = [(a, c, a - b + c)]
    fa = [a, c, a - b + c]
    fb = [b, -b + 2 * c, -b + 2 * a]
    fc = [c, a - b + c, a]
    sums1, sums2 = [], []
    terms = 0
    for lvl in range(depth + 1):
        t1, t2 = [], []
        for r1, r2, r3 in verts:
            term = ref_square_vertex(m, r1, r2, r3)
            if term is None:
                continue
            t1.append(term[0])
            t2.append(term[1])
            terms += 1
        sums1.append(fsum(t1))
        sums2.append(fsum(t2))
        if lvl == depth:
            break
        verts = []
        na, nb, nc = [], [], []
        for a, b, c in zip(fa, fb, fc):
            h = a + b + c
            verts.append((a, c, h))
            na += [a, h]
            nb += [b + 2 * a, b + 2 * c]
            nc += [h, c]
        fa, fb, fc = na, nb, nc
    v1 = fsum(sums1) + W1(r / m) + W1(s_res / m)
    v2 = fsum(sums2) + (W2(r / m) + W2(s_res / m) + 1) / 3
    if m == 1:
        v1 -= 2
        v2 -= 8 / 3
    target = 2 * log(m / (2 * g0))
    return (SeriesReport("sq", D, depth, v1, target, terms),
            SeriesReport("sq2", D, depth, v2, target, terms))


def ref_seed_and_root_products(D):
    """The former seed search and root products for non-square D > 0: a
    river walk for every primitive Zagier * form, whose canonical simple
    cycle names its class.  Returns the seed and each class's product."""
    products = {}
    for f in zstar_forms(D):
        if f.content() != 1:
            continue
        key = reduce_simple_cycle(f).canonical
        a, b, _ = f
        root = Surd(-b, 1, 2 * a, D)
        products[key] = products.get(key, Surd(1, 0, 1, D)) * root
    seed = min((len(find_river(key[0]).edges), key[0]) for key in products)[1]
    return seed, products


def _definite_discs():
    return [D for D in range(-100, -2) if D % 4 in (0, 1)]


def _nonsquare_discs(limit):
    return [D for D in range(5, limit) if D % 4 in (0, 1) and not is_square(D)]


# ------------------------------------------------------- definite sums

def test_series_neg_matches_reference(monkeypatch):
    got = {(D, d): series_neg(principal_form(D), d)
           for D in _definite_discs() for d in (0, 1, 5, 12)}
    monkeypatch.setattr(series, "_neg_scan", ref_neg_scan)
    for (D, d), reports in got.items():
        assert reports == series_neg(principal_form(D), d), (D, d)


def test_hurwitz_series_matches_reference(monkeypatch):
    got = {(D, d): hurwitz_series(D, d)
           for D in _definite_discs() for d in (0, 3, 9)}
    monkeypatch.setattr(series, "_neg_scan", ref_neg_scan)
    for (D, d), report in got.items():
        assert report == hurwitz_series(D, d), (D, d)


def test_series_neg_profile_matches_reference(monkeypatch):
    forms = (QuadForm(1, 0, 5), QuadForm(1, 1, 8))  # D = -20, -31
    got = [series_neg_profile(q, range(4, 15)) for q in forms]
    monkeypatch.setattr(series, "_neg_scan", ref_neg_scan)
    for q, prof in zip(forms, got):
        assert prof == series_neg_profile(q, range(4, 15)), q


# the reference loop's profiles at depths 19 and 20, where part of every
# level has products beyond 2^53 and takes the Python-int fallback
_DEEP_PROFILES = {
    QuadForm(1, 0, 5): {
        19: (12.558227585182234, 75.39772502408762),
        20: (12.559355777643416, 75.39783466730137),
    },
    QuadForm(1, 1, 8): {
        19: (12.551090626720892, 75.39676962664115),
        20: (12.55319108349656, 75.39708669402742),
    },
}


def test_series_neg_profile_deep_levels():
    for q, want in _DEEP_PROFILES.items():
        assert series_neg_profile(q, [19, 20]) == want, q


def test_deep_level_terms_take_the_fallback():
    # level 19 of D = -20: the kernel's terms equal the scalar loop's on
    # every edge whose product leaves float64's exact range and on a sample
    # of the rest
    a, b, c = 1, 0, 5
    t = a - b + c
    levels = _levels([a, c, t], [b, -b + 2 * c, -b + 2 * a], [c, t, a])
    for _, level in zip(range(19), levels):
        pass
    fa, fb, fc = level
    h = fa + fb + fc
    _, _, ok = series._product(fa, fc, h)
    assert 0 < (~ok).sum() < len(ok)
    pick = np.concatenate((np.flatnonzero(~ok)[:5000],
                           np.arange(0, len(ok), 97)))
    got = series._definite_terms(fa[pick], fb[pick], fc[pick])
    want = [series._definite_term(x, z, x + y + z)
            for x, y, z in zip(*(col[pick].tolist() for col in level))]
    assert got.T.tolist() == [list(w) for w in want]


definite_forms = st.builds(
    lambda a, c, b, word, sign: (sign * a, sign * b, sign * c, word),
    st.integers(1, 60), st.integers(1, 60), st.integers(-20, 20),
    st.lists(st.sampled_from(sorted(_MOVES)), max_size=40),
    st.sampled_from((1, -1)),
).filter(lambda f: f[1] ** 2 < 4 * f[0] * f[2])


@settings(max_examples=60, deadline=None)
@given(definite_forms, st.integers(0, 7))
def test_moved_definite_forms_match_reference(form, depth):
    a, b, c, word = form
    q = _moved((a, b, c), word)
    got = series_neg(q, depth)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(series, "_neg_scan", ref_neg_scan)
        assert got == series_neg(q, depth)


def test_labels_beyond_int64():
    # 55- and 58-bit coefficients leave int64 within a level or two; with
    # 69 bits the kernel runs on Python ints from the start
    for pairs, bits in ((19, 55), (20, 58), (24, 69)):
        q = _moved((1, 1, 8), ["L", "R"] * pairs)
        assert max(map(abs, q)).bit_length() == bits
        assert series._neg_scan(q, [0, 3, 5]) == ref_neg_scan(q, [0, 3, 5])


# ----------------------------------------------------------- river sums

def test_series_pos_matches_reference():
    for D in _nonsquare_discs(400):
        q = series_seed(D)
        for d in (0, 3) if D % 7 else (0, 3, 8):
            assert series_pos(q, d) == ref_series_pos(q, d), (D, d)
    q = series_seed(96)
    assert series_pos(q, 12) == ref_series_pos(q, 12)


def _wide_labels(rng, bits, n=400):
    """n random label triples of up to `bits` bits, none of whose terms
    divides by zero (no topograph has such a vertex)."""
    out = []
    while len(out) < n:
        a, b, c = (rng.choice((1, -1)) * rng.randrange(2 ** bits)
                   for _ in range(3))
        r3 = a + b + c
        if (a * c * r3 * b * (b + 2 * a) * (b + 2 * c)
                and (r3 + c - a) * (a + r3 - c) * (a + c - r3)
                and a + c + r3 - 2 * min(a, c, r3)
                and a + c + r3 - 2 * max(a, c, r3)):
            out.append((a, b, c))
    return [list(col) for col in zip(*out)]


def test_levels_leave_int64_exactly():
    # labels near 2^57 reach 2^58 within a level or two; from there on the
    # levels hold Python ints, equal to the exact expansion
    rng = random.Random(1)
    a, b, c = _wide_labels(rng, 57, 8)
    levels = _levels(a, b, c)
    for _, level in zip(range(5), levels):
        assert [x.tolist() for x in level] == [a, b, c]
        hs = [x + y + z for x, y, z in zip(a, b, c)]
        a, b, c = ([y for x, h in zip(a, hs) for y in (x, h)],
                   [y for x, bb, cc in zip(a, b, c)
                    for y in (bb + 2 * x, bb + 2 * cc)],
                   [y for h, cc in zip(hs, c) for y in (h, cc)])
    assert level[0].dtype == object


def test_edge_terms_on_wide_labels():
    # river-sum edge terms for labels from 2^20 to beyond int64: the
    # products leave float64's exact range on part or all of each array
    rng = random.Random(2)
    k = (96 ** 1.5, 96 ** 2.5, 96 ** 4.5)
    for bits in (20, 27, 30, 45, 57, 61, 70):
        cols = _wide_labels(rng, bits)
        got = series._tree_terms(k, *_labels(*cols))
        want = [series._edge_term(k, b, b + 2 * a, b + 2 * c,
                                  b + 2 * a + 2 * c)
                for a, b, c in zip(*cols)]
        assert got.T.tolist() == [list(w) for w in want], bits


def test_definite_terms_on_wide_labels():
    rng = random.Random(4)
    for bits in (10, 20, 27, 30, 57, 61, 70):
        cols = _wide_labels(rng, bits)
        got = series._definite_terms(*_labels(*cols))
        want = [series._definite_term(a, c, a + b + c)
                for a, b, c in zip(*cols)]
        assert got.T.tolist() == [list(w) for w in want], bits


def test_definite_terms_near_rounding_boundaries():
    # p = 2^j (2^54 + 1) and 2^j (2^54 - 1) are not floats, and p^2 lies
    # within 2^-50 ulp of a rounding boundary: fl(p^2) needs the exact p
    cols = [], [], []
    for j in range(12):
        for c, h in ((262145, 68719214593), (2 ** 27 - 1, 2 ** 27 + 1)):
            for x, y, z in ((2 ** j, c, h), (c, 2 ** j, h)):
                for col, v in zip(cols, (x, z - x - y, y)):
                    col.append(v)
    got = series._definite_terms(*_labels(*cols))
    want = [series._definite_term(a, c, a + b + c) for a, b, c in zip(*cols)]
    assert got.T.tolist() == [list(w) for w in want]


def test_square_terms_on_wide_labels():
    # lake, river and off-river vertices, with labels up to beyond int64
    rng = random.Random(3)
    for m, bits in ((7, 3), (7, 12), (2 ** 18 + 1, 19), (324, 30),
                    (2 ** 30 + 1, 31), (2 ** 27 + 1, 40), (7, 61), (5, 70)):
        cols = _wide_labels(rng, bits)
        got = series._square_terms(m, *_labels(*cols))
        want = [ref_square_vertex(m, a, c, a + b + c)
                for a, b, c in zip(*cols)]
        want = [w for w in want if w is not None]
        assert sorted(got.T.tolist()) == sorted(list(w) for w in want), m


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_nonsquare_discs(3000)),
       st.lists(st.sampled_from(sorted(_MOVES)), max_size=30),
       st.integers(0, 4))
def test_moved_indefinite_forms_match_reference(D, word, depth):
    q = _moved(principal_form(D), word)
    assert series_pos(q, depth) == ref_series_pos(q, depth)


# ---------------------------------------------------------- square sums

def test_series_square_matches_reference():
    for m in range(1, 41):
        q = series_seed(m * m)
        for d in (0, 1, 4, 12) if m % 4 == 1 else (0, 1, 4):
            assert series_square(q, d) == ref_series_square(q, d), (m, d)
    q = series_seed(324)
    assert series_square(q, 15) == ref_series_square(q, 15)


def test_series_square_large_m():
    # consecutive Fibonacci numbers keep the river short; m near 2^27 puts
    # the products beyond 2^53, and m beyond 2^53 the labels beyond int64
    fib = [1, 1]
    while len(fib) < 82:
        fib.append(fib[-1] + fib[-2])
    for k in (40, 60, 81):
        q = QuadForm(0, fib[k], fib[k - 1])
        assert series_square(q, 4) == ref_series_square(q, 4), k


# ------------------------------------------------------------- numerics

def test_powers_match_python_pow():
    rng = np.random.default_rng(3)
    x = np.abs(np.concatenate((
        np.floor(np.ldexp(rng.random(200000) + 0.5,
                          rng.integers(1, 106, 200000))),
        np.ldexp(rng.random(100000) + 0.5, rng.integers(-300, 300, 100000)),
        2.0 ** np.arange(-60, 60))))
    p2, p3 = series._powers(x)
    assert p2.tolist() == [v ** 2 for v in x.tolist()]
    assert p3.tolist() == [v ** 3 for v in x.tolist()]


def test_exact_parts_match_fsum():
    rng = np.random.default_rng(4)
    for rows, n in ((1, 5), (2, 300), (3, 20000), (7, 1000)):
        t = rng.standard_normal(rows * n)
        t *= 10.0 ** rng.integers(-40, 40, rows * n)
        t[::11] = 0.0
        t[::13] = np.ldexp(1.0, -1074)
        t = t.reshape(rows, n)
        assert ([fsum(p) for p in series._exact_parts(t)]
                == [fsum(row) for row in t.tolist()])


def test_exact_parts_by_group_from_no_columns_up():
    # one bucket pass at every width; no columns leave the parts unchanged
    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 255, 256, 3000):
        t = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-30, 30, (2, n))
        g = rng.integers(3, 9, n)
        parts = [[0.5] for _ in range(18)]
        assert series._exact_parts(t, g, parts) is parts
        for key, p in enumerate(parts):
            row, group = key % 2, key // 2
            assert fsum(p) == fsum([0.5] + t[row, g == group].tolist())
    assert series._exact_parts(np.empty((3, 0))) == [[], [], []]


# -------------------------------------------- one river walk per class

def test_seed_and_root_product_walk_each_class_once():
    # every D below 600 and every tenth one up to 2000: the reference walks
    # a river for each of 76,054 Zagier * forms below 2000 (about 20 s)
    discs = _nonsquare_discs(2000)
    for D in [D for D in discs if D < 600] + discs[discs.index(601)::10]:
        seed, products = ref_seed_and_root_products(D)
        assert series_seed(D) == seed, D
        for key, prod in products.items():
            assert root_product(key[0]) == prod, (D, key[0])
            assert root_product(_moved(key[0], ["R", "Li", "R"])) == prod
