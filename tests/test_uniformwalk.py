"""The one block walk against the walks it replaced, in every regime.

The reference functions below are the earlier implementations: the general
continued fraction one term at a time on Surd values with four F' tests per
term, the Rat continued fractions of the square legs with one UniMat per
letter, the square river rebuilt from the lake, the unit-edge climb to the
well, and the Gauss step on a Surd floor.  Every consumer of the walk must
agree with them exactly, except that `find_well` may stop at another
directed edge of the same well.
"""

import time

from hypothesis import assume, given, settings, strategies as st

from topoforms.contfrac import (fd_member, general_cf, lr_decompose,
                                normalize_parity, real_cf)
from topoforms.exact import Rat, Surd, is_square, isqrt, surd_floor
from topoforms.forms import (ID, MAT_S, QuadForm, UniMat, act, roots,
                             turn_sequence_matrix)
from topoforms.reduce import (gauss_cycle, gauss_step, is_reduced_square,
                              reduce_negative, reduce_square)
from topoforms.riverword import word_of
from topoforms.topograph import (EdgeCursor, block_step, find_river,
                                 find_well, step, tail_view)


# ------------------------------------------------------------- reference

def ref_in_F(z):
    # -1/2 <= Re z < 1/2, |z| >= 1, and x <= 0 on the unit circle; Im z > 0
    if z.q <= 0:
        return False
    x2 = 2 * z.p
    if not (-z.r <= x2 < z.r):
        return False
    n2 = z.p * z.p - z.q * z.q * z.d
    rr = z.r * z.r
    return n2 > rr or (n2 == rr and x2 <= 0)


def ref_in_SF(z):
    return not z.is_zero() and ref_in_F(-z.invert())


def ref_fd_member(z, which):
    if which == "F":
        return ref_in_F(z)
    if which == "F_or_SF":
        return ref_in_F(z) or ref_in_SF(z)
    return z.is_zero() or any(f(w) for f in (ref_in_F, ref_in_SF)
                              for w in (z, -z))


def ref_general_cf(z):
    cap = 10 * (z.p * z.p - z.q * z.q * z.d + z.r * z.r).bit_length() + 64
    terms = []
    cur = z
    for _ in range(cap):
        m = cur.p // cur.r
        for delta in (0, 1):
            w = cur - (m + delta)
            if ref_fd_member(w, "F_prime"):
                terms.append(m + delta)
                return terms, w
        terms.append(m)
        cur = (cur - m).invert()
    raise AssertionError("no tail in F'")


def ref_lr_decompose(z):
    terms, z0 = ref_general_cf(z)
    word = [("L" if i % 2 == 0 else "R", a) for i, a in enumerate(terms)]
    z1 = z0 if (len(terms) - 1) % 2 == 0 else z0.invert()
    if ref_in_F(z1):
        return word, z1, False
    assert ref_in_SF(z1)
    return word, z1, True


def ref_reduce_negative(q):
    w = -q if q.a < 0 else q
    word, _, needs_s = ref_lr_decompose(roots(w).first)
    m = turn_sequence_matrix(word)
    if needs_s:
        m = m @ MAT_S
        word.append(("S", 1))
    return act(w, m), m, tuple(word), q.a < 0


def _cf_leg(z):
    cf = normalize_parity(real_cf(z), want_odd_index=True)
    word = [("L" if i % 2 == 0 else "R", a) for i, a in enumerate(cf.terms)]
    m = ID
    for letter, a in word:
        m = m @ (UniMat(1, a, 0, 1) if letter == "L" else UniMat(1, 0, a, 1))
    return word, m


def ref_reduce_square(q):
    m = isqrt(q.discriminant())
    steps, mat, cur = [], ID, q
    z = roots(cur).first
    if not z.is_infinite():
        word, m1 = _cf_leg(z)
        steps += word
        mat = mat @ m1
        cur = act(cur, m1)
    assert cur.a == 0 and cur.b == -m
    word, m2 = _cf_leg(roots(cur).second)
    steps += word
    mat = mat @ m2
    cur = act(cur, m2)
    assert cur.a == 0 and cur.b == m
    if cur == QuadForm(0, m, 0):
        mat = mat @ UniMat(1, 1, 0, 1)
        steps.append(("L", 1))
        cur = act(cur, UniMat(1, 1, 0, 1))
    assert is_reduced_square(cur)
    return cur, mat, tuple(steps)


def ref_square_letters(q):
    """The letters of the square river from the lake edge [r, -m, 0]."""
    m = isqrt(q.discriminant())
    r = ref_reduce_square(q)[0].c
    cf = normalize_parity(real_cf(Rat(m, r)), want_odd_index=True)
    letters = []
    for i, a in enumerate(cf.terms):
        letters.extend(["L" if i % 2 == 0 else "R"] * a)
    return QuadForm(r, -m, 0), letters


def ref_find_river_square(q):
    start, letters = ref_square_letters(q)
    visited = [EdgeCursor(start)]
    for t in letters:
        visited.append(step(visited[-1], t))
    return [c.form for c in visited[1:-1]], tuple(letters[1:-1])


def ref_word_of(q):
    if q.discriminant() == 1:
        return None
    _, letters = ref_square_letters(q)
    return "".join("0" if t == "L" else "1" for t in letters[1:-1])


def ref_find_well(q):
    cur = EdgeCursor(q)
    while True:
        a, b, c = cur.form
        if b == 0:
            return "edge_well", cur, (a, c)
        if b < 0:
            cur = step(cur, "S")
            continue
        back = step(cur, "S")
        if 2 * a - b == 0:
            at = step(back, "R")
            return "edge_well", at, (at.form.a, at.form.c)
        if 2 * c - b == 0:
            at = step(back, "L")
            return "edge_well", at, (at.form.a, at.form.c)
        if 2 * a - b > 0 and 2 * c - b > 0:
            return "vertex_well", cur, (b, 2 * a - b, 2 * c - b)
        cur = step(back, "R") if 2 * a - b < 0 else step(back, "L")


def ref_gauss_step(q):
    a, b, c = q
    sgn = 1 if c > 0 else -1
    k = sgn * surd_floor(Surd(b, 1, 2 * abs(c), q.discriminant()))
    return act(q, UniMat(0, -1, 1, k))


# -------------------------------------------------------------- helpers

def replay(q, path):
    """Apply a TurnPath to q run by run, a block step per run."""
    for turn, count in path.runs():
        if turn == "S":
            for _ in range(count % 2):
                q = QuadForm(q.c, -q.b, q.a)
        else:
            q = block_step(q, turn[0], -count if turn.endswith("i") else count)
    return q


def _well_regions(kind, at):
    a, b, c = at.form
    return sorted((a, c)) if kind == "edge_well" else sorted(
        tail_view(at).regions)


def _moved(q, word):
    for letter, k in word:
        q = block_step(q, letter, k)
    return q


WORDS = st.lists(st.tuples(st.sampled_from("LR"), st.integers(-9, 9)),
                 max_size=10)
BIG = st.integers(-10 ** 9, 10 ** 9)


@st.composite
def complex_surds(draw):
    """(p + q sqrt d)/r with q of either sign and d < 0 with square factors."""
    d = -draw(st.integers(1, 10 ** 6)) * draw(st.sampled_from((1, 4, 9, 25)))
    q = draw(st.integers(1, 10 ** 9)) * draw(st.sampled_from((1, -1)))
    return Surd(draw(BIG), q, draw(st.integers(1, 10 ** 9)), d)


@st.composite
def definite_forms(draw):
    """A positive definite form: a reduced one, often on the boundary of F,
    moved by a random word."""
    a = draw(st.integers(1, 60))
    b = draw(st.sampled_from((0, a, -a, draw(st.integers(-a, a)))))
    c = draw(st.sampled_from((a, a + 1, draw(st.integers(a, 10 ** 6)))))
    assume(b * b < 4 * a * c)
    return _moved(QuadForm(a, b, c), draw(WORDS))


@st.composite
def square_forms(draw):
    """(p1 x + q1 y)(p2 x + q2 y), of discriminant (p1 q2 - q1 p2)^2 > 0;
    a zero p gives a = 0 with b of either sign."""
    small = st.integers(-60, 60)
    p1, q1, p2, q2 = (draw(small) for _ in range(4))
    assume(p1 * q2 != q1 * p2)
    return QuadForm(p1 * p2, p1 * q2 + q1 * p2, q1 * q2)


# ---------------------------------------------------------------- definite

@given(complex_surds())
@settings(max_examples=300, deadline=None)
def test_general_cf_matches_reference(z):
    terms, tail = ref_general_cf(z)
    cf = general_cf(z)
    assert cf.terms == terms
    assert cf.tail == tail


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 40),
       st.sampled_from((-1, -3, -4, -15, -20, -27)))
@settings(max_examples=400, deadline=None)
def test_fd_member_matches_reference(p, q, r, d):
    # small values hit the boundary of F, the unit circle and Re z = +-1/2
    z = Surd(p, q, r, d)
    for which in ("F", "F_or_SF", "F_prime"):
        assert fd_member(z, which) == ref_fd_member(z, which)


@given(complex_surds())
@settings(max_examples=200, deadline=None)
def test_lr_decompose_matches_reference(z):
    if z.q < 0:
        z = z.conj()
    assert lr_decompose(z) == ref_lr_decompose(z)


def test_general_cf_lower_half_plane_example():
    z = Surd(36, -1, 94, -20)
    terms, tail = ref_general_cf(z)
    assert general_cf(z).terms == terms and general_cf(z).tail == tail


@given(definite_forms(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_reduce_negative_matches_reference(q, negate):
    if negate:
        q = -q
    res = reduce_negative(q)
    assert (res.canonical, res.transform, res.steps, res.negated) == \
        ref_reduce_negative(q)


def test_reduce_negative_boundary_box():
    # every form with a <= 7, |b| <= 2a and c <= 9, the boundary of F
    # among them
    for a in range(1, 8):
        for b in range(-2 * a, 2 * a + 1):
            for c in range(1, 10):
                q = QuadForm(a, b, c)
                if b * b >= 4 * a * c:
                    continue
                res = reduce_negative(q)
                assert (res.canonical, res.transform, res.steps,
                        res.negated) == ref_reduce_negative(q), q


@given(definite_forms())
@settings(max_examples=200, deadline=None)
def test_find_well_matches_reference(q):
    kind, at, labels = ref_find_well(q)
    well = find_well(q)
    assert well.kind == kind
    assert sorted(well.labels) == sorted(labels)
    assert _well_regions(well.kind, well.at) == _well_regions(kind, at)
    assert replay(q, well.at.path) == well.at.form


def test_find_well_is_bounded_by_bit_length():
    # the climb one edge at a time would take about 3 * 10^8 turns here
    q = QuadForm(1, 2 * 10 ** 8, 10 ** 16 + 1)
    t0 = time.perf_counter()
    well = find_well(q)
    assert time.perf_counter() - t0 < 0.05
    at = well.at
    assert replay(q, at.path) == at.form
    a, b, c = at.form
    assert well.kind == "edge_well" and b == 0 and well.labels == (a, c)
    assert sorted(well.labels) == [1, 1]


# ------------------------------------------------------------------ square

@given(square_forms())
@settings(max_examples=400, deadline=None)
def test_reduce_square_matches_reference(q):
    res = reduce_square(q)
    assert (res.canonical, res.transform, res.steps) == ref_reduce_square(q)


def test_reduce_square_lakes():
    # a = 0 with b of either sign, c of either sign or zero
    for m in range(1, 30):
        for c in range(-2 * m, 2 * m + 1):
            for q in (QuadForm(0, m, c), QuadForm(0, -m, c),
                      QuadForm(c, m, 0), QuadForm(c, -m, 0)):
                res = reduce_square(q)
                assert (res.canonical, res.transform, res.steps) == \
                    ref_reduce_square(q), q


@given(square_forms())
@settings(max_examples=200, deadline=None)
def test_square_river_matches_reference_and_replays(q):
    forms, word = ref_find_river_square(q)
    river = find_river(q)
    assert river.kind == "finite"
    assert [e.form for e in river.edges] == forms
    assert tuple(river.word) == word
    for e in river.edges:
        assert replay(q, e.path) == e.form


def test_square_river_paths_start_at_q():
    q = QuadForm(13, -60, 63)
    river = find_river(q)
    assert river.edges[0].form == QuadForm(7, -4, -11)
    for e in river.edges:
        assert replay(q, e.path) == e.form


@given(square_forms())
@settings(max_examples=200, deadline=None)
def test_word_of_matches_reference(q):
    g = q.content()
    q = QuadForm(q.a // g, q.b // g, q.c // g)
    assert word_of(q) == ref_word_of(q)


# --------------------------------------------------------------- Gauss

@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(-200, 200))
@settings(max_examples=300, deadline=None)
def test_gauss_step_matches_reference(a, b, c):
    q = QuadForm(a, b, c)
    D = q.discriminant()
    assume(D > 0 and not is_square(D) and c != 0)
    assert gauss_step(q) == ref_gauss_step(q)


def test_gauss_cycle_matches_reference():
    for D in (5, 8, 12, 13, 21, 96, 229, 1001):
        q = QuadForm(1, D % 2, (D % 2 - D) // 4)
        seen, cur = [], q
        while cur not in seen:
            seen.append(cur)
            cur = ref_gauss_step(cur)
        cycle = seen[seen.index(cur):]
        assert sorted(gauss_cycle(q)) == sorted(cycle)
        assert gauss_cycle(q)[0] == min(cycle)
