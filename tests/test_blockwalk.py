"""The integer block walk against the letter-by-letter walks it replaced.

The reference functions below step one letter at a time on Surd roots and
UniMat products, and search every rotation of the river for a -4 Pell
solution; every consumer of the block walk must agree with them exactly.
"""

from math import gcd

from hypothesis import given, settings, strategies as st

from topoforms.exact import is_square, surd_floor
from topoforms.forms import (ID, MAT_L, MAT_R, QuadForm, UniMat, act,
                             roots, turn_sequence_matrix)
from topoforms.reduce import is_simple, is_simply_reduced, reduce_simple_cycle
from topoforms.riverword import (Necklace, necklace_of, negative_pell,
                                 pell_fundamental, principal_form,
                                 river_period)
from topoforms.topograph import (EdgeCursor, TurnPath, find_river,
                                 river_walk, step, turn_path)

_TURNS = {
    "L": lambda a, b, c: (a, b + 2 * a, a + b + c),
    "R": lambda a, b, c: (a + b + c, b + 2 * c, c),
    "Li": lambda a, b, c: (a, b - 2 * a, a - b + c),
    "Ri": lambda a, b, c: (a - b + c, b - 2 * c, c),
}


# ------------------------------------------------------------- reference

def ref_find_river(q):
    """River edges (form, path) and word, one unit turn at a time."""
    cur, path = q, ()
    letter = "L"
    while not is_simple(cur):
        z = roots(cur).first
        k = surd_floor(z) if letter == "L" else surd_floor(z.invert())
        turn = letter if k >= 0 else letter + "i"
        for _ in range(abs(k)):
            cur, path = QuadForm(*_TURNS[turn](*cur)), path + (turn,)
            if is_simple(cur):
                break
        letter = "R" if letter == "L" else "L"
    anchor = cur
    edges, word = [], []
    while True:
        edges.append((cur, path))
        turn = "L" if cur.a + cur.b + cur.c < 0 else "R"
        word.append(turn)
        cur, path = QuadForm(*_TURNS[turn](*cur)), path + (turn,)
        if cur == anchor:
            return edges, tuple(word)


def ref_reduce_simple_cycle(q):
    mat, steps, cur = ID, [], q
    letter = "L"
    while not is_simple(cur):
        z = roots(cur).first
        k = surd_floor(z) if letter == "L" else surd_floor(z.invert())
        if k != 0:
            lmat = UniMat(1, k, 0, 1) if letter == "L" else UniMat(1, 0, k, 1)
            mat = mat @ lmat
            steps.append((letter, k))
            cur = act(cur, lmat)
        letter = "R" if letter == "L" else "L"
    anchor = cur
    collected = []
    while True:
        if is_simply_reduced(cur):
            collected.append((cur, mat, tuple(steps)))
        turn = "L" if cur.a + cur.b + cur.c < 0 else "R"
        lmat = MAT_L if turn == "L" else MAT_R
        mat = mat @ lmat
        steps.append((turn, 1))
        cur = act(cur, lmat)
        if cur == anchor:
            break
    best = min(range(len(collected)), key=lambda i: collected[i][0])
    cycle = tuple(f for f, _, _ in collected[best:] + collected[:best])
    return cycle, collected[best][1], collected[best][2]


def ref_river_letters(q0):
    letters, m, cur = [], ID, q0
    while True:
        turn = "L" if cur.a + cur.b + cur.c < 0 else "R"
        lmat = MAT_L if turn == "L" else MAT_R
        letters.append(turn)
        m = m @ lmat
        cur = act(cur, lmat)
        if cur == q0:
            return letters, m


def ref_river_period(D):
    letters, m = ref_river_letters(principal_form(D))
    word = []
    for letter in letters:
        if word and word[-1][0] == letter:
            word[-1] = (letter, word[-1][1] + 1)
        else:
            word.append((letter, 1))
    return word, m


def ref_pell(D):
    al, be, ga, de = ref_river_period(D)[1]
    return al + de, gcd(gcd(ga, de - al), be)


def ref_negative_pell(D):
    """Search every rotation X Y of the river word for Y = switched X."""
    letters, _ = ref_river_letters(principal_form(D))
    n = len(letters)
    if n % 2:
        return None
    switch = {"L": "R", "R": "L"}
    for shift in range(n):
        rot = letters[shift:] + letters[:shift]
        x, y = rot[:n // 2], rot[n // 2:]
        if y == [switch[c] for c in x]:
            m = ID
            for c in x:
                m = m @ (MAT_L if c == "L" else MAT_R)
            al, be, ga, de = m
            t = be + ga
            u = gcd(gcd(de, ga - be), al)
            if t > 0 and t * t - D * u * u == -4:
                return t, u
    return None


def ref_necklace(q0):
    letters, _ = ref_river_letters(q0)
    return Necklace("".join("0" if c == "L" else "1" for c in letters))


# ------------------------------------------------------------- properties

def _real_discs(limit):
    return [D for D in range(5, limit) if D % 4 in (0, 1) and not is_square(D)]


DISCS = _real_discs(5000)


@st.composite
def scrambled_forms(draw):
    """A form of non-square 0 < D < 5000, moved by a random L/R word."""
    D = draw(st.sampled_from(DISCS))
    # a random form of discriminant D: pick b with b^2 = D mod 4, then a
    # divisor a of (b^2 - D)/4
    b = draw(st.integers(-80, 80).filter(lambda b: (b * b - D) % 4 == 0))
    n = (b * b - D) // 4
    divs = [a for a in range(1, min(abs(n), 400) + 1) if n % a == 0]
    a = draw(st.sampled_from(divs)) * draw(st.sampled_from((1, -1)))
    q = QuadForm(a, b, n // a)
    word = draw(st.lists(st.tuples(st.sampled_from("LR"),
                                   st.integers(-6, 6)), max_size=12))
    for letter, k in word:
        q = act(q, UniMat(1, k, 0, 1) if letter == "L" else UniMat(1, 0, k, 1))
    return q


def _replay(q, path):
    cur = EdgeCursor(q)
    for turn in path:
        cur = step(cur, turn)
    return cur.form


@given(scrambled_forms())
@settings(max_examples=120, deadline=None)
def test_find_river_matches_reference(q):
    edges, word = ref_find_river(q)
    river = find_river(q)
    assert river.kind == "periodic"
    assert tuple(river.word) == word
    assert [e.form for e in river.edges] == [f for f, _ in edges]
    for e, (f, path) in zip(river.edges, edges):
        # the river's nodes, and the unit turns merged by `then`
        assert tuple(e.path) == path and e.path == TurnPath.of(path)
        assert hash(e.path) == hash(TurnPath.of(path))
        assert _replay(q, e.path) == f


@given(scrambled_forms())
@settings(max_examples=300, deadline=None)
def test_reduce_simple_cycle_matches_reference(q):
    cycle, transform, steps = ref_reduce_simple_cycle(q)
    res = reduce_simple_cycle(q)
    assert res.canonical == cycle
    assert res.transform == transform
    assert list(turn_path(res.steps)) == list(turn_path(steps))
    assert turn_sequence_matrix(res.steps) == res.transform
    assert all(k for _, k in res.steps)
    assert necklace_of(q) == ref_necklace(cycle[0])


@given(st.sampled_from(DISCS))
@settings(max_examples=300, deadline=None)
def test_river_units_match_reference(D):
    assert river_period(D) == ref_river_period(D)
    s = pell_fundamental(D)
    assert (s.t, s.u) == ref_pell(D)
    neg = negative_pell(D)
    assert (None if neg is None else (neg.t, neg.u)) == ref_negative_pell(D)
    assert necklace_of(D) == ref_necklace(principal_form(D))


def test_units_match_reference_small_discriminants():
    for D in _real_discs(1500):
        neg = negative_pell(D)
        assert (None if neg is None else (neg.t, neg.u)) == \
            ref_negative_pell(D), D
        s = pell_fundamental(D)
        assert (s.t, s.u) == ref_pell(D), D


# ------------------------------------------------------------- the engine

def test_river_walk_period():
    period = river_walk(QuadForm(1, 0, -24))  # D = 96
    assert period.root == ()
    assert period.word == (("L", 4), ("R", 1), ("L", 4))
    assert period.forms[0] == QuadForm(1, 0, -24)
    assert len(period.forms) == len(period.word)
    for f in period.forms:
        assert f.a > 0 > f.c and f.discriminant() == 96


def test_root_path_reaches_a_simple_form():
    q = QuadForm(47, 160, 136)  # D = 96, far from the river
    walked = river_walk(q)
    entry = walked.forms[0]
    assert entry.a > 0 > entry.c
    m = ID
    for letter, k in walked.root:
        m = m @ (UniMat(1, k, 0, 1) if letter == "L" else UniMat(1, 0, k, 1))
    assert act(q, m) == entry


def test_turn_path_is_a_tuple_of_turns():
    p = TurnPath().then("L", 2).then("R").then("R", 0).then("R")
    assert tuple(p) == ("L", "L", "R", "R") and p == TurnPath.of("LLRR")
    assert len(p) == 4 and list(p) == ["L", "L", "R", "R"]
    assert hash(p) == hash(TurnPath.of("LLRR"))
    assert p != TurnPath.of("LLR") and p != TurnPath.of("LRLR")
    # a path compares with paths only, not with the tuple of its turns
    assert p != ("L", "L", "R", "R") and ("L", "L", "R", "R") != p
    assert tuple(TurnPath()) == () and len(TurnPath()) == 0
    assert tuple(TurnPath.of(("S", "L"))) == ("S", "L")
    # a cursor built from a plain tuple extends it
    cur = step(EdgeCursor(QuadForm(1, 1, 1), ("S",)), "L")
    assert tuple(cur.path) == ("S", "L") and cur.path == TurnPath.of("SL")


def test_long_root_path():
    # [1,0,-2] moved by 12,000 alternating unit L/R turns: 16,660-bit
    # coefficients, far past any fixed block count
    base = QuadForm(1, 0, -2)
    q = base
    for i in range(12000):
        q = QuadForm(*_TURNS["L" if i % 2 == 0 else "R"](*q))
    assert max(abs(x) for x in q).bit_length() == 16660
    river = find_river(q)
    ref = find_river(base)
    assert "".join(river.word) in "".join(ref.word) * 2
    assert len(river.word) == len(ref.word)
    assert {e.form for e in river.edges} == {e.form for e in ref.edges}
    assert _replay(q, river.edges[0].path) == river.edges[0].form
    res = reduce_simple_cycle(q)
    assert res.canonical == reduce_simple_cycle(base).canonical
    assert act(q, res.transform) == res.canonical[0]
