import math
import time
from itertools import groupby, product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from topoforms.exact import DomainError, Surd, is_square
from topoforms.forms import QuadForm, act, turn_sequence_matrix
from topoforms.riverword import (Necklace, aut_structure, automorph_generator,
                                 epsilon, epsilon_star, h1, necklace_of,
                                 negative_pell, pell_fundamental,
                                 principal_form, river_period, symmetry,
                                 topograph_of_necklace, topograph_of_word,
                                 word_of)
from topoforms.topograph import period_blocks


# ------------------------------------------------------------- reference
# the bit-string algebra necklaces and symmetry flags were read with before
# they became runs and class codes, with least rotations by trying each one

def _least(bits):
    return min(bits[i:] + bits[:i] for i in range(len(bits)))


def ref_necklace_bits(bits):
    """A necklace's bits: its least rotation as a string, refused as
    Necklace refuses it."""
    if len(bits) < 2:
        raise DomainError("necklace needs length >= 2")
    if set(bits) - {"0", "1"}:
        raise DomainError("necklace bits must be 0/1")
    if (bits + bits).find(bits, 1) != len(bits):
        raise DomainError("necklace must be non-repeating")
    return _least(bits)


def _period_bits(q):
    return "".join(("0" if c == "L" else "1") * k
                   for c, k, _ in period_blocks(q))


def ref_symmetry(q):
    """The flags from words reversed, letters switched one by one and
    necklaces rotated least."""
    switch = {"0": "1", "1": "0"}
    if is_square(q.discriminant()):
        w = word_of(q)
        if not w:
            return {"q~q*": True, "q~-q": True, "q~-q*": True}
        rev = w[::-1]
        sw = "".join(switch[c] for c in w)
        return {"q~q*": w == rev, "q~-q": w == sw[::-1], "q~-q*": w == sw}
    bits = ref_necklace_bits(_period_bits(q))
    rev = _least(bits[::-1])
    sw = _least("".join(switch[c] for c in bits))
    revsw = _least("".join(switch[c] for c in bits)[::-1])
    return {"q~q*": rev == bits, "q~-q": revsw == bits, "q~-q*": sw == bits}


def ref_square_symmetry(q):
    """The flags for square D as word_of spells them: whether q*, -q and
    -q* have q's word."""
    a, b, c = q
    w = word_of(q)
    return {"q~q*": word_of(QuadForm(a, -b, c)) == w,
            "q~-q": word_of(QuadForm(-a, -b, -c)) == w,
            "q~-q*": word_of(QuadForm(-a, b, -c)) == w}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_necklace_canonical_rotation():
    assert Necklace("10").bits == "01"
    assert Necklace("110100").bits == "001101"
    with pytest.raises(DomainError):
        Necklace("0101")  # repeating
    with pytest.raises(DomainError):
        Necklace("1")
    with pytest.raises(DomainError):
        Necklace("012")


@given(st.text("01", min_size=1, max_size=12), st.integers(1, 4))
@settings(max_examples=300)
def test_necklace_matches_rotation_search(root, power):
    # powers of a shorter word must be refused, whatever their root
    bits = root * power
    assert (_outcome(lambda b: Necklace(b).bits, bits)
            == _outcome(ref_necklace_bits, bits))


def test_necklace_runs_every_short_word():
    # every word of length <= 14, refusals included
    words = ["".join(w) for n in range(15) for w in product("01", repeat=n)]
    for bits in words:
        assert (_outcome(lambda b: Necklace(b).bits, bits)
                == _outcome(ref_necklace_bits, bits)), bits


@given(st.lists(st.integers(1, 40), min_size=1, max_size=12),
       st.integers(0, 30))
@settings(max_examples=300)
def test_necklace_runs_match_bits(runs, shift):
    # a word of alternate runs of 0s and 1s, rotated by shift bits
    bits = "".join(("0" if i % 2 == 0 else "1") * k
                   for i, k in enumerate(runs))
    shift %= len(bits)
    bits = bits[shift:] + bits[:shift]
    want = _outcome(ref_necklace_bits, bits)
    n = _outcome(Necklace, bits)
    if want.startswith("DomainError"):
        assert n == want
        return
    assert n.bits == want and repr(n) == want and len(n) == len(bits)
    assert n.runs == tuple(len(list(r)) * (1 if b == "1" else -1)
                           for b, r in groupby(want))
    assert n == Necklace(want) and hash(n) == hash(Necklace(want))
    # the product of the runs is the product of the bits' turns
    al, be, ga, de = turn_sequence_matrix([("LR"[int(b)], 1) for b in want])
    g = gcd(gcd(ga, de - al), be)
    assert topograph_of_necklace(n) == QuadForm(ga // g, (de - al) // g,
                                                -be // g)


def test_necklace_of_matches_bits_reference():
    for D in range(5, 3000):
        if D % 4 in (0, 1) and not is_square(D):
            want = ref_necklace_bits(_period_bits(principal_form(D)))
            assert necklace_of(D).bits == want, D


def test_long_river_necklace_and_symmetry():
    # two runs of 2^28 + 1 turns: O(runs), not O(turns)
    q = QuadForm(1, 2 ** 28 + 1, -1)
    t0 = time.perf_counter()
    n = necklace_of(q)
    t1 = time.perf_counter()
    flags = symmetry(q)
    t2 = time.perf_counter()
    assert n.runs == (-(2 ** 28 + 1), 2 ** 28 + 1)
    assert flags == {"q~q*": True, "q~-q": True, "q~-q*": True}
    assert t1 - t0 < 1 and t2 - t1 < 1


def test_principal_form():
    assert principal_form(5) == QuadForm(1, 1, -1)
    assert principal_form(96) == QuadForm(1, 0, -24)
    with pytest.raises(DomainError):
        principal_form(6)


def test_river_period_word():
    word, m = river_period(96)
    assert word == [("L", 4), ("R", 1), ("L", 4)]
    assert m.det() == 1
    # the matrix fixes the principal form
    assert act(principal_form(96), m) == principal_form(96)


def test_pell_known_values():
    for D, (t, u) in {5: (3, 1), 8: (6, 2), 96: (10, 1), 145: (578, 48),
                      148: (146, 12), 13: (11, 3)}.items():
        s = pell_fundamental(D)
        assert (s.t, s.u) == (t, u), D
        assert s.t * s.t - D * s.u * s.u == 4


def test_negative_pell():
    s = negative_pell(5)
    assert (s.t, s.u) == (1, 1)
    assert (negative_pell(145).t, negative_pell(145).u) == (24, 2)
    assert (negative_pell(148).t, negative_pell(148).u) == (12, 1)
    assert negative_pell(12) is None
    assert negative_pell(96) is None


def test_epsilon_star_squares_to_epsilon():
    for D in (5, 8, 13, 145, 148):
        es = epsilon_star(D)
        if es is None:
            continue
        assert es * es == epsilon(D)
    assert epsilon(5) == Surd(3, 1, 2, 5)


def test_automorph():
    q = QuadForm(1, 0, -24)
    g = automorph_generator(q)
    assert act(q, g) == q
    assert g.det() == 1
    with pytest.raises(DomainError):
        automorph_generator(QuadForm(2, 0, -48))


def test_aut_structure():
    assert aut_structure(QuadForm(1, 1, 1)) == "order3"
    assert aut_structure(QuadForm(1, 0, 1)) == "order2"
    assert aut_structure(QuadForm(1, 0, 2)) == "trivial"
    assert aut_structure(QuadForm(0, 1, 1)) == "trivial"
    assert aut_structure(QuadForm(1, 2, 1)) == "infinite_T"
    assert aut_structure(QuadForm(1, 0, -2)) == "infinite_hyperbolic"


NECKLACE_TABLE = {
    "01": (5, QuadForm(1, 3, 1)),
    "001": (12, QuadForm(1, 4, 1)),
    "011": (12, QuadForm(2, 6, 3)),
    "0001": (21, QuadForm(1, 5, 1)),
    "0011": (8, QuadForm(1, 4, 2)),
    "0111": (21, QuadForm(3, 9, 5)),
    "00001": (32, QuadForm(1, 6, 1)),
    "00011": (60, QuadForm(2, 10, 5)),
    "00101": (96, QuadForm(3, 12, 4)),
    "00111": (60, QuadForm(3, 12, 7)),
    "01011": (96, QuadForm(5, 14, 5)),
    "01111": (32, QuadForm(4, 12, 7)),
}


def test_necklace_table():
    from topoforms.reduce import is_z_reduced, reduce_simple_cycle, z_forms

    for bits, (D, zform) in NECKLACE_TABLE.items():
        q = topograph_of_necklace(bits)
        assert q.discriminant() == D, bits
        assert q.content() == 1
        assert necklace_of(q) == Necklace(bits)
        # the listed Zagier-reduced form belongs to the same class
        assert is_z_reduced(zform) and zform.discriminant() == D
        assert (reduce_simple_cycle(zform).canonical
                == reduce_simple_cycle(q).canonical)


def test_necklace_roundtrip_principal():
    for D in (5, 8, 12, 13, 96, 145, 148):
        n = necklace_of(D)
        q = topograph_of_necklace(n)
        assert necklace_of(q) == n


WORD_TABLE = {
    None: (1, QuadForm(0, 1, 1)),
    "": (4, QuadForm(0, 2, 1)),
    "0": (9, QuadForm(0, 3, 1)),
    "1": (9, QuadForm(0, 3, 2)),
    "00": (16, QuadForm(0, 4, 1)),
    "01": (25, QuadForm(0, 5, 2)),
    "10": (25, QuadForm(0, 5, 3)),
    "11": (16, QuadForm(0, 4, 3)),
    "000": (25, QuadForm(0, 5, 1)),
    "001": (49, QuadForm(0, 7, 2)),
    "010": (64, QuadForm(0, 8, 3)),
    "011": (49, QuadForm(0, 7, 3)),
}


def test_word_table():
    for w, (D, form) in WORD_TABLE.items():
        q = topograph_of_word(w)
        assert q == form, w
        assert q.discriminant() == D
        assert word_of(q) == w


@given(st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=60)
def test_word_roundtrip_random(m, r):
    if gcd(m, r) != 1 or r > m:
        return
    q = QuadForm(0, m, r)
    w = word_of(q)
    assert topograph_of_word(w) == q


def test_word_counts_by_river_length():
    # 2^(n-1) primitive square topographs have river length n
    from collections import Counter

    cnt = Counter()
    for m in range(2, 20):
        for r in range(1, m + 1):
            if gcd(m, r) == 1:
                w = word_of(QuadForm(0, m, r))
                cnt[len(w) + 1] += 1
    for n in range(1, 6):
        assert cnt[n] == 2 ** (n - 1)


def test_symmetry_flags():
    s = symmetry(QuadForm(1, 0, -24))
    assert s["q~q*"] is True
    s = symmetry(QuadForm(0, 3, 1))  # word "0"
    assert s == {"q~q*": True, "q~-q": False, "q~-q*": False}
    s = symmetry(QuadForm(0, 2, 1))  # empty word, fully symmetric
    assert all(s.values())
    with pytest.raises(DomainError):
        symmetry(QuadForm(1, 0, 1))


def test_symmetry_sweep_matches_reference():
    # every primitive form with D > 0 and coefficients in [-12, 12]
    count = 0
    for a, b, c in product(range(-12, 13), repeat=3):
        q = QuadForm(a, b, c)
        if q.discriminant() > 0 and q.content() == 1:
            count += 1
            assert symmetry(q) == ref_symmetry(q), q
    assert count == 7996


def test_square_symmetry_matches_the_words():
    # every primitive square-D form with coefficients in [-25, 25]: the
    # reduced form of a class is its code as its word is
    count = 0
    for a, b, c in product(range(-25, 26), repeat=3):
        q = QuadForm(a, b, c)
        D = q.discriminant()
        if D > 0 and is_square(D) and q.content() == 1:
            count += 1
            assert symmetry(q) == ref_square_symmetry(q), q
    assert count == 8952


def test_square_symmetry_reads_no_word():
    # [0, 10^7, 1]: a river of one block of 10^7 - 1 turns, which the
    # word spells bit by bit and the reduced form does not
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        flags = symmetry(QuadForm(0, 10 ** 7, 1))
        best = min(best, time.perf_counter() - t)
    assert flags == {"q~q*": True, "q~-q": False, "q~-q*": False}
    assert best < 0.001


@given(st.just(0) | st.integers(-300, 300), st.integers(-300, 300),
       st.integers(-300, 300))
@settings(max_examples=200)
def test_symmetry_matches_reference(a, b, c):
    # a = 0 gives a square D = b^2
    q = QuadForm(a, b, c)
    assume(q.discriminant() > 0 and q.content() == 1)
    assert symmetry(q) == ref_symmetry(q)


def test_h1():
    assert h1(1) == 1 and h1(4) == 1 and h1(0) == 1
    assert h1(9) == 1
    assert h1(-23) == 3
    assert h1(5) == 1
    assert h1(96) == 2  # no -4 solution, classes pair up
    assert h1(145) == 4  # -4 solvable, classes self-paired
    with pytest.raises(DomainError):
        h1(7)
