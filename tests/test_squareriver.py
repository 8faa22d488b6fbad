"""The square-D river as whole blocks with their first forms, and the sums
that read it.

- `ref_square_word` is the continued fraction of m/r from `real_cf`, its
  last term split by the parity rule <..., a_n> = <..., a_n - 1, 1> when
  it falls on an L block, so that the river ends on the lake;
- `ref_block_forms` replays that word from the lake edge [r, -m, 0] with
  `block_step`, one block at a time, as `find_river` and `series_square`
  did before the walk recorded the forms.

Each must agree exactly with `square_river_blocks`, for every reduced form
[0, m, r], m <= 200, imprimitive ones included.
"""

from math import gcd

import pytest

from topoforms.contfrac import real_cf
from topoforms.exact import DomainError, Rat
from topoforms.forms import QuadForm
from topoforms.riverword import Necklace, topograph_of_necklace
from topoforms.series import series_pos, series_seed, series_square
from topoforms.topograph import (RiverWalk, block_step, find_river,
                                 square_river_blocks)


# ------------------------------------------------------------- reference

def ref_square_word(m, r):
    terms = real_cf(Rat(m, r)).terms
    word = [("LR"[i % 2], k) for i, k in enumerate(terms)]
    if word[-1][0] == "L":
        word[-1:] = [("L", word[-1][1] - 1), ("R", 1)]
    return word


def ref_block_forms(m, r, word):
    forms = [QuadForm(r, -m, 0)]
    for letter, k in word[:-1]:
        forms.append(block_step(forms[-1], letter, k))
    return forms


# ------------------------------------------------------------ the river

def test_square_river_is_the_continued_fraction_of_m_over_r():
    for m in range(1, 201):
        for r in range(1, m + 1):
            river = square_river_blocks(QuadForm(0, m, r))
            assert isinstance(river, RiverWalk)
            assert river.root == ()
            word = ref_square_word(m, r)
            assert list(river.word) == word, (m, r)
            assert list(river.forms) == ref_block_forms(m, r, word), (m, r)


def test_square_river_forms_are_quad_forms():
    river = square_river_blocks(QuadForm(0, 10 ** 5, 1))
    assert river.word == (("L", 10 ** 5 - 1), ("R", 1))
    assert river.forms == (QuadForm(1, -10 ** 5, 0),
                           QuadForm(1, 10 ** 5 - 2, -10 ** 5 + 1))
    assert all(type(f) is QuadForm for f in river.forms)


def test_river_views_count_turns_past_len():
    # about 3.5e33 turns: truth tests and `turns` hold where len() cannot;
    # the edges skip the river's first unit turn, the word its first and
    # last
    q = QuadForm(0, 2 ** 113 + 1, 3)
    turns = sum(k for _, k in square_river_blocks(q).word)
    river = find_river(q)
    assert river.edges and river.word
    assert river.edges.turns == turns - 1 and river.word.turns == turns - 2
    assert type(river.edges.turns) is int and turns > 2 ** 63
    with pytest.raises(OverflowError):
        len(river.edges)


def test_square_seed_is_the_least_partial_quotient_sum():
    for m in range(1, 201):
        best = min((sum(real_cf(Rat(m, r)).terms), r)
                   for r in range(1, m + 1) if gcd(m, r) == 1)
        assert series_seed(m * m) == QuadForm(0, m, best[1]), m


# ----------------------------------------------------------- float range

# the largest m with float(m^9) finite: m^9 = D^(9/2) scales the square
# sums' terms
M_MAX = 17804260956663574697626976235266682


def test_square_sums_refuse_m9_past_float_range():
    assert float(M_MAX ** 9) < float("inf")
    with pytest.raises(OverflowError):
        float((M_MAX + 1) ** 9)
    for m in (2 ** 113 + 1, M_MAX):
        r1, r2 = series_square(QuadForm(0, m, 3), 0)
        assert r1.terms_used == 1 and r2.value > r1.value > 0
    for m in (M_MAX + 1, 2 ** 114 + 1):
        with pytest.raises(DomainError, match="float range"):
            series_square(QuadForm(0, m, 3), 0)


def _alternating(n):
    # a simple form whose river period reads 0 (01)^(n/2) 1: about n unit
    # edges, all of partial quotient 1 or 2, and D about 2^(1.39 n)
    bits = "0" + "01" * (n // 2) + "1" * (n % 2) + "1"
    return topograph_of_necklace(Necklace(bits))


def test_river_sums_refuse_d92_past_float_range():
    # D^(9/2) leaves float range at D = 2^227.56; on this family the depth-1
    # terms 1/|p|^3 leave it first, from about D = 2^222 on, so the form
    # that returns lies further below
    q = _alternating(156)
    assert 2 ** 218 < q.discriminant() < 2 ** 219
    r1, r2 = series_pos(q, 1)
    assert 0 < r1.value < r1.target and abs(r2.value - r2.target) < 1
    above = _alternating(163)
    assert 2 ** 227.56 < above.discriminant() < 2 ** 229
    for q in (above, QuadForm(1, 2 ** 114, -1)):
        with pytest.raises(DomainError, match="float range"):
            series_pos(q, 0)
