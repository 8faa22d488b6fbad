"""The principal river read off half its period.

`river_period`, `pell_fundamental`, `negative_pell`, `necklace_of(D)`,
`epsilon` and `h1` walk the principal form [1, b0, c] only as far as the
mirror centre of its palindromic period and reflect the rest.  The
references below are the full-period readers they replace: the whole
`river_walk` period, and `period_blocks` for the -4 test and the necklace.
"""

from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import topoforms.riverword as rw
import topoforms.topograph as tg
from topoforms.exact import is_square
from topoforms.forms import QuadForm, turn_sequence_matrix
from topoforms.riverword import (_least_rotation, _pell_pair, necklace_of,
                                 negative_pell, pell_fundamental,
                                 principal_form, river_period, symmetry)
from topoforms.topograph import period_blocks, river_walk


# ------------------------------------------------------------- reference

def ref_river_period(D):
    word = river_walk(principal_form(D)).word
    return list(word), turn_sequence_matrix(word)


def ref_pell_fundamental(D):
    al, be, ga, de = ref_river_period(D)[1]
    return al + de, gcd(gcd(ga, de - al), be)


def ref_negative_pell(D):
    blocks = [block[:2] for block in period_blocks(principal_form(D))]
    half = len(blocks) // 2
    if half % 2 == 0 or any(blocks[i][1] != blocks[i + half][1]
                            for i in range(half)):
        return None
    al, be, ga, de = turn_sequence_matrix(blocks[:half])
    t = be + ga
    u = gcd(gcd(de, ga - be), al)
    return (t, u) if t > 0 and t * t - D * u * u == -4 else None


def ref_necklace_runs(D):
    return _least_rotation(tuple(-k if c == "L" else k for c, k, _
                                 in period_blocks(principal_form(D))))


def _is_real_disc(D):
    return D > 0 and D % 4 in (0, 1) and not is_square(D)


def assert_half_reads(D):
    word, m = river_period(D)
    assert (word, m) == ref_river_period(D), D
    assert type(m) is type(ref_river_period(D)[1])
    s = pell_fundamental(D)
    assert (s.t, s.u, s.sign) == (*ref_pell_fundamental(D), 4), D
    neg = negative_pell(D)
    ref = ref_negative_pell(D)
    assert (neg and (neg.t, neg.u, neg.sign)) == (ref and (*ref, -4)), D
    assert _pell_pair(D) == (s, neg)
    assert necklace_of(D).runs == ref_necklace_runs(D), D


# ----------------------------------------------------------------- cases

def _centre(D):
    # the last block of the half walk, and b0
    blocks, _ = tg.walk(principal_form(D), "L", lambda a, b, c, letter, k:
                        0 if b == k * (a if letter == "L" else c) else None)
    return blocks[-1][0], principal_form(D).b


@pytest.mark.parametrize("D, centre, b0, minus", [
    (5, "R", 1, (1, 1)),   # a zero first block, L^0, kept for its k0
    (8, "R", 0, (2, 1)),
    (12, "R", 0, None),
    (13, "R", 1, (3, 1)),
    (28, "L", 0, None),    # 5, 8, 12 and 13 all have R centres
    (33, "L", 1, None),
])
def test_named_cases(D, centre, b0, minus):
    assert _centre(D) == (centre, b0)
    neg = negative_pell(D)
    assert (neg and (neg.t, neg.u)) == minus
    assert_half_reads(D)


def test_every_disc_to_20000():
    for D in range(5, 20001):
        if _is_real_disc(D):
            assert_half_reads(D)


@pytest.mark.parametrize("shift", [1, -1, 4, -4])
def test_square_neighbour_families(shift):
    for n in range(2, 2001):
        D = n * n + shift
        if _is_real_disc(D):
            assert_half_reads(D)


# D = n^2 + r with r | 4n and |r| <= n (Richaud-Degert type) has a short
# period for every size, so D up to 10^18 stays cheap for the reference
@st.composite
def _short_period_discs(draw):
    r = draw(st.integers(1, 1000)) * draw(st.sampled_from([1, -1, 4, -4]))
    n = abs(r) * draw(st.integers(1, 10 ** 9 // abs(r)))
    return n * n + r


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(5, 10 ** 7), _short_period_discs()))
def test_hypothesis_discs(D):
    assume(_is_real_disc(D) and D < 10 ** 18)
    assert_half_reads(D)


# ----------------------------------------------------------- walk length

@pytest.fixture
def counted_walk(monkeypatch):
    """Counts the walks and stop calls of every block walk, in riverword and
    in topograph's own river walk, so that a whole-period walk shows."""
    count = {"walks": 0, "blocks": 0}
    inner = tg.walk

    def walk(form, letter, stop, cap=None):
        def counted(*args):
            count["blocks"] += 1
            return stop(*args)
        count["walks"] += 1
        return inner(form, letter, counted, cap)

    monkeypatch.setattr(tg, "walk", walk)
    monkeypatch.setattr(rw, "walk", walk)
    return count


READERS = [river_period, pell_fundamental, negative_pell, necklace_of,
           _pell_pair]


def _assert_half_walk(count, D, blocks):
    for reader in READERS:
        count.update(walks=0, blocks=0)
        reader(D)
        assert count["walks"] == 1, (reader.__name__, D)
        assert count["blocks"] <= blocks // 2 + 1, (reader.__name__, D)


def test_walk_length_big_period(counted_walk):
    D = 100000037
    # 5,158 whole blocks; river_walk's word splits the first in two
    blocks = len(period_blocks(principal_form(D)))
    assert blocks == 5158
    _assert_half_walk(counted_walk, D, blocks)


def test_walk_length_every_disc_to_2000(counted_walk):
    lengths = {D: len(period_blocks(principal_form(D)))
               for D in range(5, 2001) if _is_real_disc(D)}
    for D, blocks in lengths.items():
        _assert_half_walk(counted_walk, D, blocks)


def test_symmetry_walks_one_river(counted_walk):
    # q*, -q and -q* are read off q's river, not walked again
    for q in map(QuadForm._make, product(range(-6, 7), repeat=3)):
        D = q.discriminant()
        if D > 0 and not is_square(D) and q.content() == 1:
            counted_walk.update(walks=0, blocks=0)
            symmetry(q)
            assert counted_walk["walks"] == 1, q
    q = principal_form(100000037)
    counted_walk.update(walks=0, blocks=0)
    symmetry(q)
    assert counted_walk["walks"] == 1
    assert counted_walk["blocks"] <= len(period_blocks(q)) + 2
