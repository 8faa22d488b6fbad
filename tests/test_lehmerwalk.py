"""Lehmer's batched block walk against the unit-block walk it speeds up.

`ref_walk` is `topograph.walk` as it was before batches: one block at a
time, with the stop test called on every block's form.  Every reader of the
walk must return the same words, end forms, canonical forms, matrix
certificates, cycles and CLI output with it as with the batched walk, on
forms moved far from their well, river or lake by 10^2 to 10^4 random
blocks, in each regime: D < 0, square D > 0 and non-square D > 0.  Each
batch is also replayed block by block: it ends where its blocks do, and
none of its blocks ends on a form a stop test could meet.
"""

import contextlib
import io
import random
from fractions import Fraction
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from topoforms import cli, contfrac, topograph
from topoforms.exact import is_square, isqrt
from topoforms.forms import QuadForm
from topoforms.reduce import (gauss_cycle, reduce_negative,
                              reduce_simple_cycle, reduce_square,
                              zagier_cycle)
from topoforms.riverword import principal_form
from topoforms.topograph import (_block, definite_blocks, find_river,
                                 find_well, period_blocks, river_walk,
                                 square_reduction, walk)


# ------------------------------------------------------------- reference

def ref_walk(form, letter, stop, cap=None):
    """The block walk one block at a time, stop tested on every form."""
    a, b, c = form
    D = b * b - 4 * a * c
    s = isqrt(max(D, 0))
    irrational = s * s != D
    word = []
    for _ in repeat(None) if cap is None else range(cap):
        p, r = (-b, 2 * a) if letter == "L" else (b, -2 * c)
        if D < 0:
            k = p // r
        elif r > 0:
            k = (p + s) // r
        elif r:
            k = (-p - s - irrational) // -r
        else:
            k = -(c if letter == "L" else a) // b
        a, b, c = _block(a, b, c, letter, k)
        j = stop(a, b, c, letter, k)
        if j:
            a, b, c = _block(a, b, c, letter, j)
            k += j
        word.append((letter, k))
        if j is not None:
            return word, (a, b, c)
        letter = "R" if letter == "L" else "L"
    raise AssertionError("block walk failed to stop within its cap")


@contextlib.contextmanager
def unit_blocks():
    with mock.patch.object(topograph, "walk", ref_walk), \
            mock.patch.object(contfrac, "walk", ref_walk):
        yield


def replayed(start, letter, word, end, stops):
    # the batch's blocks one at a time from its start form end on the
    # batch's end form, and no form a block ends on meets `stops`
    a, b, c = start
    D = b * b - 4 * a * c
    for block_letter, k in word:
        assert block_letter == letter
        a, b, c = _block(a, b, c, letter, k)
        assert not stops(a, b, c, D), (a, b, c)
        letter = "R" if letter == "L" else "L"
    assert (a, b, c) == end


def _definite_stops(a, b, c, D):
    # every form a stop meets, reduced or next to one, has a or c <= |D|
    return a <= -D or c <= -D


def _real_stops(a, b, c, D):
    # simple, a lake, or with roots of both signs: ac <= 0
    return not a or not c or (a > 0) != (c > 0)


@contextlib.contextmanager
def batches():
    """The batches the walks take inside the block, replayed as they are
    taken; yields the list of their block counts."""
    real, taken = topograph._batch, []

    def replaying(a, b, c, letter, shift, quotients):
        word, end = real(a, b, c, letter, shift, quotients)
        if word:
            D = b * b - 4 * a * c
            replayed((a, b, c), letter, word, end,
                     _definite_stops if D < 0 else _real_stops)
            taken.append(len(word))
        return word, end

    with mock.patch.object(topograph, "_batch", replaying):
        yield taken


def both(fn, *args):
    """fn(*args) with batches, replayed, and with unit blocks; they must
    agree.  Returns the value and the blocks taken in batches."""
    with batches() as taken:
        out = fn(*args)
    with unit_blocks():
        assert fn(*args) == out
    return out, sum(taken)


def cli_reduce(q):
    # the CLI reads and prints forms in decimal, up to Python's 4300 digits
    if max(x.bit_length() for x in q) > 14000:
        return None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["reduce", "--form", ",".join(map(str, q))]) == 0
    return out.getvalue()


# ---------------------------------------------------------------- inputs

def moved(q, blocks, seed, signed=False, letter="L"):
    """q moved by `blocks` random blocks of 1 to 3 turns, alternately L and
    R from `letter`, of either sign when `signed`."""
    rng = random.Random(seed)
    a, b, c = q
    for _ in range(blocks):
        k = rng.randint(1, 3) * (rng.choice((1, -1)) if signed else 1)
        a, b, c = _block(a, b, c, letter, k)
        letter = "R" if letter == "L" else "L"
    return QuadForm(a, b, c)


def moves(base):
    """The arguments of `moved` for a small form of a regime moved by 10^2
    to 5 * 10^3 random blocks (each test adds 10^4 blocks as an example):
    they report a failing case in a line, where the form takes thousands
    of digits."""
    blocks = st.builds(lambda k, e: k * 10 ** e, st.integers(1, 5),
                       st.integers(2, 3))
    return st.tuples(base, blocks, st.integers(0, 2 ** 32), st.booleans(),
                     st.sampled_from("LR"))


@st.composite
def definite_bases(draw):
    a = draw(st.integers(1, 40))
    b = draw(st.integers(-a, a))
    c = draw(st.integers(a, 80))
    assume(b * b < 4 * a * c)
    return a, b, c


@st.composite
def square_bases(draw):
    m = draw(st.integers(1, 300))
    return 0, m, draw(st.integers(0, m))


@st.composite
def real_bases(draw):
    a, c = draw(st.integers(1, 40)), -draw(st.integers(1, 40))
    b = draw(st.integers(-40, 40))
    assume(not is_square(b * b - 4 * a * c))
    return a, b, c


# ---------------------------------------------------------------- regimes

@given(moves(definite_bases()))
@example(((1, 1, 1), 10 ** 4, 0, False, "L"))
@settings(max_examples=20, deadline=None)
def test_definite_walk_matches_unit_blocks(move):
    q = moved(*move)
    both(reduce_negative, q)
    both(reduce_negative, -q)
    both(find_well, q)
    both(definite_blocks, q, "R")
    both(cli_reduce, q)


@given(moves(square_bases()))
@example(((0, 7, 3), 10 ** 4, 0, False, "L"))
@settings(max_examples=20, deadline=None)
def test_square_walk_matches_unit_blocks(move):
    q = moved(*move)
    both(reduce_square, q)
    both(square_reduction, -q)
    river, _ = both(find_river, q)
    with unit_blocks():
        ref = find_river(q)
    assert tuple(river.word) == tuple(ref.word)
    assert tuple(river.edges) == tuple(ref.edges)
    both(cli_reduce, q)


@given(moves(real_bases()))
@example(((1, 0, -2), 10 ** 4, 0, False, "L"))
@settings(max_examples=20, deadline=None)
def test_real_walk_matches_unit_blocks(move):
    q = moved(*move)
    both(river_walk, q)
    both(reduce_simple_cycle, q)
    both(gauss_cycle, q)
    both(zagier_cycle, q)
    both(period_blocks, q)
    river, _ = both(find_river, q)
    with unit_blocks():
        ref = find_river(q)
    assert tuple(river.word) == tuple(ref.word)
    assert tuple(river.edges) == tuple(ref.edges)
    both(cli_reduce, q)


def test_far_forms_take_nearly_every_block_in_batches():
    for base, fn in (((1, 1, 1), reduce_negative),
                     ((0, 7, 3), reduce_square),
                     ((1, 0, -2), river_walk)):
        q = moved(base, 1000, 1)
        _, taken = both(fn, q)
        assert taken > 900, (base, taken)


# ------------------------------------------------------------------ gate

def _at_bits(base, bits):
    # a moved form whose largest coefficient has exactly `bits` bits
    for seed in range(1000):
        for blocks in range(bits // 4, bits // 2):
            q = moved(base, blocks, seed)
            if max(x.bit_length() for x in q) == bits:
                return q
            if max(x.bit_length() for x in q) > bits:
                break
    raise AssertionError("no form of that size")


def test_batches_start_at_the_gate():
    # forms whose largest coefficient has _WINDOW + bits(|D|) bits or one
    # more are batched, one a bit shorter is walked one block at a time
    for base, fn in (((1, 1, 1), reduce_negative),
                     ((0, 7, 3), reduce_square),
                     ((1, 0, -2), river_walk)):
        D = QuadForm(*base).discriminant()
        gate = topograph._WINDOW + abs(D).bit_length()
        _, taken = both(fn, _at_bits(base, gate - 1))
        assert taken == 0, base
        for bits in (gate, gate + 1):
            _, taken = both(fn, _at_bits(base, bits))
            assert taken > 0, (base, bits)


# ---------------------------------------------------------- stops nearby

def test_square_walk_ends_on_a_far_lake():
    # from the lake edge [A, m, 0], A huge, moved away by R first: the walk
    # back ends on the lake at a huge a, and the batch before it stops
    # short of the lake
    m = 7
    for seed in range(20):
        start = QuadForm(2 ** 700 + seed, m, 0)
        q = moved(start, 50, seed, letter="R")
        lake = []

        def stop(a, b, c, letter, k):
            if b == m and c == 0 if letter == "L" else b == -m and a == 0:
                lake.append((a, b, c))
                return 0

        (word, end), taken = both(walk, q, "L", stop)
        assert taken > 0 and lake[-1] == end
        assert max(abs(end[0]), abs(end[2])) > 2 ** 600


def _cf(x):
    terms = []
    while True:
        terms.append(x.numerator // x.denominator)
        if x == terms[-1]:
            return terms
        x = 1 / (x - terms[-1])


def _entry(a, b, c, letter, k):
    return 0 if a > 0 > c else None


def test_batch_stops_before_the_first_simple_form():
    # forms just above the gate, fewer blocks from their river than the
    # continued fraction of their leading bits' -B/2P has terms: a batch
    # trusting that fraction would run onto the river, past the first
    # simple form; the batch takes the true quotients, and stops before it
    p = principal_form(10 ** 6 + 1)
    gate = topograph._WINDOW + p.discriminant().bit_length()
    for seed in range(30):
        blocks = 1
        while max(x.bit_length() for x in moved(p, blocks, seed)) < gate + 8:
            blocks += 1
        q = moved(p, blocks, seed)
        shift = max(x.bit_length() for x in q) - topograph._WINDOW
        P, B, Q = (x >> shift for x in q)
        with unit_blocks():
            word, _ = walk(q, "L", _entry)
        ks = topograph._real_quotients(P, B, Q)
        assert len(_cf(Fraction(-B, 2 * P))) > len(word) > len(ks) > 0
        assert ks == [k for _, k in word[:len(ks)]]
        (_, end), taken = both(walk, q, "L", _entry)
        assert taken > 0 and end[0] > 0 > end[2]


def test_cap_counts_batched_blocks():
    q = moved((1, 1, 1), 1000, 3)
    with unit_blocks():
        word, _ = definite_blocks(q)
    n = len(word)
    assert walk(q, "L", topograph._enters_fprime, n)[0] == word
    with batches() as taken, pytest.raises(AssertionError, match="its cap"):
        walk(q, "L", topograph._enters_fprime, n - 1)
    assert sum(taken) > 0


def test_every_cap_stops_where_the_unit_walk_does():
    # caps around the walk's length and inside its batches: a batch may
    # pass the cap, but a walk returns exactly when the unit walk fits
    q = moved((1, 1, 1), 1000, 3)
    with unit_blocks():
        word, _ = definite_blocks(q)
    n, real, units, batched, inside = len(word), topograph._batch, [], [], []

    def stop(*args):
        units.append(args)
        return topograph._enters_fprime(*args)

    def recording(*args):
        batch, end = real(*args)
        start = len(units) + len(batched)  # the blocks walked before it
        inside.extend(range(start + 1, start + len(batch)))
        batched.extend(batch)
        return batch, end

    with mock.patch.object(topograph, "_batch", recording):
        walk(q, "L", stop)
    assert inside and inside[-1] < n
    for cap in sorted({*range(n - 50, n + 4), *inside[::25]}):
        if cap >= n:
            assert walk(q, "L", topograph._enters_fprime, cap)[0] == word
        else:
            with pytest.raises(AssertionError, match="its cap"):
                walk(q, "L", topograph._enters_fprime, cap)
