"""Golden digests: the sha256 of each group of outputs below, as the library
gave them before its special cases were folded into general rules.  A
group is one line per call, the repr of the result or the error raised,
on fixed or seeded inputs; a digest moves when any byte of any line does.
"""

import contextlib
import hashlib
import io
import random
from itertools import product

import pytest

from topoforms.cli import run
from topoforms.contfrac import general_cf, lr_decompose, real_cf
from topoforms.exact import INF, NEG_INF, DomainError, Rat, Surd, is_square
from topoforms.forms import QuadForm, UniMat, act, mobius, turn_sequence_matrix
from topoforms.reduce import (gauss_cycle, reduce_negative,
                              reduce_simple_cycle, reduce_square, zagier_cycle)
from topoforms.riverword import (necklace_of, negative_pell, pell_fundamental,
                                 principal_form, symmetry, topograph_of_word,
                                 word_of)
from topoforms.topograph import find_well


def _line(fn, *args):
    try:
        return repr(fn(*args))
    except (DomainError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _scramble(rng, blocks=4, kmax=6):
    # a product of L^k and R^k blocks, k in [-kmax, kmax]
    return turn_sequence_matrix([("LR"[i % 2], rng.randint(-kmax, kmax))
                                 for i in range(blocks)])


def _definite(rng):
    while True:
        q = QuadForm(*(rng.randint(-60, 60) for _ in range(3)))
        if q.discriminant() < 0:
            return q


def _indefinite(rng):
    while True:
        q = QuadForm(*(rng.randint(-60, 60) for _ in range(3)))
        D = q.discriminant()
        if D > 0 and not is_square(D):
            return q


def _real_discs(limit=1500):
    return [D for D in range(5, limit) if D % 4 in (0, 1) and not is_square(D)]


def _squares(mmax=40):
    return [QuadForm(0, m, r) for m in range(1, mmax + 1)
            for r in range(1, m + 1)]


def _surds(rng, n=300):
    out = []
    while len(out) < n:
        d = rng.choice((-3, -4, -7, -15, -24, 2, 3, 5, 13, 24, 37))
        r = rng.randint(-40, 40)
        if r:
            out.append(Surd(rng.randint(-60, 60), rng.randint(-9, 9), r, d))
    return out


def _reduce_negative():
    rng = random.Random("golden:definite")
    forms = [_definite(rng) for _ in range(500)]
    return ([_line(reduce_negative, q) for q in forms]
            + [_line(find_well, q) for q in forms])


def _reduce_square():
    rng = random.Random("golden:square")
    return [_line(reduce_square, act(q, _scramble(rng))) for q in _squares()]


def _cycles():
    rng = random.Random("golden:indefinite")
    forms = ([principal_form(D) for D in _real_discs()]
             + [_indefinite(rng) for _ in range(500)])
    return [_line(fn, q) for q in forms
            for fn in (reduce_simple_cycle, gauss_cycle, zagier_cycle)]


def _continued_fractions():
    surds = _surds(random.Random("golden:surds"))
    return [_line(fn, z) for z in surds
            for fn in (real_cf, general_cf, lr_decompose)]


def _river_readers():
    return [_line(fn, x) for D in _real_discs()
            for fn, x in ((pell_fundamental, D), (negative_pell, D),
                          (necklace_of, D), (symmetry, principal_form(D)))]


def _square_words():
    lines = []
    for q in _squares():
        lines.append(_line(word_of, q))
        w = word_of(q) if q.content() == 1 else ""
        lines.append(_line(topograph_of_word, w))
    return lines


def _rat_grid():
    # order, negation, inverse and subtraction of Rats, ints and +-1/0, and
    # the Mobius action of every unimodular matrix with entries in -5..5 on
    # them; equal values on both sides of a comparison included
    vals = ([INF, NEG_INF, Rat(0), 0, 1, -2]
            + [Rat(p, q) for p in range(-4, 5) for q in (1, 2, 3)])
    rats = [v for v in vals if isinstance(v, Rat)]
    lines = [f"{x!r} {y!r} {x < y} {x <= y} {x > y} {x >= y} {x == y}"
             for x, y in product(vals, repeat=2)]
    lines += [f"{x!r} {y!r} {_line(x.__sub__, y)}" for x in rats for y in vals]
    lines += [f"{x!r} {-x!r} {_line(x.invert)}" for x in rats]
    mats = [UniMat(*m) for m in product(range(-5, 6), repeat=4)
            if m[0] * m[3] - m[1] * m[2] in (1, -1)]
    for m in mats:
        lines.append(f"{m!r} {m.inverse()!r} "
                     + " ".join(_line(mobius, m, x) for x in rats))
    return lines


_ARGV = [
    ["reduce", "--form", "47,-36,7"], ["reduce", "--form", "13,-60,63"],
    ["reduce", "--form", "1,0,-24"], ["reduce", "--form", "-3,5,7"],
    ["reduce", "--form", "2,1,-3", "--method", "gauss"],
    ["reduce", "--form", "2,1,-3", "--method", "zagier"],
    ["reduce", "--form", "1,2,1"], ["reduce", "--form", "1,2"],
    ["classnum", "--disc", "-23"], ["classnum", "--disc", "-23", "--star"],
    ["classnum", "--disc", "-12", "--hurwitz"], ["classnum", "--disc", "36"],
    ["classnum", "--disc", "0", "--star"], ["classnum", "--disc", "229"],
    ["pell", "--disc", "13"], ["pell", "--disc", "12"],
    ["pell", "--disc", "9"],
    ["necklace", "--disc", "229"], ["necklace", "--decode", "0011101"],
    ["necklace"], ["word", "--disc", "441"], ["word", "--decode", "0110"],
    ["word", "--disc", "1"], ["word", "--disc", "5"],
    ["river", "--form", "1,1,-1"], ["river", "--form", "0,5,2"],
    ["topograph", "--form", "1,0,1", "--depth", "2"],
    ["topograph", "--form", "1,1,-1", "--depth", "1", "--format", "json"],
    ["series", "--theorem", "mik", "--disc", "-23", "--depth", "4"],
    ["series", "--theorem", "mt", "--disc", "13", "--depth", "3"],
    ["series", "--theorem", "mt2", "--disc", "13", "--depth", "3"],
    ["series", "--theorem", "sq", "--disc", "49", "--depth", "3"],
    ["series", "--theorem", "sq2", "--disc", "49", "--depth", "3"],
    ["series", "--theorem", "hurwitz", "--disc", "-20", "--depth", "3"],
    ["series", "--theorem", "eisenstein", "--radius", "30"],
    ["r3", "--n", "27"], ["r3", "--n", "27", "--primitive"],
    ["r3", "--n", "27", "--method", "brute"], ["nosuch"], [],
]


def _cli():
    lines = []
    for argv in _ARGV:
        for tail in ([], ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(argv + tail)
            lines.append(repr((argv + tail, code, out.getvalue(),
                               err.getvalue())))
    return lines


GROUPS = {
    "reduce_negative": (
        _reduce_negative, 1000,
        "980ae61067fc9f8f174904c6d4411a8374870cf1e2faaa5195539f59686dfe72"),
    "reduce_square": (
        _reduce_square, 820,
        "e0c1d68abfca49ef4dfc8f6b44363e159b24e73993650fa48e339e587296e70d"),
    "cycles": (
        _cycles, 3633,
        "c259ccc8878ced51edb05dcd29f28826d20050728a92d88ec201bddb64887418"),
    "continued_fractions": (
        _continued_fractions, 900,
        "25fb2ac89ca3ae6d56ba722eec79a7805a8a1c1c6df5f3bad2a63d19e3740839"),
    "river_readers": (
        _river_readers, 2844,
        "21873b4114dc5667d8c13160b85eefd2cd21f6a4d536b00adc5acc9ade1105b7"),
    "square_words": (
        _square_words, 1640,
        "b802625b835e865373f00f1671f865f8cd4616f713834a9b92b4fc2a03f4de47"),
    "rat_grid": (
        _rat_grid, 2725,
        "2fc6bd9a6a5f7dd6ebc5cc51ad88a135e41011f98f16627aad2435ac767670b6"),
    "cli": (
        _cli, 80,
        "3628f57505c75980f74096edbd2d74d088be29560ada0f9efcc06bb787bb7163"),
}


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_keep_their_digest(group):
    make, count, digest = GROUPS[group]
    lines = make()
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
