"""The public branches no other test reaches: the CLI's remaining exits,
the corners of Rat and Surd (the infinities, zero, ints, mixed fields),
and each function's out-of-domain and degenerate inputs."""

from fractions import Fraction
from itertools import product

import pytest

from topoforms.classnum import (euler_phi, hurwitz, r3_primitive,
                                r3_via_class, r3p_via_class, upsilon,
                                upsilon_odd)
from topoforms.cli import run
from topoforms.contfrac import (CFExpansion, fd_member, general_cf,
                                lr_decompose, normalize_parity, real_cf)
from topoforms.exact import (INF, NEG_INF, DomainError, Rat, Surd, isqrt,
                             surd_floor)
from topoforms.forms import MAT_L, MAT_R, QuadForm, UniMat, mobius
from topoforms.riverword import (aut_structure, epsilon_star, symmetry,
                                 topograph_of_word, word_of)
from topoforms.series import (eisenstein_check, hurwitz_series, root_product,
                              root_product_all)
from topoforms.topograph import TurnPath, find_river, square_reduction

# ------------------------------------------------------------------- cli


def _run(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr()


def test_cli_reduce_of_zero_discriminant_exits_2(capsys):
    code, out = _run(capsys, ["reduce", "--form", "1,2,1"])
    assert code == 2 and "discriminant zero" in out.err


@pytest.mark.parametrize("m", [1, 2, 6, 12, 35])
def test_cli_classnum_on_square_discriminants(capsys, m):
    code, out = _run(capsys, ["classnum", "--disc", str(m * m)])
    assert code == 0 and out.out == f"h {euler_phi(m)}\n"
    code, out = _run(capsys, ["classnum", "--disc", str(m * m), "--star"])
    assert code == 0 and out.out == f"h_star {m}\n"


def test_cli_classnum_star_edges(capsys):
    code, out = _run(capsys, ["classnum", "--disc", "0", "--star", "--json"])
    assert code == 0 and '"h_star": "infinite"' in out.out
    code, out = _run(capsys, ["classnum", "--disc", "5", "--star"])
    assert code == 2 and "h*" in out.err


@pytest.mark.parametrize("D", [0, 5, 36])
def test_cli_hurwitz_needs_negative_discriminant(capsys, D):
    code, out = _run(capsys, ["classnum", "--disc", str(D), "--hurwitz"])
    assert code == 2 and "needs D < 0" in out.err


@pytest.mark.parametrize("argv", [["necklace"], ["word"],
                                  ["series", "--theorem", "mik"],
                                  ["series", "--theorem", "sq", "--json"]])
def test_cli_missing_input_exits_1(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 1 and out.out == "" and out.err.startswith("usage error")


# ----------------------------------------------------------------- exact

def test_isqrt_and_rat_domain():
    with pytest.raises(DomainError):
        isqrt(-1)
    with pytest.raises(DomainError):
        Rat(0, 0)


# every value once as Rat or int, +-1/0 at the ends, in increasing order
_ORDERED = [NEG_INF, -7, Rat(-3, 2), Rat(-1), Rat(-1, 3), 0, Rat(0),
            Rat(2, 5), 1, Rat(1), Rat(7, 4), 2, INF]


def _key(x):
    # -1/0 < every finite value < +1/0, by the sign of the infinities
    x = Rat(x) if isinstance(x, int) else x
    return (x.num, 0) if x.is_infinite() else (0, Fraction(x.num, x.den))


@pytest.mark.parametrize("x, y", list(product(_ORDERED, repeat=2)))
def test_rat_order_among_rats_ints_and_infinities(x, y):
    kx, ky = _key(x), _key(y)
    assert (x < y, x <= y, x > y, x >= y, x == y) == (
        kx < ky, kx <= ky, kx > ky, kx >= ky, kx == ky)


def test_rat_negation_inverse_and_subtraction():
    assert -INF == NEG_INF and -NEG_INF == INF and -Rat(0) == 0
    assert -Rat(3, 4) == Rat(-3, 4)
    assert Rat(0).invert() == INF
    assert INF.invert() == 0 and NEG_INF.invert() == 0
    assert Rat(-2, 3).invert() == Rat(-3, 2)
    assert Rat(1, 2) - 1 == Rat(-1, 2) and Rat(1, 2) - Rat(1, 3) == Rat(1, 6)
    assert Rat(5) - 5 == 0
    for x, y in [(INF, 1), (Rat(1), NEG_INF), (INF, INF), (NEG_INF, 0)]:
        with pytest.raises(DomainError):
            x - y


@pytest.mark.parametrize("call", [
    lambda: INF + 1, lambda: Rat(1) + NEG_INF, lambda: INF * Rat(0),
    lambda: Rat(2) * INF, lambda: INF - 3, lambda: INF.floor(),
    lambda: float(NEG_INF)])
def test_rat_arithmetic_on_infinity_raises(call):
    with pytest.raises(DomainError):
        call()


def test_rat_float_and_reprs():
    assert float(Rat(3, 4)) == 0.75 and float(Rat(-7)) == -7.0
    assert (repr(INF), repr(NEG_INF), repr(Rat(3, 4)), repr(Rat(-6, 3))) \
        == ("inf", "-inf", "3/4", "-2")


def test_surd_domain_and_fields():
    with pytest.raises(DomainError):
        Surd(1, 2, 0, 5)  # r = 0
    with pytest.raises(DomainError):
        Surd(1, 1, 2, 0)  # the square radicand 0
    with pytest.raises(DomainError):
        Surd(1, 1, 1, 2) + Surd(1, 1, 1, 3)
    with pytest.raises(DomainError):
        Surd(1, 1, 1, 2) * Surd(1, 1, 1, 3)
    with pytest.raises(DomainError):
        Surd(0, 0, 1, 5).invert()


def test_surd_with_rats():
    z = Surd(1, 1, 2, 5)
    assert z + Rat(1, 3) == Surd(5, 3, 6, 5)
    assert z * Rat(1, 3) == Surd(1, 1, 6, 5)
    assert z - Rat(1, 2) == Surd(0, 1, 2, 5)
    for inf in (INF, NEG_INF):
        with pytest.raises(DomainError):
            z + inf
        with pytest.raises(DomainError):
            z * inf


def test_surd_hash_floor_repr():
    z = Surd(1, 1, 2, 5)
    assert hash(z) == hash(Surd(2, 2, 4, 5)) and z == Surd(2, 2, 4, 5)
    assert z.floor() == 1 and Surd(-1, -1, 2, 5).floor() == -2
    assert repr(z) == "(1+1*sqrt(5))/2"
    assert surd_floor(Surd(7, 0, 2, 5)) == 3
    with pytest.raises(DomainError):
        surd_floor(Surd(1, 1, 2, -3))


# ----------------------------------------------------------------- forms

def test_unimat_inverse_at_determinant_minus_one():
    for m in [UniMat(0, 1, 1, 0), UniMat(2, 3, 1, 1), UniMat(-1, 0, 4, 1)]:
        assert m.det() == -1
        assert m @ m.inverse() == UniMat(1, 0, 0, 1)
        assert m.inverse() @ m == UniMat(1, 0, 0, 1)
    assert UniMat(0, 1, 1, 0).inverse() == UniMat(0, 1, 1, 0)
    assert UniMat(2, 3, 1, 1).inverse() == UniMat(-1, 3, 1, -2)


def test_mobius_at_poles_and_infinity():
    # a rational surd at its pole goes to INF, a Rat to the infinity of
    # its numerator's sign
    assert mobius(MAT_R, Surd(-1, 0, 1, 5)) == INF
    assert mobius(MAT_R, Rat(-1)) == NEG_INF
    assert mobius(UniMat(0, 1, 1, 1), Rat(-1)) == INF
    assert mobius(MAT_R, INF) == 1 and mobius(MAT_R, NEG_INF) == 1
    assert mobius(MAT_L, INF) == INF and mobius(MAT_L, NEG_INF) == NEG_INF
    assert mobius(UniMat(0, -1, 1, 0), INF) == 0
    assert mobius(UniMat(2, 1, 1, 1), Rat(1, 2)) == Rat(4, 3)


# -------------------------------------------------------------- contfrac

def test_cf_reprs():
    assert repr(real_cf(Surd(0, 1, 1, 2))) == "<1;(2)>"
    assert repr(general_cf(Surd(1, 1, 2, -3))) == "<0;tail=(1+1*sqrt(-3))/2>"
    assert repr(CFExpansion([1, 2])) == "<1,2>"


def test_fd_member_unknown_domain():
    with pytest.raises(DomainError):
        fd_member(Surd(1, 1, 2, -3), "G")


def test_real_cf_edges():
    assert real_cf(Surd(3, 0, 2, 5)) == CFExpansion([1, 2])
    with pytest.raises(DomainError):
        real_cf("3/2")
    with pytest.raises(DomainError):
        real_cf(Surd(1, 1, 2, -3))


def test_normalize_parity_edges():
    with pytest.raises(DomainError):
        normalize_parity(real_cf(Surd(0, 1, 1, 2)), 0)
    assert normalize_parity(CFExpansion([1, 2, 1]), 1) == CFExpansion([1, 3])
    assert normalize_parity(CFExpansion([1, 2, 1]), 0) == CFExpansion(
        [1, 2, 1])
    assert normalize_parity(CFExpansion([1, 3]), 0) == CFExpansion([1, 2, 1])


def test_general_cf_edges():
    assert general_cf(Surd(0, 1, 1, 2)) == real_cf(Surd(0, 1, 1, 2))
    with pytest.raises(DomainError):
        general_cf(Surd(0, 0, 1, -3))
    assert general_cf(Surd(3, 0, 2, -3)) == CFExpansion([1, 2])


def test_lr_decompose_below_the_axis():
    with pytest.raises(DomainError):
        lr_decompose(Surd(1, -1, 2, -3))


# ------------------------------------------------------------- the rest

@pytest.mark.parametrize("call", [
    lambda: hurwitz(0), lambda: r3_primitive(-1), lambda: r3_via_class(-1),
    lambda: r3p_via_class(-1), lambda: upsilon(0), lambda: upsilon_odd(0),
    lambda: aut_structure(QuadForm(2, 2, 2)),
    lambda: aut_structure(QuadForm(2, 0, -6)),
    lambda: word_of(QuadForm(0, 2, 2)), lambda: word_of(QuadForm(1, 1, -1)),
    lambda: symmetry(QuadForm(2, 2, -2)), lambda: symmetry(QuadForm(0, 4, 2)),
    lambda: topograph_of_word("0120"), lambda: hurwitz_series(0, 2),
    lambda: hurwitz_series(5, 2), lambda: root_product(QuadForm(0, 2, 1)),
    lambda: root_product_all(9), lambda: root_product_all(16),
    lambda: eisenstein_check(radius=1),
    lambda: square_reduction(QuadForm(1, 1, -1)),
    lambda: square_reduction(QuadForm(1, 1, 1)),
])
def test_out_of_domain_raises(call):
    with pytest.raises(DomainError):
        call()


def test_epsilon_star_without_a_minus_4_solution():
    assert epsilon_star(12) is None and epsilon_star(5) is not None


def test_views_and_paths_against_other_types():
    river = find_river(QuadForm(1, 1, -1))
    assert repr(river.edges) == "<RiverEdges of 2 turns>"
    assert repr(river.word) == "<RiverWord of 2 turns>"
    for value in (river.edges, river.word, TurnPath().then("L")):
        assert value.__eq__(3) is NotImplemented
        assert value != 3 and value != [value] and not value == "L"
