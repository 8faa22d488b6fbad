from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topoforms.classnum import (euler_phi, h_neg, h_neg_table, h_pos,
                                h_square, hstar_neg, hurwitz, hurwitz_table,
                                moebius_mu, r3, r3_primitive, r3_via_class,
                                r3p_via_class, upsilon, upsilon_odd)
from topoforms.exact import DomainError


def test_euler_phi_mobius():
    assert [euler_phi(m) for m in (1, 2, 6, 10, 12)] == [1, 1, 2, 4, 4]
    assert [moebius_mu(m) for m in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]
    with pytest.raises(DomainError):
        euler_phi(0)
    with pytest.raises(DomainError):
        moebius_mu(-1)


def test_h_neg_known_values():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3,
             -24: 2, -31: 3, -47: 5, -71: 7, -163: 1}
    for D, h in known.items():
        assert h_neg(D) == h, D
    with pytest.raises(DomainError):
        h_neg(-6)  # 2 mod 4
    with pytest.raises(DomainError):
        h_neg(5)


def test_hurwitz_known_values():
    known = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1,
             12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 19: 1, 20: 2,
             23: 3, 24: 2, 27: Fraction(4, 3), 28: 2, 31: 3, 44: 4}
    for n, h in known.items():
        assert hurwitz(n) == h, n
    with pytest.raises(DomainError):
        hurwitz(5)


def test_hstar():
    assert hstar_neg(-64) == 4
    assert hstar_neg(-12) == 2  # [1,0,3] and [2,2,2]
    assert hstar_neg(-3) == 1


def test_h_square():
    assert h_square(9) == (2, 3)
    assert h_square(1) == (1, 1)
    assert h_square(0) == (1, None)
    assert h_square(36) == (2, 6)
    with pytest.raises(DomainError):
        h_square(5)


def test_h_pos():
    assert h_pos(5) == 1
    assert h_pos(8) == 1
    assert h_pos(96) == 4
    assert h_pos(145) == 4
    with pytest.raises(DomainError):
        h_pos(16)


def test_tables_match_scalar():
    table = h_neg_table(120)
    for D in range(-120, 0):
        if D % 4 in (0, 1):
            assert table[D] == h_neg(D), D
        else:
            assert D not in table
    ht = hurwitz_table(120)
    for n in range(1, 121):
        if n % 4 in (0, 3):
            assert ht[n] == hurwitz(n), n
        else:
            assert n not in ht


@given(st.integers(1, 150))
@settings(max_examples=40)
def test_r3_class_formula_matches_brute(n):
    assert r3_via_class(n) == r3(n)
    if n > 3:
        assert r3p_via_class(n) == r3_primitive(n)


def test_r3_primitive_class_formula_from_n_1():
    # n = 1 and 3 weigh the classes of D = -4 and -3 by their automorphs
    assert [r3p_via_class(n) for n in (1, 2, 3)] == [6, 12, 8]
    for n in range(1, 2001):
        assert r3p_via_class(n) == r3_primitive(n), n


def test_r3_edge_cases():
    assert r3(0) == 1
    assert r3(1) == 6
    assert r3(7) == 0
    assert r3_primitive(4) == 0
    with pytest.raises(DomainError):
        r3(-1)


@given(st.integers(1, 60))
@settings(max_examples=30)
def test_upsilon_identities(n):
    assert upsilon(n) == 3 * hurwitz(4 * n)
    if n % 4 == 3:
        assert upsilon_odd(n) == 3 * hurwitz(n)
