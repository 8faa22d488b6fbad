from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from topoforms.classnum import h_pos
from topoforms.forms import QuadForm, act
from topoforms.exact import DomainError
from topoforms.reduce import (ReductionResult, gauss_cycle, gauss_step,
                              is_g_reduced, is_reduced_neg,
                              is_reduced_square, is_simply_reduced,
                              is_z_reduced, is_zstar_reduced,
                              omega_enumerate, reduce_negative,
                              reduce_simple_cycle, reduce_square, z_forms,
                              zagier_cycle, zagier_step, zstar_forms)

COEF = st.integers(-50, 50)


def test_predicates():
    assert is_reduced_neg(QuadForm(2, 2, 3))
    assert not is_reduced_neg(QuadForm(2, -2, 3))  # |b|=a wants b >= 0
    assert not is_reduced_neg(QuadForm(3, -1, 3))  # a=c wants b >= 0
    assert is_reduced_neg(QuadForm(3, 1, 3))
    assert is_reduced_square(QuadForm(0, 3, 2))
    assert not is_reduced_square(QuadForm(0, 3, 4))
    assert is_simply_reduced(QuadForm(3, 9, -4))
    assert not is_simply_reduced(QuadForm(5, 1, -3))
    assert is_z_reduced(QuadForm(1, 5, 1))
    assert is_zstar_reduced(QuadForm(1, -5, 1))


# --- negative discriminants

def test_reduce_negative_examples():
    res = reduce_negative(QuadForm(47, -36, 7))
    assert res.canonical == QuadForm(2, 2, 3)
    assert res.steps == (("L", 0), ("R", 2), ("L", 1), ("S", 1))
    assert act(QuadForm(47, -36, 7), res.transform) == res.canonical
    res = reduce_negative(QuadForm(42, 22, 3))
    assert res.canonical == QuadForm(2, 2, 3)
    assert res.steps == (("L", -1), ("R", 1), ("L", 2), ("R", 1))


def test_reduce_negative_definite_negation():
    res = reduce_negative(QuadForm(-1, 0, -1))
    assert res.negated and res.canonical == QuadForm(1, 0, 1)
    with pytest.raises(DomainError):
        reduce_negative(QuadForm(1, 0, -1))


@given(st.integers(1, 40), COEF, st.integers(1, 40))
def test_reduce_negative_certificate(a, b, c):
    q = QuadForm(a, b, c)
    if q.discriminant() >= 0:
        return
    res = reduce_negative(q)
    assert is_reduced_neg(res.canonical)
    assert act(q, res.transform) == res.canonical


@given(st.integers(1, 40), COEF, st.integers(1, 40),
       st.integers(-3, 3), st.integers(-3, 3))
def test_reduce_negative_class_invariant(a, b, c, x, y):
    from topoforms.forms import MAT_L, MAT_R
    q = QuadForm(a, b, c)
    if q.discriminant() >= 0:
        return
    moved = act(q, MAT_L ** x @ MAT_R ** y)
    assert reduce_negative(moved).canonical == reduce_negative(q).canonical


# --- square discriminants

def test_reduce_square_examples():
    res = reduce_square(QuadForm(7, -18, 0))
    assert res.canonical == QuadForm(0, 18, 7)
    assert act(QuadForm(7, -18, 0), res.transform) == res.canonical
    res = reduce_square(QuadForm(13, -60, 63))
    assert res.canonical == QuadForm(0, 18, 7)
    with pytest.raises(DomainError):
        reduce_square(QuadForm(1, 0, -2))


@given(COEF, COEF, COEF)
def test_reduce_square_certificate(a, b, c):
    q = QuadForm(a, b, c)
    D = q.discriminant()
    from topoforms.exact import is_square
    if D <= 0 or not is_square(D) or q.content() == 0:
        return
    res = reduce_square(q)
    assert is_reduced_square(res.canonical)
    assert act(q, res.transform) == res.canonical


# --- non-square positive discriminants

def test_reduce_simple_cycle_river():
    res = reduce_simple_cycle(QuadForm(1, 0, -24))
    cycle = res.canonical
    assert all(is_simply_reduced(f) for f in cycle)
    assert cycle[0] == min(cycle)
    assert act(QuadForm(1, 0, -24), res.transform) == cycle[0]
    with pytest.raises(DomainError):
        reduce_simple_cycle(QuadForm(0, 3, 1))


@given(COEF, COEF, COEF)
@settings(max_examples=60)
def test_simple_cycle_is_class_invariant(a, b, c):
    from topoforms.exact import is_square
    from topoforms.forms import MAT_L, MAT_R
    q = QuadForm(a, b, c)
    D = q.discriminant()
    if D <= 0 or is_square(D):
        return
    moved = act(q, MAT_L ** 2 @ MAT_R ** -1)
    assert (reduce_simple_cycle(moved).canonical
            == reduce_simple_cycle(q).canonical)


# --- Gauss and Zagier cycles

def test_step_domain_errors():
    with pytest.raises(DomainError):
        gauss_step(QuadForm(1, 0, 1))
    with pytest.raises(DomainError):
        gauss_step(QuadForm(1, 4, 0))
    with pytest.raises(DomainError):
        zagier_step(QuadForm(0, 4, 1))


@given(COEF, COEF, COEF)
@settings(max_examples=60)
def test_gauss_zagier_cycles(a, b, c):
    from topoforms.exact import is_square
    q = QuadForm(a, b, c)
    D = q.discriminant()
    if D <= 0 or is_square(D):
        return
    # non-square D > 0 forces ac != 0
    gc = gauss_cycle(q)
    assert all(is_g_reduced(f) for f in gc)
    assert gc[0] == min(gc)
    zc = zagier_cycle(q)
    assert all(is_z_reduced(f) for f in zc)


def _assert_partition(cycles, forms):
    # the distinct cycles are disjoint and together hold exactly `forms`
    union = set().union(*cycles)
    assert sum(len(set(c)) for c in cycles) == len(union)
    assert union == set(forms) and len(forms) == len(set(forms))


def test_cycles_partition_reduced_forms():
    # every G-reduced (Z-reduced) form of D appears in exactly one cycle;
    # a G-reduced form has b^2 = D + 4ac < D and |a| <= |ac| < D/4, so the
    # ranges below hold them all
    for D in (5, 13, 60, 96, 145):
        g_all = [QuadForm(a, b, c)
                 for b in range(1, 40) for a in range(-40, 40) if a != 0
                 for c in [(b * b - D) // (4 * a)]
                 if b * b - 4 * a * c == D and is_g_reduced(QuadForm(a, b, c))]
        g_cycles = set()
        for q in g_all:
            cyc = gauss_cycle(q)
            assert q in cyc
            g_cycles.add(cyc)
        _assert_partition(g_cycles, g_all)
        z_all = z_forms(D)
        z_cycles = set()
        for q in z_all:
            cyc = zagier_cycle(q)
            assert q in cyc
            z_cycles.add(cyc)
        _assert_partition(z_cycles, z_all)
        primitive = {c for c in z_cycles if c[0].content() == 1}
        assert len(primitive) == h_pos(D)


# --- Omega parametrization

def test_omega_enumerate():
    with pytest.raises(DomainError):
        omega_enumerate(-4)
    ents = omega_enumerate(20)
    assert all(e.a > 0 and (e.k * e.k - 20) % 4 == 0 for e in ents)
    assert [ (e.k, e.a) for e in ents ] == sorted((e.k, e.a) for e in ents)
    zf = z_forms(20)
    zs = zstar_forms(20)
    assert len(zf) == len(zs) == len(ents)
    for q in zf:
        assert q.discriminant() == 20 and is_z_reduced(q)
    for q in zs:
        assert q.discriminant() == 20 and is_zstar_reduced(q)


def test_z_forms_count_small():
    # sum over classes of river length = number of Zagier-reduced forms
    for D in (5, 8, 12, 13, 96):
        zf = z_forms(D)
        assert len({tuple(q) for q in zf}) == len(zf)
        prim = [q for q in zf if gcd(gcd(q.a, q.b), q.c) == 1]
        assert all(q.discriminant() == D for q in prim)
