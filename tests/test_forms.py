import copy
import pickle
from functools import reduce
from operator import matmul

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topoforms.contfrac import CFExpansion, general_cf, real_cf
from topoforms.exact import INF, DomainError, Rat, Surd
from topoforms.forms import (ID, MAT_L, MAT_R, MAT_S, MAT_U, QuadForm, UniMat,
                             act, content_split, mobius, roots,
                             turn_sequence_matrix)
from topoforms.reduce import (ReductionResult, gauss_cycle, reduce_negative,
                              reduce_simple_cycle, reduce_square, zagier_cycle)
from topoforms.riverword import Necklace, PellSolution, pell_fundamental
from topoforms.series import SeriesReport, series_neg
from topoforms.topograph import (EdgeCursor, RiverDescriptor, TurnPath,
                                 WellDescriptor, find_river, find_well,
                                 head_view, period_blocks, river_walk)

COEF = st.integers(-40, 40)


def test_quadform_basics():
    q = QuadForm(2, 3, -1)
    assert (q.a, q.b, q.c) == (2, 3, -1)
    assert q.discriminant() == 17
    assert q(1, 2) == 2 + 6 - 4
    assert repr(q) == "[2,3,-1]"
    assert (-q) == QuadForm(-2, -3, 1)
    assert QuadForm(4, 6, 2).content() == 2


def test_unimat_algebra():
    assert MAT_L @ MAT_L == UniMat(1, 2, 0, 1)
    assert MAT_S @ MAT_S == UniMat(-1, 0, 0, -1)
    assert MAT_U @ MAT_U @ MAT_U == UniMat(-1, 0, 0, -1)  # U has order 6
    assert MAT_L ** 5 == UniMat(1, 5, 0, 1)
    assert MAT_R ** -2 == UniMat(1, 0, -2, 1)
    m = UniMat(2, 5, 1, 3)
    assert m @ m.inverse() == ID
    with pytest.raises(DomainError):
        UniMat(2, 0, 0, 2)


@given(COEF, COEF, COEF)
def test_step_closed_forms(a, b, c):
    q = QuadForm(a, b, c)
    assert act(q, MAT_L) == QuadForm(a, b + 2 * a, a + b + c)
    assert act(q, MAT_R) == QuadForm(a + b + c, b + 2 * c, c)
    assert act(q, MAT_S) == QuadForm(c, -b, a)
    assert act(q, MAT_L ** -1) == QuadForm(a, b - 2 * a, a - b + c)
    assert act(q, MAT_R ** -1) == QuadForm(a - b + c, b - 2 * c, c)


@given(COEF, COEF, COEF, st.integers(0, 3), st.integers(0, 3))
def test_action_is_right_action(a, b, c, i, j):
    mats = (MAT_L, MAT_R, MAT_S, MAT_U)
    q = QuadForm(a, b, c)
    m, n = mats[i], mats[j]
    assert act(act(q, m), n) == act(q, m @ n)
    assert act(q, m).discriminant() == q.discriminant()


def test_flip_needs_opt_in():
    flip = UniMat(0, 1, 1, 0)
    q = QuadForm(1, 2, 3)
    with pytest.raises(DomainError):
        act(q, flip)
    assert act(q, flip, allow_flip=True) == QuadForm(3, 2, 1)


def test_roots():
    r = roots(QuadForm(1, 0, -24))  # roots carry the form's own discriminant
    assert r.first == Surd(0, 1, 2, 96)
    assert r.second == Surd(0, -1, 2, 96)
    r = roots(QuadForm(1, -3, 2))  # square discriminant -> rational roots
    assert r.first == Rat(2, 1) and r.second == Rat(1, 1)
    r = roots(QuadForm(0, 3, -6))
    assert r.first == Rat(2, 1) and r.second.is_infinite()
    r = roots(QuadForm(0, -3, 6))
    assert r.first.is_infinite() and r.second == Rat(2, 1)
    assert roots(QuadForm(0, 0, 5)).first.is_infinite()
    with pytest.raises(DomainError):
        roots(QuadForm(0, 0, 0))


@given(COEF, COEF, COEF)
def test_roots_vanish(a, b, c):
    q = QuadForm(a, b, c)
    if q.content() == 0:
        return
    for z in roots(q):
        if isinstance(z, Rat) and not z.is_infinite():
            assert q(z.num, z.den) == 0
        elif isinstance(z, Surd):
            # a z^2 + b z + c == 0 exactly
            val = z * z * a + z * b + c
            assert val.is_zero()


def test_mobius_matches_roots():
    q = QuadForm(3, -5, 1)
    m = UniMat(2, 1, 1, 1)
    z = roots(q).first
    assert mobius(m.inverse(), z) == roots(act(q, m)).first
    assert mobius(MAT_L, Rat(1, 0)) == Rat(1, 0)
    assert mobius(MAT_S, Rat(0, 1)).is_infinite()


def test_turn_sequence_matrix():
    w = [("L", 2), ("R", 1), ("L", -1), ("R", 1), ("L", 2), ("R", 1),
         ("L", 1), ("R", 2)]
    m = turn_sequence_matrix(w)
    assert m == (MAT_L ** 2 @ MAT_R @ MAT_L ** -1 @ MAT_R @ MAT_L ** 2
                 @ MAT_R @ MAT_L @ MAT_R ** 2)
    for e in range(-8, 9):
        assert turn_sequence_matrix([("S", e)]) == MAT_S ** e
    with pytest.raises(DomainError):
        turn_sequence_matrix([("X", 1)])


@given(st.lists(st.tuples(st.sampled_from("LRS"), st.integers(-6, 6)),
                max_size=40))
def test_turn_sequence_matrix_is_the_product(word):
    mats = {"L": MAT_L, "R": MAT_R, "S": MAT_S}
    assert turn_sequence_matrix(word) == reduce(
        matmul, [mats[letter] ** e for letter, e in word], ID)


def test_content_split():
    g, q0 = content_split(QuadForm(4, 6, 2))
    assert g == 2 and q0 == QuadForm(2, 3, 1)
    with pytest.raises(DomainError):
        content_split(QuadForm(0, 0, 0))


def _values():
    cursor = EdgeCursor(QuadForm(3, -1, 2), TurnPath.of(("L", "L", "R", "S")))
    return {
        "form": QuadForm(47, -36, 7),
        "matrix": UniMat(2, 5, 1, 3),
        "roots-surd": roots(QuadForm(1, 0, -24)),
        "roots-rational": roots(QuadForm(1, -3, 2)),
        "roots-infinite": roots(QuadForm(0, 3, -6)),
        "roots-double-infinite": roots(QuadForm(0, 0, 5)),
        "cursor": cursor,
        "vertex": head_view(cursor),
        "well": find_well(QuadForm(7, 3, 11)),
        "river-periodic": find_river(QuadForm(1, 0, -24)),
        "river-finite": find_river(QuadForm(0, 5, 2)),
        "river-walk": river_walk(QuadForm(1, 0, -24)),
        "period-blocks": period_blocks(QuadForm(1, 0, -24)),
        "reduce-negative": reduce_negative(QuadForm(47, -36, 7)),
        "reduce-square": reduce_square(QuadForm(4, 13, 9)),
        "reduce-simple-cycle": reduce_simple_cycle(QuadForm(1, 0, -24)),
        "gauss-cycle": gauss_cycle(QuadForm(1, 0, -24)),
        "zagier-cycle": zagier_cycle(QuadForm(1, 0, -24)),
        "real-cf": real_cf(Surd(1, 1, 2, 5)),
        "general-cf": general_cf(Surd(1, 1, 2, -7)),
        "necklace": Necklace("0101101"),
        "pell": pell_fundamental(13),
        "series-report": series_neg(QuadForm(1, 1, 1), 2),
        "rat": Rat(-3, 7),
        "rat-infinite": INF,
        "surd": Surd(1, 1, 2, 5),
    }


VALUES = _values()
COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy}
COPIES.update({f"pickle-{p}": lambda x, p=p: pickle.loads(pickle.dumps(x, p))
               for p in range(2, pickle.HIGHEST_PROTOCOL + 1)})


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", VALUES)
def test_results_copy_and_pickle(name, how):
    x = VALUES[name]
    y = COPIES[how](x)
    assert type(y) is type(x)
    assert y == x


def test_value_types_as_dicts():
    red = reduce_negative(QuadForm(47, -36, 7))
    assert red._asdict() == {
        "canonical": red.canonical, "transform": red.transform,
        "steps": red.steps, "negated": red.negated}
    well = find_well(QuadForm(7, 3, 11))
    assert well._asdict() == {
        "kind": well.kind, "at": well.at, "labels": well.labels}


# each result record, its fields and defaults, and a value of it
RECORDS = [
    (ReductionResult, "canonical transform steps negated", {"negated": False},
     "reduce-negative"),
    (PellSolution, "t u sign", {}, "pell"),
    (RiverDescriptor, "kind edges word", {}, "river-periodic"),
    (WellDescriptor, "kind at labels", {}, "well"),
    (SeriesReport, "theorem discriminant depth value target terms_used", {},
     "series-report"),
    (CFExpansion, "terms period tail", {}, "real-cf"),
]


@pytest.mark.parametrize("cls, fields, defaults, name", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_result_records_are_named_tuples(cls, fields, defaults, name):
    x = VALUES[name]
    x = x[0] if cls is SeriesReport else x
    assert issubclass(cls, tuple) and type(x) is cls
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == defaults
    assert tuple(x) == tuple(getattr(x, f) for f in cls._fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
    with pytest.raises(AttributeError):
        x.other = None


def test_result_record_reprs():
    # as the frozen dataclasses these records were printed
    assert repr(reduce_negative(QuadForm(47, -36, 7))) == (
        "ReductionResult(canonical=[2,2,3], transform=(1 -1; 3 -2), "
        "steps=(('L', 0), ('R', 2), ('L', 1), ('S', 1)), negated=False)")
    assert repr(pell_fundamental(13)) == "PellSolution(t=11, u=3, sign=4)"
    assert repr(find_well(QuadForm(7, 3, 11))) == (
        "WellDescriptor(kind='vertex_well', at=EdgeCursor(form=[7,3,11], "
        "path=TurnPath(())), labels=(3, 11, 19))")
    assert repr(series_neg(QuadForm(1, 0, 5), 3)[0]) == (
        "SeriesReport(theorem='mik', discriminant=-20, depth=3, "
        "value=11.502363048713244, target=12.566370614359172, terms_used=22)")
    cf = CFExpansion((1, 2), period=iter([3]))
    assert cf == ([1, 2], [3], None) and CFExpansion([1]) == ([1], None, None)
    assert cf._replace(period=(4,)).period == [4]
    assert repr(cf) == "<1,2;(3)>"


def test_value_types_reprs_and_checks():
    assert repr(QuadForm(47, -36, 7)) == "[47,-36,7]"
    assert repr(MAT_L) == "(1 1; 0 1)"
    r = roots(QuadForm(1, -3, 2))
    assert repr(r) == repr(tuple(r))
    q = QuadForm(np.int64(2), True, 3)
    assert q == (2, 1, 3) and all(type(x) is int for x in q)
    assert not hasattr(q, "__dict__")
    assert type(q._replace(b=np.int64(5)).b) is int
    with pytest.raises(DomainError):
        UniMat(1, 1, 1, 1)
    with pytest.raises(DomainError):
        ID._replace(alpha=5)
