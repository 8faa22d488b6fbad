import json
import math

import pytest

from topoforms.exact import DomainError, Surd
from topoforms.forms import QuadForm
from topoforms.riverword import epsilon, principal_form
from topoforms.series import (POINCARE_ALL_ONES, POINCARE_ONE_TWO_TWO,
                              SeriesReport, W1, W2, eisenstein_check,
                              hurwitz_series, root_product, root_product_all,
                              series_neg, series_neg_profile, series_pos,
                              series_seed, series_square,
                              square_log_identity)


def test_poincare_constants():
    assert POINCARE_ALL_ONES == 3 * math.pi / 2
    assert POINCARE_ONE_TWO_TWO == 3 * math.pi / 4


def test_report_json_schema():
    rep, _ = series_neg(QuadForm(1, 1, 1), 3)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"theorem", "discriminant", "depth", "value",
                        "target", "residual"}
    assert doc["discriminant"] == "-3"
    assert doc["residual"] == rep.value - rep.target


def test_series_neg_depth0_exact():
    # single vertex (1,1,1): sums are 1 and 3, scaled by |D|^(3/2), |D|^(5/2)
    r1, r2 = series_neg(QuadForm(1, 1, 1), 0)
    assert r1.value == 3 ** 1.5
    assert r2.value == 3 * 3 ** 2.5
    assert r1.terms_used == 1
    assert r1.target == 4 * math.pi and r2.target == 24 * math.pi


def test_series_neg_convergence():
    r1, r2 = series_neg(QuadForm(1, 1, 1), 12)
    assert abs(r1.residual) / r1.target < 1e-3
    assert abs(r2.residual) / r2.target < 1e-4
    with pytest.raises(DomainError):
        series_neg(QuadForm(1, 0, -1), 3)


def test_series_neg_profile_monotone():
    prof = series_neg_profile(QuadForm(1, 0, 5), [2, 4, 6, 8, 10])
    t1, t2 = 4 * math.pi, 24 * math.pi
    v1 = [prof[d][0] for d in (2, 4, 6, 8, 10)]
    v2 = [prof[d][1] for d in (2, 4, 6, 8, 10)]
    # every term is positive, so partial sums climb toward the target
    assert all(x < y < t1 for x, y in zip(v1, v1[1:]))
    assert all(x < y < t2 for x, y in zip(v2, v2[1:]))


def test_series_neg_negative_definite_and_determinism():
    a = series_neg(QuadForm(-2, -2, -3), 6)[0]
    b = series_neg(QuadForm(2, 2, 3), 6)[0]
    assert a.value == b.value  # bit-identical, not just close
    again = series_neg(QuadForm(2, 2, 3), 6)[0]
    assert again.value == b.value


def test_hurwitz_series():
    for D, tol in ((-3, 1e-3), (-4, 1e-3), (-20, 5e-3)):
        rep = hurwitz_series(D, 12)
        assert abs(rep.residual) < tol, D
    with pytest.raises(DomainError):
        hurwitz_series(-6, 5)


def test_series_pos():
    q = series_seed(96)
    r1, r2 = series_pos(q, 8)
    assert r1.target == pytest.approx(2 * math.log(float(epsilon(96))))
    assert 0 < r1.target - r1.value < 5e-3
    assert abs(r2.residual) < 1e-4
    with pytest.raises(DomainError):
        series_pos(QuadForm(1, 0, 1), 3)
    with pytest.raises(DomainError):
        series_pos(QuadForm(0, 3, 1), 3)


def test_series_square():
    r1, r2 = series_square(QuadForm(0, 3, 1), 12)
    assert r1.target == pytest.approx(2 * math.log(3 / 2))
    assert abs(r1.residual) < 5e-3
    assert abs(r2.residual) < 1e-4
    with pytest.raises(DomainError):
        series_square(QuadForm(1, 0, -24), 3)


def test_series_square_d1():
    # D = 1 has no river; the sums converge to 2 log(1/2) with the same
    # bounds as D = 9
    r1, r2 = series_square(QuadForm(0, 1, 1), 12)
    assert r1.target == pytest.approx(2 * math.log(1 / 2))
    assert abs(r1.residual) < 5e-3
    assert abs(r2.residual) < 1e-4


@pytest.mark.parametrize("call", [
    lambda: series_neg(QuadForm(1, 1, 1), -1),
    lambda: series_neg_profile(QuadForm(1, 1, 1), [2, -1]),
    lambda: hurwitz_series(-20, -1),
    lambda: series_pos(QuadForm(3, -6, -5), -1),
    lambda: series_square(QuadForm(0, 3, 1), -1),
])
def test_negative_depth_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_series_seed():
    assert series_seed(-20) == QuadForm(1, 0, 5)
    assert series_seed(96) == QuadForm(3, -6, -5)  # shortest river period
    assert series_seed(9) == QuadForm(0, 3, 1)
    assert series_seed(1) == QuadForm(0, 1, 1)
    with pytest.raises(DomainError):
        series_seed(0)
    with pytest.raises(DomainError):
        series_seed(7)


def test_w_integrals():
    assert W1(0) == pytest.approx(0.2703628454, abs=1e-5)
    assert W1(0.5) == pytest.approx(-0.1159315157, abs=1e-5)
    # period 1 and even symmetry
    assert W1(1.25) == pytest.approx(W1(0.25), abs=1e-12)
    assert W1(0.3) == pytest.approx(W1(0.7), abs=1e-12)
    assert W2(0.25) == pytest.approx(W2(-0.25), abs=1e-12)


def test_root_products():
    assert root_product(QuadForm(1, 1, -1)) == Surd(3, 1, 2, 5)
    eps = epsilon(96)
    all_prod = root_product_all(96)
    acc = Surd(1, 0, 1, 96)
    for _ in range(4):  # h(96) = 4
        acc = acc * eps
    assert all_prod == acc
    with pytest.raises(DomainError):
        root_product(QuadForm(2, 0, -48))


def test_root_product_at_large_discriminant():
    # q's own Zagier cycle, well beyond the classes enumerated elsewhere
    D = 10**6 + 1
    assert root_product(principal_form(D)) == epsilon(D)


def test_eisenstein_check():
    lhs, rhs = eisenstein_check(radius=300)
    assert abs(lhs - rhs) < 1e-3
    with pytest.raises(DomainError):
        eisenstein_check(g=0)


def test_square_log_identity_quick():
    lhs, rhs = square_log_identity(3, bmax=20000)
    assert abs(lhs - rhs) < 1e-4
    with pytest.raises(DomainError):
        square_log_identity(4)
