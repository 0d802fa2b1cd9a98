"""Triangular fuzzy number arithmetic and defuzzification."""

import math

import pytest
from hypothesis import given, strategies as st

from smaaflow import TFN

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
spreads = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
tfns = st.builds(TFN, finite, spreads, spreads)


def test_addition():
    assert TFN(2, 1, 1) + TFN(3, 0, 2) == TFN(5, 1, 3)


def test_subtraction_couples_spreads():
    # (m1 - m2; a1 + b2; b1 + a2)
    assert TFN(2, 1, 1) - TFN(3, 0, 2) == TFN(-1, 3, 1)
    assert TFN(5, 0.5, 0) - TFN(1, 0.25, 2) == TFN(4, 2.5, 0.25)


def test_scaling():
    assert TFN(2, 1, 3).scale(2) == TFN(4, 2, 6)
    assert 0.5 * TFN(2, 1, 3) == TFN(1, 0.5, 1.5)
    assert TFN(2, 1, 3).scale(0) == TFN(0, 0, 0)


def test_negative_scaling_rejected():
    with pytest.raises(ValueError):
        TFN(2, 1, 3).scale(-1)


def test_negative_spreads_rejected():
    # a NaN in any field is rejected too
    for fields in [(1, -0.5, 0), (1, 0, -0.5), (0, math.nan, 0), (0, 0, math.nan), (math.nan,)]:
        with pytest.raises(ValueError):
            TFN(*fields)


def test_support_and_crispness():
    assert TFN(4, 1, 2).support == (3, 6)
    assert TFN(4).is_crisp
    assert not TFN(4, 0.1, 0).is_crisp


def test_defuzzify_both_methods():
    x = TFN(6, 3, 0)
    assert x.defuzzify() == pytest.approx(5.0)
    assert x.defuzzify("centroid") == pytest.approx(5.0)
    assert x.defuzzify("spread-sum") == pytest.approx(7.0)
    with pytest.raises(ValueError):
        x.defuzzify("midpoint")


def test_defuzzify_symmetric_spreads_is_mode():
    assert TFN(3, 0.4, 0.4).defuzzify() == pytest.approx(3.0)


@given(finite)
def test_crisp_fixed_point(x):
    assert TFN(x).defuzzify() == x
    assert TFN(x).defuzzify("spread-sum") == x


@given(tfns, tfns)
def test_defuzzify_additive(a, b):
    lhs = (a + b).defuzzify()
    rhs = a.defuzzify() + b.defuzzify()
    assert lhs == pytest.approx(rhs, abs=1e-6 * (1 + abs(rhs)))


@given(tfns, st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_defuzzify_homogeneous(a, w):
    assert a.scale(w).defuzzify() == pytest.approx(w * a.defuzzify(), abs=1e-6)


@given(tfns, tfns)
def test_subtraction_mode_and_spread_growth(a, b):
    d = a - b
    assert d.m == a.m - b.m
    assert d.alpha == a.alpha + b.beta
    assert d.beta == a.beta + b.alpha


@given(tfns)
def test_support_brackets_mode(a):
    lo, hi = a.support
    assert lo <= a.m <= hi


def test_centroid_matches_area_integral():
    # the centroid rule is the x-coordinate of the triangle's centroid:
    # the mean of its three corners (m - alpha, m, m + beta)
    x = TFN(2.0, 0.6, 1.8)
    corners = (x.m - x.alpha, x.m, x.m + x.beta)
    assert x.defuzzify() == pytest.approx(sum(corners) / 3)


def test_alias_is_exported():
    from smaaflow.fuzzy import TriangularFuzzyNumber

    assert TriangularFuzzyNumber is TFN
    assert math.isclose(TriangularFuzzyNumber(1.5).m, 1.5)
