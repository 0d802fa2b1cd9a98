"""Preference functions: the six shapes, orientation and the fuzzy degree."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smaaflow import TFN, PreferenceSpec
from smaaflow.preference import (
    SHAPES,
    THRESHOLDS,
    PreferenceArrays,
    fuzzy_preference,
    preference_value,
)

import oracles


def spec(shape, q=0.0, p=0.0, s=0.0, direction="maximize"):
    return PreferenceSpec(shape=shape, q=q, p=p, s=s, direction=direction)


# frozen point values per shape: (spec kwargs, difference, expected degree)
POINT_CASES = [
    ({"shape": "usual"}, -1.0, 0.0),
    ({"shape": "usual"}, 0.0, 0.0),
    ({"shape": "usual"}, 1e-9, 1.0),
    ({"shape": "u-shape", "q": 0.5}, 0.5, 0.0),
    ({"shape": "u-shape", "q": 0.5}, 0.6, 1.0),
    ({"shape": "v-shape", "p": 2.0}, 1.0, 0.5),
    ({"shape": "v-shape", "p": 2.0}, 2.0, 1.0),
    ({"shape": "v-shape", "p": 2.0}, 3.0, 1.0),
    ({"shape": "level", "q": 1.0, "p": 3.0}, 1.0, 0.0),
    ({"shape": "level", "q": 1.0, "p": 3.0}, 2.0, 0.5),
    ({"shape": "level", "q": 1.0, "p": 3.0}, 3.0, 0.5),
    ({"shape": "level", "q": 1.0, "p": 3.0}, 4.0, 1.0),
    ({"shape": "linear", "q": 1.0, "p": 3.0}, 1.0, 0.0),
    ({"shape": "linear", "q": 1.0, "p": 3.0}, 1.5, 0.25),
    ({"shape": "linear", "q": 1.0, "p": 3.0}, 2.0, 0.5),
    ({"shape": "linear", "q": 1.0, "p": 3.0}, 3.0, 1.0),
    ({"shape": "gaussian", "s": 1.0}, 1.0, 1.0 - math.exp(-0.5)),
    ({"shape": "gaussian", "s": 1.0}, -1.0, 0.0),
]


@pytest.mark.parametrize("kwargs, d, expected", POINT_CASES)
def test_point_values(kwargs, d, expected):
    assert preference_value(spec(**kwargs), d) == pytest.approx(expected)


@pytest.mark.parametrize("kwargs, d, expected", POINT_CASES)
def test_point_values_match_oracle(kwargs, d, expected):
    model = {"q": 0.0, "p": 0.0, "s": 0.0, **kwargs}
    assert oracles.pref_value(model, d) == pytest.approx(expected)


def test_unused_thresholds_must_be_zero():
    with pytest.raises(ValueError):
        spec("usual", q=0.1)
    with pytest.raises(ValueError):
        spec("u-shape", q=0.5, p=1.0)
    with pytest.raises(ValueError):
        spec("v-shape", p=1.0, s=0.5)
    with pytest.raises(ValueError):
        spec("gaussian", s=1.0, q=0.1)


def test_shape_specific_constraints():
    with pytest.raises(ValueError):
        spec("v-shape", p=0.0)           # needs a positive preference threshold
    with pytest.raises(ValueError):
        spec("linear", q=1.0, p=1.0)     # strict q < p
    with pytest.raises(ValueError):
        spec("level", q=2.0, p=1.0)      # q <= p
    with pytest.raises(ValueError):
        spec("gaussian", s=0.0)
    with pytest.raises(ValueError):
        spec("banana")
    nan, inf = math.nan, math.inf
    for bad in (dict(shape="gaussian", s=nan), dict(shape="gaussian", s=inf),
                dict(shape="linear", q=nan, p=1.0), dict(shape="linear", q=0.0, p=inf),
                dict(shape="level", q=0.5, p=nan), dict(shape="u-shape", q=inf)):
        with pytest.raises(ValueError):
            spec(**bad)                  # thresholds must be finite
    spec("level", q=1.0, p=1.0)          # level tolerates q == p


def test_minimize_mirrors_swapped_arguments():
    s_max = spec("linear", q=0.5, p=2.0)
    s_min = spec("linear", q=0.5, p=2.0, direction="minimize")
    a, b = TFN(4, 0.3, 0.2), TFN(2.5, 0.1, 0.4)
    assert fuzzy_preference(s_min, a, b) == fuzzy_preference(s_max, b, a)


def test_crisp_inputs_give_crisp_preference():
    s = spec("linear", q=0.0, p=2.0)
    out = fuzzy_preference(s, TFN(3), TFN(2))
    assert out.is_crisp
    assert out.m == pytest.approx(0.5)


def test_fuzzy_preference_components():
    # difference (1; 0.5; 0.5): degrees at 0.5, 1 and 1.5 under p = 2
    s = spec("v-shape", p=2.0)
    out = fuzzy_preference(s, TFN(3, 0.25, 0.25), TFN(2, 0.25, 0.25))
    assert out.m == pytest.approx(0.5)
    assert out.alpha == pytest.approx(0.25)
    assert out.beta == pytest.approx(0.25)


SHAPE_SPECS = [
    spec("usual"),
    spec("u-shape", q=0.3),
    spec("v-shape", p=1.5),
    spec("level", q=0.5, p=2.0),
    spec("linear", q=0.5, p=2.0),
    spec("gaussian", s=0.8),
]
shape_specs = st.sampled_from(SHAPE_SPECS)
diffs = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(shape_specs, diffs)
def test_degree_bounds(s, d):
    v = preference_value(s, d)
    assert 0.0 <= v <= 1.0


@given(shape_specs, diffs)
def test_no_preference_without_advantage(s, d):
    assert preference_value(s, -abs(d)) == 0.0


@given(shape_specs, diffs, diffs)
def test_degree_monotone(s, d1, d2):
    lo, hi = sorted((d1, d2))
    assert preference_value(s, lo) <= preference_value(s, hi) + 1e-12


@given(shape_specs,
       st.floats(min_value=-5, max_value=5, allow_nan=False),
       st.floats(min_value=0, max_value=1, allow_nan=False),
       st.floats(min_value=0, max_value=1, allow_nan=False))
def test_fuzzy_degree_is_valid_tfn(s, m, alpha, beta):
    a = TFN(m, alpha, beta)
    b = TFN(0.0, 0.25, 0.25)
    out = fuzzy_preference(s, a, b)
    # monotone shapes give nonnegative spreads, and every corner of the
    # fuzzy degree stays inside [0, 1]
    assert out.alpha >= -1e-12
    assert out.beta >= -1e-12
    assert -1e-12 <= out.m - out.alpha
    assert out.m + out.beta <= 1 + 1e-12


def test_all_shapes_enumerated():
    assert SHAPES == ("usual", "u-shape", "v-shape", "level", "linear", "gaussian")


@st.composite
def any_spec(draw):
    """Any of the six shapes, either direction, thresholds drawn at random."""
    shape = draw(st.sampled_from(SHAPES))
    reads = THRESHOLDS[shape]
    q = draw(st.floats(min_value=0, max_value=2)) if "q" in reads else 0.0
    p = q + draw(st.floats(min_value=0.01, max_value=3)) if "p" in reads else 0.0
    s = draw(st.floats(min_value=0.05, max_value=3)) if "s" in reads else 0.0
    return spec(shape, q=q, p=p, s=s, direction=draw(st.sampled_from(("maximize", "minimize"))))


# evaluations close enough that their differences cross every threshold
tfns = st.builds(TFN, st.floats(min_value=-2, max_value=2),
                 st.floats(min_value=0, max_value=1.5), st.floats(min_value=0, max_value=1.5))


#: Per-draw scales of the thresholds in the array check below, each keeping
#: a spec valid, and that check's (pairs, criteria, draws) differences.
DRAW_SCALES = (1.0, 0.5, 2.0)
GRID = (2, len(SHAPE_SPECS), len(DRAW_SCALES))


@settings(max_examples=300)
@given(any_spec(), diffs, tfns, tfns,
       st.lists(diffs, min_size=math.prod(GRID), max_size=math.prod(GRID)))
def test_scalar_api_matches_the_oracle(s, d, a, b, grid):
    model = {"shape": s.shape, "q": s.q, "p": s.p, "s": s.s, "direction": s.direction}
    assert abs(preference_value(s, d) - oracles.pref_value(model, d)) <= 1e-12
    got = fuzzy_preference(s, a, b)
    want = oracles.pref_fuzzy(model, (a.m, a.alpha, a.beta), (b.m, b.alpha, b.beta))
    assert max(abs(x - y) for x, y in zip((got.m, got.alpha, got.beta), want)) <= 1e-12
    # the array kernel, criteria (all six shapes) and draws on the trailing
    # axes of ``grid`` and each draw with its own thresholds, gives
    # preference_value's degree element by element
    specs = [[dataclasses.replace(x, q=x.q * k, p=x.p * k) for k in DRAW_SCALES]
             for x in SHAPE_SPECS]
    q, p = (np.array([[getattr(x, name) for x in row] for row in specs]) for name in "qp")
    grid = np.array(grid).reshape(GRID)
    degrees = PreferenceArrays.of(SHAPE_SPECS, thresholds=(q, p)).degrees(grid)
    for (i, t, j), value in np.ndenumerate(degrees):
        assert value == preference_value(specs[t][j], grid[i, t, j])
