"""Generalized criteria: pairwise preference functions, crisp and fuzzy.

Six preference shapes are supported, keyed by the names below.  Each maps an
oriented evaluation difference d (positive when the first argument is better)
to a preference degree in [0, 1]:

``usual``      step at 0
``u-shape``    step at the indifference threshold q
``v-shape``    linear ramp from 0 to the preference threshold p
``level``      0 below q, 0.5 between q and p, 1 above p
``linear``     0 below q, linear ramp between q and p, 1 above p
``gaussian``   1 - exp(-d^2 / 2 s^2) for d > 0

Fuzzy evaluations are compared by pushing the three points of the fuzzy
difference through the crisp shape, which yields a fuzzy preference degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fuzzy import TFN

#: Thresholds each shape reads; the others must stay at 0.
THRESHOLDS = {
    "usual": (),
    "u-shape": ("q",),
    "v-shape": ("p",),
    "level": ("q", "p"),
    "linear": ("q", "p"),
    "gaussian": ("s",),
}
SHAPES = tuple(THRESHOLDS)
DIRECTIONS = ("maximize", "minimize")


@dataclass(frozen=True)
class PreferenceSpec:
    """A preference shape with crisp thresholds and an optimization direction.

    Thresholds a shape does not use must stay at 0.  ``q`` is the
    indifference threshold, ``p`` the preference threshold (q <= p) and ``s``
    the gaussian inflection parameter.
    """

    shape: str = "usual"
    q: float = 0.0
    p: float = 0.0
    s: float = 0.0
    direction: str = "maximize"

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown preference shape {self.shape!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.q < 0 or self.p < 0 or self.s < 0:
            raise ValueError("thresholds must be non-negative")
        for name in ("q", "p", "s"):
            if name not in THRESHOLDS[self.shape] and getattr(self, name) != 0.0:
                raise ValueError(f"shape {self.shape!r} does not use threshold {name!r}")
        if self.shape == "v-shape" and self.p <= 0:
            raise ValueError("v-shape needs a preference threshold p > 0")
        if self.shape == "level" and self.p < self.q:
            raise ValueError("level shape needs q <= p")
        if self.shape == "linear" and self.p <= self.q:
            raise ValueError("linear shape needs q < p")
        if self.shape == "gaussian" and self.s <= 0:
            raise ValueError("gaussian shape needs s > 0")


def preference_value(spec: PreferenceSpec, d: float) -> float:
    """Preference degree for an oriented crisp difference ``d``.

    The caller orients ``d`` so that positive means "first argument better";
    use :func:`fuzzy_preference` to compare raw evaluations.
    """
    shape = spec.shape
    if shape == "usual":
        return 1.0 if d > 0 else 0.0
    if shape == "u-shape":
        return 1.0 if d > spec.q else 0.0
    if shape == "v-shape":
        if d <= 0:
            return 0.0
        return 1.0 if d >= spec.p else d / spec.p
    if shape == "level":
        if d <= spec.q:
            return 0.0
        return 0.5 if d <= spec.p else 1.0
    if shape == "linear":
        if d <= spec.q:
            return 0.0
        if d >= spec.p:
            return 1.0
        return (d - spec.q) / (spec.p - spec.q)
    # gaussian
    if d <= 0:
        return 0.0
    return 1.0 - math.exp(-(d * d) / (2.0 * spec.s * spec.s))


def oriented_difference(spec: PreferenceSpec, a: TFN, b: TFN) -> TFN:
    """Fuzzy difference of two evaluations, oriented by the direction."""
    return a - b if spec.direction == "maximize" else b - a


def fuzzy_preference(spec: PreferenceSpec, a: TFN, b: TFN) -> TFN:
    """Fuzzy preference degree of evaluation ``a`` over evaluation ``b``.

    The oriented difference (d; s_l; s_r) is mapped through the crisp shape
    at its peak and both support ends, giving the fuzzy degree

        (P(d); P(d) - P(d - s_l); P(d + s_r) - P(d)).

    Monotonicity of the shapes keeps both spreads non-negative, and crisp
    inputs come out crisp.
    """
    diff = oriented_difference(spec, a, b)
    pd = preference_value(spec, diff.m)
    left = pd - preference_value(spec, diff.m - diff.alpha)
    right = preference_value(spec, diff.m + diff.beta) - pd
    return TFN(pd, left, right)
