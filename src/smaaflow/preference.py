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
:class:`PreferenceArrays` holds the one implementation of the shapes, a
kernel vectorized over criteria; the scalar functions are one-row calls of
it, and the flow engine calls it for whole reference sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fuzzy import TFN

#: Thresholds each shape reads; the others must stay at crisp 0.  Only a
#: shape reading both q and p samples them as an ordered pair.
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


#: Each shape's degree as a function of (d, q, p, s), elementwise.
_KERNELS = {
    "usual": lambda d, q, p, s: (d > 0.0).astype(float),
    "u-shape": lambda d, q, p, s: (d > q).astype(float),
    "v-shape": lambda d, q, p, s: np.clip(d / p, 0.0, 1.0),
    "level": lambda d, q, p, s: 0.5 * (d > q) + 0.5 * (d > p),
    "linear": lambda d, q, p, s: np.clip((d - q) / (p - q), 0.0, 1.0),
    "gaussian": lambda d, q, p, s: np.where(d > 0.0, 1.0 - np.exp(-(d * d) / (2.0 * s * s)), 0.0),
}


class PreferenceArrays(NamedTuple):
    """Shape codes (indices into :data:`SHAPES`), thresholds and directions
    of a run of criteria, one entry per criterion.  The vectorized kernel
    below is the one implementation of the six shapes."""

    codes: np.ndarray
    q: np.ndarray
    p: np.ndarray
    s: np.ndarray
    maximize: np.ndarray

    @classmethod
    def of(cls, prefs: Sequence, thresholds=None) -> "PreferenceArrays":
        """Arrays of :class:`PreferenceSpec` entries, or of any entries with
        a ``shape``, ``s`` and ``direction`` given a (q, p) ``thresholds`` pair."""
        if thresholds is None:
            thresholds = np.array([(x.q, x.p) for x in prefs], dtype=float).reshape(-1, 2).T
        q, p = thresholds
        return cls(np.array([SHAPES.index(x.shape) for x in prefs], dtype=np.int64), q, p,
                   np.array([x.s for x in prefs], dtype=float),
                   np.array([x.direction == "maximize" for x in prefs]))

    def degrees(self, d: np.ndarray) -> np.ndarray:
        """Preference degrees of oriented differences; criteria vary along
        the last axis of ``d``."""
        out = np.zeros(d.shape)
        for code, shape in enumerate(SHAPES):
            sel = self.codes == code
            if sel.any():
                out[..., sel] = _KERNELS[shape](d[..., sel], self.q[sel], self.p[sel], self.s[sel])
        return out

    def fuzzy_degrees(self, a: np.ndarray, b: np.ndarray):
        """Degrees P(d), P(d - s_l) and P(d + s_r) of ``a`` over ``b``.

        ``a`` and ``b`` hold (m, alpha, beta) rows, (..., n_criteria, 3);
        (d; s_l; s_r) is their difference oriented by each direction.
        """
        maximize = self.maximize
        d = np.where(maximize, a[..., 0] - b[..., 0], b[..., 0] - a[..., 0])
        s_left = np.where(maximize, a[..., 1] + b[..., 2], a[..., 2] + b[..., 1])
        s_right = np.where(maximize, a[..., 2] + b[..., 1], a[..., 1] + b[..., 2])
        return self.degrees(d), self.degrees(d - s_left), self.degrees(d + s_right)


def preference_value(spec: PreferenceSpec, d: float) -> float:
    """Preference degree for an oriented crisp difference ``d``.

    The caller orients ``d`` so that positive means "first argument better";
    use :func:`fuzzy_preference` to compare raw evaluations.
    """
    return float(PreferenceArrays.of([spec]).degrees(np.array([d], dtype=float))[0])


def fuzzy_preference(spec: PreferenceSpec, a: TFN, b: TFN) -> TFN:
    """Fuzzy preference degree of evaluation ``a`` over evaluation ``b``.

    The difference (d; s_l; s_r), oriented by the direction, is mapped
    through the crisp shape at its peak and both support ends, giving the
    fuzzy degree

        (P(d); P(d) - P(d - s_l); P(d + s_r) - P(d)).

    Monotonicity of the shapes keeps both spreads non-negative, and crisp
    inputs come out crisp.
    """
    rows = (np.array([[x.m, x.alpha, x.beta]]) for x in (a, b))
    pd, lo, hi = (float(v[0]) for v in PreferenceArrays.of([spec]).fuzzy_degrees(*rows))
    return TFN(pd, pd - lo, hi - pd)
