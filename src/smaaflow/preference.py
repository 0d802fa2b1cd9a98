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
kernel vectorized over criteria and, optionally, data draws, both on the
trailing axes; the scalar functions are one-row calls of it, and the flow
engine calls it for whole reference sets of a chunk of draws.  The step
shapes (``usual``, ``u-shape``, ``level``) take at most three values, so
:meth:`PreferenceArrays.add_step_counts` sorts a point into one of at most five
states that fix its degree and its mirror's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fuzzy import TFN

#: Thresholds each shape reads; the others must stay at crisp 0.
THRESHOLDS = {
    "usual": (),
    "u-shape": ("q",),
    "v-shape": ("p",),
    "level": ("q", "p"),
    "linear": ("q", "p"),
    "gaussian": ("s",),
}
SHAPES = tuple(THRESHOLDS)
#: Shapes reading q and p as an ordered pair, each with whether q < p is strict.
ORDERED_PAIRS = {"level": False, "linear": True}
#: Step shapes, each with the thresholds its degree steps at, from (q, p);
#: with 0 <= q <= p, a point's degree changes only where it passes a step t,
#: and its mirror's only where it passes -t.
STEPS = {"usual": lambda q, p: (0.0,), "u-shape": lambda q, p: (q,),
         "level": lambda q, p: (q, p)}
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
        if not all(map(math.isfinite, (self.q, self.p, self.s))):
            raise ValueError("thresholds must be finite")
        if self.q < 0 or self.p < 0 or self.s < 0:
            raise ValueError("thresholds must be non-negative")
        for name in ("q", "p", "s"):
            if name not in THRESHOLDS[self.shape] and getattr(self, name) != 0.0:
                raise ValueError(f"shape {self.shape!r} does not use threshold {name!r}")
        if self.shape == "v-shape" and self.p <= 0:
            raise ValueError("v-shape needs a preference threshold p > 0")
        strict = ORDERED_PAIRS.get(self.shape)
        if strict is not None and (self.p < self.q or strict and self.p == self.q):
            raise ValueError(f"{self.shape} shape needs q {'<' if strict else '<='} p")
        if self.shape == "gaussian" and self.s <= 0:
            raise ValueError("gaussian shape needs s > 0")


def _gaussian(d, q, p, s, out):
    zero = d <= 0.0  # taken first: ``out`` may be ``d``
    np.divide(-(d * d), 2.0 * s * s, out=out)
    np.subtract(1.0, np.exp(out, out=out), out=out)
    np.copyto(out, 0.0, where=zero)


#: Each shape's degree as a function of (d, q, p, s), written elementwise
#: into ``out``, which may be ``d`` itself.
_KERNELS = {
    "usual": lambda d, q, p, s, out: np.greater(d, 0.0, out=out),
    "u-shape": lambda d, q, p, s, out: np.greater(d, q, out=out),
    "v-shape": lambda d, q, p, s, out: np.clip(np.divide(d, p, out=out), 0.0, 1.0, out=out),
    "level": lambda d, q, p, s, out: np.add(0.5 * (d > q), 0.5 * (d > p), out=out),
    "linear": lambda d, q, p, s, out: np.clip(
        np.divide(np.subtract(d, q, out=out), p - q, out=out), 0.0, 1.0, out=out),
    "gaussian": _gaussian,
}


class PreferenceArrays(NamedTuple):
    """Shape codes (indices into :data:`SHAPES`), thresholds and directions
    of a run of criteria, one entry per criterion; ``q`` and ``p`` may carry
    a trailing draw axis, (n_criteria, draws).  The vectorized kernel below
    is the one implementation of the six shapes."""

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

    def select(self, index) -> "PreferenceArrays":
        """The arrays of the criteria ``index``, a slice or an index array."""
        return PreferenceArrays(*(v[index] for v in self))

    def runs(self):
        """(start, stop) of each run of neighbouring criteria of one shape."""
        stop = 0
        for _, run in itertools.groupby(self.codes.tolist()):
            start, stop = stop, stop + sum(1 for _ in run)
            yield start, stop

    def degrees(self, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Preference degrees of oriented differences ``d``, whose trailing
        axes are the criteria and, when ``q`` and ``p`` carry one, the draws.

        ``q`` and ``p`` are (n_criteria,), or (n_criteria, draws) to give
        each draw its own thresholds; any leading axes of ``d`` are pair
        axes, over which the thresholds broadcast.  Each run of neighbouring
        criteria of one shape goes through its kernel as a view, whose inner
        loop runs over that run's criteria and draws, so criteria in shape
        order make one kernel call per shape.  The degrees go to ``out``
        when given, which may be ``d`` itself.
        """
        out = np.empty(d.shape) if out is None else out
        s = self.s.reshape(self.s.shape + (1,) * (self.q.ndim - 1))
        pairs = (slice(None),) * (d.ndim - self.q.ndim)
        for lo, hi in self.runs():
            run = pairs + (slice(lo, hi),)
            _KERNELS[SHAPES[self.codes[lo]]](d[run], self.q[lo:hi], self.p[lo:hi], s[lo:hi],
                                             out[run])
        return out

    def add_step_counts(self, d: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add the step count of each oriented difference ``d`` on criteria
        of one step shape (see :data:`STEPS`), laid out as for
        :meth:`degrees`, to ``out``, an integer array shaped like ``d``, and
        return ``out``.

        A point's step count is the number of steps t it lies above
        (d > t) less the number whose mirror it lies below (d < -t), from
        -k to k for k steps: its state, one of 2k + 1.  The degree of d and
        that of its mirror -d depend on its count alone; nan counts 0,
        whose degree both ways is 0, as the kernel gives it.
        """
        hit = np.empty(d.shape, dtype=bool)
        for t in STEPS[SHAPES[self.codes[0]]](self.q, self.p):
            out += np.greater(d, t, out=hit)
            out -= np.less(d, -t, out=hit)
        return out

    def orient(self, x: np.ndarray) -> np.ndarray:
        """(m, alpha, beta) rows (..., n_criteria, 3) turned so that more is
        better on every criterion: a minimized criterion's mode is negated
        and its spreads swap.  Differences of oriented rows are bitwise the
        oriented differences, since (-a) - (-b) rounds like b - a."""
        if self.maximize.all():
            return x
        return np.where(self.maximize[:, None], x, x[..., [0, 2, 1]] * (-1.0, 1.0, 1.0))

    def fuzzy_degrees(self, a: np.ndarray, b: np.ndarray):
        """Degrees P(d), P(d - s_l) and P(d + s_r) of ``a`` over ``b``.

        ``a`` and ``b`` hold one (m, alpha, beta) row per criterion,
        (n_criteria, 3); (d; s_l; s_r) is their difference oriented by each
        direction.
        """
        a, b = self.orient(a), self.orient(b)
        d = a[..., 0] - b[..., 0]
        return (self.degrees(d), self.degrees(d - (a[..., 1] + b[..., 2])),
                self.degrees(d + (a[..., 2] + b[..., 1])))


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
