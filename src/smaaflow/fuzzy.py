"""Triangular fuzzy numbers and defuzzification.

A triangular fuzzy number (m; alpha; beta) has its peak at ``m``, a left
spread ``alpha`` and a right spread ``beta``, so its support is the interval
[m - alpha, m + beta].  Spreads are non-negative; a crisp value is the
special case alpha = beta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Supported defuzzification methods.
#:
#: ``centroid``        m + (beta - alpha) / 3, the center of gravity of the
#:                     triangle.
#: ``spread-sum``      m + (beta + alpha) / 3, a variant that sums the
#:                     spreads instead of opposing them.  Kept selectable for
#:                     comparison runs; ``centroid`` is the default
#:                     everywhere.
DEFUZZ_METHODS = ("centroid", "spread-sum")


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Immutable triangular fuzzy number (m; alpha; beta)."""

    m: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if math.isnan(self.m) or not (self.alpha >= 0 and self.beta >= 0):  # NaN fails too
            what = "peak must not be NaN" if math.isnan(self.m) else "spreads must be non-negative"
            raise ValueError(f"{what}, got ({self.m}; {self.alpha}; {self.beta})")

    @property
    def support(self) -> tuple[float, float]:
        return (self.m - self.alpha, self.m + self.beta)

    @property
    def is_crisp(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0

    def __add__(self, other: "TriangularFuzzyNumber") -> "TriangularFuzzyNumber":
        return TriangularFuzzyNumber(
            self.m + other.m, self.alpha + other.alpha, self.beta + other.beta
        )

    def __sub__(self, other: "TriangularFuzzyNumber") -> "TriangularFuzzyNumber":
        # Spreads cross over: the subtrahend's right spread widens the left
        # side of the difference and vice versa.
        return TriangularFuzzyNumber(
            self.m - other.m, self.alpha + other.beta, self.beta + other.alpha
        )

    def scale(self, w: float) -> "TriangularFuzzyNumber":
        """Multiply by a non-negative crisp scalar."""
        if w < 0:
            raise ValueError(f"scaling factor must be non-negative, got {w}")
        return TriangularFuzzyNumber(w * self.m, w * self.alpha, w * self.beta)

    def __rmul__(self, w: float) -> "TriangularFuzzyNumber":
        return self.scale(w)

    def defuzzify(self, method: str = "centroid") -> float:
        if method == "centroid":
            return self.m + (self.beta - self.alpha) / 3.0
        if method == "spread-sum":
            return self.m + (self.beta + self.alpha) / 3.0
        raise ValueError(f"unknown defuzzification method {method!r}")


#: Short alias used throughout the package.
TFN = TriangularFuzzyNumber
