"""Discrete equiprobable distributions, distributional transforms, convex order.

A distribution here is the law of a payoff on n equally likely states: a
sorted multiset of values with cdf steps at multiples of 1/n.  The module
provides the generalized inverse ``quantile``, the distributional transform
used to build cost-efficient payoffs, and the majorization test for the
convex order between equal-size value multisets.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._numbers import Num, all_exact, format_number, normalize_values, parse_number
from .errors import DimensionMismatchError

__all__ = [
    "DiscreteDistribution",
    "TransformValue",
    "distributional_transform",
    "cost_efficient_payoff",
    "is_convex_dominated",
    "in_permutation_hull",
    "mean_preserving_contraction",
]


@dataclass(frozen=True)
class DiscreteDistribution:
    """Sorted values of an equiprobable n-point distribution."""

    values: tuple[Num, ...]

    def __post_init__(self):
        vals = normalize_values(self.values)
        if not vals:
            raise ValueError("a distribution needs at least one value")
        object.__setattr__(self, "values", tuple(sorted(vals)))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.values)

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteDistribution":
        try:
            return cls(data["values"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"distribution JSON needs key 'values': {exc}") from exc

    def to_dict(self, decimal: bool = False) -> dict:
        return {"values": [format_number(v, decimal) for v in self.values]}

    def cdf(self, t: Num) -> Fraction:
        """P(X <= t), always an exact multiple of 1/n."""
        return Fraction(bisect_right(self.values, parse_number(t)), self.n)

    def left_cdf(self, t: Num) -> Fraction:
        """P(X < t), the left limit of the cdf."""
        return Fraction(bisect_left(self.values, parse_number(t)), self.n)

    def quantile(self, p: Num) -> Num:
        """Generalized inverse inf{t : F(t) >= p} for p in (0, 1].

        Float arguments within 1e-9 of a jump point k/n are snapped to the
        jump, so chained cdf/quantile round trips are stable.
        """
        p = parse_number(p)
        if isinstance(p, Fraction):
            if p <= 0 or p > 1:
                raise ValueError(f"quantile level must lie in (0, 1], got {p}")
            idx = math.ceil(p * self.n)
        else:
            if p <= 0 or p > 1 + 1e-12:
                raise ValueError(f"quantile level must lie in (0, 1], got {p}")
            idx = math.ceil(min(p, 1.0) * self.n - 1e-9)
        return self.values[max(idx, 1) - 1]

    def mean(self) -> Num:
        total = sum(self.values)
        if isinstance(total, (int, Fraction)):
            return Fraction(total) / self.n
        return total / self.n


@dataclass(frozen=True)
class TransformValue:
    """Per-state uniform levels U_i of a distributional transform."""

    values: tuple[Num, ...]
    randomized: bool


def distributional_transform(kernel_values: Sequence[Num], draws=None) -> TransformValue:
    """Uniform levels of the empirical law of ``kernel_values``.

    Without ``draws`` each state gets the midpoint (F(x) + F-(x)) / 2 of its
    cdf jump.  With ``draws`` (a sequence of per-state values in [0, 1] or a
    numpy Generator) states whose value is tied with another state get the
    randomized level F-(x) + V * (F(x) - F-(x)); untied states keep their
    midpoint.  With distinct inputs both modes agree and the result is a
    permutation of {(i - 1/2)/n}.
    """
    vals = normalize_values(kernel_values)
    n = len(vals)
    dist = DiscreteDistribution(vals)
    if draws is not None and hasattr(draws, "uniform"):
        draws = [float(v) for v in draws.uniform(size=n)]
    if draws is not None:
        draws = [parse_number(v) for v in draws]
        if len(draws) != n:
            raise DimensionMismatchError("one uniform draw per state required")
        if any(v < 0 or v > 1 for v in draws):
            raise ValueError("uniform draws must lie in [0, 1]")
    out: list[Num] = []
    randomized = False
    atom = Fraction(1, n)
    for i, v in enumerate(vals):
        hi = dist.cdf(v)
        lo = dist.left_cdf(v)
        if draws is not None and hi - lo > atom:
            out.append(lo + draws[i] * (hi - lo))
            randomized = True
        else:
            out.append((hi + lo) / 2)
    return TransformValue(tuple(out), randomized)


def cost_efficient_payoff(
    dist: DiscreteDistribution, kernel_values: Sequence[Num], draws=None
) -> tuple[Num, ...]:
    """The anti-comonotone rearrangement candidate F^{-1}(1 - U_xi) per state.

    States with the largest kernel weight receive the smallest values.  When
    the kernel weights are distinct the result carries exactly the law
    ``dist``; tied weights are resolved through the transform's randomizer.
    A transform level of exactly 1 maps to the smallest value (the p -> 0+
    limit of the generalized inverse).
    """
    transform = distributional_transform(kernel_values, draws)
    out = []
    for u in transform.values:
        p = 1 - u
        out.append(dist.values[0] if p == 0 else dist.quantile(p))
    return tuple(out)


def _as_distribution(obj) -> DiscreteDistribution:
    if isinstance(obj, DiscreteDistribution):
        return obj
    return DiscreteDistribution(tuple(obj))


def is_convex_dominated(a, b) -> bool:
    """True when law(a) precedes law(b) in the convex order.

    For equal-size equiprobable multisets this is the majorization test:
    equal sums and every partial sum of the k largest values of ``a``
    bounded by the corresponding partial sum of ``b``.  Exact comparison for
    rational inputs, tolerance 1e-12 otherwise.
    """
    da, db = _as_distribution(a), _as_distribution(b)
    if da.n != db.n:
        raise DimensionMismatchError("convex order needs equal state counts")
    exact = all_exact(da.values) and all_exact(db.values)
    tol = 0 if exact else 1e-12
    if abs(sum(da.values) - sum(db.values)) > tol:
        return False
    pa = pb = 0
    for va, vb in zip(reversed(da.values), reversed(db.values)):
        pa += va
        pb += vb
        if pa > pb + tol:
            return False
    return True


def in_permutation_hull(payoff: Sequence[Num], dist) -> bool:
    """Membership of a payoff in the convex hull of rearrangements of ``dist``."""
    return is_convex_dominated(tuple(payoff), dist)


def mean_preserving_contraction(dist, t: Num) -> DiscreteDistribution:
    """Move both extreme values inward by ``t``: (v1, .., vn) -> (v1+t, .., vn-t).

    Requires 0 <= t <= (vn - v1)/2; the result is dominated by ``dist`` in
    the convex order and keeps the mean.
    """
    d = _as_distribution(dist)
    t = parse_number(t)
    half_range = (d.values[-1] - d.values[0]) / 2
    slack = 0 if (all_exact(d.values) and isinstance(t, Fraction)) else 1e-12
    if t < -slack or t > half_range + slack:
        raise ValueError(f"contraction size must lie in [0, {half_range}], got {t}")
    new_vals = (d.values[0] + t,) + d.values[1:-1] + (d.values[-1] - t,)
    return DiscreteDistribution(new_vals)
