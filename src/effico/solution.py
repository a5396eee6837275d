"""Result types of the four problems, shared by ``three_state`` and ``efficiency``.

A ``SolutionSet`` holds an optimal value and every optimizer found: a payoff
point or segment, paired with one kernel or a parameter range of kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._numbers import Num, Problem, format_number, is_exact, parse_number

__all__ = ["PayoffSet", "KernelSet", "Optimizer", "SolutionSet"]

_VALUE_TOL = 1e-9
_MATCH_TOL = 1e-9


def _values_tie(a: Num, b: Num, tol: float = _VALUE_TOL) -> bool:
    """Whether two optimal values tie: exactly if both are exact, else within tol relative to a."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(float(a)))


def _even_points(lo: Num, hi: Num, count: int) -> list[Num]:
    """count evenly spaced points from lo to hi, exact when the span is exact."""
    if count < 2:
        raise ValueError(f"count must be at least 2 to sample a range, got {count}")
    span = hi - lo
    if is_exact(span):
        return [lo + span * Fraction(i, count - 1) for i in range(count)]
    return [lo + span * i / (count - 1) for i in range(count)]


@dataclass(frozen=True, slots=True)
class PayoffSet:
    """A payoff point, or the segment base + t * step for t in t_range."""

    base: tuple[Num, ...]
    step: Optional[tuple[Num, ...]] = None
    t_range: Optional[tuple[Num, Num]] = None

    @property
    def is_segment(self) -> bool:
        return self.step is not None

    def at(self, t: Num) -> tuple[Num, ...]:
        if not self.is_segment:
            return self.base
        t = parse_number(t)
        return tuple(b + t * s for b, s in zip(self.base, self.step))

    def sample(self, count: int = 5) -> list[tuple[Num, ...]]:
        """Representative payoffs: the point itself, or count points per segment."""
        if not self.is_segment:
            return [self.base]
        return [self.at(t) for t in _even_points(*self.t_range, count)]

    def contains(self, payoff: Sequence[Num], tol: float = _MATCH_TOL) -> bool:
        vec = tuple(parse_number(v) for v in payoff)
        if len(vec) != len(self.base):
            return False
        if not self.is_segment:
            return all(abs(a - b) <= tol for a, b in zip(vec, self.base))
        k = next(i for i, s in enumerate(self.step) if s != 0)
        t = (vec[k] - self.base[k]) / self.step[k]
        t0, t1 = self.t_range
        if t < t0 - tol or t > t1 + tol:
            return False
        return all(abs(v - (b + t * s)) <= tol for v, b, s in zip(vec, self.base, self.step))


@dataclass(frozen=True, slots=True)
class KernelSet:
    """The kernel side of an optimizer: a single kernel or a parameter range."""

    weights: Optional[tuple[Num, ...]] = None
    u: Optional[Num] = None
    u_range: Optional[tuple[Num, Num]] = None
    boundary: bool = False

    def contains_u(self, u: Num, tol: float = _MATCH_TOL) -> bool:
        u = parse_number(u)
        if self.u_range is not None:
            lo, hi = self.u_range
            return lo - tol <= u <= hi + tol
        if self.u is not None:
            return abs(u - self.u) <= tol
        return False

    def sample_u(self, count: int = 5) -> list[Num]:
        if self.u_range is None:
            return [] if self.u is None else [self.u]
        return _even_points(*self.u_range, count)


@dataclass(frozen=True, slots=True)
class Optimizer:
    payoff: PayoffSet
    kernel: KernelSet

    def to_dict(self, decimal: bool = False) -> dict:
        out: dict = {"Z": [format_number(v, decimal) for v in self.payoff.base]}
        if self.payoff.is_segment:
            out["Z_step"] = [format_number(v, decimal) for v in self.payoff.step]
            out["t_range"] = [format_number(v, decimal) for v in self.payoff.t_range]
        kd: dict = {}
        if self.kernel.u_range is not None:
            kd["u_range"] = [format_number(v, decimal) for v in self.kernel.u_range]
        elif self.kernel.u is not None:
            kd["u"] = format_number(self.kernel.u, decimal)
        elif self.kernel.weights is not None:
            kd["weights"] = [format_number(v, decimal) for v in self.kernel.weights]
        out["kernel"] = kd
        out["boundary"] = self.kernel.boundary
        return out


@dataclass(frozen=True, slots=True)
class SolutionSet:
    """Optimal value plus every optimizer pair found (points and segments)."""

    problem: Problem
    value: Num
    optimizers: tuple[Optimizer, ...]

    def contains(self, payoff: Sequence[Num], u: Num | None = None, tol: float = _MATCH_TOL) -> bool:
        """True when some listed optimizer covers the payoff (and kernel, if given)."""
        for opt in self.optimizers:
            if not opt.payoff.contains(payoff, tol):
                continue
            if u is None or opt.kernel.contains_u(u, tol):
                return True
        return False

    def to_dict(self, decimal: bool = False) -> dict:
        return {
            "problem": self.problem.value,
            "value": format_number(self.value, decimal),
            "optimizers": [opt.to_dict(decimal) for opt in self.optimizers],
        }


def _point(values: Sequence[Num]) -> PayoffSet:
    return PayoffSet(tuple(values))


def _segment(base: Sequence[Num], step: Sequence[Num], hi: Num) -> PayoffSet:
    zero = Fraction(0) if is_exact(hi) else 0.0
    return PayoffSet(tuple(base), tuple(step), (zero, hi))
