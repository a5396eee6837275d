"""The canonical 3-state market in closed form: the paper's worked examples.

A law with mass 1/3 on each of x < y < z, priced by the kernels (3u, 3 - 9u, 6u)
for u in [0, 1/3]: the sign of delta1 = 2x - 3y + z decides the four values and
optimizer tables, perfect cost-efficiency, attainability and the KKM view of
maximin.  No LP or market is needed, so this module imports neither; the
market form of ``is_perfectly_cost_efficient`` imports the generic solvers.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from ._numbers import Num, Problem, all_exact, is_exact, normalize_values, parse_number
from .errors import DimensionMismatchError
from .solution import _VALUE_TOL, KernelSet, Optimizer, SolutionSet, _point, _segment, _values_tie

if TYPE_CHECKING:
    from .distribution import DiscreteDistribution

__all__ = [
    "ThreeStateTarget", "KkmDiagnostics", "three_state_closed_form",
    "is_perfectly_cost_efficient", "is_attainable_payoff", "attainable_permutations",
    "attainable_cost_efficient_payoffs", "kkm_diagnostics",
]

_FIFTH = Fraction(1, 5)
_QUARTER = Fraction(1, 4)
_THIRD = Fraction(1, 3)


def _is_instance(obj, module: str, name: str) -> bool:
    """isinstance against a class of effico.<module>, which is False unless it is loaded."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return mod is not None and isinstance(obj, getattr(mod, name))


@dataclass(frozen=True)
class ThreeStateTarget:
    """Strictly ordered target values x < y < z on three equiprobable states.

    ``delta1 = 2x - 3y + z`` drives the case split of the closed forms;
    ``delta2 = x - 3y + 2z`` refines the minimax case.  delta2 > delta1
    always, so delta1 >= 0 forces delta2 > 0.
    """

    x: Num
    y: Num
    z: Num

    def __post_init__(self):
        x, y, z = normalize_values((self.x, self.y, self.z))
        if not (x < y < z):
            raise ValueError(f"target values must satisfy x < y < z, got {x}, {y}, {z}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def delta1(self) -> Num:
        return 2 * self.x - 3 * self.y + self.z

    @property
    def delta2(self) -> Num:
        return self.x - 3 * self.y + 2 * self.z

    @property
    def is_exact(self) -> bool:
        return all_exact((self.x, self.y, self.z))

    def values(self) -> tuple[Num, Num, Num]:
        return (self.x, self.y, self.z)

    def distribution(self) -> DiscreteDistribution:
        from .distribution import DiscreteDistribution

        return DiscreteDistribution((self.x, self.y, self.z))


def _as_target(obj) -> ThreeStateTarget:
    if isinstance(obj, ThreeStateTarget):
        return obj
    if _is_instance(obj, "distribution", "DiscreteDistribution"):
        vals = obj.values
    else:
        vals = tuple(obj)
    if len(vals) != 3:
        raise DimensionMismatchError("a three-state target needs exactly 3 values")
    return ThreeStateTarget(*vals)


def _kernel_weights_at(u: Num) -> tuple[Num, ...]:
    # canonical 3-state family (3u, 3-9u, 6u)
    return (3 * u, 3 - 9 * u, 6 * u)


def _kernel_point(u: Num) -> KernelSet:
    w = _kernel_weights_at(u)
    return KernelSet(weights=w, u=u, boundary=any(v == 0 for v in w))


def _kernel_range(lo: Num, hi: Num) -> KernelSet:
    boundary = any(v == 0 for v in _kernel_weights_at(lo) + _kernel_weights_at(hi))
    return KernelSet(u_range=(lo, hi), boundary=boundary)


def three_state_closed_form(target, problem: Problem) -> SolutionSet:
    """Exact value and optimizer table for the canonical 3-state market.

    All four problems share their value when delta1 = 0 (the perfectly
    cost-efficient case) and then also share the optimizer family
    ((z, y, x), xi^u) for u in [1/5, 1/4].
    """
    target = _as_target(target)
    x, y, z = target.values()
    d1 = target.delta1

    if problem is Problem.MINIMAX:
        value = (2 * x + z) / 3 if d1 > 0 else y
    elif d1 > 0:
        value = (2 * x + y + z) / 4
    elif d1 == 0:
        value = y
    else:
        value = (2 * x + 2 * y + z) / 5

    opts: list[Optimizer]
    if problem is Problem.MAXIMIN:
        if d1 > 0:
            opts = [
                Optimizer(_point((z, y, x)), _kernel_point(_QUARTER)),
                Optimizer(_point((y, z, x)), _kernel_point(_QUARTER)),
            ]
        elif d1 == 0:
            opts = [
                Optimizer(_point((z, x, y)), _kernel_point(_FIFTH)),
                Optimizer(_point((y, z, x)), _kernel_point(_QUARTER)),
                Optimizer(_point((z, y, x)), _kernel_range(_FIFTH, _QUARTER)),
            ]
        else:
            opts = [
                Optimizer(_point((z, x, y)), _kernel_point(_FIFTH)),
                Optimizer(_point((z, y, x)), _kernel_point(_FIFTH)),
            ]
    elif problem is Problem.CONVEXIFIED_MAXIMIN:
        upper = Optimizer(
            _segment((z, y, x), (-1, 1, 0), z - y), _kernel_point(_QUARTER)
        )
        lower = Optimizer(
            _segment((z, y, x), (0, -1, 1), y - x), _kernel_point(_FIFTH)
        )
        if d1 > 0:
            opts = [upper]
        elif d1 == 0:
            opts = [
                Optimizer(_point((z, y, x)), _kernel_range(_FIFTH, _QUARTER)),
                upper,
                lower,
            ]
        else:
            opts = [lower]
    elif problem is Problem.CONVEXIFIED_MINIMAX:
        if d1 >= 0:
            z_star = ((3 * y + 3 * z - 2 * x) / 4, (2 * x + y + z) / 4, x)
        else:
            z_star = (z, (2 * x + 2 * y + z) / 5, (3 * x + 3 * y - z) / 5)
        opts = [Optimizer(_point(z_star), _kernel_range(Fraction(0), _THIRD))]
    elif problem is Problem.MINIMAX:
        if d1 > 0:
            opts = [Optimizer(_point((z, y, x)), _kernel_point(_THIRD))]
        elif d1 == 0:
            opts = [Optimizer(_point((z, y, x)), _kernel_range(Fraction(0), _THIRD))]
        else:
            d2 = target.delta2
            if d2 > 0:
                opts = [Optimizer(_point((z, y, x)), _kernel_point(Fraction(0)))]
            elif d2 == 0:
                opts = [
                    Optimizer(_point((x, y, z)), _kernel_range(Fraction(0), _THIRD)),
                    Optimizer(_point((z, y, x)), _kernel_point(Fraction(0))),
                ]
            else:
                opts = [
                    Optimizer(_point((x, y, z)), _kernel_point(Fraction(0))),
                    Optimizer(_point((z, y, x)), _kernel_point(Fraction(0))),
                ]
    else:
        raise ValueError(f"unknown problem {problem!r}")
    return SolutionSet(problem, value, tuple(opts))


# ---------------------------------------------------------- characterizations


def is_perfectly_cost_efficient(target, dist=None, tol: float = _VALUE_TOL) -> bool:
    """Whether the cheapest superhedge of the distribution has that distribution.

    Three-state targets are tested by the exact criterion z = 3y - 2x;
    a (market, dist) pair is tested by comparing minimax and maximin values.
    """
    if _is_instance(target, "market", "DiscreteMarket"):
        if dist is None:
            raise TypeError("a distribution is required alongside a market")
        from .distribution import _as_distribution
        from .efficiency import maximin_cost, minimax_cost

        dist = _as_distribution(dist)
        return _values_tie(minimax_cost(target, dist).value, maximin_cost(target, dist).value, tol)
    target = _as_target(target)
    d1 = target.delta1
    if target.is_exact:
        return d1 == 0
    return abs(d1) < 1e-12


def is_attainable_payoff(payoff: Sequence[Num], tol: float = 1e-12) -> bool:
    """Replicability by bond and stock in the canonical 3-state market.

    A payoff (x1, x2, x3) is attainable iff x1 - 3 x2 + 2 x3 = 0, which is
    also exactly the condition for its price to be kernel-independent.
    """
    vec = tuple(parse_number(v) for v in payoff)
    if len(vec) != 3:
        raise DimensionMismatchError("attainability test expects a 3-state payoff")
    gap = vec[0] - 3 * vec[1] + 2 * vec[2]
    if all_exact(vec):
        return gap == 0
    return abs(gap) < tol


def attainable_permutations(target) -> list[tuple[Num, Num, Num]]:
    """Rearrangements of the target values that are attainable payoffs.

    For x < y < z only (x, y, z) (iff delta2 = 0) and (z, y, x)
    (iff delta1 = 0) can satisfy the replication condition.
    """
    target = _as_target(target)
    x, y, z = target.values()
    out = []
    if is_attainable_payoff((x, y, z)):
        out.append((x, y, z))
    if is_attainable_payoff((z, y, x)):
        out.append((z, y, x))
    return out


def attainable_cost_efficient_payoffs(target) -> list[tuple[tuple[Num, Num, Num], tuple[Num, Num]]]:
    """Attainable payoffs that arise as quantile rearrangements against a kernel.

    The anti-comonotone construction orders the payoff against the kernel
    weights, which only the arrangement (z, y, x) achieves, and only for
    kernels with u in [1/5, 1/4]; combined with attainability this requires
    z = 3y - 2x.  Returns (payoff, u-interval) pairs, empty otherwise.
    """
    target = _as_target(target)
    x, y, z = target.values()
    if not is_attainable_payoff((z, y, x)):
        return []
    return [((z, y, x), (_FIFTH, _QUARTER))]


# ------------------------------------------------------------------ KKM


@dataclass(frozen=True)
class KkmDiagnostics:
    """Best-response structure behind the KKM fixed-point view of maximin.

    ``expected_cost(s, u)`` prices the quantile-transform payoff built at
    parameter u under the kernel at parameter s; ``response_interval(s)``
    is the closed set of u against which s cannot improve, and the
    intersection over all s is exactly the maximin kernel set.
    """

    target: ThreeStateTarget
    intersection: tuple[Num, Num]

    def expected_cost(self, s: Num, u: Num) -> Num:
        s = _snap_param(s)
        u = _snap_param(u)
        for v, name in ((s, "s"), (u, "u")):
            if not 0 < v < _THIRD:
                raise ValueError(f"{name} must lie strictly inside (0, 1/3)")
        x, y, z = self.target.values()
        if u < _FIFTH:
            return x + (-3 * x + 2 * y + z) * s
        if u == _FIFTH:
            return (x + y) / 2 + (z - (x + y) / 2) * s
        if u < _QUARTER:
            return y + (2 * x - 3 * y + z) * s
        if u == _QUARTER:
            return (y + z) / 2 + (2 * x - y - z) * s
        return z + (2 * x + y - 3 * z) * s

    def response_interval(self, s: Num) -> tuple[Num, Num]:
        s = _snap_param(s)
        if not 0 < s < _THIRD:
            raise ValueError("s must lie strictly inside (0, 1/3)")
        d1 = self.target.delta1
        if d1 > 0:
            anchor = _QUARTER
        elif d1 < 0:
            anchor = _FIFTH
        else:
            lo = s if s < _FIFTH else _FIFTH
            hi = s if s > _QUARTER else _QUARTER
            return (lo, hi)
        return (min(s, anchor), max(s, anchor))


def _snap_param(v: Num) -> Num:
    v = parse_number(v)
    if is_exact(v):
        return v
    for a in (_FIFTH, _QUARTER):
        if abs(v - a) < 1e-12:
            return a
    return v


def kkm_diagnostics(target) -> KkmDiagnostics:
    """Response intervals and their intersection for the 3-state maximin game."""
    target = _as_target(target)
    d1 = target.delta1
    if d1 > 0:
        inter = (_QUARTER, _QUARTER)
    elif d1 < 0:
        inter = (_FIFTH, _FIFTH)
    else:
        inter = (_FIFTH, _QUARTER)
    return KkmDiagnostics(target, inter)
