"""One-period expected-utility maximization in the 3-state market.

Every candidate optimal terminal wealth can be reduced to the attainable
form (3x0 - 2x, x0, x) with x <= x0: such payoffs cost exactly x0 under
every pricing kernel and their sorted law is perfectly cost-efficient.
Maximizing expected utility over x yields the first-order condition
u'(x) = 2 u'(3x0 - 2x), solved here numerically for any concave utility
and in closed form for log, exponential and power utilities.

A grid-search diagnostic over static stock positions theta (payoff
(x0 + 2 theta, x0, x0 - theta)) is included for studying non-concave
objectives, together with a cost-efficiency check for arbitrary payoffs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from ._numbers import Num, normalize_values
from .errors import BracketError, InfeasibleError, NumericalError

__all__ = [
    "LogUtility",
    "ExpUtility",
    "PowerUtility",
    "CustomUtility",
    "UtilityKind",
    "utility_from_name",
    "WealthSolution",
    "optimal_wealth",
    "closed_form_wealth",
    "share_payoff",
    "GridSearchResult",
    "share_grid_search",
    "EfficiencyReport",
    "cost_efficiency_check",
]

_FOC_TOL = 1e-12
_AGREE_TOL = 1e-10
_EPS = 1e-12


@dataclass(frozen=True)
class LogUtility:
    """u(x) = ln x on x > 0."""

    def value(self, x: float) -> float:
        return math.log(x)

    def marginal(self, x: float) -> float:
        return 1.0 / x

    def bracket(self, x0: float) -> tuple[float, float]:
        return (_EPS * x0, x0 * (1.0 - _EPS))

    def closed_form_x_star(self, x0: float) -> float:
        return 0.75 * x0


@dataclass(frozen=True)
class ExpUtility:
    """u(x) = -exp(-x) on the whole line."""

    def value(self, x: float) -> float:
        return -math.exp(-x)

    def marginal(self, x: float) -> float:
        return math.exp(-x)

    def bracket(self, x0: float) -> tuple[float, float]:
        return (x0 - 10.0, x0 - _EPS)

    def closed_form_x_star(self, x0: float) -> float:
        return x0 - math.log(2.0) / 3.0


@dataclass(frozen=True)
class PowerUtility:
    """u(x) = x^alpha / alpha on x > 0, for alpha < 1, alpha != 0."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (math.isfinite(a) and a < 1.0 and a != 0.0):
            raise ValueError(f"power utility needs a finite alpha < 1 and alpha != 0, got {a}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", a / (a - 1.0))

    def value(self, x: float) -> float:
        return x ** self.alpha / self.alpha

    def marginal(self, x: float) -> float:
        return x ** (self.alpha - 1.0)

    def bracket(self, x0: float) -> tuple[float, float]:
        return (_EPS * x0, x0 * (1.0 - _EPS))

    def closed_form_x_star(self, x0: float) -> float:
        b = self.beta
        return 3.0 * x0 * 2.0 ** (b - 1.0) / (1.0 + 2.0**b)


@dataclass(frozen=True)
class CustomUtility:
    """A caller-supplied concave utility with its derivative.

    No numerical differentiation happens inside the solver; the first-order
    condition uses ``marginal`` as given.  The root search runs on the same
    (0, x0) bracket as the log case and fails with ``BracketError`` when the
    condition has no sign change there.
    """

    u: Callable[[float], float]
    u_prime: Callable[[float], float]

    def value(self, x: float) -> float:
        return self.u(x)

    def marginal(self, x: float) -> float:
        return self.u_prime(x)

    def bracket(self, x0: float) -> tuple[float, float]:
        return (_EPS * x0, x0 * (1.0 - _EPS))

    def closed_form_x_star(self, x0: float) -> Optional[float]:
        return None


UtilityKind = Union[LogUtility, ExpUtility, PowerUtility, CustomUtility]


def utility_from_name(name: str, alpha: Optional[float] = None) -> UtilityKind:
    key = name.strip().lower()
    if alpha is not None and key in ("log", "exp"):
        raise ValueError(f"{key} utility takes no alpha, got {alpha}")
    if key == "log":
        return LogUtility()
    if key == "exp":
        return ExpUtility()
    if key == "power":
        if alpha is None:
            raise ValueError("power utility requires alpha")
        return PowerUtility(alpha)
    raise ValueError(f"unknown utility kind {name!r}")


@dataclass(frozen=True)
class WealthSolution:
    """Optimal terminal wealth (3x0 - 2x*, x0, x*) and its expected utility."""

    x_star: float
    x0: float
    payoff: tuple[float, float, float]
    value: float

    @property
    def hedge(self) -> float:
        """Stock position replicating the payoff from initial capital x0."""
        return 2.0 * (self.x0 - self.x_star)


def _mean_utility(kind: UtilityKind, payoff: Sequence[float]) -> float:
    return math.fsum(kind.value(v) for v in payoff) / len(payoff)


def _bisect(g: Callable[[float], float], lo: float, hi: float, g_lo: float, g_hi: float) -> float:
    """A root of g on [lo, hi], where g(lo) and g(hi) differ in sign or vanish.

    Halves the bracket until its ends are adjacent floats and returns the
    end with the smaller |g|.
    """
    if g_lo == 0.0 or g_hi == 0.0:
        return lo if g_lo == 0.0 else hi
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo if abs(g_lo) <= abs(g_hi) else hi
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid


def optimal_wealth(kind: UtilityKind, x0: float) -> WealthSolution:
    """Maximize expected utility over attainable wealth profiles.

    Solves u'(x) = 2 u'(3x0 - 2x) by bisection down to adjacent floats;
    g(x) = u'(x) - 2u'(3x0 - 2x) is strictly decreasing for concave u, so
    the root is unique.  Closed-form kinds are cross-checked against their
    analytic solution to 1e-10 and returned in analytic form.
    """
    x0 = float(x0)
    if not 0 < x0 < math.inf:
        raise ValueError(f"initial capital must be positive and finite, got {x0}")

    def g(x: float) -> float:
        return kind.marginal(x) - 2.0 * kind.marginal(3.0 * x0 - 2.0 * x)

    lo, hi = kind.bracket(x0)
    g_lo, g_hi = g(lo), g(hi)
    if not g_lo * g_hi <= 0.0:
        raise BracketError(
            f"first-order condition has no sign change on [{lo}, {hi}]"
        )
    root = _bisect(g, lo, hi, g_lo, g_hi)
    residual = g(root)
    if abs(residual) > _FOC_TOL:
        raise NumericalError(
            f"first-order condition residual {residual:.3e} exceeds {_FOC_TOL}"
        )
    analytic = kind.closed_form_x_star(x0)
    if analytic is not None:
        if abs(root - analytic) > _AGREE_TOL * max(1.0, abs(x0)):
            raise NumericalError(
                f"numeric root {root!r} disagrees with analytic value {analytic!r}"
            )
        root = analytic
    payoff = (3.0 * x0 - 2.0 * root, x0, root)
    return WealthSolution(root, x0, payoff, _mean_utility(kind, payoff))


def closed_form_wealth(kind: UtilityKind, x0: float) -> WealthSolution:
    """Optimal wealth via the static-hedge formulas x0 + h*u_tick, x0, x0 + h*d_tick.

    The complete-market solution with up tick 1, down tick -1/2 and
    risk-neutral up probability 1/3 lands exactly on the incomplete-market
    optimum; this builds it from the hedge-parametrized expressions and
    verifies agreement with ``optimal_wealth`` to 1e-10.
    """
    x0 = float(x0)
    if not 0 < x0 < math.inf:
        raise ValueError(f"initial capital must be positive and finite, got {x0}")
    if isinstance(kind, LogUtility):
        q = 1.0 / 3.0
        payoff = (x0 / (2.0 * q), x0, x0 / (2.0 * (1.0 - q)))
    elif isinstance(kind, ExpUtility):
        h = (2.0 / 3.0) * math.log(2.0)
        payoff = (x0 + h, x0, x0 - h / 2.0)
    elif isinstance(kind, PowerUtility):
        b = kind.beta
        payoff = (
            3.0 * x0 / (1.0 + 2.0**b),
            x0,
            3.0 * x0 * 2.0 ** (b - 1.0) / (1.0 + 2.0**b),
        )
    else:
        raise TypeError("closed forms exist only for log, exp and power utilities")
    numeric = optimal_wealth(kind, x0)
    gap = max(abs(a - b) for a, b in zip(payoff, numeric.payoff))
    if gap > _AGREE_TOL * max(1.0, abs(x0)):
        raise NumericalError(
            f"static-hedge payoff deviates from the solver optimum by {gap:.3e}"
        )
    return WealthSolution(payoff[2], x0, payoff, _mean_utility(kind, payoff))


# ------------------------------------------------------------ grid search


def share_payoff(x0: float, theta: float) -> tuple[float, float, float]:
    """Terminal wealth from holding theta stock shares: (x0+2t, x0, x0-t).

    Attainable for every theta, hence always worth exactly x0.
    """
    return (x0 + 2.0 * theta, x0, x0 - theta)


@dataclass(frozen=True)
class GridSearchResult:
    theta: float
    payoff: tuple[float, float, float]
    value: float
    reference_theta: Optional[float] = None
    reference_payoff: Optional[tuple[float, float, float]] = None
    reference_value: Optional[float] = None


def _objective_at(objective: Callable[[float], float], payoff: Sequence[float]) -> float:
    try:
        vals = [float(objective(v)) for v in payoff]
    except (ValueError, OverflowError, ZeroDivisionError):
        return -math.inf
    total = math.fsum(vals) / len(vals)
    if math.isnan(total):
        return -math.inf
    return total


def share_grid_search(
    objective: Callable[[float], float],
    x0: float,
    step: float,
    theta_range: Optional[tuple[float, float]] = None,
    allow_negative_payoff: bool = False,
    reference_theta: Optional[float] = None,
) -> GridSearchResult:
    """Exhaustive search of (1/3) sum U(payoff_i(theta)) over a theta grid.

    The default grid covers [-x0/2, x0], the range on which the payoff
    stays nonnegative; ``allow_negative_payoff`` switches to [-x0, x0/2]
    instead.  Objectives may signal infeasible wealth levels by raising
    ValueError / OverflowError / ZeroDivisionError or returning nan; such
    grid points are skipped.  When ``reference_theta`` is given, the
    objective there is reported alongside the grid maximum without any
    claim that the two agree.
    """
    x0 = float(x0)
    step = float(step)
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if theta_range is not None:
        lo, hi = float(theta_range[0]), float(theta_range[1])
    elif allow_negative_payoff:
        lo, hi = -x0, x0 / 2.0
    else:
        lo, hi = -x0 / 2.0, x0
    if hi < lo:
        raise InfeasibleError(f"empty share range [{lo}, {hi}]")

    count = int(math.floor((hi - lo) / step + 1e-9))
    thetas = [lo + i * step for i in range(count + 1)]
    if thetas[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        thetas.append(hi)

    best_theta: Optional[float] = None
    best_payoff: Optional[tuple[float, float, float]] = None
    best_value = -math.inf
    for theta in thetas:
        payoff = share_payoff(x0, theta)
        val = _objective_at(objective, payoff)
        if val > best_value:
            best_theta, best_payoff, best_value = theta, payoff, val
    if best_theta is None:
        raise InfeasibleError("objective is undefined at every grid point")

    ref_payoff = ref_value = None
    if reference_theta is not None:
        reference_theta = float(reference_theta)
        ref_payoff = share_payoff(x0, reference_theta)
        ref_value = _objective_at(objective, ref_payoff)
    return GridSearchResult(
        best_theta, best_payoff, best_value, reference_theta, ref_payoff, ref_value
    )


# ------------------------------------------------------- efficiency check


@dataclass(frozen=True)
class EfficiencyReport:
    """Cost-efficiency verdict for one payoff in the canonical 3-state market.

    ``floor_value`` is the largest kernel-by-kernel lower price bound of the
    payoff's law, ``superhedge_value`` the cheapest superhedge over payoffs
    with exactly that law; the two agree iff the law is perfectly
    cost-efficient.  ``optimizer`` is the cheapest-to-superhedge payoff in
    the convex hull of rearrangements, always dominated by the original in
    convex order.
    """

    payoff: tuple[Num, ...]
    perfectly_cost_efficient: bool
    optimizer: tuple[Num, ...]
    floor_value: Num
    superhedge_value: Num
    optimizer_dominated: bool


def cost_efficiency_check(payoff: Sequence[Num]) -> EfficiencyReport:
    """Check whether a 3-state payoff's distribution is perfectly cost-efficient.

    Ties among payoff values are allowed; constant payoffs are trivially
    efficient.  Exact (rational) inputs produce exact outputs.
    """
    # the exact solvers load here, so optimal_wealth compiles none of them
    from .distribution import DiscreteDistribution, is_convex_dominated
    from .efficiency import convexified_minimax_cost, maximin_cost, minimax_cost
    from .market import DiscreteMarket
    from .solution import _values_tie

    values = normalize_values(payoff)
    if len(values) != 3:
        raise ValueError("the efficiency check expects a 3-state payoff")
    market = DiscreteMarket.canonical_three_state()
    dist = DiscreteDistribution(values)
    floor = maximin_cost(market, dist)
    hedge = minimax_cost(market, dist)
    convexified = convexified_minimax_cost(market, dist)
    perfect = _values_tie(hedge.value, floor.value)
    optimizer = convexified.optimizers[0].payoff.base
    dominated = is_convex_dominated(optimizer, dist)
    return EfficiencyReport(
        payoff=values,
        perfectly_cost_efficient=perfect,
        optimizer=optimizer,
        floor_value=floor.value,
        superhedge_value=hedge.value,
        optimizer_dominated=dominated,
    )
