"""Self-contained oracle checks for every module, used by the CLI.

Each suite recomputes a handful of known values through independent
little oracles (direct arithmetic, standalone quadrature, cross-module
comparisons) and reports pass/fail per check.  The full test suite is far
larger; these are the smoke checks shippable inside the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ._numbers import SUITE_NAMES, Problem

# Each suite imports the modules it checks (numpy, scipy, stochvol and utility
# included), so loading verify, or listing its suites, compiles no solver.
__all__ = ["CheckResult", "available_suites", "run_suites"]

_F = Fraction


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _require(cond: bool, detail: str = "") -> None:
    if not cond:
        raise AssertionError(detail)


# ---------------------------------------------------------------- suites


def _market_checks(seed: int):
    from .market import DiscreteMarket, ParametricFamily, kernel_family, price, superhedge_cost

    def kernels():
        fam = kernel_family(DiscreteMarket.canonical_three_state())
        _require(isinstance(fam, ParametricFamily), "expected a one-parameter family")
        k5 = fam.kernel_at(_F(1, 5))
        k4 = fam.kernel_at(_F(1, 4))
        _require(k5.weights == (_F(3, 5), _F(6, 5), _F(6, 5)), f"u=1/5 gave {k5.weights}")
        _require(k4.weights == (_F(3, 4), _F(3, 4), _F(3, 2)), f"u=1/4 gave {k4.weights}")
        _require(not k5.is_boundary and not k4.is_boundary, "interior kernels flagged")
        lo, hi = fam.endpoint_kernels()
        _require(lo.is_boundary and hi.is_boundary, "endpoint kernels not flagged")

    def pricing():
        fam = kernel_family(DiscreteMarket.canonical_three_state())
        got = price(fam.kernel_at(_F(1, 4)), (3, 2, 1))
        _require(got == _F(7, 4), f"price came out {got}")

    def superhedge_flat():
        fam = kernel_family(DiscreteMarket.canonical_three_state())
        res = superhedge_cost(fam, (4, 2, 1))
        _require(res.value == 2, f"value {res.value}")
        _require(res.u_range == (0, _F(1, 3)), f"u_range {res.u_range}")

    def superhedge_boundary():
        fam = kernel_family(DiscreteMarket.canonical_three_state())
        res = superhedge_cost(fam, (3, 2, 1))
        _require(res.value == 2, f"value {res.value}")
        _require(res.any_boundary, "maximizing kernel should be the boundary one")

    return [kernels, pricing, superhedge_flat, superhedge_boundary]


def _distribution_checks(seed: int):
    from .distribution import (
        DiscreteDistribution,
        cost_efficient_payoff,
        distributional_transform,
        in_permutation_hull,
        is_convex_dominated,
    )
    from .market import price

    def quantiles():
        dist = DiscreteDistribution((1, 2, 4))
        _require(dist.quantile(_F(1, 3)) == 1 and dist.quantile(1) == 4)
        _require(dist.quantile(_F(1, 2)) == 2, "mid-level quantile")

    def transform_midpoint():
        got = distributional_transform((_F(3, 4), _F(3, 4), _F(3, 2)))
        _require(got.values == (_F(1, 3), _F(1, 3), _F(5, 6)), f"transform {got.values}")

    def transform_payoff():
        import numpy as np

        # distinct kernel weights, so the candidate is the same rearrangement
        # for every draw; tied weights only guarantee the law, not the path
        rng = np.random.default_rng(seed)
        dist = DiscreteDistribution((1, 2, 4))
        weights = (_F(3, 8), _F(15, 8), _F(3, 4))
        payoff = cost_efficient_payoff(dist, weights, draws=rng)
        _require(payoff == (4, 1, 2), f"anti-comonotone pairing: {payoff}")
        _require(price(weights, payoff) == _F(13, 8), "price should hit the floor value")

    def convex_order():
        _require(is_convex_dominated((_F(3, 2), 2, _F(7, 2)), (1, 2, 4)))
        _require(not is_convex_dominated((1, 2, 4), (_F(3, 2), 2, _F(7, 2))))

    def hull():
        _require(in_permutation_hull((_F(7, 2), 2, _F(3, 2)), (1, 2, 4)))
        _require(not in_permutation_hull((1, 1, 5), (1, 2, 4)))

    return [quantiles, transform_midpoint, transform_payoff, convex_order, hull]


def _lp_checks(seed: int):
    from .lp import LpBuilder, solve_lp

    def corner():
        # min b subject to 1<=a, b<=5, 3<=a+b<=7, a+5b>=16: optimum 9/4 at (19/4, 9/4)
        b = LpBuilder()
        a_var = b.add_var(lo=_F(1))
        b_var = b.add_var(cost=1, hi=_F(5))
        b.add_ub({a_var: -1, b_var: -1}, _F(-3))
        b.add_ub({a_var: 1, b_var: 1}, _F(7))
        b.add_ub({a_var: -1, b_var: -5}, _F(-16))
        sol = solve_lp(b.build())
        _require(sol.status == "optimal", sol.status)
        _require(sol.value == _F(9, 4), f"value {sol.value}")
        _require(sol.x == (_F(19, 4), _F(9, 4)), f"x {sol.x}")

    def unbounded():
        b = LpBuilder()
        b.add_var(cost=-1, lo=0)
        _require(solve_lp(b.build()).status == "unbounded")

    def infeasible():
        b = LpBuilder()
        v = b.add_var(lo=0)
        b.add_ub({v: 1}, -1)
        _require(solve_lp(b.build()).status == "infeasible")

    return [corner, unbounded, infeasible]


def _efficiency_checks(seed: int):
    from .efficiency import solve_problem
    from .market import DiscreteMarket
    from .three_state import ThreeStateTarget, kkm_diagnostics, three_state_closed_form

    market = DiscreteMarket.canonical_three_state()

    def gap_example():
        target = ThreeStateTarget(1, 2, 3)
        _require(three_state_closed_form(target, Problem.MAXIMIN).value == _F(9, 5))
        _require(three_state_closed_form(target, Problem.MINIMAX).value == 2)

    def generic_agrees():
        for triple in ((1, 2, 3), (1, 2, 4), (1, 2, 5), (-2, _F(1, 2), 3)):
            target = ThreeStateTarget(*triple)
            for problem in Problem:
                closed = three_state_closed_form(target, problem).value
                got = solve_problem(market, target.distribution(), problem).value
                _require(got == closed, f"{triple} {problem.value}: {got} != {closed}")

    def shared_family():
        target = ThreeStateTarget(1, 2, 4)
        for problem in Problem:
            sol = solve_problem(market, target.distribution(), problem)
            for u in (_F(1, 5), _F(9, 40), _F(1, 4)):
                _require(sol.contains((4, 2, 1), u=u), f"{problem.value} misses u={u}")

    def kkm():
        _require(kkm_diagnostics(ThreeStateTarget(1, 2, 5)).intersection == (_F(1, 4), _F(1, 4)))
        _require(kkm_diagnostics(ThreeStateTarget(1, 2, 4)).intersection == (_F(1, 5), _F(1, 4)))
        _require(kkm_diagnostics(ThreeStateTarget(1, 2, 3)).intersection == (_F(1, 5), _F(1, 5)))
        diag = kkm_diagnostics(ThreeStateTarget(1, 2, 3))
        _require(diag.expected_cost(_F(1, 6), _F(1, 10)) == _F(5, 3))

    return [gap_example, generic_agrees, shared_family, kkm]


def _utility_checks(seed: int):
    from .utility import (
        ExpUtility,
        LogUtility,
        PowerUtility,
        closed_form_wealth,
        optimal_wealth,
        share_grid_search,
    )

    def log_case():
        sol = optimal_wealth(LogUtility(), 1.0)
        _require(max(abs(a - b) for a, b in zip(sol.payoff, (1.5, 1.0, 0.75))) < 1e-12)
        static = closed_form_wealth(LogUtility(), 1.0)
        _require(max(abs(a - b) for a, b in zip(static.payoff, sol.payoff)) < 1e-10)

    def power_case():
        sol = optimal_wealth(PowerUtility(0.5), 1.0)
        _require(max(abs(a - b) for a, b in zip(sol.payoff, (2.0, 1.0, 0.5))) < 1e-10)

    def exp_case():
        sol = optimal_wealth(ExpUtility(), 1.0)
        _require(abs(sol.x_star - (1.0 - math.log(2.0) / 3.0)) < 1e-12)

    def grid_ln():
        res = share_grid_search(math.log, 1.0, 1e-3)
        _require(abs(res.theta - 0.25) <= 1e-3 + 1e-12, f"theta {res.theta}")

    return [log_case, power_case, exp_case, grid_ln]


def _stochvol_checks(seed: int):
    import numpy as np
    from scipy.special import ndtr

    from .stochvol import (
        DEFAULT_MODEL,
        MixtureStock,
        PointMass,
        RegimeSwitchModel,
        floor_price,
        kernel_cdf,
        kernel_quantile,
        stock_cdf,
        stock_quantile,
    )

    def degenerate():
        flat = RegimeSwitchModel(mu=0.05, sigma_h=0.2, sigma_l=0.2, p=0.5, T=1.0, s0=1.0)
        got = floor_price(flat, flat.p, MixtureStock(flat))
        _require(abs(got - flat.s0) < 1e-6, f"complete-market cost {got}")

    def point_mass():
        for q in (0.1, 0.5, 0.9):
            _require(floor_price(DEFAULT_MODEL, q, PointMass(1.25)) == 1.25)

    def inverse():
        _require(abs(stock_cdf(DEFAULT_MODEL, stock_quantile(DEFAULT_MODEL, 0.3)) - 0.3) < 1e-9)
        x = kernel_quantile(DEFAULT_MODEL, 0.4, 0.7)
        _require(abs(kernel_cdf(DEFAULT_MODEL, 0.4, x) - 0.7) < 1e-9)

    def kernel_mean():
        # standalone 200-node quadrature of the kernel quantile; E[xi] = 1
        x, w = np.polynomial.legendre.leggauss(200)
        t = 8.0 * x
        phi = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        levels = ndtr(t)
        vals = [kernel_quantile(DEFAULT_MODEL, 0.5, u) for u in levels]
        total = float(np.dot(8.0 * w * phi, vals))
        _require(abs(total - 1.0) < 1e-6, f"kernel mean {total}")

    return [degenerate, point_mass, inverse, kernel_mean]


_SUITES: dict[str, Callable[[int], list]] = {
    name: globals()[f"_{name}_checks"] for name in SUITE_NAMES
}


def available_suites() -> list[str]:
    return list(_SUITES)


def run_suites(names=None, seed: int = 0) -> list[CheckResult]:
    """Run the named oracle suites (all of them by default)."""
    if names is None:
        names = available_suites()
    results = []
    for suite in names:
        try:
            checks = _SUITES[suite](seed)
        except KeyError:
            raise ValueError(
                f"unknown suite {suite!r}; choose from {', '.join(_SUITES)}"
            ) from None
        for check in checks:
            name = check.__name__.replace("_", "-")
            try:
                check()
            except AssertionError as exc:
                results.append(CheckResult(suite, name, False, str(exc)))
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                results.append(CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}"))
            else:
                results.append(CheckResult(suite, name, True))
    return results
