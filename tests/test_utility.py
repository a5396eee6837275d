import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effico.errors import BracketError, InfeasibleError
from effico.market import kernel_family, DiscreteMarket, price
from effico.utility import (
    CustomUtility,
    ExpUtility,
    LogUtility,
    PowerUtility,
    closed_form_wealth,
    cost_efficiency_check,
    optimal_wealth,
    share_grid_search,
    share_payoff,
    utility_from_name,
)

F = Fraction

FAMILY = kernel_family(DiscreteMarket.canonical_three_state())
KERNEL_US = (F(0), F(1, 8), F(1, 5), F(1, 4), F(1, 3))

initial_capital = st.floats(min_value=0.1, max_value=10.0)


def test_utility_from_name():
    assert isinstance(utility_from_name("log"), LogUtility)
    assert isinstance(utility_from_name(" Exp "), ExpUtility)
    power = utility_from_name("power", alpha=0.5)
    assert isinstance(power, PowerUtility) and power.alpha == 0.5
    with pytest.raises(ValueError):
        utility_from_name("power")
    with pytest.raises(ValueError):
        utility_from_name("quadratic")
    for kind in ("log", "exp"):
        with pytest.raises(ValueError):
            utility_from_name(kind, alpha=0.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan, -math.inf])
def test_power_alpha_validation(alpha):
    with pytest.raises(ValueError):
        PowerUtility(alpha)


def test_power_beta():
    assert PowerUtility(-1.0).beta == 0.5


@pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
def test_log_optimum(x0):
    sol = optimal_wealth(LogUtility(), x0)
    assert sol.x_star == pytest.approx(0.75 * x0, abs=1e-12)
    assert sol.payoff == pytest.approx((1.5 * x0, x0, 0.75 * x0), abs=1e-12)
    assert sol.hedge == pytest.approx(0.5 * x0, abs=1e-12)
    assert sol.value == pytest.approx(
        (math.log(1.5 * x0) + math.log(x0) + math.log(0.75 * x0)) / 3
    )


@pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
def test_exp_optimum(x0):
    sol = optimal_wealth(ExpUtility(), x0)
    assert sol.x_star == pytest.approx(x0 - math.log(2.0) / 3.0, abs=1e-12)


def test_exp_optimum_reference_point():
    assert optimal_wealth(ExpUtility(), 1.0).x_star == pytest.approx(0.768951, abs=1e-6)


@pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [-1.0, 0.5, 0.9])
def test_power_optimum(x0, alpha):
    kind = PowerUtility(alpha)
    b = kind.beta
    expected = 3.0 * x0 * 2.0 ** (b - 1.0) / (1.0 + 2.0**b)
    sol = optimal_wealth(kind, x0)
    assert sol.x_star == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "kind", [LogUtility(), ExpUtility(), PowerUtility(-1.0), PowerUtility(0.5)]
)
def test_static_hedge_form_agrees_with_solver(kind):
    for x0 in (0.5, 1.0, 2.0):
        a = closed_form_wealth(kind, x0)
        b = optimal_wealth(kind, x0)
        assert a.payoff == pytest.approx(b.payoff, abs=1e-10)
        assert a.value == pytest.approx(b.value, abs=1e-10)


def test_closed_form_rejects_custom_utilities():
    custom = CustomUtility(u=math.log, u_prime=lambda x: 1.0 / x)
    with pytest.raises(TypeError):
        closed_form_wealth(custom, 1.0)


def test_custom_utility_numeric_only_path():
    custom = CustomUtility(u=math.log, u_prime=lambda x: 1.0 / x)
    sol = optimal_wealth(custom, 2.0)
    assert sol.x_star == pytest.approx(1.5, abs=1e-9)


def test_custom_utility_without_sign_change():
    linear = CustomUtility(u=lambda x: x, u_prime=lambda x: 1.0)
    with pytest.raises(BracketError):
        optimal_wealth(linear, 1.0)


@pytest.mark.parametrize("x0", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("solve", [optimal_wealth, closed_form_wealth])
def test_nonpositive_capital(solve, x0):
    with pytest.raises(ValueError):
        solve(LogUtility(), x0)


@given(x0=initial_capital)
@settings(max_examples=100, deadline=None)
def test_first_order_condition_and_budget(x0):
    for kind in (LogUtility(), ExpUtility(), PowerUtility(-1.0), PowerUtility(0.9)):
        sol = optimal_wealth(kind, x0)
        foc = kind.marginal(sol.x_star) - 2.0 * kind.marginal(3.0 * x0 - 2.0 * sol.x_star)
        assert abs(foc) <= 1e-10 * max(1.0, kind.marginal(sol.x_star))
        for u in KERNEL_US:
            k = FAMILY.kernel_at(u)
            assert float(price(k.weights, sol.payoff)) == pytest.approx(x0, abs=1e-12 * max(1.0, x0))


@given(x0=initial_capital, scale=st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_power_optimum_scales_linearly(x0, scale):
    # numeric-only path so the scaling is a solver property, not algebra
    kind = CustomUtility(u=lambda x: 2.0 * math.sqrt(x), u_prime=lambda x: x**-0.5)
    base = optimal_wealth(kind, x0).x_star
    scaled = optimal_wealth(kind, scale * x0).x_star
    assert scaled == pytest.approx(scale * base, rel=1e-10)


# ------------------------------------------------------------ grid search


def _square_on_nonnegative(x: float) -> float:
    if x < 0:
        raise ValueError("negative wealth")
    return x * x


def test_share_payoff_is_always_worth_its_capital():
    payoff = share_payoff(1.0, 0.3)
    assert payoff == (1.6, 1.0, 0.7)
    for u in KERNEL_US:
        assert float(price(FAMILY.kernel_at(u).weights, payoff)) == pytest.approx(1.0)


def test_grid_search_square_utility_default_range():
    res = share_grid_search(_square_on_nonnegative, 1.0, 0.05, reference_theta=-0.2)
    assert res.theta == pytest.approx(1.0)
    assert res.payoff == pytest.approx((3.0, 1.0, 0.0))
    assert res.value == pytest.approx(10.0 / 3.0)
    assert res.reference_theta == pytest.approx(-0.2)
    assert res.reference_payoff == pytest.approx((0.6, 1.0, 1.2))
    assert res.reference_value == pytest.approx(14.0 / 15.0)


def test_grid_search_square_utility_wide_range():
    res = share_grid_search(_square_on_nonnegative, 1.0, 0.05, theta_range=(-1.0, 0.5))
    assert res.theta == pytest.approx(0.5)
    assert res.value == pytest.approx(7.0 / 4.0)


def test_grid_search_allow_negative_payoff_range():
    res = share_grid_search(_square_on_nonnegative, 1.0, 0.05, allow_negative_payoff=True)
    assert res.theta == pytest.approx(0.5)
    assert res.value == pytest.approx(7.0 / 4.0)


def test_grid_search_log_utility_interior_maximum():
    res = share_grid_search(math.log, 1.0, 1.0 / 16.0)
    assert res.theta == pytest.approx(0.25)
    assert res.value == pytest.approx(math.log(9.0 / 8.0) / 3.0)


def test_grid_search_quadratic_convergence():
    v_star = math.log(9.0 / 8.0) / 3.0
    res = share_grid_search(math.log, 1.0, 1e-4)
    assert res.value == pytest.approx(v_star, abs=1e-6)
    assert res.value <= v_star + 1e-12


def test_grid_search_linear_utility_right_endpoint():
    # step 0.4 does not divide the range, so hi is appended to the grid
    res = share_grid_search(lambda x: x, 1.0, 0.4)
    assert res.theta == pytest.approx(1.0)
    assert res.value == pytest.approx(4.0 / 3.0)


def test_grid_search_validation():
    with pytest.raises(ValueError):
        share_grid_search(math.log, 1.0, 0.0)
    with pytest.raises(InfeasibleError):
        share_grid_search(math.log, 1.0, 0.1, theta_range=(1.0, 0.0))

    def undefined(_):
        raise ValueError("never defined")

    with pytest.raises(InfeasibleError):
        share_grid_search(undefined, 1.0, 0.25)


def test_grid_search_skips_nan_objectives():
    def patchy(x: float) -> float:
        return float("nan") if x > 2.0 else x

    res = share_grid_search(patchy, 1.0, 0.25)
    assert res.theta == pytest.approx(0.5)


# ------------------------------------------------------ efficiency check


def test_efficiency_check_inefficient_share_payoff():
    report = cost_efficiency_check((F(3, 5), F(1), F(6, 5)))
    assert not report.perfectly_cost_efficient
    assert report.floor_value == F(22, 25)
    assert report.superhedge_value == F(1)
    assert report.optimizer == (F(6, 5), F(22, 25), F(18, 25))
    assert report.optimizer_dominated


def test_efficiency_check_perfect_law():
    report = cost_efficiency_check((2, 1, 4))
    assert report.perfectly_cost_efficient
    assert report.floor_value == report.superhedge_value == F(2)
    assert sorted(report.optimizer) == [F(1), F(2), F(4)]
    assert report.optimizer_dominated


def test_efficiency_check_constant_payoff():
    report = cost_efficiency_check((2, 2, 2))
    assert report.perfectly_cost_efficient
    assert report.floor_value == report.superhedge_value == F(2)
    assert report.optimizer == (F(2), F(2), F(2))


def test_efficiency_check_validation():
    with pytest.raises(ValueError):
        cost_efficiency_check((1, 2))
