"""End-to-end acceptance checks, one per shipped guarantee.

Every test prints a single PASS line with its wall-clock time and fails
if it exceeds its runtime budget.  Closed-form reference values are
restated here from scratch so the suite does not lean on the library's
own formula tables.  One known-false claim about convex-order
non-comparability is kept as a strict expected failure next to the
assertion of what actually holds.
"""
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from effico.distribution import (
    DiscreteDistribution,
    is_convex_dominated,
    mean_preserving_contraction,
)
from effico.efficiency import (
    Problem,
    ThreeStateTarget,
    attainable_cost_efficient_payoffs,
    convexified_maximin_cost,
    convexified_minimax_cost,
    is_perfectly_cost_efficient,
    kkm_diagnostics,
    maximin_cost,
    minimax_cost,
    three_state_closed_form,
)
from effico.market import DiscreteMarket, kernel_family, price
from effico.stochvol import (
    DEFAULT_MODEL,
    MixtureStock,
    PointMass,
    RegimeSwitchModel,
    curve_to_csv,
    distribution_superhedge_cost,
    floor_price,
    moment_matched_targets,
    variance_cost_curve,
)
from effico.utility import ExpUtility, LogUtility, PowerUtility, optimal_wealth

F = Fraction

MARKET = DiscreteMarket.canonical_three_state()
FAMILY = kernel_family(MARKET)
KERNEL_US = (F(0), F(1, 8), F(1, 5), F(1, 4), F(1, 3))


@contextmanager
def timed(label: str, budget: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS {label} ({elapsed:.3f}s)")


def table_values(x, y, z):
    """Maximin (= both convexified values) and minimax, restated from scratch."""
    d1 = 2 * x - 3 * y + z
    if d1 > 0:
        return (2 * x + y + z) / 4, (2 * x + z) / 3
    if d1 == 0:
        return y, y
    return (2 * x + 2 * y + z) / 5, y


def solve_all(dist: DiscreteDistribution):
    return (
        maximin_cost(MARKET, dist).value,
        convexified_maximin_cost(MARKET, dist).value,
        convexified_minimax_cost(MARKET, dist).value,
        minimax_cost(MARKET, dist).value,
    )


def random_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    vals: set[Fraction] = set()
    while len(vals) < 3:
        den = rng.randint(1, 12)
        vals.add(F(rng.randint(-10 * den, 10 * den), den))
    x, y, z = sorted(vals)
    return x, y, z


# ----------------------------------------------------------- closed forms


def test_three_state_1_2_3_exact():
    with timed("3-state (1,2,3) values and optimizers", 0.1):
        target = ThreeStateTarget(1, 2, 3)
        sols = {p: three_state_closed_form(target, p) for p in Problem}
        assert sols[Problem.MAXIMIN].value == F(9, 5)
        assert sols[Problem.CONVEXIFIED_MAXIMIN].value == F(9, 5)
        assert sols[Problem.CONVEXIFIED_MINIMAX].value == F(9, 5)
        assert sols[Problem.MINIMAX].value == F(2)

        (mini,) = sols[Problem.MINIMAX].optimizers
        assert mini.payoff.base == (F(3), F(2), F(1))
        assert mini.kernel.weights == (F(0), F(3), F(0))
        assert mini.kernel.boundary is True

        maxi = sols[Problem.MAXIMIN].optimizers
        assert {opt.payoff.base for opt in maxi} == {
            (F(3), F(1), F(2)),
            (F(3), F(2), F(1)),
        }
        for opt in maxi:
            assert opt.kernel.weights == (F(3, 5), F(6, 5), F(6, 5))
            assert opt.kernel.boundary is False


def test_three_state_1_2_4_perfectly_cost_efficient():
    with timed("3-state (1,2,4) shared family", 0.1):
        target = ThreeStateTarget(1, 2, 4)
        family_payoff = (F(4), F(2), F(1))
        for problem in Problem:
            sol = three_state_closed_form(target, problem)
            assert sol.value == F(2)
            for u in (F(1, 5), F(9, 40), F(1, 4)):
                assert sol.contains(family_payoff, u)
            spans = [
                opt.kernel.u_range
                for opt in sol.optimizers
                if opt.payoff.base == family_payoff
                and not opt.payoff.is_segment
                and opt.kernel.u_range is not None
            ]
            assert any(lo <= F(1, 5) and hi >= F(1, 4) for lo, hi in spans)
        assert is_perfectly_cost_efficient(target) is True
        assert attainable_cost_efficient_payoffs(target) == [
            (family_payoff, (F(1, 5), F(1, 4)))
        ]


def test_three_state_1_2_5_substituted_formulas():
    with timed("3-state (1,2,5) substituted closed forms", 0.1):
        x, y, z = F(1), F(2), F(5)
        target = ThreeStateTarget(x, y, z)
        shared, minimax = table_values(x, y, z)
        assert shared == F(9, 4) and minimax == F(7, 3)
        assert three_state_closed_form(target, Problem.MAXIMIN).value == shared
        assert three_state_closed_form(target, Problem.MINIMAX).value == minimax
        star = three_state_closed_form(target, Problem.CONVEXIFIED_MINIMAX)
        assert star.value == shared
        (opt,) = star.optimizers
        z_star = ((-2 * x + 3 * y + 3 * z) / 4, (2 * x + y + z) / 4, x)
        assert z_star == (F(19, 4), F(9, 4), F(1))
        assert opt.payoff.base == z_star


# -------------------------------------------------------- property suites


def test_generic_solvers_match_closed_forms():
    with timed("1000 random triples: generic == closed form, cost chain", 60.0):
        rng = random.Random(20240823)
        for _ in range(1000):
            x, y, z = random_triple(rng)
            shared, minimax = table_values(x, y, z)
            dist = DiscreteDistribution((x, y, z))
            v_mm, v_cvm, v_cvx, v_mx = solve_all(dist)
            for got in (v_mm, v_cvm, v_cvx):
                assert abs(got - shared) <= F(1, 10**9)
            assert abs(v_mx - minimax) <= F(1, 10**9)
            assert v_mm == v_cvm == v_cvx
            assert v_mx >= v_cvx
            if z == 3 * y - 2 * x:
                assert abs(v_mx - v_cvx) <= F(1, 10**10)
            else:
                assert v_mx - v_cvx > F(1, 10**10)


def test_contraction_never_cheapens_the_law():
    with timed("500 contraction pairs: convexified minimax is monotone", 30.0):
        rng = random.Random(987654321)
        for _ in range(500):
            x, y, z = random_triple(rng)
            dist = DiscreteDistribution((x, y, z))
            t = (z - x) / 2 * F(rng.randint(0, 64), 64)
            tightened = mean_preserving_contraction(dist, t)
            original = convexified_minimax_cost(MARKET, dist).value
            contracted = convexified_minimax_cost(MARKET, tightened).value
            assert contracted >= original - F(1, 10**10)

        pair_a = DiscreteDistribution((1, 2, 4))
        pair_b = mean_preserving_contraction(pair_a, F(1, 2))
        assert pair_b.values == (F(3, 2), F(2), F(7, 2))
        sol_a = convexified_minimax_cost(MARKET, pair_a)
        sol_b = convexified_minimax_cost(MARKET, pair_b)
        assert sol_a.value == F(2)
        assert sol_b.value == F(17, 8)
        z_a = sol_a.optimizers[0].payoff.base
        z_b = sol_b.optimizers[0].payoff.base
        assert z_a == (F(4), F(2), F(1))
        assert z_b == (F(27, 8), F(17, 8), F(3, 2))
        # what actually holds: the tightened pair's optimizer is dominated
        assert is_convex_dominated(z_b, z_a)


@pytest.mark.xfail(
    strict=True,
    reason="the claimed convex-order non-comparability does not hold: "
    "(27/8, 17/8, 3/2) is dominated by (4, 2, 1)",
)
def test_contraction_pair_optimizers_non_comparable():
    print("FAIL contraction pair optimizers non-comparable (documented discrepancy)")
    z_a = (F(4), F(2), F(1))
    z_b = (F(27, 8), F(17, 8), F(3, 2))
    assert not is_convex_dominated(z_b, z_a) and not is_convex_dominated(z_a, z_b)


# ---------------------------------------------------------------- utility


def test_utility_closed_forms_and_attainability():
    with timed("utility optima: closed forms, FOC, budget pricing", 1.0):
        kinds = [
            (LogUtility(), lambda x0: 0.75 * x0),
            (ExpUtility(), lambda x0: x0 - math.log(2.0) / 3.0),
        ]
        for alpha in (-1.0, 0.5, 0.9):
            kind = PowerUtility(alpha)
            b = kind.beta
            kinds.append((kind, lambda x0, b=b: 3.0 * x0 * 2.0 ** (b - 1) / (1 + 2.0**b)))
        for x0 in (0.5, 1.0, 2.0):
            for kind, formula in kinds:
                sol = optimal_wealth(kind, x0)
                assert sol.x_star == pytest.approx(formula(x0), abs=1e-10 * max(1.0, x0))
                foc = kind.marginal(sol.x_star) - 2.0 * kind.marginal(3 * x0 - 2 * sol.x_star)
                assert abs(foc) <= 1e-10 * max(1.0, kind.marginal(sol.x_star))
                for u in KERNEL_US:
                    got = float(price(FAMILY.kernel_at(u).weights, sol.payoff))
                    assert got == pytest.approx(x0, abs=1e-12 * max(1.0, x0))


# -------------------------------------------------------------------- kkm


def test_kkm_intersections():
    with timed("KKM response-interval intersections", 0.1):
        assert kkm_diagnostics(ThreeStateTarget(1, 2, 5)).intersection == (
            F(1, 4),
            F(1, 4),
        )
        assert kkm_diagnostics(ThreeStateTarget(1, 2, 4)).intersection == (
            F(1, 5),
            F(1, 4),
        )
        assert kkm_diagnostics(ThreeStateTarget(1, 2, 3)).intersection == (
            F(1, 5),
            F(1, 5),
        )


# --------------------------------------------------------------- stochvol


def test_degenerate_stochvol_cases():
    with timed("degenerate volatility and point-mass targets", 5.0):
        flat = RegimeSwitchModel(
            mu=0.05, sigma_h=0.2, sigma_l=0.2, p=0.5, T=1.0, s0=1.0
        )
        got = floor_price(flat, flat.p, MixtureStock(flat))
        assert got == pytest.approx(flat.s0, abs=1e-6)
        for m in (0.5, 1.7):
            for q in (0.05, 0.25, 0.5, 0.75, 0.95):
                assert abs(floor_price(DEFAULT_MODEL, q, PointMass(m)) - m) <= 1e-9
            assert abs(distribution_superhedge_cost(DEFAULT_MODEL, PointMass(m)).value - m) <= 1e-9


def _mixture_log_quantile_oracle(u, p, m_h, s_h, m_l, s_l, iters=100):
    """Bisect the mixture cdf on a fixed wide log-value bracket."""
    zeros = np.zeros(np.broadcast_shapes(np.shape(u), np.shape(m_h)))
    lo = np.minimum(m_h - 45.0 * s_h, m_l - 45.0 * s_l) + zeros
    hi = np.maximum(m_h + 45.0 * s_h, m_l + 45.0 * s_l) + zeros
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        cdf = p * ndtr((mid - m_h) / s_h) + (1.0 - p) * ndtr((mid - m_l) / s_l)
        go_right = cdf < u
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _oracle_pieces(nodes: int = 800):
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 8.0 * x
    weight = 8.0 * w * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    qs = np.arange(1, 202) / 202.0
    m = DEFAULT_MODEL
    th, tl = m.theta_h, m.theta_l
    kq_log = _mixture_log_quantile_oracle(
        ndtr(t)[None, :],
        m.p,
        np.log(qs / m.p)[:, None] - th**2 * m.T / 2,
        th * math.sqrt(m.T),
        np.log((1 - qs) / (1 - m.p))[:, None] - tl**2 * m.T / 2,
        tl * math.sqrt(m.T),
    )
    return t, weight, qs, np.exp(kq_log)


_ORACLE_CACHE: dict = {}


def _oracle_costs(target_factor: np.ndarray) -> np.ndarray:
    """201 anti-comonotone prices of a target given its factor at 1 - Phi(t)."""
    if "pieces" not in _ORACLE_CACHE:
        _ORACLE_CACHE["pieces"] = _oracle_pieces()
    t, weight, qs, kq = _ORACLE_CACHE["pieces"]
    return kq @ (weight * target_factor)


def test_stock_law_gap_matches_grid_oracle():
    with timed("stock-law superhedge gap vs dense-grid oracle", 60.0):
        m = DEFAULT_MODEL
        res = distribution_superhedge_cost(m, MixtureStock(m))
        assert res.value < m.s0 - 1e-4
        assert 0.01 < res.q_star < 0.99

        if "pieces" not in _ORACLE_CACHE:
            _ORACLE_CACHE["pieces"] = _oracle_pieces()
        t, weight, qs, kq = _ORACLE_CACHE["pieces"]
        stock_factor = np.exp(
            _mixture_log_quantile_oracle(
                ndtr(-t),
                m.p,
                math.log(m.s0) + (m.mu - m.sigma_h**2 / 2) * m.T,
                m.sigma_h * math.sqrt(m.T),
                math.log(m.s0) + (m.mu - m.sigma_l**2 / 2) * m.T,
                m.sigma_l * math.sqrt(m.T),
            )
        )
        g = _oracle_costs(stock_factor)
        assert res.value == pytest.approx(float(g.max()), abs=1e-5)
        assert qs[int(g.argmax())] == pytest.approx(res.q_star, abs=0.02)


def test_variance_curve_reproduction():
    with timed("variance curve: monotone, point-mass limit, byte-stable", 120.0):
        m = DEFAULT_MODEL
        mm = moment_matched_targets(m)
        grid = sorted(set(np.geomspace(1e-8, 2 * mm.variance, 19)) | {mm.variance})
        assert len(grid) == 20
        points = variance_cost_curve(m, grid)
        again = variance_cost_curve(m, grid)
        assert curve_to_csv(points) == curve_to_csv(again)

        for a, b in zip(points, points[1:]):
            assert b.cost_normal <= a.cost_normal + 1e-7
            assert b.cost_lognormal <= a.cost_lognormal + 1e-7
        # Cauchy-Schwarz: |cost - mean| = |Cov(xi, Z)| <= sd(xi^p) sd(Z) at
        # q = p, and the cost never exceeds the mean
        mean = m.s0 * math.exp(m.mu * m.T)
        sd_xi = math.sqrt(
            m.p * math.exp(m.theta_h**2 * m.T)
            + (1 - m.p) * math.exp(m.theta_l**2 * m.T)
            - 1.0
        )
        low = mean - math.sqrt(points[0].variance) * sd_xi
        assert low <= points[0].cost_normal <= mean + 1e-12
        assert low <= points[0].cost_lognormal <= mean + 1e-12

        # spot-check the entry at the model's own variance against the
        # dense-grid oracle, per target family
        spot = next(pt for pt in points if pt.variance == mm.variance)
        if "pieces" not in _ORACLE_CACHE:
            _ORACLE_CACHE["pieces"] = _oracle_pieces()
        t, weight, qs, kq = _ORACLE_CACHE["pieces"]
        normal_factor = mm.normal.mean - mm.normal.sd * t
        log_factor = np.exp(mm.lognormal.log_mean - mm.lognormal.log_sd * t)
        assert spot.cost_normal == pytest.approx(
            float(_oracle_costs(normal_factor).max()), abs=1e-5
        )
        assert spot.cost_lognormal == pytest.approx(
            float(_oracle_costs(log_factor).max()), abs=1e-5
        )
