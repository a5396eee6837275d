import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.stats import lognorm

from effico import stochvol
from effico.stochvol import (
    DEFAULT_MODEL,
    LogNormal,
    MixtureStock,
    Normal,
    PointMass,
    RegimeSwitchModel,
    curve_to_csv,
    distribution_superhedge_cost,
    floor_price,
    kernel_cdf,
    kernel_quantile,
    moment_matched_targets,
    stock_cdf,
    stock_quantile,
    variance_cost_curve,
)

MODEL = DEFAULT_MODEL
FLAT = RegimeSwitchModel(mu=0.05, sigma_h=0.2, sigma_l=0.2, p=0.4, T=1.0, s0=1.5)

U_GRID = (1e-8, 1e-4, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-4, 1.0 - 1e-8)


def _quad_mean(quantile, nodes: int = 500) -> float:
    """Integrate a quantile function over (0, 1) via the u = Phi(t) substitution."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 8.0 * x
    dens = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    vals = np.array([quantile(float(u)) for u in ndtr(t)])
    return float(np.dot(8.0 * w * dens, vals))


# ----------------------------------------------------------------- model


@pytest.mark.parametrize(
    "bad",
    [
        {"mu": 0.0},
        {"sigma_h": 0.1},
        {"sigma_l": 0.0},
        {"p": 1.0},
        {"T": 0.0},
        {"s0": -1.0},
        {"mu": math.nan},
        {"s0": math.inf},
        {"sigma_h": math.inf},
        {"T": math.nan},
    ],
)
def test_model_validation(bad):
    with pytest.raises(ValueError):
        RegimeSwitchModel(**dict(MODEL.to_dict(), **bad))


def test_equal_volatilities_are_accepted():
    assert FLAT.sigma_h == FLAT.sigma_l == 0.2
    assert FLAT.theta_h == FLAT.theta_l == pytest.approx(0.25)


def test_model_dict_round_trip():
    again = RegimeSwitchModel.from_dict(MODEL.to_dict())
    assert again == MODEL
    with pytest.raises(ValueError):
        RegimeSwitchModel.from_dict({"mu": 0.05, "p": 0.5})


def test_default_model_parameters():
    assert MODEL == RegimeSwitchModel(
        mu=0.05, sigma_h=0.3, sigma_l=0.15, p=0.5, T=1.0, s0=1.0
    )


# ------------------------------------------------------------------ cdfs


def test_stock_cdf_bounds_and_monotonicity():
    xs = [0.2, 0.5, 1.0, 1.5, 3.0, 8.0]
    vals = [stock_cdf(MODEL, x) for x in xs]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        stock_cdf(MODEL, 0.0)


def test_flat_model_matches_scipy_lognorm():
    sd = FLAT.sigma_h * math.sqrt(FLAT.T)
    scale = FLAT.s0 * math.exp((FLAT.mu - FLAT.sigma_h**2 / 2) * FLAT.T)
    ref = lognorm(s=sd, scale=scale)
    for x in (0.5, 1.0, 1.5, 2.0, 4.0):
        assert stock_cdf(FLAT, x) == pytest.approx(ref.cdf(x), abs=1e-14)
    for u in (0.01, 0.25, 0.5, 0.9, 0.999):
        assert stock_quantile(FLAT, u) == pytest.approx(ref.ppf(u), rel=1e-11)


def test_stock_cdf_against_monte_carlo():
    rng = np.random.default_rng(20240823)
    n = 400_000
    high = rng.random(n) < MODEL.p
    sigma = np.where(high, MODEL.sigma_h, MODEL.sigma_l)
    z = rng.standard_normal(n)
    log_s = (
        math.log(MODEL.s0)
        + (MODEL.mu - sigma**2 / 2) * MODEL.T
        + sigma * math.sqrt(MODEL.T) * z
    )
    s = np.exp(log_s)
    for x in (0.6, 0.9, 1.1, 1.5, 2.2):
        assert stock_cdf(MODEL, x) == pytest.approx(float(np.mean(s <= x)), abs=4e-3)


def test_kernel_cdf_against_monte_carlo():
    q = 0.3
    rng = np.random.default_rng(7)
    n = 400_000
    high = rng.random(n) < MODEL.p
    theta = np.where(high, MODEL.theta_h, MODEL.theta_l)
    weight = np.where(high, q / MODEL.p, (1 - q) / (1 - MODEL.p))
    z = rng.standard_normal(n)
    xi = weight * np.exp(-theta * math.sqrt(MODEL.T) * z - theta**2 * MODEL.T / 2)
    assert float(np.mean(xi)) == pytest.approx(1.0, abs=4e-3)
    for x in (0.3, 0.6, 0.9, 1.2, 2.0):
        assert kernel_cdf(MODEL, q, x) == pytest.approx(float(np.mean(xi <= x)), abs=4e-3)
    lopsided = np.where(high, 0.85 / MODEL.p, 0.15 / (1 - MODEL.p))
    xi2 = lopsided * np.exp(-theta * math.sqrt(MODEL.T) * z - theta**2 * MODEL.T / 2)
    assert float(np.mean(xi2)) == pytest.approx(1.0, abs=4e-3)
    with pytest.raises(ValueError):
        kernel_cdf(MODEL, 0.0, 1.0)
    with pytest.raises(ValueError):
        kernel_cdf(MODEL, 0.3, -1.0)


# ------------------------------------------------------------- quantiles


def test_quantile_level_validation():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            stock_quantile(MODEL, bad)
        with pytest.raises(ValueError):
            kernel_quantile(MODEL, 0.3, bad)
    with pytest.raises(ValueError):
        kernel_quantile(MODEL, 1.0, 0.5)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            stock_cdf(MODEL, bad)
        with pytest.raises(ValueError):
            kernel_cdf(MODEL, 0.3, bad)


@pytest.mark.parametrize("u", U_GRID)
def test_stock_quantile_inverts_cdf(u):
    x = stock_quantile(MODEL, u)
    assert stock_cdf(MODEL, x) == pytest.approx(u, abs=1e-12)


@pytest.mark.parametrize("q", (0.1, 0.5, 0.85))
@pytest.mark.parametrize("u", U_GRID)
def test_kernel_quantile_inverts_cdf(q, u):
    x = kernel_quantile(MODEL, q, u)
    assert kernel_cdf(MODEL, q, x) == pytest.approx(u, abs=1e-12)


@pytest.mark.parametrize("u", U_GRID)
def test_stock_quantile_against_brentq(u):
    base = math.log(MODEL.s0) + MODEL.mu * MODEL.T
    spread = MODEL.sigma_h * math.sqrt(MODEL.T)
    y = brentq(
        lambda v: stock_cdf(MODEL, math.exp(v)) - u,
        base - 12.0 * spread,
        base + 12.0 * spread,
        xtol=1e-13,
    )
    assert stock_quantile(MODEL, u) == pytest.approx(math.exp(y), rel=1e-9)


def test_extreme_tail_round_trip():
    # levels one float step from the ends of (0, 1); the split between the
    # two mixture components is no longer representable there
    for t in (-8.0, 8.0):
        u = float(ndtr(t))
        x = stock_quantile(MODEL, u)
        assert stock_cdf(MODEL, x) == pytest.approx(u, rel=1e-12)
        k = kernel_quantile(MODEL, 0.3, u)
        assert kernel_cdf(MODEL, 0.3, k) == pytest.approx(u, rel=1e-12)


def test_quantiles_are_monotone():
    us = np.linspace(1e-6, 1 - 1e-6, 41)
    sq = [stock_quantile(MODEL, u) for u in us]
    kq = [kernel_quantile(MODEL, 0.4, u) for u in us]
    assert all(a < b for a, b in zip(sq, sq[1:]))
    assert all(a < b for a, b in zip(kq, kq[1:]))


def test_kernel_mean_is_one():
    # for lopsided q the two kernel components separate and the quantile
    # develops a sharp transition that fixed-node quadrature resolves
    # slowly, so the tight check stays at moderate q; extreme q is covered
    # by the Monte Carlo mean above
    for q in (0.3, 0.4, 0.5, 0.6):
        mean = _quad_mean(lambda u: kernel_quantile(MODEL, q, u))
        assert mean == pytest.approx(1.0, abs=1e-8)


def test_stock_mean_matches_drift():
    mean = _quad_mean(lambda u: stock_quantile(MODEL, u))
    assert mean == pytest.approx(MODEL.s0 * math.exp(MODEL.mu * MODEL.T), rel=1e-8)


def test_flat_kernel_quantile_closed_form():
    # q = p collapses the kernel to a single lognormal
    th = FLAT.theta_h
    for u in (0.05, 0.4, 0.9):
        expected = math.exp(-(th**2) * FLAT.T / 2 + th * math.sqrt(FLAT.T) * ndtri(u))
        assert kernel_quantile(FLAT, FLAT.p, u) == pytest.approx(expected, rel=1e-11)


# --------------------------------------------------------------- targets


@pytest.mark.parametrize(
    "make",
    [
        lambda: Normal(1.0, 0.0),
        lambda: LogNormal(0.0, -1.0),
        lambda: Normal(math.nan, 1.0),
        lambda: Normal(1.0, math.nan),
        lambda: LogNormal(0.0, math.nan),
        lambda: LogNormal(math.inf, 1.0),
        lambda: PointMass(math.nan),
    ],
)
def test_target_validation(make):
    with pytest.raises(ValueError):
        make()


def test_target_quantile_levels():
    for target in (PointMass(2.0), Normal(1.0, 0.2), LogNormal(0.0, 0.1)):
        with pytest.raises(ValueError):
            target.quantile(0.0)
        with pytest.raises(ValueError):
            target.quantile(1.0)


def test_target_quantiles():
    assert PointMass(2.0).quantile(0.3) == 2.0
    assert Normal(1.0, 4.0).quantile(0.5) == pytest.approx(1.0)
    assert Normal(1.0, 4.0).quantile(0.975) == pytest.approx(1.0 + 2.0 * ndtri(0.975))
    assert LogNormal(0.0, 1.0).quantile(0.5) == pytest.approx(1.0)
    assert MixtureStock(MODEL).quantile(0.3) == stock_quantile(MODEL, 0.3)


def test_vector_and_scalar_quantile_paths_agree():
    t = np.array([-3.0, -2.0, -0.3, 0.0, 0.4, 2.0, 3.0])
    vec = MixtureStock(MODEL).quantile_from_score(t)
    scal = [stock_quantile(MODEL, float(u)) for u in ndtr(t)]
    assert vec == pytest.approx(scal, rel=1e-12)


def test_vector_path_tracks_scalar_in_deep_tail():
    # the scalar api receives u already rounded to a double, which pins the
    # upper-tail complement only to ~ulp(1)/(1-u); the score-based path
    # keeps the exact complement, so agreement is capped near 1e-4 here
    t = np.array([-7.5, 7.5])
    vec = MixtureStock(MODEL).quantile_from_score(t)
    scal = [stock_quantile(MODEL, float(u)) for u in ndtr(t)]
    assert vec == pytest.approx(scal, rel=2e-4)


def test_vector_path_past_unit_rounding():
    # ndtr(t) rounds to 1 for t above about 8.3, and value-space pricing
    # reaches such scores when one regime is rare; the level is still held
    # exactly by its complement ndtr(-t)
    t = np.array([8.0, 8.5, 9.0, 10.0])
    x = MixtureStock(MODEL).quantile_from_score(t)
    assert np.all(np.diff(x) > 0)
    for xi, ti in zip(x, t):
        z_h, z_l = (
            (math.log(xi / MODEL.s0) - (MODEL.mu - s**2 / 2) * MODEL.T) / (s * math.sqrt(MODEL.T))
            for s in (MODEL.sigma_h, MODEL.sigma_l)
        )
        sf = MODEL.p * ndtr(-z_h) + (1 - MODEL.p) * ndtr(-z_l)
        assert sf == pytest.approx(ndtr(-ti), rel=1e-9)


def _stock_log_quantile_bisection(m: RegimeSwitchModel, t: np.ndarray) -> np.ndarray:
    """200-step bisection between the component quantiles at level Phi(t).

    Tests the cdf for t <= 0 and the survival function for t > 0, each
    against ndtr of the score, so neither tail cancels.
    """
    rt = math.sqrt(m.T)
    base = math.log(m.s0) + m.mu * m.T
    m_h, s_h = base - m.sigma_h**2 * m.T / 2, m.sigma_h * rt
    m_l, s_l = base - m.sigma_l**2 * m.T / 2, m.sigma_l * rt
    lower = t <= 0
    level = ndtr(-np.abs(t))
    lo = np.minimum(m_h + s_h * t, m_l + s_l * t)
    hi = np.maximum(m_h + s_h * t, m_l + s_l * t)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z_h, z_l = (mid - m_h) / s_h, (mid - m_l) / s_l
        cdf = m.p * ndtr(z_h) + (1 - m.p) * ndtr(z_l)
        sf = m.p * ndtr(-z_h) + (1 - m.p) * ndtr(-z_l)
        right = np.where(lower, cdf < level, sf > level)
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_random_models_stock_quantile_newton(monkeypatch):
    # the Newton loop evaluates log_ndtr once per iteration; count the calls
    calls = []

    def counted_log_ndtr(x):
        calls.append(1)
        return log_ndtr(x)

    monkeypatch.setattr(stochvol, "log_ndtr", counted_log_ndtr)
    rng = np.random.default_rng(20261018)
    # |t| > 8.3 reaches levels where ndtr(t) rounds to 1
    t = np.concatenate([np.linspace(-37.0, 37.0, 149), rng.uniform(-37.0, 37.0, 150)])
    t.sort()
    for _ in range(60):
        sigma_l = rng.uniform(0.05, 0.6)
        m = RegimeSwitchModel(
            mu=rng.uniform(0.01, 0.2),
            sigma_h=sigma_l * rng.uniform(1.0, 8.0),
            sigma_l=sigma_l,
            p=rng.uniform(0.01, 0.99),
            T=rng.uniform(0.1, 5.0),
            s0=rng.uniform(0.5, 2.0),
        )
        calls.clear()
        y = np.log(MixtureStock(m).quantile_from_score(t))
        assert len(calls) <= 16
        ref = _stock_log_quantile_bisection(m, t)
        assert y == pytest.approx(ref, rel=1e-13, abs=1e-13)
        assert np.all(np.diff(y) > 0)


def test_stock_law_cost_regression():
    res = distribution_superhedge_cost(MODEL, MixtureStock(MODEL))
    assert res.value == pytest.approx(0.9877217198334862, rel=0, abs=1e-14)
    assert res.q_star == pytest.approx(0.504877570199794, rel=0, abs=1e-8)


# ----------------------------------------------------------- floor price


def test_point_mass_prices_exactly():
    assert floor_price(MODEL, 0.3, PointMass(1.7)) == 1.7
    res = distribution_superhedge_cost(MODEL, PointMass(1.7))
    assert res.value == 1.7
    assert res.q_star == 0.5


def test_flat_model_stock_floor_is_spot():
    # with one volatility the kernel is a decreasing function of the stock,
    # so the anti-comonotone pairing at q = p is the true martingale price
    target = MixtureStock(FLAT)
    assert floor_price(FLAT, FLAT.p, target) == pytest.approx(FLAT.s0, rel=1e-10)


def test_flat_model_superhedge_cost_is_spot():
    res = distribution_superhedge_cost(FLAT, MixtureStock(FLAT))
    assert res.value == pytest.approx(FLAT.s0, abs=1e-6)


def test_floor_price_node_stability():
    target = moment_matched_targets(MODEL).lognormal
    coarse = floor_price(MODEL, 0.3, target, nodes=400)
    fine = floor_price(MODEL, 0.3, target, nodes=800)
    assert coarse == pytest.approx(fine, rel=1e-7)


def test_floor_price_below_superhedge_cost():
    target = moment_matched_targets(MODEL).normal
    res = distribution_superhedge_cost(MODEL, target)
    for q in (0.1, 0.35, 0.6, 0.9):
        assert floor_price(MODEL, q, target) <= res.value + 1e-10


def test_stock_law_superhedge_gap():
    res = distribution_superhedge_cost(MODEL, MixtureStock(MODEL))
    assert res.value < MODEL.s0
    assert 0.0 < res.q_star < 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_random_models_cost_bounds_and_floor_concavity():
    # the kernel has mean one and pairs anti-comonotonically, so the cost
    # lies between the floor at q = p and the target's mean; the kernel is
    # affine in q, so the floor price is concave in q
    rng = np.random.default_rng(20240712)
    qs = np.linspace(0.02, 0.98, 49)
    for i, v in enumerate(np.geomspace(1e-8, 0.3, 40)):
        sigma_l = rng.uniform(0.1, 0.3)
        m = RegimeSwitchModel(
            mu=rng.uniform(0.02, 0.1),
            sigma_h=sigma_l * rng.uniform(1.0, 2.5),
            sigma_l=sigma_l,
            p=rng.uniform(0.2, 0.8),
            T=rng.uniform(0.5, 2.0),
            s0=rng.uniform(0.5, 2.0),
        )
        mean = m.s0 * math.exp(m.mu * m.T)
        if i % 2 == 0:
            target = Normal(mean, v)
        else:
            s2 = math.log(1.0 + v / mean**2)
            target = LogNormal(math.log(mean) - s2 / 2.0, s2)
        cost = distribution_superhedge_cost(m, target).value
        assert floor_price(m, m.p, target) - 1e-12 <= cost <= mean + 1e-12
        floors = np.array([floor_price(m, q, target) for q in qs])
        assert np.max(np.diff(floors, 2)) <= 1e-12


# ------------------------------------------------------- moment matching


def test_moment_matched_targets_analytic():
    mm = moment_matched_targets(MODEL)
    mean = MODEL.s0 * math.exp(MODEL.mu * MODEL.T)
    ve = math.exp(MODEL.sigma_h**2 * MODEL.T)
    vl = math.exp(MODEL.sigma_l**2 * MODEL.T)
    variance = (MODEL.p * ve + (1 - MODEL.p) * vl - 1.0) * mean**2
    assert mm.mean == pytest.approx(mean, rel=1e-14)
    assert mm.variance == pytest.approx(variance, rel=1e-12)
    assert mm.normal.mean == mm.mean
    assert mm.normal.variance == mm.variance
    ln_mean = math.exp(mm.lognormal.log_mean + mm.lognormal.log_variance / 2)
    ln_var = (math.exp(mm.lognormal.log_variance) - 1.0) * ln_mean**2
    assert ln_mean == pytest.approx(mm.mean, rel=1e-12)
    assert ln_var == pytest.approx(mm.variance, rel=1e-10)


# ----------------------------------------------------------------- curve


def test_variance_curve_columns_nonincreasing():
    base = moment_matched_targets(MODEL).variance
    points = variance_cost_curve(MODEL, [base / 2, base, 2 * base])
    assert [pt.variance for pt in points] == [base / 2, base, 2 * base]
    for a, b in zip(points, points[1:]):
        assert b.cost_normal <= a.cost_normal + 1e-9
        assert b.cost_lognormal <= a.cost_lognormal + 1e-9
    # anti-comonotone pairing with a mean-one kernel never beats the mean
    mean = MODEL.s0 * math.exp(MODEL.mu * MODEL.T)
    for pt in points:
        assert 0.0 < pt.cost_normal <= mean + 1e-9
        assert 0.0 < pt.cost_lognormal <= mean + 1e-9


@pytest.mark.parametrize(
    "grid",
    [[], [0.1, -0.2], [0.2, 0.1], [0.1, 0.1], [math.nan], [0.1, math.inf]],
)
def test_variance_curve_validation(grid):
    with pytest.raises(ValueError):
        variance_cost_curve(MODEL, grid)


def test_curve_is_deterministic():
    grid = [0.05, 0.1]
    first = variance_cost_curve(MODEL, grid)
    second = variance_cost_curve(MODEL, grid)
    assert first == second
    assert curve_to_csv(first) == curve_to_csv(second)


def test_curve_csv_format():
    points = variance_cost_curve(MODEL, [0.05, 0.1])
    text = curve_to_csv(points)
    lines = text.splitlines()
    assert lines[0] == "variance,cost_normal,cost_lognormal"
    assert len(lines) == 3
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "0.05"
    assert float(first[1]) == pytest.approx(points[0].cost_normal, rel=1e-11)
    assert float(first[2]) == pytest.approx(points[0].cost_lognormal, rel=1e-11)
