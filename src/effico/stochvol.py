"""Distributional superhedging in a two-regime Black-Scholes model.

The stock follows geometric Brownian motion with drift mu and a volatility
drawn once at time 0: sigma_h with probability p, sigma_l otherwise.  The
extreme pricing kernels are parameterized by the probability q that the
kernel assigns to the high regime; state prices and the stock are both
two-component lognormal mixtures with closed-form cdfs, whose quantiles are
found by safeguarded Newton steps on the log cdf in log-value space.

The cost of delivering a terminal-wealth *distribution* F is
sup_q E[xi^q F^{-1}(S_q(xi^q))], the anti-comonotone pairing price maximized
over the kernel family, with S_q the survival function of xi^q.  In regime r
the kernel is c_r exp(-theta_r W - theta_r^2 T / 2), so a Girsanov shift of W
turns the expectation into Gaussian quadrature of a closed-form integrand;
no kernel quantile is inverted.  The price is concave in q because xi^q is
affine in q.  For the stock's own law the cost sits strictly below S0, the
price of the stock itself: the gap between hedging a distribution and
hedging a claim.  numpy loads with this module but scipy.special only on
the first pricing call, so importing it or validating a model stays cheap.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import BracketError, NumericalError

__all__ = [
    "RegimeSwitchModel",
    "DEFAULT_MODEL",
    "PointMass",
    "Normal",
    "LogNormal",
    "MixtureStock",
    "TargetDistribution",
    "stock_cdf",
    "kernel_cdf",
    "stock_quantile",
    "kernel_quantile",
    "floor_price",
    "DistributionCost",
    "distribution_superhedge_cost",
    "MomentMatchedTargets",
    "moment_matched_targets",
    "CurvePoint",
    "variance_cost_curve",
    "curve_to_csv",
]

_NODES = 100
_ROOT_ITER = 90
_Q_TOL = 1e-8
_EDGE = 1e-7
_CLIP_LO = 1e-300


def _deferred(name: str):
    # on the first call, import the ufunc and put it in place of this stand-in
    def first_call(*args, **kwargs):
        import scipy.special
        real = getattr(scipy.special, name)
        if globals()[name] is first_call:
            globals()[name] = real
        return real(*args, **kwargs)

    return first_call


log_ndtr, ndtr, ndtri = _deferred("log_ndtr"), _deferred("ndtr"), _deferred("ndtri")


def _check_finite(x: float, what: str) -> float:
    if isinstance(x, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, got {x!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class RegimeSwitchModel:
    """Black-Scholes dynamics with volatility sigma_h w.p. p, else sigma_l.

    The rate r is fixed at zero; theta_h and theta_l are the market prices
    of risk mu/sigma per regime.  sigma_h = sigma_l is accepted and
    collapses the model to a single complete Black-Scholes market, which
    the degenerate-case checks rely on.
    """

    mu: float
    sigma_h: float
    sigma_l: float
    p: float
    T: float
    s0: float

    def __post_init__(self):
        for name in ("mu", "sigma_h", "sigma_l", "p", "T", "s0"):
            object.__setattr__(self, name, _check_finite(getattr(self, name), name))
        if self.mu <= 0:
            raise ValueError(f"drift must be positive, got {self.mu}")
        if not self.sigma_h >= self.sigma_l > 0:
            raise ValueError(
                f"volatilities must satisfy sigma_h >= sigma_l > 0, "
                f"got {self.sigma_h}, {self.sigma_l}"
            )
        if not 0 < self.p < 1:
            raise ValueError(f"regime probability must lie in (0, 1), got {self.p}")
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.s0 <= 0:
            raise ValueError(f"initial price must be positive, got {self.s0}")

    @property
    def theta_h(self) -> float:
        return self.mu / self.sigma_h

    @property
    def theta_l(self) -> float:
        return self.mu / self.sigma_l

    @classmethod
    def from_dict(cls, data: dict) -> "RegimeSwitchModel":
        try:
            unknown = sorted(map(str, set(data) - {f.name for f in fields(cls)}))
            if unknown:
                raise ValueError(f"model JSON has unknown keys {', '.join(unknown)}; r is fixed at 0")
            return cls(**{f.name: data[f.name] for f in fields(cls)})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"model JSON needs keys mu, sigma_h, sigma_l, p, T, s0: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_MODEL = RegimeSwitchModel(mu=0.05, sigma_h=0.3, sigma_l=0.15, p=0.5, T=1.0, s0=1.0)


# ------------------------------------------------------------------ cdfs


def _check_positive(x: float, what: str) -> float:
    if isinstance(x, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, got {x!r}")
    x = float(x)
    if not x > 0:
        raise ValueError(f"{what} must be positive, got {x}")
    return x


def _check_nodes(nodes) -> int:
    # below 40 nodes the rule on [-8, 8] misses unit normal mass by over 1e-14
    try:
        n = -1 if isinstance(nodes, bool) else operator.index(nodes)
    except TypeError:
        n = -1
    if n < 40:
        raise ValueError(f"nodes must be an int >= 40, got {nodes!r}")
    return n


def _check_open_unit(v: float, what: str) -> float:
    v = float(v)
    if not 0 < v < 1:
        raise ValueError(f"{what} must lie in (0, 1), got {v}")
    return v


def _stock_components(model: RegimeSwitchModel):
    """p and the log-means and log-sds of the stock's high and low regimes."""
    rt, base = math.sqrt(model.T), math.log(model.s0) + model.mu * model.T
    sh, sl = model.sigma_h, model.sigma_l
    return model.p, base - sh**2 * model.T / 2, sh * rt, base - sl**2 * model.T / 2, sl * rt


def stock_cdf(model: RegimeSwitchModel, x: float) -> float:
    """P(S_T <= x): probability mixture of the two lognormal regimes."""
    x = _check_positive(x, "cdf argument")
    p, m_h, s_h, m_l, s_l = _stock_components(model)
    return float(p * ndtr((math.log(x) - m_h) / s_h) + (1 - p) * ndtr((math.log(x) - m_l) / s_l))


def _kernel_scores(model: RegimeSwitchModel, q: float, log_x):
    """Standard scores of log x in the high- and low-regime kernel components."""
    rt = math.sqrt(model.T)
    th, tl = model.theta_h, model.theta_l
    z_h = (log_x - math.log(q / model.p) + th**2 * model.T / 2) / (th * rt)
    z_l = (log_x - math.log((1 - q) / (1 - model.p)) + tl**2 * model.T / 2) / (tl * rt)
    return z_h, z_l


def kernel_cdf(model: RegimeSwitchModel, q: float, x: float) -> float:
    """P(xi_T^q <= x) for the kernel that weights the high regime by q."""
    q = _check_open_unit(q, "kernel parameter q")
    x = _check_positive(x, "cdf argument")
    z_h, z_l = _kernel_scores(model, q, math.log(x))
    return float(model.p * ndtr(z_h) + (1 - model.p) * ndtr(z_l))


# ------------------------------------------------------------- quantiles


def _mixture_log_quantile(
    p: float,
    m_h: float,
    s_h: float,
    m_l: float,
    s_l: float,
    u: np.ndarray,
    uc: np.ndarray,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """log of the u-quantile of p * LogN(m_h, s_h^2) + (1-p) * LogN(m_l, s_l^2).

    Safeguarded Newton in log-value space inside the bracket of the two
    component quantiles, on log F(y) = log u on the lower half and on
    log S(y) = log uc, with the exact complement uc, on the upper half: the
    slopes f/F and -f/S stay well scaled in the Gaussian tails, where the
    plain cdf flattens.  Each element starts at ``start`` clipped into the
    bracket, or without one at the bracket end deeper in the tail.  The
    residual's sign shrinks the bracket, and a Newton point outside it
    falls back to the midpoint.  An element freezes once its step or its
    bracket is below 1e-14 max(1, |y|) and takes that last step on return;
    the bracket test ends flat stretches where residual noise over the
    slope exceeds the step tolerance.  Root-finding on the
    component *split* level would instead saturate deep in either tail,
    where the split is not representable in floats.  A level whose u rounds
    to 1 is still inside (0, 1) while uc > 0.
    """
    if np.any(u <= 0.0) or np.any(uc <= 0.0):
        raise BracketError("quantile level outside (0, 1)")
    lower_half = u <= 0.5
    level = np.where(lower_half, u, uc)
    side = np.where(lower_half, 1.0, -1.0)
    m, s = np.array([[m_h], [m_l]]), np.array([[s_h], [s_l]])
    goal = np.log(level)
    ends = m + s * (side * ndtri(level))
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    y = np.where(lower_half, lo, hi) if start is None else np.clip(start, lo, hi)
    log_w = np.log([[p], [1.0 - p]])
    log_wd = log_w - np.log(s * math.sqrt(2.0 * math.pi))
    frozen = np.zeros_like(lower_half)
    # far-apart components can underflow both densities: inf or nan steps bisect
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ROOT_ITER):
            z = (y - m) / s
            tails = log_w + log_ndtr(side * z)
            log_tail = np.logaddexp(tails[0], tails[1])
            hazard = np.exp(log_wd - 0.5 * z * z - log_tail)
            r = log_tail - goal
            step = side * r / (hazard[0] + hazard[1])
            tol = 1e-14 * np.maximum(1.0, np.abs(y))
            frozen |= (np.abs(step) <= tol) | (hi - lo <= tol)
            if frozen.all():
                break
            right = side * r < 0.0
            lo, hi = np.where(right, y, lo), np.where(right, hi, y)
            nxt = y - step
            # hold frozen elements: at the root r can be -0.0, whose step lands
            # on hi and would fall back to the midpoint
            y = np.where(frozen, y, np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi)))
    return np.where(frozen, y - step, y)


@lru_cache(maxsize=32)
def _stock_score_table(model: RegimeSwitchModel):
    """Read-only scores t on [-37, 37], y(t) = log F_S^{-1}(Phi(t)) and dy/dt.

    y is q-free, so one table per model starts every stock-law quantile.
    The grid spans the scores of levels above _CLIP_LO; the slope is
    phi(t) / f_logS(y), taken in logs.
    """
    p, m_h, s_h, m_l, s_l = comps = _stock_components(model)
    t = np.linspace(-37.0, 37.0, 1024)
    y = _mixture_log_quantile(*comps, ndtr(t), ndtr(-t))
    z_h, z_l = (y - m_h) / s_h, (y - m_l) / s_l
    log_f = np.logaddexp(math.log(p / s_h) - z_h * z_h / 2, math.log((1 - p) / s_l) - z_l * z_l / 2)
    slope = np.exp(-t * t / 2 - log_f)
    for a in (t, y, slope):
        a.setflags(write=False)
    return t, y, slope


def _stock_log_quantile(model: RegimeSwitchModel, t, u, uc) -> np.ndarray:
    """log stock quantile at levels u = Phi(t), started by cubic Hermite on the table."""
    grid, y, slope = _stock_score_table(model)
    h = grid[1] - grid[0]
    # fmax and fmin send a nan score to the grid, where its nan level still gives nan
    x = (np.fmin(np.fmax(t, grid[0]), grid[-1]) - grid[0]) / h
    i = np.minimum(x.astype(np.intp), len(grid) - 2)
    s, d0, d1, dy = x - i, h * slope[i], h * slope[i + 1], y[i + 1] - y[i]
    start = y[i] + s * (d0 + s * (3 * dy - 2 * d0 - d1 + s * (d0 + d1 - 2 * dy)))
    return _mixture_log_quantile(*_stock_components(model), u, uc, start)


def stock_quantile(model: RegimeSwitchModel, u: float) -> float:
    """Generalized inverse of stock_cdf at u in (0, 1)."""
    u = _check_open_unit(u, "quantile level u")
    # ndtri(u) only places the start; the level stays exact
    y = _stock_log_quantile(model, np.array([ndtri(u)]), np.array([u]), np.array([1.0 - u]))
    return float(np.exp(y[0]))


def kernel_quantile(model: RegimeSwitchModel, q: float, u: float) -> float:
    """Generalized inverse of kernel_cdf(., q) at u in (0, 1)."""
    q = _check_open_unit(q, "kernel parameter q")
    u = _check_open_unit(u, "quantile level u")
    rt = math.sqrt(model.T)
    th, tl = model.theta_h, model.theta_l
    y = _mixture_log_quantile(
        model.p,
        math.log(q / model.p) - th**2 * model.T / 2,
        th * rt,
        math.log((1.0 - q) / (1.0 - model.p)) - tl**2 * model.T / 2,
        tl * rt,
        np.array([u]),
        np.array([1.0 - u]),
    )
    return float(np.exp(y[0]))


# --------------------------------------------------------------- targets


@dataclass(frozen=True)
class PointMass:
    """Degenerate target delivering the constant ``value``."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _check_finite(self.value, "value"))

    def quantile(self, u: float) -> float:
        _check_open_unit(u, "quantile level u")
        return self.value

    def quantile_from_score(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.value)


@dataclass(frozen=True)
class Normal:
    """Normal target; the quantile is unbounded below, the cost integral converges."""

    mean: float
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _check_finite(self.mean, "mean"))
        object.__setattr__(self, "variance", _check_finite(self.variance, "variance"))
        if self.variance <= 0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def quantile(self, u: float) -> float:
        u = _check_open_unit(u, "quantile level u")
        return self.mean + self.sd * float(ndtri(u))

    def quantile_from_score(self, t: np.ndarray) -> np.ndarray:
        return self.mean + self.sd * np.asarray(t, dtype=float)


@dataclass(frozen=True)
class LogNormal:
    """exp(N(log_mean, log_variance)) target."""

    log_mean: float
    log_variance: float

    def __post_init__(self):
        object.__setattr__(self, "log_mean", _check_finite(self.log_mean, "log-mean"))
        object.__setattr__(self, "log_variance", _check_finite(self.log_variance, "log-variance"))
        if self.log_variance <= 0:
            raise ValueError(f"log-variance must be positive, got {self.log_variance}")

    @property
    def log_sd(self) -> float:
        return math.sqrt(self.log_variance)

    def quantile(self, u: float) -> float:
        u = _check_open_unit(u, "quantile level u")
        return math.exp(self.log_mean + self.log_sd * float(ndtri(u)))

    def quantile_from_score(self, t: np.ndarray) -> np.ndarray:
        return np.exp(self.log_mean + self.log_sd * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class MixtureStock:
    """The stock's own terminal law; Newton starts from a Hermite fit of _stock_score_table."""

    model: RegimeSwitchModel

    def quantile(self, u: float) -> float:
        return stock_quantile(self.model, u)

    def quantile_from_score(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        # ndtr(-t) is the exact complement of ndtr(t); 1 - ndtr(t) is not
        y = _stock_log_quantile(self.model, flat, ndtr(flat), ndtr(-flat))
        return np.exp(y).reshape(t.shape)


TargetDistribution = Union[PointMass, Normal, LogNormal, MixtureStock]


# ------------------------------------------------------------ quadrature


@lru_cache(maxsize=8)
def _gauss_nodes(nodes: int):
    # E[f(V)], V ~ N(0, 1), by Gauss-Legendre on [-8, 8]; truncated mass < 1e-14
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 8.0 * x
    weight = 8.0 * w * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    t.setflags(write=False)
    weight.setflags(write=False)
    return t, weight


@lru_cache(maxsize=32)
def _regime_terms(model: RegimeSwitchModel, nodes: int):
    """Read-only q-free terms of _pairing_price on the high- then the low-regime nodes.

    On regime r's nodes the kernel's own-component score is theta_r sqrt(T) - t
    for every q, and the other component's is base + l(q) * scale, with
    l(q) = log(q / p) - log((1 - q) / (1 - p)).  Returns the weights, base,
    scale, the other component's probability and the own component's
    P(r) ndtr(-score) and P(r) ndtr(score).
    """
    t, weight = _gauss_nodes(nodes)
    p, rt = model.p, math.sqrt(model.T)
    th, tl = model.theta_h * rt, model.theta_l * rt
    half = (th * th - tl * tl) / 2
    own = np.concatenate([th - t, tl - t])
    base = np.concatenate([(th * (th - t) - half) / tl, (tl * (tl - t) + half) / th])
    p_own = np.repeat([p, 1.0 - p], nodes)
    scale = np.repeat([1.0 / tl, -1.0 / th], nodes)
    terms = (weight, base, scale, p_own[::-1].copy(), p_own * ndtr(-own), p_own * ndtr(own))
    for a in terms:
        a.setflags(write=False)
    return terms


def _pairing_price(
    model: RegimeSwitchModel, q: float, target: TargetDistribution, nodes: int
) -> float:
    """E[xi^q G(xi^q)] with G = F_target^{-1} o S_q, the anti-comonotone price.

    In regime r, P(r) c_r is q or 1 - q and a Girsanov shift absorbs the
    exponential: the price is sum_r P(r) c_r E[G(xi_r(W))] with
    W = sqrt(T) (V - theta_r sqrt(T)), V standard normal.  Per q only the
    other component's score shifts; _regime_terms holds the q-free rest once
    per model.  The target is read at the normal score of the smaller tail
    of S_q, so neither tail cancels.
    """
    weight, base, scale, p_other, own_sf, own_cdf = _regime_terms(model, nodes)
    z = base + (math.log(q / model.p) - math.log((1.0 - q) / (1.0 - model.p))) * scale
    sf = own_sf + p_other * ndtr(-z)
    cdf = own_cdf + p_other * ndtr(z)
    use_sf = sf < 0.5
    score = ndtri(np.maximum(np.where(use_sf, sf, cdf), _CLIP_LO))
    score = np.where(use_sf, score, -score)
    g_h, g_l = target.quantile_from_score(score).reshape(2, -1)
    value = q * float(np.dot(weight, g_h)) + (1.0 - q) * float(np.dot(weight, g_l))
    if not math.isfinite(value):
        raise NumericalError("cost integral diverged; target tail too heavy")
    return value


def floor_price(
    model: RegimeSwitchModel,
    q: float,
    target: TargetDistribution,
    nodes: int = _NODES,
) -> float:
    """Price of the anti-comonotone pairing of the target with kernel q.

    This is the cheapest cost of any payoff with the target law, seen by the
    single kernel q.  It is a Gaussian expectation of a closed-form integrand
    in value space (see _pairing_price), computed with ``nodes``
    Gauss-Legendre nodes on [-8, 8] standard deviations, an int of at least
    40.  Point masses are returned exactly.
    """
    nodes = _check_nodes(nodes)
    q = _check_open_unit(q, "kernel parameter q")
    if isinstance(target, PointMass):
        return target.value
    return _pairing_price(model, q, target, nodes)


# ---------------------------------------------------------- optimization


@dataclass(frozen=True, slots=True)
class DistributionCost:
    """Superhedging cost of a distribution and the maximizing kernel weight."""

    value: float
    q_star: float


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def distribution_superhedge_cost(
    model: RegimeSwitchModel,
    target: TargetDistribution,
    nodes: int = _NODES,
) -> DistributionCost:
    """sup over q of floor_price: the cost of the cheapest superhedge of a law.

    floor_price is concave in q, because the kernel is affine in q, so
    golden-section search over [1e-7, 1 - 1e-7] shrinks a bracket on the
    maximizer to width 1e-8.  Near a flat top, rounding in g = floor_price
    fixes q* only to about sqrt(eps / |g''|), while the cost g(q*) is fixed
    to rounding.  A RuntimeWarning flags maximizers within 1e-6 of the
    endpoints, where the kernel family degenerates.
    """
    nodes = _check_nodes(nodes)
    if isinstance(target, PointMass):
        return DistributionCost(target.value, 0.5)

    def g(q: float) -> float:
        return _pairing_price(model, q, target, nodes)

    a, b = _EDGE, 1.0 - _EDGE
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = g(x1), g(x2)
    while b - a > _Q_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = g(x1)
    q_star = 0.5 * (a + b)
    if q_star < 1e-6 or q_star > 1.0 - 1e-6:
        warnings.warn(
            f"optimal kernel weight {q_star} sits at the edge of (0, 1)",
            RuntimeWarning,
            stacklevel=2,
        )
    return DistributionCost(g(q_star), q_star)


# ------------------------------------------------------- moment matching


@dataclass(frozen=True)
class MomentMatchedTargets:
    """Normal and lognormal targets sharing the stock's mean and variance."""

    mean: float
    variance: float
    normal: Normal
    lognormal: LogNormal


def _lognormal_for(mean: float, variance: float) -> LogNormal:
    s2 = math.log(1.0 + variance / mean**2)
    return LogNormal(math.log(mean) - s2 / 2.0, s2)


def moment_matched_targets(model: RegimeSwitchModel) -> MomentMatchedTargets:
    """Targets matching E[S_T] and Var[S_T] of the regime-switching stock."""
    mean = model.s0 * math.exp(model.mu * model.T)
    variance = (
        model.p * math.exp(model.sigma_h**2 * model.T)
        + (1.0 - model.p) * math.exp(model.sigma_l**2 * model.T)
        - 1.0
    ) * model.s0**2 * math.exp(2.0 * model.mu * model.T)
    return MomentMatchedTargets(
        mean, variance, Normal(mean, variance), _lognormal_for(mean, variance)
    )


# ----------------------------------------------------------------- curve


@dataclass(frozen=True, slots=True)
class CurvePoint:
    variance: float
    cost_normal: float
    cost_lognormal: float


def variance_cost_curve(
    model: RegimeSwitchModel, variances: Sequence[float]
) -> list[CurvePoint]:
    """Superhedging cost of normal/lognormal laws with the stock's mean, per variance.

    Larger variance means larger in convex order within each family, hence
    a cheaper distribution: both columns are nonincreasing.
    """
    vs = [float(v) for v in variances]
    if not vs:
        raise ValueError("variance grid is empty")
    if not all(0 < v < math.inf for v in vs):
        raise ValueError("variances must be positive and finite")
    if any(b <= a for a, b in zip(vs, vs[1:])):
        raise ValueError("variance grid must be strictly increasing")
    mean = model.s0 * math.exp(model.mu * model.T)
    return [
        CurvePoint(
            v,
            distribution_superhedge_cost(model, Normal(mean, v)).value,
            distribution_superhedge_cost(model, _lognormal_for(mean, v)).value,
        )
        for v in vs
    ]


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    lines = ["variance,cost_normal,cost_lognormal"]
    for pt in points:
        lines.append(
            f"{_csv_num(pt.variance)},{_csv_num(pt.cost_normal)},{_csv_num(pt.cost_lognormal)}"
        )
    return "\n".join(lines) + "\n"


def _csv_num(x: float) -> str:
    return format(float(x), ".12g")
