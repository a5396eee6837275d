"""Reference computations made apart from effico.

Nothing here calls the package.  The 3-state values are restated from the
paper's table; convex-order membership is a majorization test written out
again; the n-state superhedging problems are posed as LPs and a MILP and
solved with scipy's HiGHS; the regime-switching costs come from a
value-space quadrature (no quantile of the kernel is inverted) and a
golden-section search over the kernel weight q, with an error estimate
from node doubling.

Every check returns a list of error strings; an empty list means the
output passed.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.special import ndtr, ndtri

FLOAT_TOL = 1e-9  # float copies of rational inputs: relative agreement
HIGHS_TOL = 1e-7  # HiGHS solutions against exact values: relative agreement


def close(a, b, tol) -> bool:
    """|a - b| <= tol * max(1, |b|); tol = 0 demands exact equality."""
    if tol == 0:
        return a == b
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


# ---------------------------------------------------- 3-state closed forms


def three_state_table(x, y, z):
    """(maximin = both convexified values, minimax) for x < y < z.

    Canonical market s0 = 2, states (4, 2, 1); delta1 = 2x - 3y + z.
    """
    d1 = 2 * x - 3 * y + z
    if d1 > 0:
        return (2 * x + y + z) / 4, (2 * x + z) / 3
    if d1 == 0:
        return y, y
    return (2 * x + 2 * y + z) / 5, y


# ------------------------------------------------------ law and convex hull


def same_law(payoff, values, tol) -> bool:
    a, b = sorted(payoff), sorted(values)
    return len(a) == len(b) and all(close(u, v, tol) for u, v in zip(a, b))


def majorized(payoff, values, tol) -> bool:
    """payoff lies in the convex hull of the rearrangements of values."""
    a = sorted(payoff, reverse=True)
    b = sorted(values, reverse=True)
    if len(a) != len(b) or not close(sum(a), sum(b), tol):
        return False
    pa = pb = 0
    for u, v in zip(a, b):
        pa += u
        pb += v
        if not (pa <= pb or close(pa, pb, tol)):
            return False
    return True


def _payoff_points(opt):
    """The payoff point, or both endpoints of a payoff segment."""
    p = opt.payoff
    if p.step is None:
        return [p.base]
    return [tuple(b + t * s for b, s in zip(p.base, p.step)) for t in p.t_range]


def check_solutions(values, sols, tol, perfect) -> list[str]:
    """The invariant chain and the optimizers of the four problems.

    ``sols`` is (maximin, convexified maximin, convexified minimax,
    minimax).  maximin = convexified maximin = convexified minimax <=
    minimax, with equality exactly when the law is perfectly cost-efficient
    (``perfect`` is None where that is not known beforehand).  Maximin and
    minimax optimizers carry the target law; convexified optimizers lie in
    its permutation hull.
    """
    errors = []
    mm, cmm, cmx, mx = (s.value for s in sols)
    if not (close(mm, cmm, tol) and close(cmm, cmx, tol)):
        errors.append(f"chain: maximin {mm}, convexified {cmm}, {cmx} differ")
    if perfect is None:
        if mx < cmx and not close(mx, cmx, tol):
            errors.append(f"chain: minimax {mx} below convexified minimax {cmx}")
    elif perfect and not close(mx, cmx, tol):
        errors.append(f"chain: perfectly cost-efficient law but minimax {mx} != {cmx}")
    elif not perfect and not (mx > cmx and not close(mx, cmx, tol)):
        errors.append(f"chain: minimax {mx} not strictly above {cmx}")
    for sol, in_hull in zip(sols, (False, True, True, False)):
        test = majorized if in_hull else same_law
        if not sol.optimizers:
            errors.append(f"{sol.problem.value}: no optimizer")
        for opt in sol.optimizers:
            for point in _payoff_points(opt):
                if not test(point, values, tol):
                    errors.append(f"{sol.problem.value}: optimizer {point} off the law")
                    break
    return errors


# ---------------------------------------------- n-state LPs solved by HiGHS


def _floats(rows):
    return [[float(v) for v in row] for row in rows]


def convexified_minimax_highs(s0, sT, values) -> float:
    """min cost of a bond+stock superhedge of some Z in the permutation hull.

    The hull is written with its 2^n - 2 subset-sum inequalities, the
    superhedge as y0 + sum_j y_j sT[j][i] >= Z_i in every state; by LP
    duality the cost equals the sup over pricing kernels.
    """
    n, d = len(values), len(s0)
    v = sorted((float(x) for x in values), reverse=True)
    top = np.cumsum(v)
    sT = _floats(sT)
    a_ub, b_ub = [], []
    for i in range(n):
        row = [0.0] * (n + 1 + d)
        row[i] = 1.0
        row[n] = -1.0
        for j in range(d):
            row[n + 1 + j] = -sT[j][i]
        a_ub.append(row)
        b_ub.append(0.0)
    for k in range(1, n):
        for subset in combinations(range(n), k):
            row = [0.0] * (n + 1 + d)
            for i in subset:
                row[i] = 1.0
            a_ub.append(row)
            b_ub.append(top[k - 1])
    a_eq = [[1.0] * n + [0.0] * (1 + d)]
    c = [0.0] * n + [1.0] + [float(s) for s in s0]
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[top[-1]],
        bounds=[(None, None)] * (n + 1 + d), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS LP ended with status {res.status}: {res.message}")
    return float(res.fun)


def minimax_highs(s0, sT, values) -> float:
    """min cost of a superhedge of some rearrangement of values, as a MILP.

    A binary assignment matrix P (P[i][k] = 1 gives state i the k-th
    value) replaces the enumeration of permutations.
    """
    n, d = len(values), len(s0)
    v = [float(x) for x in values]
    sT = _floats(sT)
    nv = n * n + 1 + d
    rows, lo, hi = [], [], []
    for i in range(n):
        row = [0.0] * nv
        for k in range(n):
            row[i * n + k] = v[k]
        row[n * n] = -1.0
        for j in range(d):
            row[n * n + 1 + j] = -sT[j][i]
        rows.append(row)
        lo.append(-np.inf)
        hi.append(0.0)
    for i in range(n):
        row = [0.0] * nv
        for k in range(n):
            row[i * n + k] = 1.0
        rows.append(row)
        lo.append(1.0)
        hi.append(1.0)
    for k in range(n):
        row = [0.0] * nv
        for i in range(n):
            row[i * n + k] = 1.0
        rows.append(row)
        lo.append(1.0)
        hi.append(1.0)
    c = [0.0] * (n * n) + [1.0] + [float(s) for s in s0]
    integrality = [1] * (n * n) + [0] * (1 + d)
    bounds = Bounds([0.0] * (n * n) + [-np.inf] * (1 + d), [1.0] * (n * n) + [np.inf] * (1 + d))
    res = milp(
        c, constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=integrality, bounds=bounds, options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS MILP ended with status {res.status}: {res.message}")
    return float(res.fun)


# ------------------------------------------------- regime-switching oracle

_LIMIT = 12.0  # standard-normal units; the truncated mass is below 1e-32
_Q_LO, _Q_HI = 1e-6, 1.0 - 1e-6
_Q_STEP = 1e-7
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REGIME_TOL_FLOOR = 1e-9


@lru_cache(maxsize=4)
def _legendre(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    v = _LIMIT * x
    return v, _LIMIT * w * np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)


def normal_quantile(mean, variance):
    sd = math.sqrt(variance)
    return lambda t: mean + sd * t


def lognormal_quantile(log_mean, log_variance):
    s = math.sqrt(log_variance)
    return lambda t: np.exp(log_mean + s * t)


def stock_quantile(mu, sigma_h, sigma_l, p, T, s0):
    """Quantile of the two-regime lognormal stock at level Phi(t).

    Bisection in log value between the two component quantiles, on the cdf
    for t <= 0 and on the survival function for t > 0.
    """
    rt = math.sqrt(T)
    m_h = math.log(s0) + (mu - sigma_h**2 / 2) * T
    m_l = math.log(s0) + (mu - sigma_l**2 / 2) * T
    s_h, s_l = sigma_h * rt, sigma_l * rt

    def quantile(t):
        t = np.asarray(t, dtype=float)
        upper = t > 0
        level = ndtr(-np.abs(t))  # the smaller tail, without cancellation
        lo = np.minimum(m_h + s_h * t, m_l + s_l * t)
        hi = np.maximum(m_h + s_h * t, m_l + s_l * t)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            z_h, z_l = (mid - m_h) / s_h, (mid - m_l) / s_l
            tail = np.where(
                upper,
                p * ndtr(-z_h) + (1 - p) * ndtr(-z_l),
                p * ndtr(z_h) + (1 - p) * ndtr(z_l),
            )
            right = np.where(upper, tail > level, tail < level)
            lo = np.where(right, mid, lo)
            hi = np.where(right, hi, mid)
        return np.exp(0.5 * (lo + hi))

    return quantile


class RegimeOracle:
    """Superhedging cost of a law in the two-regime Black-Scholes model.

    With xi^q = c_r exp(-theta_r W - theta_r^2 T / 2) in regime r
    (c_H = q/p, c_L = (1-q)/(1-p)), the anti-comonotone price is
    sum_r P(r) c_r E[G(xi_r(V - theta_r sqrt T))], V standard normal and
    G(x) = F_target^{-1}(1 - F_xi(x)); both F_xi and F_target^{-1} have
    closed forms for the targets used, so the integrand is smooth.
    """

    def __init__(self, mu, sigma_h, sigma_l, p, T, s0, nodes=100):
        self.mu, self.p, self.T, self.s0 = mu, p, T, s0
        self.theta = (mu / sigma_h, mu / sigma_l)
        self.nodes = nodes

    def g(self, q, quantile, nodes) -> float:
        """Anti-comonotone price of the target under the kernel with weight q."""
        v, weight = _legendre(nodes)
        rt = math.sqrt(self.T)
        th, tl = self.theta
        p = self.p
        log_ch, log_cl = math.log(q / p), math.log((1 - q) / (1 - p))
        total = 0.0
        for prob, log_c, theta in ((p, log_ch, th), (1 - p, log_cl, tl)):
            w = (v - theta * rt) * rt
            log_xi = log_c - theta * w - theta**2 * self.T / 2
            z_h = (log_xi - log_ch + th**2 * self.T / 2) / (th * rt)
            z_l = (log_xi - log_cl + tl**2 * self.T / 2) / (tl * rt)
            surv = p * ndtr(-z_h) + (1 - p) * ndtr(-z_l)
            cdf = p * ndtr(z_h) + (1 - p) * ndtr(z_l)
            score = np.where(
                surv < 0.5,
                ndtri(np.clip(surv, 1e-300, 1.0)),
                -ndtri(np.clip(cdf, 1e-300, 1.0)),
            )
            total += prob * math.exp(log_c) * float(np.dot(weight, quantile(score)))
        return total

    def cost(self, quantile):
        """(value, q*, error): the sup over q, with the node-doubling error at q*.

        g is concave in q (the kernel is affine in q), so golden-section
        search over [1e-6, 1 - 1e-6] finds the maximizer.
        """
        a, b = _Q_LO, _Q_HI
        x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        f1, f2 = self.g(x1, quantile, self.nodes), self.g(x2, quantile, self.nodes)
        while b - a > _Q_STEP:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLDEN * (b - a)
                f2 = self.g(x2, quantile, self.nodes)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLDEN * (b - a)
                f1 = self.g(x1, quantile, self.nodes)
        q = 0.5 * (a + b)
        coarse = self.g(q, quantile, self.nodes)
        fine = self.g(q, quantile, 2 * self.nodes)
        return fine, q, abs(fine - coarse)

    def floor(self, quantile) -> float:
        """Price under the physical kernel q = p: a lower bound of the cost."""
        return self.g(self.p, quantile, 2 * self.nodes)


def regime_tolerance(error) -> float:
    """Agreement demanded of effico: ten node-doubling errors plus a floor.

    The floor covers the oracle's q bracket of 1e-7, which on a concave g
    moves the value by far less than 1e-9.
    """
    return REGIME_TOL_FLOOR + 10.0 * error
