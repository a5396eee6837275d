"""The four cost-efficiency problems on a distribution of terminal wealth.

Given a target distribution F on n equiprobable atoms and the pricing
kernels of an incomplete market, four optimal values are of interest:

* maximin:               sup over kernels of the cheapest payoff with law F,
* convexified maximin:   same, with the payoff ranging over conv(F),
* convexified minimax:   cheapest superhedge over conv(F),
* minimax:               cheapest superhedge over payoffs with law exactly F.

The first three always coincide; the fourth can be strictly larger, and
equality characterizes perfect cost-efficiency (z = 3y - 2x in the 3-state
model).  Closed forms for the 3-state market live in
``three_state_closed_form``; the generic solvers work on any market small
enough to enumerate and agree with the closed forms on the canonical one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import Optional, Sequence

from ._numbers import Num, Problem, all_exact, average_dot, format_number, is_exact, parse_number
from .distribution import DiscreteDistribution
from .errors import DimensionMismatchError, NumericalError, TooManyStatesError
from .lp import LpBuilder, add_top_k_sum_bound, solve_lp
from .market import (
    DiscreteMarket,
    KernelFamily,
    ParametricFamily,
    PricingKernel,
    VertexFamily,
    kernel_family,
    price,
    superhedge_cost,
)

__all__ = [
    "Problem",
    "ThreeStateTarget",
    "PayoffSet",
    "KernelSet",
    "Optimizer",
    "SolutionSet",
    "KkmDiagnostics",
    "three_state_closed_form",
    "maximin_cost",
    "minimax_cost",
    "convexified_maximin_cost",
    "convexified_minimax_cost",
    "solve_problem",
    "is_perfectly_cost_efficient",
    "is_attainable_payoff",
    "attainable_permutations",
    "attainable_cost_efficient_payoffs",
    "kkm_diagnostics",
]

_VALUE_TOL = 1e-9
_MATCH_TOL = 1e-9
_GENERIC_MAX_STATES = 7

_FIFTH = Fraction(1, 5)
_QUARTER = Fraction(1, 4)
_THIRD = Fraction(1, 3)


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
        x, y, z = (parse_number(v) for v in (self.x, self.y, self.z))
        if not all_exact((x, y, z)):
            x, y, z = float(x), float(y), float(z)
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
        return DiscreteDistribution((self.x, self.y, self.z))


def _as_target(obj) -> ThreeStateTarget:
    if isinstance(obj, ThreeStateTarget):
        return obj
    if isinstance(obj, DiscreteDistribution):
        vals = obj.values
    else:
        vals = tuple(obj)
    if len(vals) != 3:
        raise DimensionMismatchError("a three-state target needs exactly 3 values")
    return ThreeStateTarget(*vals)


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


def _kernel_weights_at(u: Num) -> tuple[Num, ...]:
    # canonical 3-state family (3u, 3-9u, 6u)
    return (3 * u, 3 - 9 * u, 6 * u)


def _kernel_point(u: Num) -> KernelSet:
    w = _kernel_weights_at(u)
    return KernelSet(weights=w, u=u, boundary=any(v == 0 for v in w))


def _kernel_range(lo: Num, hi: Num) -> KernelSet:
    boundary = any(v == 0 for v in _kernel_weights_at(lo) + _kernel_weights_at(hi))
    return KernelSet(u_range=(lo, hi), boundary=boundary)


def _point(values: Sequence[Num]) -> PayoffSet:
    return PayoffSet(tuple(values))


def _segment(base: Sequence[Num], step: Sequence[Num], hi: Num) -> PayoffSet:
    zero = Fraction(0) if is_exact(hi) else 0.0
    return PayoffSet(tuple(base), tuple(step), (zero, hi))


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


# ---------------------------------------------------------------- generic


def _as_dist(obj) -> DiscreteDistribution:
    return obj if isinstance(obj, DiscreteDistribution) else DiscreteDistribution(tuple(obj))


def _check_shapes(market: DiscreteMarket, dist: DiscreteDistribution) -> None:
    if dist.n != market.n:
        raise DimensionMismatchError(
            f"distribution has {dist.n} atoms, market has {market.n} states"
        )
    if market.n > _GENERIC_MAX_STATES:
        raise TooManyStatesError(
            f"generic solvers support up to {_GENERIC_MAX_STATES} states, got {market.n}"
        )


def _weight_blocks(weights, exact: bool) -> list[list[int]]:
    """State indices by decreasing weight, in blocks of (near-)equal weights."""
    tol = 0 if exact else 1e-9 * max(1.0, max(abs(float(w)) for w in weights))
    order = sorted(range(len(weights)), key=lambda i: (-float(weights[i]), i))
    blocks: list[list[int]] = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if abs(weights[prev] - weights[cur]) <= tol:
            blocks[-1].append(cur)
        else:
            blocks.append([cur])
    return blocks


def _minimizing_payoffs(weights, values, exact: bool, blocks=None):
    """Min price over payoffs with the given value multiset, with all argmins.

    The minimum pairs large weights with small values.  Every distinct
    minimizing arrangement is returned: within blocks of (near-)equal
    weights the assigned values may be permuted freely.  ``blocks`` is
    ``_weight_blocks(weights, exact)``, if the caller keeps it.
    """
    n = len(weights)
    blocks = blocks or _weight_blocks(weights, exact)
    sorted_vals = sorted(values)
    pos = 0
    block_slices: list[tuple[list[int], tuple]] = []
    for block in blocks:
        block_slices.append((block, tuple(sorted_vals[pos : pos + len(block)])))
        pos += len(block)

    base = [None] * n
    for block, vals in block_slices:
        for i, v in zip(block, vals):
            base[i] = v
    min_price = average_dot(weights, base)

    arrangements = []
    for block, vals in block_slices:
        if len(set(vals)) == 1:
            arrangements.append([vals])
        else:
            # dict.fromkeys keeps the sorted order of the permutations, so the
            # final sort is cheap; distinct block arrangements combine distinctly
            arrangements.append(list(dict.fromkeys(permutations(vals))))
    vectors = []
    for combo in product(*arrangements):
        vec = [None] * n
        for (block, _), vals in zip(block_slices, combo):
            for i, v in zip(block, vals):
                vec[i] = v
        vectors.append(tuple(vec))
    return min_price, sorted(vectors, reverse=True)


def _pair_segments(vectors, kernel: KernelSet):
    """Segments joining argmin pairs that differ by one transposition.

    The face of payoffs tied at a kernel is the hull of the tied vectors;
    its edges are the transposition pairs reported here.  Vectors in no
    pair are returned separately as leftover points.

    All vectors rearrange one value multiset, so two of them differ in
    exactly two places iff one is a transposition of the other: each
    vector's partners are looked up by swapping its entries, O(m n^2)
    work for m vectors.  Segments come ordered by the first vector's
    index, then the second's.  The segment runs from the larger vector in
    direction -1 at k1 and +1 at k2 (k1 < k2), so one step tuple per
    (k1, k2) and one range per (t0, delta) are shared by every segment.
    """
    if not vectors:
        return [], []
    n = len(vectors[0])
    code = {v: c for c, v in enumerate(sorted({v for vec in vectors for v in vec}))}
    keys = [tuple(code[v] for v in vec) for vec in vectors]
    index = {key: i for i, key in enumerate(keys)}
    exact = is_exact(vectors[0][0])
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    steps: dict = {}
    ranges: dict = {}
    segments: list[Optimizer] = []
    covered = [False] * len(vectors)
    for a_idx, key in enumerate(keys):
        partners = []
        for k1 in range(n):
            for k2 in range(k1 + 1, n):
                if key[k1] == key[k2]:
                    continue
                swapped = list(key)
                swapped[k1], swapped[k2] = key[k2], key[k1]
                b_idx = index.get(tuple(swapped), -1)
                if b_idx > a_idx:
                    partners.append((b_idx, k1, k2))
        partners.sort()
        a = vectors[a_idx]
        for b_idx, k1, k2 in partners:
            b = vectors[b_idx]
            base = a if a >= b else b
            step = steps.get((k1, k2))
            if step is None:
                step = tuple(-one if k == k1 else one if k == k2 else zero for k in range(n))
                steps[k1, k2] = step
            # t0 = step[0] * 0 is -0.0 for a float step with k1 = 0; the key keeps it apart
            rkey = (k1 == 0, key[k1], key[k2])
            t_range = ranges.get(rkey)
            if t_range is None:
                t_range = (step[0] * 0, abs(base[k1] - base[k2]))
                ranges[rkey] = t_range
            segments.append(Optimizer(PayoffSet(base, step, t_range), kernel))
            covered[a_idx] = covered[b_idx] = True
    leftovers = [v for v, hit in zip(vectors, covered) if not hit]
    return segments, leftovers


def _once(obj, key: str, build):
    """``build()``, kept on ``obj`` as a cached_property would be, so it runs once per object."""
    memo = vars(obj)
    return memo[key] if key in memo else memo.setdefault(key, build())


def _kernel_set_for(k: PricingKernel) -> KernelSet:
    return _once(k, "_kernel_set", lambda: KernelSet(k.weights, k.u, boundary=k.is_boundary))


def _attaining_kernel_sets(fam: KernelFamily, res) -> list[KernelSet]:
    """One KernelSet per kernel attaining a superhedge, or the family's whole u-range."""
    if res.u_range is None:
        return [_kernel_set_for(k) for k in res.kernels]
    kset = _once(
        fam, "_u_range_set", lambda: KernelSet(u_range=res.u_range, boundary=res.any_boundary)
    )
    return [kset]


def _breakpoints(fam: ParametricFamily, exact: bool):
    """Where two weights cross, with the kernels there and their tie blocks.

    Built once per family object and flag, so every law solved on the
    family shares the kernels; float laws merge points within 1e-12.  The
    last item holds the KernelSets of u-ranges between breakpoints.
    """

    def build():
        points = [fam.u_min, fam.u_max]
        for i in range(fam.n):
            for j in range(i + 1, fam.n):
                dd = fam.direction[i] - fam.direction[j]
                if dd != 0:
                    u = (fam.base[j] - fam.base[i]) / dd
                    if fam.u_min < u < fam.u_max:
                        points.append(u)
        points.sort()
        bps = [points[0]]
        tol = 0 if exact else 1e-12
        for u in points[1:]:
            if u - bps[-1] > tol:
                bps.append(u)
        kernels = [fam.kernel_at(u) for u in bps]
        return bps, kernels, [_weight_blocks(k.weights, exact) for k in kernels], {}

    return _once(fam, f"_breakpoints_{exact}", build)


def _maximin_parametric(fam: ParametricFamily, dist, exact, convexified):
    bps, kernels, blocks, range_sets = _breakpoints(fam, exact)
    evals = [_minimizing_payoffs(k.weights, dist.values, exact, b) for k, b in zip(kernels, blocks)]
    value = max(mp for mp, _ in evals)
    tol = 0 if exact else _VALUE_TOL * max(1.0, abs(float(value)))
    attain = [abs(mp - value) <= tol for mp, _ in evals]

    # payoffs optimal across a whole flat stretch of breakpoints, as index spans
    flat: dict[tuple, list[tuple[int, int]]] = {}
    for i in range(len(bps) - 1):
        if attain[i] and attain[i + 1]:
            shared = set(evals[i][1]) & set(evals[i + 1][1])
            for vec in shared:
                spans = flat.setdefault(vec, [])
                if spans and spans[-1][1] == i:
                    spans[-1] = (spans[-1][0], i + 1)
                else:
                    spans.append((i, i + 1))

    opts: list[Optimizer] = []
    for vec in sorted(flat, reverse=True):
        for lo, hi in flat[vec]:
            boundary = kernels[lo].is_boundary or kernels[hi].is_boundary
            kset = KernelSet(u_range=(bps[lo], bps[hi]), boundary=boundary)
            opts.append(Optimizer(_point(vec), range_sets.setdefault((lo, hi), kset)))

    def _flat_covers(vec, i) -> bool:
        return any(lo <= i <= hi for lo, hi in flat.get(vec, ()))

    for i in range(len(bps)):
        if not attain[i]:
            continue
        vectors = evals[i][1]
        kset = _kernel_set_for(kernels[i])
        if convexified:
            segments, leftovers = _pair_segments(vectors, kset)
            opts.extend(segments)
            for vec in leftovers:
                if not _flat_covers(vec, i):
                    opts.append(Optimizer(_point(vec), kset))
        else:
            for vec in vectors:
                if not _flat_covers(vec, i):
                    opts.append(Optimizer(_point(vec), kset))
    return value, opts


def _maximin_vertex(market, fam: VertexFamily, dist, exact, convexified):
    if len(fam.vertices) == 1:
        best_kernel = fam.vertices[0]
    else:
        best_kernel = _maximin_kernel(market, dist, exact)
    value, vectors = _minimizing_payoffs(best_kernel.weights, dist.values, exact)
    kset = _kernel_set_for(best_kernel)
    opts: list[Optimizer] = []
    if convexified:
        segments, leftovers = _pair_segments(vectors, kset)
        opts.extend(segments)
        opts.extend(Optimizer(_point(vec), kset) for vec in leftovers)
    else:
        opts.extend(Optimizer(_point(vec), kset) for vec in vectors)
    return value, opts


def _maximin_kernel(market, dist, exact) -> PricingKernel:
    """A kernel maximizing the cheapest rearrangement price, by one LP.

    With sorted values v_(1) <= ... <= v_(n) and gaps d_k = v_(k+1) - v_(k),
    n times the cheapest price under weights w is n v_(1) plus the sum over
    k of d_k times the sum of the n - k smallest weights, and that sum is
    the max over theta of (n - k) theta - sum_i (theta - w_i)^+: the lift of
    ``add_top_k_sum_bound``, applied to the bottom of w.
    """
    n = market.n
    zero = Fraction(0) if exact else 0.0
    vals = dist.values
    builder = LpBuilder()
    ws = [builder.add_var(lo=zero) for _ in range(n)]
    builder.add_eq({w: 1 for w in ws}, n)
    for j in range(market.assets):
        builder.add_eq({ws[i]: market.sT[j][i] for i in range(n)}, n * market.s0[j])
    gaps = [(k, vals[k] - vals[k - 1]) for k in range(1, n) if vals[k] > vals[k - 1]]
    thetas = [builder.add_var(cost=gap * (n - k)) for k, gap in gaps]
    overs = [[builder.add_var(cost=-gap, lo=zero) for _ in ws] for _, gap in gaps]
    # Bland's rule follows the column and row order.  Rows grouped by state
    # pivot about a quarter less than rows grouped by gap when the uniform
    # kernel is admissible, and no more otherwise.
    for i, w in enumerate(ws):
        for theta, over in zip(thetas, overs):
            builder.add_ub({theta: 1, w: -1, over[i]: -1}, zero)
    sol = solve_lp(builder.build(), sense="max")
    if sol.status != "optimal":
        raise NumericalError(f"maximin LP ended with status {sol.status}")
    return PricingKernel(tuple(sol.x[w] for w in ws))


def _solve_maximin(market, dist, convexified: bool) -> SolutionSet:
    market_dist_exact = market.is_exact and all_exact(dist.values)
    fam = kernel_family(market)
    if isinstance(fam, ParametricFamily):
        value, opts = _maximin_parametric(fam, dist, market_dist_exact, convexified)
    else:
        value, opts = _maximin_vertex(market, fam, dist, market_dist_exact, convexified)
    problem = Problem.CONVEXIFIED_MAXIMIN if convexified else Problem.MAXIMIN
    return SolutionSet(problem, value, tuple(opts))


def maximin_cost(market: DiscreteMarket, dist) -> SolutionSet:
    """sup over kernels of the cheapest rearrangement price of the distribution.

    The inner minimum is the anti-comonotone pairing of kernel weights and
    distribution values; it is concave in the kernel.  Along a one-parameter
    family the outer maximum is found at breakpoints and ties are reported
    in full, including whole flat parameter ranges.  On a vertex family it is
    one LP, and the optimizers listed are those at the one maximin kernel
    that LP returns.
    """
    dist = _as_dist(dist)
    _check_shapes(market, dist)
    return _solve_maximin(market, dist, convexified=False)


def convexified_maximin_cost(market: DiscreteMarket, dist) -> SolutionSet:
    """Maximin with the payoff relaxed to the convex hull of rearrangements.

    The value equals ``maximin_cost`` (a linear objective attains its
    minimum over a hull at extreme points); the optimizer set grows by the
    segments joining tied rearrangements.
    """
    dist = _as_dist(dist)
    _check_shapes(market, dist)
    return _solve_maximin(market, dist, convexified=True)


def _extreme_kernels(fam: KernelFamily) -> tuple[PricingKernel, ...]:
    if isinstance(fam, ParametricFamily):
        return fam.endpoint_kernels()
    return fam.vertices


def _integer_scaled(values: Sequence[Fraction]) -> list[int]:
    """Exact values times their least common denominator: integers in the same ratios."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values]


def _values_at(values: Sequence[Num], arrangement: Sequence[int]) -> tuple[Num, ...]:
    """The values an arrangement of first-occurrence indices stands for.

    The k-th use of an index takes the k-th of the values equal to it, as
    the first permutation of ``values`` with that pattern does.  The choice
    shows only for floats, where 0.0 and -0.0 are equal.
    """
    used = dict.fromkeys(arrangement, 0)
    out = []
    for c in arrangement:
        out.append(values[c + used[c]])
        used[c] += 1
    return tuple(out)


def minimax_cost(market: DiscreteMarket, dist) -> SolutionSet:
    """Cheapest superhedging cost over payoffs distributed exactly as ``dist``.

    Every arrangement is first screened by its prices under the extreme
    kernels, scaled to integers for exact input and in floats otherwise;
    only arrangements tied with the cheapest get a full ``superhedge_cost``.
    """
    dist = _as_dist(dist)
    _check_shapes(market, dist)
    exact = market.is_exact and all_exact(dist.values)
    fam = kernel_family(market)
    n = dist.n
    values = dist.values
    rows = [k.weights for k in _extreme_kernels(fam)]
    if exact:
        xs = _integer_scaled(values)
        flat = _integer_scaled([w for row in rows for w in row])
        rows = [flat[i : i + n] for i in range(0, len(flat), n)]
        margin = 0
    else:
        # Scores are n times prices, and prices lie between the extreme
        # values: this is twice the tie tolerance below, so rounding cannot
        # screen out a tied arrangement.
        xs = [float(v) for v in values]
        rows = [[float(w) for w in row] for row in rows]
        margin = 2 * n * _VALUE_TOL * max(1.0, abs(xs[0]), abs(xs[-1]))
    # Arrangements of first-occurrence indices sort like the arrangements of
    # the values themselves.
    first = [values.index(v) for v in values]
    arrangements = sorted(set(permutations(first)), reverse=True)
    scores = [max(sum(w * xs[c] for w, c in zip(row, arr)) for row in rows) for arr in arrangements]
    cut = min(scores) + margin
    results = []
    for arr, score in zip(arrangements, scores):
        if score <= cut:
            vec = _values_at(values, arr)
            results.append((vec, superhedge_cost(fam, vec)))
    value = min(res.value for _, res in results)
    tol = 0 if exact else _VALUE_TOL * max(1.0, abs(float(value)))
    opts: list[Optimizer] = []
    for vec, res in results:
        if abs(res.value - value) <= tol:
            opts.extend(Optimizer(_point(vec), kset) for kset in _attaining_kernel_sets(fam, res))
    return SolutionSet(Problem.MINIMAX, value, tuple(opts))


def convexified_minimax_cost(market: DiscreteMarket, dist) -> SolutionSet:
    """Cheapest superhedging cost over the convex hull of rearrangements.

    One LP: minimize the epigraph variable t subject to the price under
    every extreme kernel staying below t, with hull membership encoded by
    the sum and sum-of-k-largest constraints on the payoff.
    """
    dist = _as_dist(dist)
    _check_shapes(market, dist)
    exact = market.is_exact and all_exact(dist.values)
    fam = kernel_family(market)
    extreme = _extreme_kernels(fam)

    vals = dist.values
    n = dist.n
    vmin, vmax = vals[0], vals[-1]
    builder = LpBuilder()
    zs = [builder.add_var(lo=vmin, hi=vmax) for _ in range(n)]
    t = builder.add_var(cost=1, lo=vmin, hi=vmax)
    for k in extreme:
        coeffs = {zs[i]: k.weights[i] for i in range(n)}
        coeffs[t] = -n
        builder.add_ub(coeffs, 0)
    builder.add_eq({zs[i]: 1 for i in range(n)}, sum(vals))
    for k in range(1, n):
        top_k = sum(vals[n - k :])
        add_top_k_sum_bound(builder, zs, k, top_k, threshold_bounds=(vmin, vmax))
    sol = solve_lp(builder.build(), sense="min")
    if sol.status != "optimal":
        raise NumericalError(f"convexified minimax LP ended with status {sol.status}")
    z_star = tuple(sol.x[i] for i in zs)
    res = superhedge_cost(fam, z_star)
    opts = [Optimizer(_point(z_star), kset) for kset in _attaining_kernel_sets(fam, res)]
    return SolutionSet(Problem.CONVEXIFIED_MINIMAX, res.value, tuple(opts))


_SOLVERS = {
    Problem.MAXIMIN: maximin_cost,
    Problem.MINIMAX: minimax_cost,
    Problem.CONVEXIFIED_MAXIMIN: convexified_maximin_cost,
    Problem.CONVEXIFIED_MINIMAX: convexified_minimax_cost,
}


def solve_problem(market: DiscreteMarket, dist, problem: Problem) -> SolutionSet:
    return _SOLVERS[problem](market, dist)


# ---------------------------------------------------------- characterizations


def is_perfectly_cost_efficient(target, dist=None, tol: float = _VALUE_TOL) -> bool:
    """Whether the cheapest superhedge of the distribution has that distribution.

    Three-state targets are tested by the exact criterion z = 3y - 2x;
    a (market, dist) pair is tested by comparing minimax and maximin values.
    """
    if isinstance(target, DiscreteMarket):
        if dist is None:
            raise TypeError("a distribution is required alongside a market")
        lhs = minimax_cost(target, dist).value
        rhs = maximin_cost(target, dist).value
        if is_exact(lhs) and is_exact(rhs):
            return lhs == rhs
        return abs(lhs - rhs) <= tol * max(1.0, abs(float(lhs)))
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
