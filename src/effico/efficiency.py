"""The four cost-efficiency problems on a distribution of terminal wealth.

Given a target distribution F on n equiprobable atoms and the pricing
kernels of an incomplete market, four optimal values are of interest:

* maximin:               sup over kernels of the cheapest payoff with law F,
* convexified maximin:   same, with the payoff ranging over conv(F),
* convexified minimax:   cheapest superhedge over conv(F),
* minimax:               cheapest superhedge over payoffs with law exactly F.

The first three always coincide; the fourth can be strictly larger, and
equality characterizes perfect cost-efficiency (z = 3y - 2x in the 3-state
model).  The solvers here work on any market small enough to enumerate and
agree with the closed forms of ``three_state`` on the canonical one.  Those
closed forms are re-exported here on first access, so loading this module
does not compile them, and the 3-state commands do not compile this one.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import Sequence

from ._numbers import Problem, all_exact, average_dot, is_exact
from .distribution import DiscreteDistribution, _as_distribution
from .errors import DimensionMismatchError, NumericalError, TooManyStatesError
from .lp import LpBuilder, add_top_k_sum_bound, solve_lp
from .market import (
    DiscreteMarket,
    KernelFamily,
    ParametricFamily,
    PricingKernel,
    VertexFamily,
    kernel_family,
    superhedge_cost,
)
from .solution import _VALUE_TOL, KernelSet, Optimizer, PayoffSet, SolutionSet, _point, _values_tie

# re-exported from three_state on first access, by __getattr__ below
_THREE_STATE = (
    "KkmDiagnostics", "ThreeStateTarget", "attainable_cost_efficient_payoffs",
    "attainable_permutations", "is_attainable_payoff", "is_perfectly_cost_efficient",
    "kkm_diagnostics", "three_state_closed_form",
)
__all__ = [
    "Problem", "PayoffSet", "KernelSet", "Optimizer", "SolutionSet", "maximin_cost",
    "minimax_cost", "convexified_maximin_cost", "convexified_minimax_cost", "solve_problem",
    *_THREE_STATE,
]

_GENERIC_MAX_STATES = 7


def __getattr__(name: str):
    if name not in _THREE_STATE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import three_state

    return getattr(three_state, name)


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


def _decode(values, arrangements) -> list[tuple]:
    """The value tuples that arrangements of first-occurrence codes into ``values`` stand for."""
    return [tuple(values[c] for c in arr) for arr in arrangements]


def _minimizing_payoffs(weights, values, exact: bool, blocks=None):
    """Min price over payoffs with the given value multiset, with all argmins.

    The minimum pairs large weights with small values.  Every distinct
    minimizing arrangement is returned: within blocks of (near-)equal
    weights the assigned values may be permuted freely.  Arrangements come
    as tuples of first-occurrence codes into the sorted values, sorted
    descending, and as the value tuples those codes stand for.  ``blocks``
    is ``_weight_blocks(weights, exact)``, if the caller keeps it.
    """
    blocks = blocks or _weight_blocks(weights, exact)
    values = sorted(values)
    order = [i for block in blocks for i in block]
    where = sorted(range(len(order)), key=order.__getitem__)  # state i is order[where[i]]
    first = [values.index(v) for v in values]
    arrangements, pos = [], 0
    for block in blocks:
        # dict.fromkeys drops the permutations that repeat an arrangement
        arrangements.append(list(dict.fromkeys(permutations(first[pos : pos + len(block)]))))
        pos += len(block)
    combos = (sum(combo, ()) for combo in product(*arrangements))
    codes = sorted((tuple(map(flat.__getitem__, where)) for flat in combos), reverse=True)
    return average_dot(weights, [values[j] for j in where]), codes, _decode(values, codes)


def _pair_segments(codes, vectors, kernel: KernelSet):
    """Segments joining argmin pairs that differ by one transposition.

    The face of payoffs tied at a kernel is the hull of the tied vectors;
    its edges are the transposition pairs reported here, and the indices of
    vectors in no pair come back as leftover points.  ``codes`` must be
    distinct and sorted descending, as ``_minimizing_payoffs`` returns
    them, with ``vectors`` the value tuples they stand for.  Partners are
    looked up by swapping two codes, O(m n^2) work for m vectors.  Segments
    come ordered by the first vector's index, then the second's; each runs
    from the earlier, larger vector in direction -1 at k1 and +1 at k2
    (k1 < k2), so one step tuple per (k1, k2) and one range per pair of
    swapped codes are shared by every segment.
    """
    if not codes:
        return [], []
    n = len(codes[0])
    index = {key: i for i, key in enumerate(codes)}
    exact = is_exact(vectors[0][0])
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    steps: dict = {}
    ranges: dict = {}
    segments: list[Optimizer] = []
    covered = [False] * len(codes)
    for a_idx, key in enumerate(codes):
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
        base = vectors[a_idx]
        for b_idx, k1, k2 in partners:
            step = steps.get((k1, k2))
            if step is None:
                step = tuple(-one if k == k1 else one if k == k2 else zero for k in range(n))
                steps[k1, k2] = step
            rkey = (key[k1], key[k2])
            t_range = ranges.get(rkey)
            if t_range is None:
                t_range = ranges[rkey] = (zero, abs(base[k1] - base[k2]))
            segments.append(Optimizer(PayoffSet(base, step, t_range), kernel))
            covered[a_idx] = covered[b_idx] = True
    return segments, [j for j, hit in enumerate(covered) if not hit]


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


def _maximin_parametric(fam: ParametricFamily, dist, exact):
    bps, kernels, blocks, range_sets = _breakpoints(fam, exact)
    evals = [_minimizing_payoffs(k.weights, dist.values, exact, b) for k, b in zip(kernels, blocks)]
    value = max(mp for mp, _, _ in evals)
    attain = [_values_tie(value, mp) for mp, _, _ in evals]

    # payoffs optimal across a whole flat stretch of breakpoints, as index spans
    flat: dict[tuple, tuple] = {}
    for i in range(len(bps) - 1):
        if attain[i] and attain[i + 1]:
            later = set(evals[i + 1][1])
            for code, vec in zip(evals[i][1], evals[i][2]):
                if code in later:
                    spans = flat.setdefault(code, (vec, []))[1]
                    if spans and spans[-1][1] == i:
                        spans[-1] = (spans[-1][0], i + 1)
                    else:
                        spans.append((i, i + 1))

    flat_opts: list[Optimizer] = []
    for code in sorted(flat, reverse=True):
        vec, spans = flat[code]
        for lo, hi in spans:
            boundary = kernels[lo].is_boundary or kernels[hi].is_boundary
            kset = KernelSet(u_range=(bps[lo], bps[hi]), boundary=boundary)
            flat_opts.append(Optimizer(_point(vec), range_sets.setdefault((lo, hi), kset)))

    at_kernels = []
    for i, (_, codes, vectors) in enumerate(evals):
        if attain[i]:
            covered = {c for c, (_, spans) in flat.items() if any(lo <= i <= hi for lo, hi in spans)}
            at_kernels.append((_kernel_set_for(kernels[i]), codes, vectors, covered))
    return value, flat_opts, at_kernels


def _maximin_vertex(market, fam: VertexFamily, dist, exact):
    if len(fam.vertices) == 1:
        best_kernel = fam.vertices[0]
    else:
        best_kernel = _maximin_kernel(market, dist, exact)
    value, codes, vectors = _minimizing_payoffs(best_kernel.weights, dist.values, exact)
    return value, [], [(_kernel_set_for(best_kernel), codes, vectors, set())]


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


def _maximin_argmins(market, fam: KernelFamily, dist, exact: bool):
    """The maximin solve of a law, kept on the law object.

    Returns the value, the flat-stretch optimizers, and per maximin kernel
    its KernelSet, argmin codes and vectors, and the codes a flat stretch
    already covers.  One slot, checked by the identity of the family object
    and by the exact flag, so the two maximin solvers run one LP and one
    enumeration per law object.
    """
    slot = vars(dist).get("_maximin")
    if slot is None or slot[0] is not fam or slot[1] != exact:
        if isinstance(fam, ParametricFamily):
            state = _maximin_parametric(fam, dist, exact)
        else:
            state = _maximin_vertex(market, fam, dist, exact)
        slot = vars(dist)["_maximin"] = (fam, exact, state)
    return slot[2]


def _solve_maximin(market, dist, convexified: bool) -> SolutionSet:
    exact = market.is_exact and all_exact(dist.values)
    value, flat_opts, at_kernels = _maximin_argmins(market, kernel_family(market), dist, exact)
    opts = list(flat_opts)
    for kset, codes, vectors, covered in at_kernels:
        if convexified:
            segments, leftovers = _pair_segments(codes, vectors, kset)
            opts.extend(segments)
        else:
            leftovers = range(len(codes))
        opts.extend(Optimizer(_point(vectors[j]), kset) for j in leftovers if codes[j] not in covered)
    problem = Problem.CONVEXIFIED_MAXIMIN if convexified else Problem.MAXIMIN
    return SolutionSet(problem, value, tuple(opts))


def maximin_cost(market: DiscreteMarket, dist) -> SolutionSet:
    """sup over kernels of the cheapest rearrangement price of the distribution.

    The inner minimum is the anti-comonotone pairing of kernel weights and
    distribution values; it is concave in the kernel.  Along a one-parameter
    family the outer maximum is found at breakpoints and ties are reported
    in full, including whole flat parameter ranges.  On a vertex family it is
    one LP, and the optimizers listed are those at the one maximin kernel
    that LP returns.  One maximin solve per law object: a
    ``DiscreteDistribution`` keeps it for ``convexified_maximin_cost``.
    """
    dist = _as_distribution(dist)
    _check_shapes(market, dist)
    return _solve_maximin(market, dist, convexified=False)


def convexified_maximin_cost(market: DiscreteMarket, dist) -> SolutionSet:
    """Maximin with the payoff relaxed to the convex hull of rearrangements.

    The value equals ``maximin_cost`` (a linear objective attains its
    minimum over a hull at extreme points); the optimizer set grows by the
    segments joining tied rearrangements.  One maximin solve per law
    object: it reuses the one a ``DiscreteDistribution`` keeps.
    """
    dist = _as_distribution(dist)
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


def minimax_cost(market: DiscreteMarket, dist) -> SolutionSet:
    """Cheapest superhedging cost over payoffs distributed exactly as ``dist``.

    Every arrangement is first screened by its prices under the extreme
    kernels, scaled to integers for exact input and in floats otherwise;
    only arrangements tied with the cheapest get a full ``superhedge_cost``.
    """
    dist = _as_distribution(dist)
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
    kept = [arr for arr, score in zip(arrangements, scores) if score <= cut]
    results = [(vec, superhedge_cost(fam, vec)) for vec in _decode(values, kept)]
    value = min(res.value for _, res in results)
    opts: list[Optimizer] = []
    for vec, res in results:
        if _values_tie(value, res.value):
            opts.extend(Optimizer(_point(vec), kset) for kset in _attaining_kernel_sets(fam, res))
    return SolutionSet(Problem.MINIMAX, value, tuple(opts))


def convexified_minimax_cost(market: DiscreteMarket, dist) -> SolutionSet:
    """Cheapest superhedging cost over the convex hull of rearrangements.

    One LP: minimize the epigraph variable t subject to the price under
    every extreme kernel staying below t, with hull membership encoded by
    the sum and sum-of-k-largest constraints on the payoff.
    """
    dist = _as_distribution(dist)
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
