import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effico import efficiency, lp
from effico.distribution import DiscreteDistribution, in_permutation_hull
from effico.efficiency import (
    KernelSet,
    Optimizer,
    PayoffSet,
    Problem,
    SolutionSet,
    ThreeStateTarget,
    _VALUE_TOL,
    _minimizing_payoffs,
    _pair_segments,
    attainable_cost_efficient_payoffs,
    attainable_permutations,
    convexified_maximin_cost,
    convexified_minimax_cost,
    is_attainable_payoff,
    is_perfectly_cost_efficient,
    kkm_diagnostics,
    maximin_cost,
    minimax_cost,
    solve_problem,
    three_state_closed_form,
)
from effico.errors import DimensionMismatchError, NumericalError, TooManyStatesError
from effico.market import (
    DiscreteMarket, ParametricFamily, VertexFamily, kernel_family, price, superhedge_cost,
)

F = Fraction

CANON = DiscreteMarket.canonical_three_state()
FAMILY = kernel_family(CANON)

ALL_PROBLEMS = list(Problem)


def closed_values(x, y, z):
    """Reference values restated independently of the implementation."""
    d1 = 2 * x - 3 * y + z
    if d1 > 0:
        shared = F(2 * x + y + z, 4)
        mm = F(2 * x + z, 3)
    elif d1 == 0:
        shared = F(y)
        mm = F(y)
    else:
        shared = F(2 * x + 2 * y + z, 5)
        mm = F(y)
    return shared, mm


def strict_triples():
    def build(vals):
        a, b, c = sorted(vals)
        return (a, b, c)

    return (
        st.sets(st.fractions(min_value=-10, max_value=10), min_size=3, max_size=3)
        .map(tuple)
        .map(build)
    )


def test_target_validation_and_deltas():
    t = ThreeStateTarget(F(1), F(2), F(4))
    assert t.delta1 == 0 and t.delta2 == 3
    assert t.is_exact and t.values() == (F(1), F(2), F(4))
    assert t.distribution() == DiscreteDistribution((1, 2, 4))
    with pytest.raises(ValueError):
        ThreeStateTarget(1, 2, 2)
    with pytest.raises(ValueError):
        ThreeStateTarget(3, 2, 1)


def test_closed_forms_take_a_distribution_or_values():
    dist = DiscreteDistribution((1, 2, 4))
    for problem in ALL_PROBLEMS:
        want = three_state_closed_form(ThreeStateTarget(1, 2, 4), problem)
        assert three_state_closed_form(dist, problem) == want
        assert three_state_closed_form((1, 2, 4), problem) == want
    assert kkm_diagnostics(dist) == kkm_diagnostics((1, 2, 4))
    assert attainable_permutations(dist) == [(F(4), F(2), F(1))]
    with pytest.raises(DimensionMismatchError):
        three_state_closed_form(DiscreteDistribution((1, 2, 3, 4)), Problem.MAXIMIN)


def test_closed_form_1_2_3():
    t = ThreeStateTarget(1, 2, 3)
    mx = three_state_closed_form(t, Problem.MAXIMIN)
    assert mx.value == F(9, 5)
    assert mx.contains((3, 1, 2), u=F(1, 5))
    assert mx.contains((3, 2, 1), u=F(1, 5))
    assert not mx.contains((3, 2, 1), u=F(1, 4))
    assert not mx.contains((1, 2, 3), u=F(1, 5))

    cmx = three_state_closed_form(t, Problem.CONVEXIFIED_MAXIMIN)
    assert cmx.value == F(9, 5)
    # the optimizer face joins (3,2,1) and (3,1,2) at xi(1/5)
    for payoff in ((3, 2, 1), (3, 1, 2), (3, F(3, 2), F(3, 2))):
        assert cmx.contains(payoff, u=F(1, 5))

    cmm = three_state_closed_form(t, Problem.CONVEXIFIED_MINIMAX)
    assert cmm.value == F(9, 5)
    assert len(cmm.optimizers) == 1
    assert cmm.optimizers[0].payoff.base == (F(3), F(9, 5), F(6, 5))
    assert cmm.optimizers[0].kernel.u_range == (F(0), F(1, 3))

    mm = three_state_closed_form(t, Problem.MINIMAX)
    assert mm.value == F(2)
    assert len(mm.optimizers) == 1
    assert mm.optimizers[0].payoff.base == (F(3), F(2), F(1))
    assert mm.optimizers[0].kernel.u == 0
    assert mm.optimizers[0].kernel.boundary


def test_closed_form_1_2_4_shared_family():
    t = ThreeStateTarget(1, 2, 4)
    for problem in ALL_PROBLEMS:
        sol = three_state_closed_form(t, problem)
        assert sol.value == F(2)
        for u in (F(1, 5), F(9, 40), F(1, 4)):
            assert sol.contains((4, 2, 1), u=u), problem
    assert is_perfectly_cost_efficient(t)
    assert attainable_cost_efficient_payoffs(t) == [((F(4), F(2), F(1)), (F(1, 5), F(1, 4)))]


def test_closed_form_1_2_4_extra_optimizers():
    t = ThreeStateTarget(1, 2, 4)
    mx = three_state_closed_form(t, Problem.MAXIMIN)
    assert mx.contains((4, 1, 2), u=F(1, 5))
    assert mx.contains((2, 4, 1), u=F(1, 4))
    assert not mx.contains((4, 1, 2), u=F(1, 4))

    cmx = three_state_closed_form(t, Problem.CONVEXIFIED_MAXIMIN)
    assert cmx.contains((3, 3, 1), u=F(1, 4))  # on the (4,2,1)+t(-1,1,0) face
    assert cmx.contains((4, F(3, 2), F(3, 2)), u=F(1, 5))
    assert not cmx.contains((3, 3, 1), u=F(1, 5))

    mm = three_state_closed_form(t, Problem.MINIMAX)
    assert mm.contains((4, 2, 1), u=0)
    assert mm.contains((4, 2, 1), u=F(1, 3))


def test_closed_form_1_2_5():
    t = ThreeStateTarget(1, 2, 5)
    assert t.delta1 == 1
    mx = three_state_closed_form(t, Problem.MAXIMIN)
    assert mx.value == F(9, 4)
    assert mx.contains((5, 2, 1), u=F(1, 4))
    assert mx.contains((2, 5, 1), u=F(1, 4))

    cmm = three_state_closed_form(t, Problem.CONVEXIFIED_MINIMAX)
    assert cmm.value == F(9, 4)
    assert cmm.optimizers[0].payoff.base == (F(19, 4), F(9, 4), F(1))
    assert cmm.optimizers[0].kernel.u_range == (F(0), F(1, 3))

    mm = three_state_closed_form(t, Problem.MINIMAX)
    assert mm.value == F(7, 3)
    assert mm.optimizers[0].payoff.base == (F(5), F(2), F(1))
    assert mm.optimizers[0].kernel.u == F(1, 3)
    assert mm.optimizers[0].kernel.boundary


def test_minimax_subcases_below_delta1():
    # delta1 < 0, delta2 = 0: the identity arrangement prices flat
    sol = three_state_closed_form(ThreeStateTarget(1, 2, F(5, 2)), Problem.MINIMAX)
    assert sol.value == F(2)
    assert sol.contains((1, 2, F(5, 2)), u=F(1, 7))
    assert sol.contains((1, 2, F(5, 2)), u=F(1, 3))
    assert sol.contains((F(5, 2), 2, 1), u=0)
    assert not sol.contains((F(5, 2), 2, 1), u=F(1, 5))

    # delta1 < 0, delta2 < 0: both extreme arrangements sit at xi(0)
    sol = three_state_closed_form(ThreeStateTarget(1, 2, F(9, 4)), Problem.MINIMAX)
    assert sol.value == F(2)
    assert sol.contains((1, 2, F(9, 4)), u=0)
    assert sol.contains((F(9, 4), 2, 1), u=0)
    assert not sol.contains((1, 2, F(9, 4)), u=F(1, 10))


def _assert_matching_solutions(a, b):
    assert a.value == b.value
    for src, dst in ((a, b), (b, a)):
        for opt in src.optimizers:
            u_samples = opt.kernel.sample_u(3)
            for payoff in opt.payoff.sample(4):
                if not u_samples:
                    assert dst.contains(payoff)
                for u in u_samples:
                    assert dst.contains(payoff, u=u)


def test_sampling_a_range_needs_two_points():
    segment = PayoffSet((F(1), F(2), F(3)), (F(1), F(0), F(-1)), (F(0), F(1)))
    kernels = KernelSet(u_range=(F(1, 5), F(1, 4)))
    for count in (1, 0, -2):
        with pytest.raises(ValueError, match="count"):
            segment.sample(count)
        with pytest.raises(ValueError, match="count"):
            kernels.sample_u(count)
    assert segment.sample(2) == [(F(1), F(2), F(3)), (F(2), F(2), F(2))]
    assert kernels.sample_u(3) == [F(1, 5), F(9, 40), F(1, 4)]
    floats = PayoffSet((1.0, 2.0, 3.0), (1.0, 0.0, -1.0), (0.0, 1.0))
    assert floats.sample(3) == [(1.0, 2.0, 3.0), (1.5, 2.0, 2.5), (2.0, 2.0, 2.0)]
    point = PayoffSet((F(1), F(2), F(3)))
    assert point.sample(1) == point.sample(0) == [point.base]
    assert KernelSet(u=F(1, 5)).sample_u(1) == [F(1, 5)]


GENERIC_TRIPLES = [
    (F(1), F(2), F(3)),
    (F(1), F(2), F(4)),
    (F(1), F(2), F(5)),
    (F(1), F(2), F(5, 2)),
    (F(1), F(2), F(9, 4)),
    (F(-2), F(1, 2), F(3)),
    (F(-5), F(-1), F(13)),  # delta1 = -4, delta2 = 24
    (F(0), F(1), F(3)),  # delta1 = 0
]


@pytest.mark.parametrize("triple", GENERIC_TRIPLES, ids=str)
@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.value)
def test_generic_solvers_match_closed_forms(triple, problem):
    dist = DiscreteDistribution(triple)
    generic = solve_problem(CANON, dist, problem)
    closed = three_state_closed_form(ThreeStateTarget(*triple), problem)
    _assert_matching_solutions(generic, closed)


@given(triple=strict_triples())
@settings(max_examples=120, deadline=None)
def test_value_chain_between_problems(triple):
    x, y, z = triple
    t = ThreeStateTarget(x, y, z)
    shared, mm = closed_values(x, y, z)
    assert three_state_closed_form(t, Problem.MAXIMIN).value == shared
    assert three_state_closed_form(t, Problem.CONVEXIFIED_MAXIMIN).value == shared
    assert three_state_closed_form(t, Problem.CONVEXIFIED_MINIMAX).value == shared
    assert three_state_closed_form(t, Problem.MINIMAX).value == mm
    assert mm >= shared
    assert (mm == shared) == (t.delta1 == 0)
    assert is_perfectly_cost_efficient(t) == (z == 3 * y - 2 * x)


@given(triple=strict_triples())
@settings(max_examples=60, deadline=None)
def test_optimizers_reprice_to_the_stated_value(triple):
    t = ThreeStateTarget(*triple)
    mx = three_state_closed_form(t, Problem.MAXIMIN)
    for opt in mx.optimizers:
        for u in opt.kernel.sample_u(3):
            weights = FAMILY.kernel_at(u).weights
            for payoff in opt.payoff.sample(3):
                assert price(weights, payoff) == mx.value

    cmm = three_state_closed_form(t, Problem.CONVEXIFIED_MINIMAX)
    z_star = cmm.optimizers[0].payoff.base
    assert in_permutation_hull(z_star, t.distribution())
    res = superhedge_cost(FAMILY, z_star)
    assert res.value == cmm.value
    assert res.u_range == (F(0), F(1, 3))

    mm = three_state_closed_form(t, Problem.MINIMAX)
    for opt in mm.optimizers:
        assert superhedge_cost(FAMILY, opt.payoff.base).value == mm.value


def test_generic_four_state_vertex_market():
    market = DiscreteMarket(4, (F(2),), ((F(4), F(3), F(1), F(0)),))
    dist = DiscreteDistribution((1, 2, 3, 5))
    fam = kernel_family(market)

    mx = maximin_cost(market, dist)
    cmx = convexified_maximin_cost(market, dist)
    cmm = convexified_minimax_cost(market, dist)
    mm = minimax_cost(market, dist)
    assert mx.value == cmx.value
    assert mx.value == cmm.value <= mm.value

    for opt in mx.optimizers:
        assert price(opt.kernel.weights, opt.payoff.base) == mx.value

    z_star = cmm.optimizers[0].payoff.base
    assert in_permutation_hull(z_star, dist)
    assert superhedge_cost(fam, z_star).value == cmm.value

    brute = min(
        superhedge_cost(fam, p).value for p in set(permutations(dist.values))
    )
    assert mm.value == brute


def _pair_segments_reference(vectors, kernel):
    """All-pairs pairing: compare every two vectors, keep those differing in two places."""
    segments = []
    covered = set()
    for a_idx in range(len(vectors)):
        for b_idx in range(a_idx + 1, len(vectors)):
            a, b = vectors[a_idx], vectors[b_idx]
            diff = [k for k in range(len(a)) if a[k] != b[k]]
            if len(diff) != 2:
                continue
            base, other = (a, b) if a >= b else (b, a)
            k1, k2 = diff
            delta = abs(base[k1] - other[k1])
            step = tuple(
                (o - c) / delta if k in (k1, k2) else (F(0) if isinstance(delta, F) else 0.0)
                for k, (c, o) in enumerate(zip(base, other))
            )
            segments.append(Optimizer(PayoffSet(base, step, (step[0] * 0, delta)), kernel))
            covered.add(a)
            covered.add(b)
    return segments, [v for v in vectors if v not in covered]


@pytest.mark.parametrize("exact", [True, False])
def test_pair_segments_match_all_pairs_reference(exact):
    rng = random.Random(20241018 + exact)
    for _ in range(60):
        n = rng.randint(2, 5)
        levels = rng.sample(range(1, 9), rng.randint(1, n))
        weights = [F(rng.choice(levels)) for _ in range(n)]
        values = [F(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(n)]
        if not exact:
            # a near-tie inside the float tolerance still forms one block
            weights = [float(w) + rng.choice((0.0, 1e-12)) for w in weights]
            values = [float(v) for v in values]
        _, codes, vectors = _minimizing_payoffs(weights, values, exact)
        kernel = KernelSet(weights=tuple(weights))
        segments, leftovers = _pair_segments(codes, vectors, kernel)
        got = segments, [vectors[j] for j in leftovers]
        want = _pair_segments_reference(vectors, kernel)
        assert repr(got) == repr(want)


def _minimax_reference(market, dist):
    """Minimax with a full superhedge_cost for every arrangement."""
    exact = market.is_exact and dist.is_exact
    fam = kernel_family(market)
    results = [
        (vec, superhedge_cost(fam, vec))
        for vec in sorted(set(permutations(dist.values)), reverse=True)
    ]
    value = min(res.value for _, res in results)
    tol = 0 if exact else _VALUE_TOL * max(1.0, abs(float(value)))
    opts = []
    for vec, res in results:
        if abs(res.value - value) > tol:
            continue
        if res.u_range is not None:
            kernels = [KernelSet(u_range=res.u_range, boundary=res.any_boundary)]
        else:
            kernels = [KernelSet(k.weights, k.u, boundary=k.is_boundary) for k in res.kernels]
        opts.extend(Optimizer(PayoffSet(vec), k) for k in kernels)
    return SolutionSet(Problem.MINIMAX, value, tuple(opts))


def _random_priced_market(rng, n, assets):
    """Terminal payoffs in [0, 12], spot prices set by a random positive kernel."""
    kernel = [rng.randint(1, 6) for _ in range(n)]
    rows = tuple(tuple(F(rng.randint(0, 12)) for _ in range(n)) for _ in range(assets))
    s0 = tuple(sum(F(k) * v for k, v in zip(kernel, row)) / sum(kernel) for row in rows)
    return DiscreteMarket(n, s0, rows)


def _float_copy(market):
    rows = tuple(tuple(float(v) for v in row) for row in market.sT)
    return DiscreteMarket(market.n, tuple(float(v) for v in market.s0), rows)


def test_minimax_matches_unpruned_reference():
    rng = random.Random(5)
    for trial in range(24):
        n = rng.randint(4, 5)
        market = _random_priced_market(rng, n, rng.randint(1, n - 2))
        values = [F(rng.randint(-6, 12), rng.randint(1, 2)) for _ in range(n)]
        if trial % 3 == 2:
            values[1] = values[0]
        cases = [(market, DiscreteDistribution(values))]
        cases.append((_float_copy(market), DiscreteDistribution([float(v) for v in values])))
        for mkt, dist in cases:
            got = minimax_cost(mkt, dist)
            want = _minimax_reference(mkt, dist)
            assert got == want
            assert repr(got) == repr(want)
    # 0.0 and -0.0 are equal values; the optimizer keeps the sign of each zero
    for market in (CANON, DiscreteMarket(4, (5.0,), ((2.0, 9.0, 1.0, 8.0),))):
        for values in ((-0.0, 0.0, 1.0, 3.0), (0.0, 2.0, -0.0, 3.0)):
            dist = DiscreteDistribution(values[: market.n])
            assert repr(minimax_cost(market, dist)) == repr(_minimax_reference(market, dist))


def test_maximin_on_float_six_state_market():
    """Both maximin solvers match convexified minimax, to 1e-9 and exactly on a Fraction copy."""
    law = (3.0, 1.5, 9.0, 4.5, 9.0, 4.0)
    market = DiscreteMarket(6, (71 / 13,), ((9.0, 8.0, 2.0, 6.0, 4.0, 4.0),))
    want = convexified_minimax_cost(market, law).value
    assert want == pytest.approx(933 / 182, abs=1e-12)
    for solve in (maximin_cost, convexified_maximin_cost):
        assert abs(solve(market, law).value - want) <= 1e-9

    exact = DiscreteMarket(6, (F(71, 13),), ((9, 8, 2, 6, 4, 4),))
    exact_law = tuple(F(v) for v in law)
    for solve in (maximin_cost, convexified_maximin_cost, convexified_minimax_cost):
        assert solve(exact, exact_law).value == F(933, 182)


def _assert_maximin_optimizers(market, dist, sol, tol):
    n = market.n
    for opt in sol.optimizers:
        w = opt.kernel.weights
        assert all(v >= -tol for v in w)
        assert abs(sum(w) - n) <= tol
        for s0, row in zip(market.s0, market.sT):
            assert abs(sum(a * b for a, b in zip(w, row)) - n * s0) <= tol * (1 + abs(s0))
        # a point, or both ends of a segment: the rest follows by linearity
        for payoff in opt.payoff.sample(2):
            assert abs(price(w, payoff) - sol.value) <= tol
            assert all(abs(a - b) <= tol for a, b in zip(sorted(payoff), dist.values))


def test_random_vertex_markets_maximin_chain(monkeypatch):
    calls = []
    solve_lp = efficiency.solve_lp

    def counting_solve_lp(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(efficiency, "solve_lp", counting_solve_lp)
    rng = random.Random(6)
    checked = 0
    while checked < 16:
        n = rng.randint(4, 6)
        market = _random_priced_market(rng, n, rng.randint(1, n - 2))
        fam = kernel_family(market)
        if not isinstance(fam, VertexFamily) or len(fam.vertices) < 2:
            continue
        checked += 1
        values = [F(rng.randint(-6, 12), rng.randint(1, 3)) for _ in range(n)]
        if checked % 4 == 0:
            values[1] = values[0]
        exact = (market, DiscreteDistribution(values), 0)
        floats = (_float_copy(market), DiscreteDistribution([float(v) for v in values]), 1e-9)
        for mkt, dist, tol in (exact, floats):
            # one maximin LP per law object, shared by the two maximin solvers
            calls.clear()
            mx, cmx = (solve(mkt, dist) for solve in (maximin_cost, convexified_maximin_cost))
            assert len(calls) == 1
            cmm = convexified_minimax_cost(mkt, dist)
            mm = minimax_cost(mkt, dist)
            assert abs(mx.value - cmx.value) <= tol
            assert abs(mx.value - cmm.value) <= tol
            assert cmm.value <= mm.value + tol
            _assert_maximin_optimizers(mkt, dist, mx, tol)
            _assert_maximin_optimizers(mkt, dist, cmx, tol)


# Markets whose float LPs carry rounding residues of zeros that a ratio test
# with an absolute floor takes as pivots: the 6-state market then looks
# infeasible, and the other two (from a seeded scan) solve to values off by
# 0.009 and by 3.7.
FLOAT_LP_CASES = [
    (
        ((F(197, 30), F(103, 15), F(221, 30)),
         ((10, 5, 12, 1, 7, 1), (9, 1, 5, 11, 11, 2), (11, 10, 4, 3, 6, 12))),
        (-1, -1, F(11, 3), F(19, 3), F(13, 2), F(13, 2)),
        F(10747, 3420),
    ),
    (
        ((4, F(67, 16)), ((6, 5, 1, 0, 4, 6), (5, 10, 4, 4, 0, 4))),
        (-4, -3, -1, 1, 2, 5),
        F(-137, 252),
    ),
    (
        ((F(132, 25), F(173, 25), F(138, 25), F(164, 25)),
         ((0, 2, 6, 10, 1, 11, 3), (3, 0, 12, 2, 1, 11, 10), (4, 12, 0, 6, 8, 3, 6),
          (4, 10, 8, 0, 7, 6, 7))),
        (-5, F(-3, 2), F(5, 3), F(7, 3), 6, 10, 10),
        F(125951, 107000),
    ),
]


@pytest.mark.parametrize("case", range(len(FLOAT_LP_CASES)))
def test_float_convexified_minimax_matches_exact(case):
    (s0, rows), law, want = FLOAT_LP_CASES[case]
    market = DiscreteMarket(len(law), s0, rows)
    exact = convexified_minimax_cost(market, law).value
    assert exact == want
    assert exact == maximin_cost(market, law).value
    float_law = tuple(float(v) for v in law)
    for mkt in (market, _float_copy(market)):
        assert abs(convexified_minimax_cost(mkt, float_law).value - exact) <= 1e-9


def test_float_residual_check_rejects_a_bad_pivot(monkeypatch):
    """With the ratio floor lowered to 1e-13 the simplex pivots on a rounding
    residue of the first market, and its x breaks a row by about 2e-3: the
    residual check turns that wrong optimum into an error."""
    (s0, rows), law, _ = FLOAT_LP_CASES[0]
    monkeypatch.setattr(lp, "_RATIO_FLOOR", 1e-13)
    with pytest.raises(NumericalError, match="violates"):
        convexified_minimax_cost(DiscreteMarket(len(law), s0, rows), [float(v) for v in law])


CHAIN = (maximin_cost, convexified_maximin_cost, convexified_minimax_cost, minimax_cost)


def _family_shape(fam):
    if isinstance(fam, ParametricFamily):
        return "segment"
    return "vertex" if len(fam.vertices) > 1 else "unique"


def test_random_markets_of_every_family_shape_keep_the_chain():
    """Seeded 4-6-state markets with 1 to n - 1 assets, so every kernel-family shape occurs.

    Each keeps maximin = convexified maximin = convexified minimax <= minimax,
    its float copy agrees within 1e-9 without raising, a Robin Hood transfer
    (a contraction in convex order) never makes convexified minimax cheaper,
    and the market form of
    ``is_perfectly_cost_efficient`` says whether minimax equals maximin.
    """
    rng = random.Random(12)
    shapes, perfect = set(), set()
    for _ in range(18):
        n = rng.randint(4, 6)
        market = _random_priced_market(rng, n, rng.randint(1, n - 1))
        shapes.add(_family_shape(kernel_family(market)))
        values = sorted(F(rng.randint(-6, 12), rng.randint(1, 3)) for _ in range(n))
        dist = DiscreteDistribution(values)
        exact = [solve(market, dist).value for solve in CHAIN]
        mx, cmx, cmm, mm = exact
        assert mx == cmx == cmm <= mm
        float_market = _float_copy(market)
        float_dist = DiscreteDistribution([float(v) for v in values])
        for solve, want in zip(CHAIN, exact):
            assert abs(solve(float_market, float_dist).value - want) <= 1e-9
        # move up to half the gap between two atoms from the richer to the poorer
        i, j = sorted(rng.sample(range(n), 2))
        t = (values[j] - values[i]) * F(rng.randint(1, 4), 8)
        moved = values[:i] + [values[i] + t] + values[i + 1 : j] + [values[j] - t] + values[j + 1 :]
        assert convexified_minimax_cost(market, moved).value >= cmm
        is_perfect = is_perfectly_cost_efficient(market, dist)
        assert is_perfect == (mm == mx)
        perfect.add(is_perfect)
    assert shapes == {"vertex", "segment", "unique"}
    assert perfect == {True, False}


def _kernel_sets(sol):
    return [opt.kernel for opt in sol.optimizers]


def test_laws_on_one_family_share_its_kernel_sets():
    first, second = (
        [k for k in _kernel_sets(maximin_cost(CANON, law)) if k.u == F(1, 4)]
        for law in ((1, 2, 5), (0, 1, 4))
    )
    assert first and all(k is first[0] for k in first + second)
    whole = [_kernel_sets(convexified_minimax_cost(CANON, law)) for law in ((1, 2, 5), (0, 1, 4))]
    assert whole[0][0] is whole[1][0] and whole[0][0].u_range == (F(0), F(1, 3))


def test_exact_and_float_markets_never_share_kernels():
    law = (F(1), F(2), F(5))
    float_law = tuple(map(float, law))
    exact = [k for solve in (maximin_cost, minimax_cost) for k in _kernel_sets(solve(CANON, law))]
    floats = [
        k for solve in (maximin_cost, minimax_cost)
        for k in _kernel_sets(solve(_float_copy(CANON), float_law))
    ]
    assert all(isinstance(w, Fraction) for k in exact for w in k.weights)
    assert all(isinstance(w, float) for k in floats for w in k.weights)
    assert not {id(k) for k in exact} & {id(k) for k in floats}


def test_float_law_on_exact_market_reports_fraction_kernels():
    sol = maximin_cost(CANON, (1.0, 2.0, 5.0))
    assert isinstance(sol.value, float)
    assert {repr(k) for k in _kernel_sets(sol)} == {
        "KernelSet(weights=(Fraction(3, 4), Fraction(3, 4), Fraction(3, 2)), u=Fraction(1, 4), "
        "u_range=None, boundary=False)"
    }


def test_state_count_caps():
    row = tuple(F(i + 1) for i in range(8))
    market = DiscreteMarket(8, (F(9, 2),), (row,))
    dist = DiscreteDistribution(tuple(range(1, 9)))
    for problem in ALL_PROBLEMS:
        with pytest.raises(TooManyStatesError):
            solve_problem(market, dist, problem)


def test_mixed_exact_and_float_law_warns_and_prices_in_floats():
    assert maximin_cost(CANON, DiscreteDistribution((F(1), F(2), F(3)))).value == F(9, 5)
    with pytest.warns(UserWarning, match=r"entry 2 is float 3\.0"):
        res = maximin_cost(CANON, DiscreteDistribution((F(1), F(2), 3.0)))
    assert isinstance(res.value, float)
    assert res.value == pytest.approx(1.8, abs=1e-12)


def test_shape_mismatch_between_market_and_distribution():
    with pytest.raises(DimensionMismatchError):
        maximin_cost(CANON, DiscreteDistribution((1, 2)))


def test_perfect_efficiency_market_form():
    dist = DiscreteDistribution((1, 2, 4))
    assert is_perfectly_cost_efficient(CANON, dist)
    assert not is_perfectly_cost_efficient(CANON, DiscreteDistribution((1, 2, 3)))
    with pytest.raises(TypeError):
        is_perfectly_cost_efficient(CANON)


def test_perfect_efficiency_float_tolerance():
    assert is_perfectly_cost_efficient((1.0, 2.0, 4.0))
    assert not is_perfectly_cost_efficient((1.0, 2.0, 4.0 + 1e-6))


@pytest.mark.parametrize("payoff, perfect", [
    ((1, 2, 4), True),  # z = 3y - 2x, an exact tie
    ((1.0, 2.0, 4.0 + 1.2e-8), True),  # minimax - maximin = 1e-9, a float tie
    ((1.0, 2.0, 4.0 + 2.4e-7), False),  # a gap of 1e-8 relative to the value 2
])
def test_perfect_efficiency_tie_rule_is_shared(payoff, perfect):
    from effico.utility import cost_efficiency_check

    assert is_perfectly_cost_efficient(CANON, payoff) is perfect
    assert cost_efficiency_check(payoff).perfectly_cost_efficient is perfect


def test_solvers_share_one_maximin_solve_per_law(monkeypatch):
    lp_calls, enumerations = [], []
    solve_lp, minimizing_payoffs = efficiency.solve_lp, efficiency._minimizing_payoffs

    def counting_solve_lp(*args, **kwargs):
        lp_calls.append(args)
        return solve_lp(*args, **kwargs)

    def counting_minimizing_payoffs(*args, **kwargs):
        enumerations.append(args)
        return minimizing_payoffs(*args, **kwargs)

    monkeypatch.setattr(efficiency, "solve_lp", counting_solve_lp)
    monkeypatch.setattr(efficiency, "_minimizing_payoffs", counting_minimizing_payoffs)
    pair = (maximin_cost, convexified_maximin_cost)

    def solve_pair(market, law):
        """Both solvers' reprs, with the LPs and enumerations they ran."""
        lp_calls.clear()
        enumerations.clear()
        sols = [repr(solve(market, law)) for solve in pair]
        return sols, len(lp_calls), len(enumerations)

    def fresh(market, values):
        return [repr(solve(market, DiscreteDistribution(values))) for solve in pair]

    # one law object on two vertex markets and back: the single slot re-solves
    values = (F(1), F(2), F(4), F(7))
    law = DiscreteDistribution(values)
    first = DiscreteMarket(4, (F(5),), ((F(2), F(9), F(1), F(8)),))
    second = DiscreteMarket(4, (F(2),), ((F(4), F(3), F(1), F(0)),))
    for market in (first, second, first):
        assert solve_pair(market, law) == (fresh(market, values), 1, 1)
    # a parametric family enumerates once per breakpoint, and only once per law
    breakpoints = len(efficiency._breakpoints(FAMILY, True)[0])
    assert solve_pair(CANON, DiscreteDistribution((1, 2, 5)))[1:] == (0, breakpoints)

    # an exact law and its float copy are equal, but never share state: each
    # law object alternates between the exact market and its float copy
    law, float_law = DiscreteDistribution(values), DiscreteDistribution(map(float, values))
    assert law == float_law and hash(law) == hash(float_law)
    cases = [(m, d) for m in (first, _float_copy(first)) for d in (law, float_law)]
    for market, dist in cases + cases:
        assert solve_pair(market, dist) == (fresh(market, dist.values), 1, 1)
        want = Fraction if market.is_exact and dist.is_exact else float
        assert all(type(solve(market, dist).value) is want for solve in pair)

    # raw values still work, each call on its own law object
    for solve in pair:
        assert repr(solve(first, values)) == repr(solve(first, law))


def test_attainable_payoffs():
    assert is_attainable_payoff((4, 2, 1))
    assert is_attainable_payoff((0, 0, 0))
    assert is_attainable_payoff((1, 2, F(5, 2)))
    assert not is_attainable_payoff((1, 2, 3))
    assert is_attainable_payoff((4.0, 2.0, 1.0 + 1e-15))
    with pytest.raises(DimensionMismatchError):
        is_attainable_payoff((1, 2))


def test_attainable_permutations_by_case():
    assert attainable_permutations((1, 2, 4)) == [(F(4), F(2), F(1))]
    assert attainable_permutations((1, 2, F(5, 2))) == [(F(1), F(2), F(5, 2))]
    assert attainable_permutations((1, 2, 3)) == []
    assert attainable_cost_efficient_payoffs((1, 2, 3)) == []
    assert attainable_cost_efficient_payoffs((1, 2, 5)) == []


@given(triple=strict_triples())
@settings(max_examples=80, deadline=None)
def test_attainability_iff_flat_pricing(triple):
    t = ThreeStateTarget(*triple)
    ce = attainable_cost_efficient_payoffs(t)
    if t.delta1 == 0:
        assert ce == [((t.z, t.y, t.x), (F(1, 5), F(1, 4)))]
    else:
        assert ce == []


# ------------------------------------------------------------------ KKM


def test_kkm_intersections():
    assert kkm_diagnostics((1, 2, 5)).intersection == (F(1, 4), F(1, 4))
    assert kkm_diagnostics((1, 2, 4)).intersection == (F(1, 5), F(1, 4))
    assert kkm_diagnostics((1, 2, 3)).intersection == (F(1, 5), F(1, 5))


def test_kkm_expected_cost_branches():
    diag = kkm_diagnostics((1, 2, 3))
    assert diag.expected_cost(F(1, 6), F(1, 10)) == F(5, 3)  # 1 + 4s
    assert diag.expected_cost(F(1, 6), F(1, 5)) == F(7, 4)  # 3/2 + 3s/2
    assert diag.expected_cost(F(1, 4), F(9, 40)) == F(7, 4)  # 2 - s
    assert diag.expected_cost(F(1, 6), F(1, 4)) == F(2)  # 5/2 - 3s
    assert diag.expected_cost(F(3, 10), F(3, 10)) == F(3, 2)  # 3 - 5s
    # float parameters snap onto the exact branch anchors
    assert diag.expected_cost(0.25, 0.2) == F(15, 8)
    assert diag.expected_cost(0.2, 0.2) == F(9, 5)


def test_kkm_expected_cost_validation():
    diag = kkm_diagnostics((1, 2, 3))
    for s, u in ((0, F(1, 5)), (F(1, 3), F(1, 5)), (F(1, 6), 0), (F(1, 6), F(2, 5))):
        with pytest.raises(ValueError):
            diag.expected_cost(s, u)


def test_kkm_response_intervals():
    neg = kkm_diagnostics((1, 2, 3))  # delta1 < 0, anchor 1/5
    assert neg.response_interval(F(1, 10)) == (F(1, 10), F(1, 5))
    assert neg.response_interval(F(3, 10)) == (F(1, 5), F(3, 10))

    pos = kkm_diagnostics((1, 2, 5))  # delta1 > 0, anchor 1/4
    assert pos.response_interval(F(1, 10)) == (F(1, 10), F(1, 4))
    assert pos.response_interval(F(3, 10)) == (F(1, 4), F(3, 10))

    flat = kkm_diagnostics((1, 2, 4))  # delta1 = 0
    assert flat.response_interval(F(1, 10)) == (F(1, 10), F(1, 4))
    assert flat.response_interval(F(9, 40)) == (F(1, 5), F(1, 4))
    assert flat.response_interval(F(3, 10)) == (F(1, 5), F(3, 10))


@given(
    triple=strict_triples(),
    s=st.fractions(min_value=F(1, 100), max_value=F(33, 100)),
)
@settings(max_examples=80, deadline=None)
def test_kkm_intersection_is_inside_every_response(triple, s):
    diag = kkm_diagnostics(triple)
    lo, hi = diag.response_interval(s)
    assert lo <= hi
    assert lo <= diag.intersection[0] and diag.intersection[1] <= hi
