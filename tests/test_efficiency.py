import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effico import efficiency
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
from effico.errors import DimensionMismatchError, TooManyStatesError
from effico.market import DiscreteMarket, VertexFamily, kernel_family, price, superhedge_cost

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
        _, vectors = _minimizing_payoffs(weights, values, exact)
        kernel = KernelSet(weights=tuple(weights))
        got = _pair_segments(vectors, kernel)
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
            sols = []
            for solve in (maximin_cost, convexified_maximin_cost):
                calls.clear()
                sols.append(solve(mkt, dist))
                assert len(calls) == 1
            mx, cmx = sols
            cmm = convexified_minimax_cost(mkt, dist)
            mm = minimax_cost(mkt, dist)
            assert abs(mx.value - cmx.value) <= tol
            assert abs(mx.value - cmm.value) <= tol
            assert cmm.value <= mm.value + tol
            _assert_maximin_optimizers(mkt, dist, mx, tol)
            _assert_maximin_optimizers(mkt, dist, cmx, tol)


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
