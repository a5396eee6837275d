from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effico.errors import DimensionMismatchError, InfeasibleError, TooManyStatesError
from effico.market import (
    DiscreteMarket,
    ParametricFamily,
    PricingKernel,
    VertexFamily,
    kernel_family,
    price,
    superhedge_cost,
)

F = Fraction

CANON = DiscreteMarket.canonical_three_state()
FAMILY = kernel_family(CANON)

rational_u = st.fractions(min_value=0, max_value=F(1, 3))
rational_value = st.fractions(min_value=-10, max_value=10)


def test_canonical_market_shape():
    assert CANON.n == 3
    assert CANON.assets == 1
    assert CANON.s0 == (F(2),)
    assert CANON.sT == ((F(4), F(2), F(1)),)
    assert CANON.is_exact


def test_canonical_family_is_the_u_segment():
    assert isinstance(FAMILY, ParametricFamily)
    assert FAMILY.domain == (F(0), F(1, 3))
    # xi(u) = (3u, 3-9u, 6u)
    assert FAMILY.kernel_at(F(1, 5)).weights == (F(3, 5), F(6, 5), F(6, 5))
    assert FAMILY.kernel_at(F(1, 4)).weights == (F(3, 4), F(3, 4), F(3, 2))
    assert FAMILY.kernel_at(F(1, 8)).weights == (F(3, 8), F(15, 8), F(3, 4))
    assert FAMILY.kernel_at(0).weights == (F(0), F(3), F(0))
    assert FAMILY.kernel_at(F(1, 3)).weights == (F(1), F(0), F(2))


def test_family_endpoints_are_boundary_kernels():
    lo, hi = FAMILY.endpoint_kernels()
    assert lo.is_boundary and hi.is_boundary
    assert not FAMILY.kernel_at(F(1, 5)).is_boundary


def test_kernel_at_outside_domain():
    with pytest.raises(ValueError):
        FAMILY.kernel_at(F(1, 2))
    with pytest.raises(ValueError):
        FAMILY.kernel_at(-0.01)


@given(u=rational_u)
@settings(max_examples=60, deadline=None)
def test_family_kernels_reprice_the_market(u):
    k = FAMILY.kernel_at(u)
    assert all(w >= 0 for w in k.weights)
    assert price(k, (1, 1, 1)) == 1
    assert price(k, CANON.sT[0]) == CANON.s0[0]


def test_price_oracle_and_dimension_check():
    assert price((F(3, 4), F(3, 4), F(3, 2)), (3, 2, 1)) == F(7, 4)
    assert price(PricingKernel((F(3, 5), F(6, 5), F(6, 5))), (1, 2, 3)) == F(11, 5)
    with pytest.raises(DimensionMismatchError):
        price((1, 1, 1), (1, 2))


# superhedging costs of every rearrangement of (1, 2, 3), by hand:
# price of Z under xi(u) is affine in u, so the sup sits at an endpoint
# unless the slope vanishes.
PERM_ORACLE = {
    (3, 2, 1): (F(2), F(0)),  # price 2 - u
    (1, 2, 3): (F(7, 3), F(1, 3)),  # price 2 + u
    (2, 1, 3): (F(8, 3), F(1, 3)),  # price 1 + 5u
    (1, 3, 2): (F(3), F(0)),  # price 3 - 4u
    (2, 3, 1): (F(3), F(0)),  # price 3 - 5u
    (3, 1, 2): (F(7, 3), F(1, 3)),  # price 1 + 4u
}


@pytest.mark.parametrize("perm", sorted(PERM_ORACLE))
def test_superhedge_cost_per_rearrangement(perm):
    value, u_star = PERM_ORACLE[perm]
    res = superhedge_cost(FAMILY, perm)
    assert res.value == value
    assert len(res.kernels) == 1
    assert res.kernels[0].u == u_star
    assert res.u_range is None
    assert res.any_boundary  # both family endpoints have a zero weight


def test_superhedge_flat_payoff_reports_whole_range():
    res = superhedge_cost(FAMILY, (4, 2, 1))
    assert res.value == F(2)
    assert res.u_range == (F(0), F(1, 3))
    assert {k.u for k in res.kernels} == {F(0), F(1, 3)}


@given(
    payoff=st.tuples(rational_value, rational_value, rational_value),
    u=rational_u,
)
@settings(max_examples=80, deadline=None)
def test_superhedge_dominates_every_kernel_price(payoff, u):
    res = superhedge_cost(FAMILY, payoff)
    assert res.value >= price(FAMILY.kernel_at(u), payoff)


def test_unique_kernel_two_state_market():
    market = DiscreteMarket(2, (F(1),), ((F(2), F(1, 2)),))
    fam = kernel_family(market)
    assert isinstance(fam, VertexFamily)
    assert len(fam.vertices) == 1
    assert fam.vertices[0].weights == (F(2, 3), F(4, 3))
    res = superhedge_cost(fam, (5, 1))
    assert res.value == price(fam.vertices[0], (5, 1)) == F(7, 3)


def test_vertex_family_four_state_market():
    market = DiscreteMarket(4, (F(2),), ((F(4), F(3), F(1), F(0)),))
    fam = kernel_family(market)
    assert isinstance(fam, VertexFamily)
    expected = {
        (F(4, 3), F(0), F(8, 3), F(0)),
        (F(2), F(0), F(0), F(2)),
        (F(0), F(2), F(2), F(0)),
        (F(0), F(8, 3), F(0), F(4, 3)),
    }
    assert {k.weights for k in fam.vertices} == expected
    for k in fam.vertices:
        assert price(k, (1, 1, 1, 1)) == 1
        assert price(k, market.sT[0]) == 2
    res = superhedge_cost(fam, (1, 0, 0, 1))
    assert res.value == F(1)
    assert [k.weights for k in res.kernels] == [(F(2), F(0), F(0), F(2))]


def test_infeasible_market():
    with pytest.raises(InfeasibleError):
        kernel_family(DiscreteMarket(2, (F(3),), ((F(2), F(1, 2)),)))


def test_market_validation():
    with pytest.raises(ValueError):
        DiscreteMarket(1, (F(1),), ((F(1),),))
    with pytest.raises(ValueError):
        DiscreteMarket(2, (F(0),), ((F(1), F(2)),))
    with pytest.raises(ValueError):
        DiscreteMarket(2, (F(1),), ((F(-1), F(2)),))
    with pytest.raises(DimensionMismatchError):
        DiscreteMarket(3, (F(1),), ((F(1), F(2)),))
    with pytest.raises(DimensionMismatchError):
        DiscreteMarket(2, (F(1), F(1)), ((F(1), F(2)),))


def test_too_many_states():
    row = tuple(F(i + 1) for i in range(13))
    with pytest.raises(TooManyStatesError):
        kernel_family(DiscreteMarket(13, (F(7),), (row,)))


def test_from_dict_round_trip():
    market = DiscreteMarket.from_dict(
        {"n": 3, "s0": ["2"], "sT": [["4", "2", "1"]]}
    )
    assert market == CANON
    assert market.to_dict() == {"n": 3, "s0": ["2"], "sT": [["4", "2", "1"]]}
    assert market.to_dict(decimal=True) == {"n": 3, "s0": [2.0], "sT": [[4.0, 2.0, 1.0]]}
    with pytest.raises(ValueError):
        DiscreteMarket.from_dict({"n": 3, "s0": ["2"]})


def test_float_market_agrees_with_exact():
    market = DiscreteMarket(3, (2.0,), ((4.0, 2.0, 1.0),))
    assert not market.is_exact
    fam = kernel_family(market)
    assert isinstance(fam, ParametricFamily)
    res = superhedge_cost(fam, (3, 2, 1))
    assert res.value == pytest.approx(2.0, abs=1e-12)
    k = fam.kernel_at(0.2)
    exact = FAMILY.kernel_at(F(1, 5))
    assert k.weights == pytest.approx([float(w) for w in exact.weights], abs=1e-12)


def test_family_cache_keeps_exact_and_float_markets_apart():
    exact = DiscreteMarket(4, (F(5),), ((F(2), F(9), F(1), F(8)),))
    floats = DiscreteMarket(4, (5.0,), ((2.0, 9.0, 1.0, 8.0),))
    assert exact == floats and hash(exact) == hash(floats)
    for market, kind in ((floats, float), (exact, Fraction), (floats, float)):
        fam = kernel_family(market)
        assert isinstance(fam, VertexFamily)
        assert all(type(w) is kind for k in fam.vertices for w in k.weights)
        assert kernel_family(market) is fam
