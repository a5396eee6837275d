"""The four generic solvers' results pinned by the sha256 of their reprs.

``data/solver_golden.json`` holds one digest per group of laws.  A repr
pins every value's type and digits, the order of the optimizers and the
sign of each float zero, so a refactor of the solvers must reproduce the
recorded results exactly, not only within a tolerance.  The groups:

* the benchmark's tied 6-state and distinct-kernel 5-state markets with
  seeded laws;
* seeded random 4-6-state markets of every kernel-family shape, with some
  tied laws, each also as a float copy;
* 200 seeded triples on the canonical 3-state market, exact and float;
* float laws holding both 0.0 and -0.0, which pin that every zero comes
  out as 0.0.

Regenerate the file only for an intended change of results:
``PYTHONPATH=src python tests/test_solver_golden.py --record``.
"""
import hashlib
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from effico.distribution import DiscreteDistribution
from effico.efficiency import (
    convexified_maximin_cost,
    convexified_minimax_cost,
    maximin_cost,
    minimax_cost,
)
from effico.market import DiscreteMarket, ParametricFamily, kernel_family

GOLDEN_PATH = Path(__file__).parent / "data" / "solver_golden.json"
SOLVERS = (maximin_cost, convexified_maximin_cost, convexified_minimax_cost, minimax_cost)

CANON = DiscreteMarket.canonical_three_state()
# the benchmark's generic-ties markets: one asset at its state average, so
# all 720 arrangements tie; two assets priced by distinct kernel weights
TIED = DiscreteMarket(6, (F(74, 3),), ((F(27), F(29), F(3), F(22), F(35), F(32)),))
KERNEL = DiscreteMarket(
    5, (F(146, 25), F(21, 5)), ((F(4), F(9), F(1), F(6), F(2)), (F(3), F(2), F(8), F(5), F(7)))
)
VERTEX4 = DiscreteMarket(4, (F(5),), ((F(2), F(9), F(1), F(8)),))


def _float_copy(market):
    rows = tuple(tuple(float(v) for v in row) for row in market.sT)
    return DiscreteMarket(market.n, tuple(float(v) for v in market.s0), rows)


def _floats(values):
    return tuple(float(v) for v in values)


def _random_market(rng, n):
    """Payoffs in [0, 12], spot prices from a random positive kernel, 1 to n - 1 assets."""
    kernel = [rng.randint(1, 6) for _ in range(n)]
    rows = tuple(tuple(F(rng.randint(0, 12)) for _ in range(n)) for _ in range(rng.randint(1, n - 1)))
    s0 = tuple(sum(F(k) * v for k, v in zip(kernel, row)) / sum(kernel) for row in rows)
    return DiscreteMarket(n, s0, rows)


def _shape(market):
    fam = kernel_family(market)
    if isinstance(fam, ParametricFamily):
        return "segment"
    return "vertex" if len(fam.vertices) > 1 else "unique"


def _bench_cases():
    rng = random.Random(2)
    for _ in range(2):
        yield TIED, sorted(F(v) for v in rng.sample(range(1, 61), 6))
    yield _float_copy(TIED), _floats(sorted(F(v) for v in rng.sample(range(1, 61), 6)))
    for _ in range(6):
        law = sorted(F(v) for v in rng.sample(range(1, 61), 5))
        yield KERNEL, law
        yield _float_copy(KERNEL), _floats(law)


def _random_market_cases():
    rng = random.Random(13)
    for i in range(42):
        market = _random_market(rng, rng.randint(4, 6))
        law = [F(rng.randint(-6, 12), rng.randint(1, 3)) for _ in range(market.n)]
        if i % 3 == 0:
            law[1] = law[0]
        yield market, law
        yield _float_copy(market), _floats(law)


def _canonical_cases():
    rng = random.Random(3)
    for _ in range(200):
        triple = set()
        while len(triple) < 3:
            triple.add(F(rng.randint(-40, 40), rng.randint(1, 6)))
        yield CANON, sorted(triple)
        yield _float_copy(CANON), _floats(sorted(triple))


def _signed_zero_cases():
    for law in ((-0.0, 0.0, 1.0), (0.0, -0.0, 2.0), (-1.0, 0.0, -0.0), (-0.0, -0.0, 0.0)):
        yield CANON, law
        yield _float_copy(CANON), law
    for law in ((-0.0, 0.0, 1.0, 3.0), (0.0, 2.0, -0.0, 3.0), (0.0, -0.0, 0.0, 5.0)):
        yield VERTEX4, law
        yield _float_copy(VERTEX4), law
    yield _float_copy(KERNEL), (-0.0, 4.0, 0.0, 1.0, 0.0)


GROUPS = {
    "benchmark-markets": _bench_cases,
    "random-markets": _random_market_cases,
    "canonical-triples": _canonical_cases,
    "signed-zeros": _signed_zero_cases,
}


def _digest(cases):
    h = hashlib.sha256()
    count = 0
    for market, law in cases:
        dist = DiscreteDistribution(law)
        for solve in SOLVERS:
            h.update(repr(solve(market, dist)).encode())
            h.update(b"\n")
        count += 1
    return {"cases": count, "sha256": h.hexdigest()}


def test_random_markets_cover_every_family_shape():
    shapes = {_shape(m) for m, law in _random_market_cases() if m.is_exact}
    assert shapes == {"vertex", "segment", "unique"}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_solver_reprs_match_golden(group):
    golden = json.loads(GOLDEN_PATH.read_text("utf-8"))
    assert _digest(GROUPS[group]()) == golden[group]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN_PATH.write_text(
        json.dumps({name: _digest(build()) for name, build in GROUPS.items()}, indent=1) + "\n",
        "utf-8",
    )
