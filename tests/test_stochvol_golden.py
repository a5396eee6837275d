"""Regime-switching quadrature values pinned to recorded digits.

``data/stochvol_golden.json`` holds, for ``DEFAULT_MODEL`` at the default
100 nodes:

* the 40 costs of the variance grid of ``test_variance_curve_reproduction``
  (Normal and LogNormal targets with the stock's mean);
* the cost of the stock's own law and its maximizing kernel weight q*;
* ``floor_price`` of the moment-matched Normal, the moment-matched
  LogNormal and the stock's law at q in {1e-7, 0.3, 0.5, 1 - 1e-7}.

A rewrite of the quadrature must reproduce the costs and floors to within
1e-15 relative.  q* is fixed only to about sqrt(eps / |g''|) on a flat top,
so it is held to the 1e-8 of ``test_stock_law_cost_regression``.

Regenerate the file only for an intended change of results:
``PYTHONPATH=src python tests/test_stochvol_golden.py --record``.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from effico.stochvol import (
    DEFAULT_MODEL,
    MixtureStock,
    distribution_superhedge_cost,
    floor_price,
    moment_matched_targets,
    variance_cost_curve,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "stochvol_golden.json"
FLOOR_QS = (1e-7, 0.3, 0.5, 1.0 - 1e-7)
REL = 1e-15


def _values() -> dict:
    m = DEFAULT_MODEL
    mm = moment_matched_targets(m)
    grid = sorted(set(np.geomspace(1e-8, 2 * mm.variance, 19)) | {mm.variance})
    curve = [[pt.variance, pt.cost_normal, pt.cost_lognormal] for pt in variance_cost_curve(m, grid)]
    stock = distribution_superhedge_cost(m, MixtureStock(m))
    targets = {"normal": mm.normal, "lognormal": mm.lognormal, "stock": MixtureStock(m)}
    floors = {name: [floor_price(m, q, t) for q in FLOOR_QS] for name, t in targets.items()}
    return {"curve": curve, "stock_cost": stock.value, "stock_q_star": stock.q_star, "floors": floors}


def test_stochvol_values_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text("utf-8"))
    got = _values()
    assert len(got["curve"]) == len(golden["curve"]) == 20
    for row, want in zip(got["curve"], golden["curve"]):
        assert row[0] == want[0]
        assert row[1:] == pytest.approx(want[1:], rel=REL, abs=0)
    assert got["stock_cost"] == pytest.approx(golden["stock_cost"], rel=REL, abs=0)
    assert got["stock_q_star"] == pytest.approx(golden["stock_q_star"], rel=0, abs=1e-8)
    assert got["floors"].keys() == golden["floors"].keys()
    for name, want in golden["floors"].items():
        assert got["floors"][name] == pytest.approx(want, rel=REL, abs=0)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN_PATH.write_text(json.dumps(_values(), indent=1) + "\n", "utf-8")
