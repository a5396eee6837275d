import argparse
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effico
from effico import efficiency
from effico.cli import _build_parser, main
from effico.errors import NumericalError
from effico.stochvol import DEFAULT_MODEL, variance_cost_curve, curve_to_csv
from effico.verify import available_suites


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------ three-state


def test_three_state_all_inefficient_triple(capsys):
    data = run_json(capsys, "three-state", "--x", "1", "--y", "2", "--z", "3", "--all")
    assert data["target"] == {"x": "1", "y": "2", "z": "3"}
    sols = data["solutions"]
    assert sols["maximin"]["value"] == "9/5"
    assert sols["convexified_maximin"]["value"] == "9/5"
    assert sols["convexified_minimax"]["value"] == "9/5"
    assert sols["minimax"]["value"] == "2"
    minimax_opt = sols["minimax"]["optimizers"]
    assert minimax_opt == [
        {"Z": ["3", "2", "1"], "kernel": {"u": "0"}, "boundary": True}
    ]
    maximin_zs = {tuple(o["Z"]) for o in sols["maximin"]["optimizers"]}
    assert maximin_zs == {("3", "1", "2"), ("3", "2", "1")}
    assert all(o["kernel"] == {"u": "1/5"} for o in sols["maximin"]["optimizers"])
    star = sols["convexified_minimax"]["optimizers"][0]
    assert star["Z"] == ["3", "9/5", "6/5"]
    assert star["kernel"] == {"u_range": ["0", "1/3"]}
    assert data["perfectly_cost_efficient"] is False
    assert data["attainable_cost_efficient_payoffs"] == []


def test_three_state_all_perfect_triple(capsys):
    data = run_json(capsys, "three-state", "--x", "1", "--y", "2", "--z", "4", "--all")
    sols = data["solutions"]
    for sol in sols.values():
        assert sol["value"] == "2"
        family = [o for o in sol["optimizers"] if o["Z"] == ["4", "2", "1"]]
        assert family, sol
        spans = [o["kernel"]["u_range"] for o in family if "u_range" in o["kernel"]]
        assert spans and spans[0] in (["1/5", "1/4"], ["0", "1/3"])
    assert data["perfectly_cost_efficient"] is True
    assert data["attainable_cost_efficient_payoffs"] == [
        {"Z": ["4", "2", "1"], "u_range": ["1/5", "1/4"]}
    ]


def test_three_state_csv_and_decimal(capsys):
    code, out, _ = run(
        capsys, "three-state", "--x", "1", "--y", "2", "--z", "3",
        "--problem", "maximin", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["problem,value", "maximin,9/5"]

    data = run_json(
        capsys, "three-state", "--x", "1", "--y", "2", "--z", "3",
        "--problem", "convexified-minimax", "--decimal",
    )
    sol = data["solutions"]["convexified_minimax"]
    assert sol["value"] == 1.8  # decimal mode emits JSON numbers
    assert sol["optimizers"][0]["Z"] == pytest.approx([3.0, 1.8, 1.2])


def test_three_state_accepts_fraction_strings(capsys):
    data = run_json(
        capsys, "three-state", "--x", "1", "--y", "2", "--z", "5/2",
        "--problem", "maximin",
    )
    # delta1 = 2x - 3y + z = -3/2 < 0: value (2x+2y+z)/5
    assert data["solutions"]["maximin"]["value"] == "17/10"


def test_three_state_rejects_unordered_target(capsys):
    code, _, err = run(capsys, "three-state", "--x", "1", "--y", "2", "--z", "2", "--all")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "values", [("1/0", "2", "3"), ("1", "0/0", "3"), ("1", "2", " 3/0 ")]
)
def test_three_state_zero_denominator_exits_two(capsys, values):
    argv = [arg for flag, v in zip(("--x", "--y", "--z"), values) for arg in (flag, v)]
    code, out, err = run(capsys, "three-state", *argv, "--all")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "zero denominator" in err


# ----------------------------------------------------------------- solve


@pytest.fixture
def market_files(tmp_path):
    market = tmp_path / "market.json"
    dist = tmp_path / "dist.json"
    market.write_text(
        json.dumps({"n": 3, "s0": ["2"], "sT": [["4", "2", "1"]]}), encoding="utf-8"
    )
    dist.write_text(json.dumps({"values": ["1", "2", "3"]}), encoding="utf-8")
    return str(market), str(dist)


def test_solve_matches_closed_form(capsys, market_files):
    market, dist = market_files
    data = run_json(capsys, "solve", "--market", market, "--dist", dist, "--all")
    assert data["market"]["s0"] == ["2"]
    assert data["distribution"]["values"] == ["1", "2", "3"]
    values = {name: sol["value"] for name, sol in data["solutions"].items()}
    assert values == {
        "maximin": "9/5",
        "minimax": "2",
        "convexified_maximin": "9/5",
        "convexified_minimax": "9/5",
    }


def test_solve_csv(capsys, market_files):
    market, dist = market_files
    code, out, _ = run(
        capsys, "solve", "--market", market, "--dist", dist,
        "--problem", "minimax", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["problem,value", "minimax,2"]


def test_solve_missing_file(capsys, tmp_path, market_files):
    _, dist = market_files
    code, _, err = run(
        capsys, "solve", "--market", str(tmp_path / "nope.json"), "--dist", dist,
        "--all",
    )
    assert code == 2
    assert "error:" in err


def test_solve_mismatched_sizes(capsys, tmp_path, market_files):
    market, _ = market_files
    dist = tmp_path / "short.json"
    dist.write_text(json.dumps({"values": ["1", "2"]}), encoding="utf-8")
    code, _, err = run(
        capsys, "solve", "--market", market, "--dist", str(dist), "--all"
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "which, data",
    [
        ("dist", {"values": [1, None, 3]}),
        ("dist", {"values": [True, 2, 3]}),
        ("dist", {"values": "257"}),
        ("market", {"n": 3, "s0": ["2"], "sT": [["4", {"a": 1}, "1"]]}),
        ("market", {"n": 3, "s0": ["2"], "sT": ["421"]}),
        ("market", {"n": 3, "s0": 2, "sT": [[4, 2, 1]]}),
        ("dist", {"values": ["1/0", 2, 3]}),
        ("market", {"n": 3, "s0": ["2"], "sT": [["4", "0/0", "1"]]}),
    ],
)
def test_solve_malformed_json_exits_two(capsys, tmp_path, market_files, which, data):
    files = dict(zip(("market", "dist"), market_files))
    files[which] = str(tmp_path / "bad.json")
    Path(files[which]).write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(
        capsys, "solve", "--market", files["market"], "--dist", files["dist"], "--all"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# --------------------------------------------------------------- utility


def test_utility_log(capsys):
    data = run_json(capsys, "utility", "--kind", "log", "--x0", "1")
    assert data["kind"] == "log"
    assert data["x_star"] == pytest.approx(0.75)
    assert data["payoff"] == pytest.approx([1.5, 1.0, 0.75])
    assert data["hedge"] == pytest.approx(0.5)
    assert "alpha" not in data


def test_utility_power(capsys):
    data = run_json(capsys, "utility", "--kind", "power", "--alpha", "-1", "--x0", "2")
    b = 0.5  # beta = alpha/(alpha-1)
    assert data["alpha"] == -1.0
    assert data["x_star"] == pytest.approx(6.0 * 2.0 ** (b - 1) / (1.0 + 2.0**b))


def test_utility_power_requires_alpha(capsys):
    code, _, err = run(capsys, "utility", "--kind", "power", "--x0", "1")
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("kind", ["log", "exp"])
def test_utility_rejects_alpha_without_exponent(capsys, kind):
    code, out, err = run(capsys, "utility", "--kind", kind, "--alpha", "0.5", "--x0", "1")
    assert code == 2
    assert out == ""
    assert "alpha" in err


@pytest.mark.parametrize("x0", ["nan", "inf", "0"])
def test_utility_rejects_bad_capital(capsys, x0):
    code, _, err = run(capsys, "utility", "--kind", "log", "--x0", x0)
    assert code == 2
    assert "error:" in err


# -------------------------------------------------------------- stochvol


def test_gap_default_model(capsys):
    data = run_json(capsys, "stochvol-gap")
    assert set(data) == {"value", "q_star", "stock_price", "gap"}
    assert data["stock_price"] == 1.0
    assert data["gap"] == pytest.approx(1.0 - data["value"], abs=1e-15)
    assert 0.0 < data["value"] < 1.0
    assert 0.0 < data["q_star"] < 1.0


def test_gap_with_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    flat = dict(DEFAULT_MODEL.to_dict(), sigma_l=DEFAULT_MODEL.sigma_h)
    path.write_text(json.dumps(flat), encoding="utf-8")
    data = run_json(capsys, "stochvol-gap", "--model", str(path))
    # single-volatility model: the stock's law costs the stock price
    assert data["value"] == pytest.approx(1.0, abs=1e-6)
    assert data["gap"] == pytest.approx(0.0, abs=1e-6)


def test_gap_rejects_bad_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    for model in (
        {"mu": 0.05},
        dict(DEFAULT_MODEL.to_dict(), T=True, s0=True),
        dict(DEFAULT_MODEL.to_dict(), r=0.03),
    ):
        path.write_text(json.dumps(model), encoding="utf-8")
        code, _, err = run(capsys, "stochvol-gap", "--model", str(path))
        assert code == 2, model
        assert "error:" in err


def test_curve_stdout_matches_library(capsys):
    code, out, _ = run(capsys, "stochvol-curve", "--variances", "0.05,0.1")
    assert code == 0
    expected = curve_to_csv(variance_cost_curve(DEFAULT_MODEL, [0.05, 0.1]))
    assert out == expected


def test_curve_out_file(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    data = run_json(
        capsys, "stochvol-curve", "--variances", "0.05,0.1", "--out", str(target)
    )
    assert data == {"out": str(target), "rows": 2}
    text = target.read_text(encoding="utf-8")
    assert text == curve_to_csv(variance_cost_curve(DEFAULT_MODEL, [0.05, 0.1]))


def test_curve_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "stochvol-curve", "--variances", "0.2,0.1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "stochvol-curve", "--variances", "")
    assert code == 2
    code, _, err = run(capsys, "stochvol-curve", "--variances", "nan")
    assert code == 2
    assert "error:" in err


def test_numerical_failures_exit_three(capsys, monkeypatch):
    import effico.stochvol as stochvol

    def boom(model, target):
        raise NumericalError("cost integral diverged")

    # the handler imports the function when it runs, so it sees the patch
    monkeypatch.setattr(stochvol, "distribution_superhedge_cost", boom)
    code, _, err = run(capsys, "stochvol-gap")
    assert code == 3
    assert "error:" in err


# ---------------------------------------------------------------- verify


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "market")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS market:") for line in lines[:-1])
    total = len(lines) - 1
    assert lines[-1] == f"{total}/{total} checks passed"


def test_verify_all_suites_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--seed", "7")
    assert code == 0
    code, second, _ = run(capsys, "verify", "--seed", "7")
    assert code == 0
    assert first == second
    assert "checks passed" in first
    assert "FAIL" not in first


# ------------------------------------------------------------ import path

# effico.__all__ as it stood before stochvol and utility became lazy
PUBLIC_NAMES = [
    "BracketError", "CurvePoint", "CustomUtility", "DEFAULT_MODEL",
    "DimensionMismatchError", "DiscreteDistribution", "DiscreteMarket",
    "DistributionCost", "EfficiencyReport", "EfficoError", "ExpUtility",
    "GridSearchResult", "InfeasibleError", "KernelFamily", "KernelSet",
    "KkmDiagnostics", "LogNormal", "LogUtility", "MixtureStock", "MomentMatchedTargets",
    "Normal", "NumericalError", "Optimizer", "ParametricFamily", "PayoffSet",
    "PointMass", "PowerUtility", "PricingKernel", "Problem", "RegimeSwitchModel",
    "SolutionSet", "SuperhedgeResult", "ThreeStateTarget", "TooManyStatesError",
    "TransformValue", "VertexFamily", "WealthSolution",
    "attainable_cost_efficient_payoffs", "attainable_permutations",
    "closed_form_wealth", "convexified_maximin_cost", "convexified_minimax_cost",
    "cost_efficiency_check", "cost_efficient_payoff", "curve_to_csv",
    "distribution_superhedge_cost", "distributional_transform", "floor_price",
    "in_permutation_hull", "is_attainable_payoff", "is_convex_dominated",
    "is_perfectly_cost_efficient", "kernel_cdf", "kernel_family", "kernel_quantile",
    "kkm_diagnostics", "maximin_cost", "mean_preserving_contraction", "minimax_cost",
    "moment_matched_targets", "optimal_wealth", "price", "share_grid_search",
    "share_payoff", "solve_problem", "stock_cdf", "stock_quantile", "superhedge_cost",
    "three_state_closed_form", "utility_from_name", "variance_cost_curve",
]

_IMPORT_PROBE = """
import contextlib, io, json, sys
import effico, effico.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["three-state", "--x", "1", "--y", "2", "--z", "3", "--all"]) == 0
    assert cli.main(["solve", "--market", sys.argv[1], "--dist", sys.argv[2], "--all"]) == 0
    assert cli.main(["utility", "--kind", "log", "--x0", "2"]) == 0
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
missing = [n for n in effico.__all__ if getattr(effico, n, None) is None]
star = {}
exec("from effico import *", star)
print(json.dumps({
    "heavy": heavy,
    "star_scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "missing": missing,
    "unbound": sorted(set(effico.__all__) - set(star)),
    "all": sorted(effico.__all__),
}))
"""


def test_fraction_commands_import_no_numpy(market_files):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *market_files],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    data = json.loads(proc.stdout)
    assert data["heavy"] == []
    assert data["star_scipy"] == []
    assert data["missing"] == []
    assert data["unbound"] == []
    assert data["all"] == PUBLIC_NAMES


def _effico_imports(*argv):
    """effico modules that a fresh ``python -m effico.cli`` run imports.

    ``-X importtime`` lists every module as it is imported.  ``-m`` runs
    effico.cli itself as ``__main__``, so it is not among them.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "effico.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return {n for n in names if n.split(".")[0] == "effico"}


def test_utility_command_loads_no_solver():
    assert _effico_imports("utility", "--kind", "log", "--x0", "2") == {
        "effico", "effico._numbers", "effico.errors", "effico.utility",
    }


def test_exact_commands_load_no_verify(market_files):
    """three-state compiles only the closed forms, solve only the generic solvers."""
    market, dist = market_files
    three = _effico_imports("three-state", "--x", "1", "--y", "2", "--z", "3", "--all")
    solve = _effico_imports("solve", "--market", market, "--dist", dist, "--all")
    base = {"effico", "effico._numbers", "effico.errors", "effico.solution"}
    assert three == base | {"effico.three_state"}
    assert solve == base | {
        "effico.distribution", "effico.efficiency", "effico.lp", "effico.market",
    }


def test_public_names_are_one_object_on_every_path():
    """effico, effico.efficiency and each name's own module hand out the same object."""
    for module, names in effico._LAZY.items():
        mod = importlib.import_module(f"effico.{module}")
        for name in names:
            assert getattr(effico, name) is getattr(mod, name), name
    for name in efficiency.__all__:
        assert getattr(efficiency, name) is getattr(effico, name), name
    assert efficiency.solve_problem.__module__ == "effico.efficiency"
    assert efficiency.three_state_closed_form.__module__ == "effico.three_state"
    with pytest.raises(AttributeError, match="no_such_name"):
        efficiency.no_such_name


def test_parser_choices_come_from_problem_and_suites():
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )

    def choices(command, option):
        return next(
            a.choices for a in sub.choices[command]._actions if option in a.option_strings
        )

    names = [p.value.replace("_", "-") for p in efficiency.Problem]
    assert choices("three-state", "--problem") == names
    assert choices("solve", "--problem") == names
    assert choices("verify", "--suite") == ["all", *available_suites()]
    assert effico.Problem is efficiency.Problem
