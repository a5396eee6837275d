"""Command-line front end: solve, tabulate, and verify from the shell.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.  Output is
JSON by default (exact values rendered as fraction strings), CSV where a
table is more natural.  All runs are deterministic; the only randomized
operation (the distributional transform inside the verify suite) is
driven by --seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._numbers import SUITE_NAMES, Problem, format_number, parse_number
from .errors import BracketError, InfeasibleError, NumericalError, TooManyStatesError

# Each handler imports what it runs, so a command compiles only its own
# modules: utility loads no exact solver, and three-state and solve no numpy.
__all__ = ["main"]

_PROBLEM_NAMES = [p.value.replace("_", "-") for p in Problem]


def _problem_from_flag(name: str) -> Problem:
    return Problem(name.replace("-", "_"))


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _solution_csv(solutions: dict, decimal: bool) -> str:
    lines = ["problem,value"]
    for name, sol in solutions.items():
        lines.append(f"{name},{format_number(sol.value, decimal)}")
    return "\n".join(lines)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_model(path: str | None):
    from .stochvol import DEFAULT_MODEL, RegimeSwitchModel

    if path is None:
        return DEFAULT_MODEL
    return RegimeSwitchModel.from_dict(_load_json(path))


# -------------------------------------------------------------- handlers


def _run_three_state(args) -> int:
    from .three_state import (
        ThreeStateTarget,
        attainable_cost_efficient_payoffs,
        is_perfectly_cost_efficient,
        three_state_closed_form,
    )

    target = ThreeStateTarget(
        parse_number(args.x), parse_number(args.y), parse_number(args.z)
    )
    problems = list(Problem) if args.all else [_problem_from_flag(args.problem)]
    solutions = {p.value: three_state_closed_form(target, p) for p in problems}
    if args.format == "csv":
        print(_solution_csv(solutions, args.decimal))
        return 0
    out = {
        "target": {k: format_number(v, args.decimal) for k, v in
                   zip("xyz", target.values())},
        "solutions": {name: sol.to_dict(args.decimal) for name, sol in solutions.items()},
    }
    if args.all:
        out["perfectly_cost_efficient"] = is_perfectly_cost_efficient(target)
        out["attainable_cost_efficient_payoffs"] = [
            {
                "Z": [format_number(v, args.decimal) for v in payoff],
                "u_range": [format_number(v, args.decimal) for v in span],
            }
            for payoff, span in attainable_cost_efficient_payoffs(target)
        ]
    _emit_json(out)
    return 0


def _run_solve(args) -> int:
    from .distribution import DiscreteDistribution
    from .efficiency import solve_problem
    from .market import DiscreteMarket

    market = DiscreteMarket.from_dict(_load_json(args.market))
    dist = DiscreteDistribution.from_dict(_load_json(args.dist))
    problems = list(Problem) if args.all else [_problem_from_flag(args.problem)]
    solutions = {p.value: solve_problem(market, dist, p) for p in problems}
    if args.format == "csv":
        print(_solution_csv(solutions, args.decimal))
        return 0
    _emit_json(
        {
            "market": market.to_dict(args.decimal),
            "distribution": dist.to_dict(args.decimal),
            "solutions": {n: s.to_dict(args.decimal) for n, s in solutions.items()},
        }
    )
    return 0


def _run_utility(args) -> int:
    from .utility import optimal_wealth, utility_from_name

    kind = utility_from_name(args.kind, args.alpha)
    sol = optimal_wealth(kind, args.x0)
    out = {"kind": args.kind}
    if args.alpha is not None:
        out["alpha"] = args.alpha
    out.update(
        {
            "x0": sol.x0,
            "x_star": sol.x_star,
            "payoff": list(sol.payoff),
            "value": sol.value,
            "hedge": sol.hedge,
        }
    )
    _emit_json(out)
    return 0


def _run_curve(args) -> int:
    from .stochvol import curve_to_csv, variance_cost_curve

    model = _load_model(args.model)
    variances = [float(v) for v in args.variances.split(",") if v.strip()]
    points = variance_cost_curve(model, variances)
    csv = curve_to_csv(points)
    if args.out is None:
        sys.stdout.write(csv)
        return 0
    Path(args.out).write_text(csv, encoding="utf-8")
    _emit_json({"out": args.out, "rows": len(points)})
    return 0


def _run_gap(args) -> int:
    from .stochvol import MixtureStock, distribution_superhedge_cost

    model = _load_model(args.model)
    res = distribution_superhedge_cost(model, MixtureStock(model))
    _emit_json(
        {
            "value": res.value,
            "q_star": res.q_star,
            "stock_price": model.s0,
            "gap": model.s0 - res.value,
        }
    )
    return 0


def _run_verify(args) -> int:
    from .verify import run_suites

    names = None if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    failed = 0
    for res in results:
        if res.passed:
            print(f"PASS {res.suite}:{res.name}")
        else:
            failed += 1
            print(f"FAIL {res.suite}:{res.name} {res.detail}".rstrip())
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# --------------------------------------------------------------- parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effico",
        description="Cost-efficient payoffs and distributional superhedging costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    three = sub.add_parser(
        "three-state", help="closed-form solutions in the canonical 3-state market"
    )
    three.add_argument("--x", required=True, help="smallest target value (fraction or decimal)")
    three.add_argument("--y", required=True, help="middle target value")
    three.add_argument("--z", required=True, help="largest target value")
    group = three.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", choices=_PROBLEM_NAMES)
    group.add_argument("--all", action="store_true", help="solve all four problems")
    three.add_argument("--decimal", action="store_true", help="decimal instead of fraction output")
    three.add_argument("--format", choices=["json", "csv"], default="json")
    three.set_defaults(func=_run_three_state)

    solve = sub.add_parser("solve", help="generic solvers on a market/distribution pair")
    solve.add_argument("--market", required=True, help="market JSON file")
    solve.add_argument("--dist", required=True, help="distribution JSON file")
    sgroup = solve.add_mutually_exclusive_group(required=True)
    sgroup.add_argument("--problem", choices=_PROBLEM_NAMES)
    sgroup.add_argument("--all", action="store_true")
    solve.add_argument("--decimal", action="store_true")
    solve.add_argument("--format", choices=["json", "csv"], default="json")
    solve.set_defaults(func=_run_solve)

    util = sub.add_parser("utility", help="optimal wealth under a concave utility")
    util.add_argument("--kind", required=True, choices=["log", "exp", "power"])
    util.add_argument("--alpha", type=float, help="power-utility exponent (alpha < 1, nonzero)")
    util.add_argument("--x0", required=True, type=float, help="initial capital")
    util.set_defaults(func=_run_utility)

    curve = sub.add_parser(
        "stochvol-curve", help="superhedging-cost columns over a variance grid"
    )
    curve.add_argument("--model", help="model JSON file (default: built-in model)")
    curve.add_argument(
        "--variances", required=True, help="comma-separated increasing variance grid"
    )
    curve.add_argument("--out", help="CSV output path (default: stdout)")
    curve.set_defaults(func=_run_curve)

    gap = sub.add_parser(
        "stochvol-gap", help="cost of the stock's law versus the stock price"
    )
    gap.add_argument("--model", help="model JSON file (default: built-in model)")
    gap.set_defaults(func=_run_gap)

    ver = sub.add_parser("verify", help="run the built-in oracle suites")
    ver.add_argument("--suite", default="all", choices=["all", *SUITE_NAMES])
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_run_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, InfeasibleError, TooManyStatesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
