"""The four workloads: seeded inputs, one cycle's fixed mix of ops, warm-up,
output checks and per-layer figures.

A cycle is the unit a run repeats.  Its mix of op kinds never changes, so
a run's mix does not depend on its speed, and the share of failed ops is
the same in every run.  Inputs are drawn from a ``random.Random`` seeded by
the caller; effico only ever sees the generated values.
"""
from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import effico
from effico import cli, distribution, efficiency, market, stochvol, utility

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOLVERS = ("maximin_cost", "convexified_maximin_cost", "convexified_minimax_cost", "minimax_cost")
CANONICAL = market.DiscreteMarket.canonical_three_state()


def child_env() -> dict:
    """Environment of every child interpreter: this checkout's sources, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["EFFICO_THREADS"] = "1"
    return env


@dataclass
class Op:
    kind: str  # "primary" or "alt"
    run: Callable[[], object]
    data: dict  # the inputs, for the checks


@dataclass
class Record:
    op: Op
    seconds: float
    output: object  # the op's result, or the exception it raised
    calls: dict | None  # traced runs: layer name -> [calls, seconds, per-call seconds]
    cycle: int


def primary(records):
    return [r for r in records if r.op.kind == "primary"]


def median_ms(seconds):
    return statistics.median(seconds) * 1e3


def solve_four(mkt, values):
    """The four generic solvers on one law; looked up at call time so a trace sees them."""
    dist = distribution.DiscreteDistribution(values)
    return tuple(getattr(efficiency, name)(mkt, dist) for name in SOLVERS)


def random_triple(rng) -> tuple:
    vals: set = set()
    while len(vals) < 3:
        den = rng.randint(1, 12)
        vals.add(F(rng.randint(-10 * den, 10 * den), den))
    return tuple(sorted(vals))


def perfect_triple(rng) -> tuple:
    """x < y < z with z = 3y - 2x: a perfectly cost-efficient law."""
    x, y, _ = random_triple(rng)
    return (x, y, 3 * y - 2 * x)


def _raised(output) -> list[str]:
    return [f"raised {output!r}"] if isinstance(output, Exception) else []


def solver_layer_metrics(records) -> dict:
    """Per-layer figures of the in-process solver workloads, over primary ops."""
    ops = [r for r in primary(records) if r.calls is not None and not isinstance(r.output, Exception)]
    out = {}

    def per_op(name):
        return [r.calls.get(name, [0, 0.0, []]) for r in ops]

    for name in ("lp.solve_lp", "market.superhedge_cost", "market.kernel_family", "numbers.normalize_values"):
        rows = per_op(name)
        out[f"{name}_calls_per_op"] = statistics.fmean(c for c, _, _ in rows)
        out[f"{name}_ms_per_op"] = median_ms([s for _, s, _ in rows])
    for name in ("maximin", "convexified_maximin", "convexified_minimax", "minimax"):
        calls = [d for _, _, per_call in per_op(f"efficiency.{name}") for d in per_call]
        out[f"efficiency.{name}_ms"] = median_ms(calls)
    out["efficiency.optimizers_per_op"] = statistics.fmean(
        sum(len(s.optimizers) for s in r.output) for r in ops
    )
    return out


def trace_targets():
    """(module, attribute, layer) for every public function the trace wraps.

    Each is wrapped where its callers look it up: ``efficiency`` imports
    ``solve_lp``, ``kernel_family`` and ``superhedge_cost`` by name, three
    modules import ``normalize_values``, and the benchmark reaches the four
    solvers through the ``efficiency`` module.
    """
    out = [
        (efficiency, "solve_lp", "lp.solve_lp"),
        (efficiency, "kernel_family", "market.kernel_family"),
        (efficiency, "superhedge_cost", "market.superhedge_cost"),
    ]
    for mod in (market, distribution, utility):
        out.append((mod, "normalize_values", "numbers.normalize_values"))
    for name in SOLVERS:
        out.append((efficiency, name, "efficiency." + name[: -len("_cost")]))
    return out


class Workload:
    """Defaults shared by the workloads: ops run in this process, nothing to clean up."""

    in_children = False

    def close(self):
        pass


# ------------------------------------------------------------ exact-sweep


class ExactSweep(Workload):
    """Canonical 3-state market, seeded rational triples, 2 of every 8 perfectly cost-efficient.

    Primary op: the four generic solvers on an exact triple.  Alt op: the
    same solvers on its float copy, the float path of the same LP layer.
    """

    name = "exact-sweep"
    RANDOM, PERFECT = 6, 2

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)

    @staticmethod
    def warm_up():
        solve_four(CANONICAL, (F(1), F(2), F(3)))
        solve_four(CANONICAL, (1.0, 2.0, 3.0))

    def cycle(self) -> list[Op]:
        triples = [random_triple(self.rng) for _ in range(self.RANDOM)]
        triples += [perfect_triple(self.rng) for _ in range(self.PERFECT)]
        self.rng.shuffle(triples)
        ops = []
        for t in triples:
            ops.append(Op("primary", partial(solve_four, CANONICAL, t), {"triple": t, "exact": True}))
            floats = tuple(float(v) for v in t)
            ops.append(Op("alt", partial(solve_four, CANONICAL, floats), {"triple": t, "exact": False}))
        return ops

    @staticmethod
    def check_one(data, sols) -> list[str]:
        import oracles

        if isinstance(sols, Exception):
            return _raised(sols)
        x, y, z = data["triple"]
        shared, minimax = oracles.three_state_table(x, y, z)
        tol = 0 if data["exact"] else oracles.FLOAT_TOL
        errors = []
        for sol, want in zip(sols, (shared, shared, shared, minimax)):
            if not oracles.close(sol.value, want, tol):
                errors.append(f"{data['triple']} {sol.problem.value}: {sol.value} != table {want}")
            if data["exact"] and not isinstance(sol.value, Fraction):
                errors.append(f"{data['triple']} {sol.problem.value}: exact input gave {sol.value!r}")
        values = (x, y, z) if data["exact"] else tuple(float(v) for v in (x, y, z))
        errors += oracles.check_solutions(values, sols, tol, perfect=(z == 3 * y - 2 * x))
        return errors

    def check(self, records):
        return 0, [e for r in records for e in self.check_one(r.op.data, r.output)]

    def self_test(self, records) -> list[str]:
        r = next(r for r in primary(records) if not isinstance(r.output, Exception))
        sols = r.output
        off_value = (replace(sols[0], value=sols[0].value + F(1, 10**9)),) + sols[1:]
        opt = sols[0].optimizers[0]
        moved = replace(opt.payoff, base=(opt.payoff.base[0] + F(1, 10**9),) + opt.payoff.base[1:])
        off_law = (replace(sols[0], optimizers=(replace(opt, payoff=moved),) + sols[0].optimizers[1:]),)
        off_law += sols[1:]
        missed = []
        for label, bad in (("value off by 1e-9", off_value), ("optimizer off the law", off_law)):
            if not self.check_one(r.op.data, bad):
                missed.append(f"self-test: exact-sweep check accepted {label}")
        return missed

    def layer_metrics(self, records) -> dict:
        return solver_layer_metrics(records)


# ----------------------------------------------------------- generic-ties


def integer_values(rng, n, top) -> tuple:
    """n distinct integers in [1, top], as Fractions."""
    return tuple(sorted(F(v) for v in rng.sample(range(1, top + 1), n)))


# Fixed markets, seeded target laws: across random markets the op time varies
# by up to twofold with the shape of the kernel polytope, more than the few
# ops of a run average out.
# One asset priced at its state average, so the uniform kernel is admissible.
TIED_MARKET = market.DiscreteMarket(
    6, (F(74, 3),), ((F(27), F(29), F(3), F(22), F(35), F(32)),)
)
# Two assets priced by the kernel (4, 7, 1, 10, 3) / 5, distinct weights.
KERNEL_MARKET = market.DiscreteMarket(
    5,
    (F(146, 25), F(21, 5)),
    ((F(4), F(9), F(1), F(6), F(2)), (F(3), F(2), F(8), F(5), F(7))),
)
# a small tied market for the warm-up
WARM_MARKET = market.DiscreteMarket(4, (F(5),), ((F(2), F(9), F(1), F(8)),))


class GenericTies(Workload):
    """Exact equiprobable markets beyond three states.

    Primary op: the four problems at n = 6 on a market whose spot price is
    the state average, so the uniform kernel is the unique maximin kernel
    and all 720 arrangements tie.  Alt op: n = 5, two assets priced by a
    kernel with distinct weights.
    """

    name = "generic-ties"
    ALT_PER_CYCLE = 4

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)

    @staticmethod
    def warm_up():
        solve_four(WARM_MARKET, (F(1), F(4), F(6), F(9)))

    def cycle(self) -> list[Op]:
        vals = integer_values(self.rng, TIED_MARKET.n, 60)
        data = {"market": TIED_MARKET, "values": vals, "tied": True}
        ops = [Op("primary", partial(solve_four, TIED_MARKET, vals), data)]
        for _ in range(self.ALT_PER_CYCLE):
            vals = integer_values(self.rng, KERNEL_MARKET.n, 60)
            data = {"market": KERNEL_MARKET, "values": vals, "tied": False}
            ops.append(Op("alt", partial(solve_four, KERNEL_MARKET, vals), data))
        return ops

    @staticmethod
    def tie_errors(values, sols) -> list[str]:
        """Tied markets: value = mean, n! maximin and n! n(n-1)/4 convexified optimizers."""
        n = len(values)
        mean = sum(values) / n
        errors = []
        if sols[0].value != mean:
            errors.append(f"tied maximin {sols[0].value} != mean {mean}")
        want = (math.factorial(n), math.factorial(n) * n * (n - 1) // 4)
        got = (len(sols[0].optimizers), len(sols[1].optimizers))
        if got != want:
            errors.append(f"tied optimizer counts {got} != {want}")
        return errors

    @staticmethod
    def highs_errors(data, sols) -> list[str]:
        import oracles

        mkt, vals = data["market"], data["values"]
        errors = []
        for sol, solve in (
            (sols[2], oracles.convexified_minimax_highs),
            (sols[3], oracles.minimax_highs),
        ):
            try:
                want = solve(mkt.s0, mkt.sT, vals)
            except RuntimeError as exc:
                errors.append(f"{sol.problem.value}: no HiGHS reference: {exc}")
                continue
            if not oracles.close(sol.value, want, oracles.HIGHS_TOL):
                errors.append(f"{sol.problem.value} {float(sol.value)!r} != HiGHS {want!r}")
        return errors

    def check_one(self, data, sols) -> list[str]:
        import oracles

        if isinstance(sols, Exception):
            return _raised(sols)
        errors = oracles.check_solutions(data["values"], sols, 0, perfect=None)
        if data["tied"]:
            errors += self.tie_errors(data["values"], sols)
        return errors + self.highs_errors(data, sols)

    def check(self, records):
        return 0, [e for r in records for e in self.check_one(r.op.data, r.output)]

    def self_test(self, records) -> list[str]:
        r = next(r for r in primary(records) if not isinstance(r.output, Exception))
        sols, vals = r.output, r.op.data["values"]
        missed = []
        one_less = (replace(sols[0], optimizers=sols[0].optimizers[:-1]),) + sols[1:]
        if not self.tie_errors(vals, one_less):
            missed.append("self-test: tie check accepted an optimizer count off by one")
        for i in (2, 3):
            bad = list(sols)
            bad[i] = replace(sols[i], value=sols[i].value * (1 + F(1, 10**6)))
            if not self.highs_errors(r.op.data, bad):
                missed.append(f"self-test: HiGHS check accepted {sols[i].problem.value} off by 1e-6")
        return missed

    def layer_metrics(self, records) -> dict:
        return solver_layer_metrics(records)


# --------------------------------------------------------- stochvol-curve


def _edge(q: float) -> bool:
    return q < 1e-6 or q > 1.0 - 1e-6


class StochvolCurve(Workload):
    """DEFAULT_MODEL on the 20-point variance grid, Normal and LogNormal targets.

    Primary op: one distribution_superhedge_cost; a whole curve is 40 ops.
    Alt op: the cost of the stock's own law.  The inputs are fixed; the
    seed sets their order.  Costs whose maximizing weight q* lands at the
    edge of (0, 1) are the known q-search fault and count as failed.
    """

    name = "stochvol-curve"
    GAP_PER_CYCLE = 4

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        m = stochvol.DEFAULT_MODEL
        self.model = m
        self.mean = m.s0 * math.exp(m.mu * m.T)
        var = (
            m.p * math.exp(m.sigma_h**2 * m.T) + (1 - m.p) * math.exp(m.sigma_l**2 * m.T) - 1
        ) * m.s0**2 * math.exp(2 * m.mu * m.T)
        grid = sorted(set(np.geomspace(1e-8, 2 * var, 19)) | {var})
        self.targets = []
        for v in grid:
            s2 = math.log(1 + v / self.mean**2)
            self.targets.append(("normal", v, stochvol.Normal(self.mean, v)))
            self.targets.append(("lognormal", v, stochvol.LogNormal(math.log(self.mean) - s2 / 2, s2)))

    @staticmethod
    def warm_up():
        m = stochvol.DEFAULT_MODEL
        stochvol.floor_price(m, m.p, stochvol.Normal(1.0, 0.01))

    def cycle(self) -> list[Op]:
        ops = [
            Op("primary", partial(self.cost, target), {"family": fam, "variance": v, "target": target})
            for fam, v, target in self.targets
        ]
        gap = stochvol.MixtureStock(self.model)
        ops += [Op("alt", partial(self.cost, gap), {"family": "stock"}) for _ in range(self.GAP_PER_CYCLE)]
        self.rng.shuffle(ops)
        return ops

    def cost(self, target):
        return stochvol.distribution_superhedge_cost(self.model, target)

    def oracle(self):
        import oracles

        m = self.model
        oracle = oracles.RegimeOracle(m.mu, m.sigma_h, m.sigma_l, m.p, m.T, m.s0)
        table = {}
        for fam, v, target in self.targets:
            if fam == "normal":
                quantile = oracles.normal_quantile(target.mean, target.variance)
            else:
                quantile = oracles.lognormal_quantile(target.log_mean, target.log_variance)
            table[fam, v] = oracle.cost(quantile) + (oracle.floor(quantile),)
        stock = oracles.stock_quantile(m.mu, m.sigma_h, m.sigma_l, m.p, m.T, m.s0)
        table["stock", None] = oracle.cost(stock) + (oracle.floor(stock),)
        return table

    def check_one(self, data, res, table) -> list[str]:
        import oracles

        want, q_oracle, err, floor = table[data["family"], data.get("variance")]
        tol = oracles.regime_tolerance(err)
        errors = []
        if not 1e-3 < q_oracle < 1 - 1e-3:
            errors.append(f"oracle maximizer q={q_oracle} at the edge: oracle inconclusive")
        if abs(res.value - want) > tol:
            errors.append(f"{data['family']} {data.get('variance')}: cost {res.value!r} != oracle {want!r} (tol {tol:.1e})")
        upper = self.mean if data["family"] != "stock" else self.model.s0
        if not floor - tol <= res.value <= upper + tol:
            errors.append(f"{data['family']} {data.get('variance')}: cost {res.value!r} outside [{floor!r}, {upper!r}]")
        return errors

    def check(self, records):
        table = self.oracle()
        errors, failed = [], 0
        good = {}
        for r in records:
            if isinstance(r.output, Exception):
                errors += _raised(r.output)
                continue
            key = (r.op.data["family"], r.op.data.get("variance"))
            if key in good and good[key] != r.output.value:
                errors.append(f"{key}: cost {r.output.value!r} differs from an earlier {good[key]!r}")
            if r.op.kind == "primary" and _edge(r.output.q_star):
                failed += 1
                continue
            good[key] = r.output.value
            errors += self.check_one(r.op.data, r.output, table)
        for fam in ("normal", "lognormal"):
            curve = sorted((v, c) for (f, v), c in good.items() if f == fam)
            for (v0, c0), (v1, c1) in zip(curve, curve[1:]):
                if c1 > c0 + 1e-12:
                    errors.append(f"{fam}: cost rises from {c0!r} at {v0:g} to {c1!r} at {v1:g}")
        self._table = table
        return failed, errors

    def self_test(self, records) -> list[str]:
        import oracles

        table = getattr(self, "_table", None) or self.oracle()
        r = next(
            r for r in primary(records)
            if not isinstance(r.output, Exception) and not _edge(r.output.q_star)
        )
        err = table[r.op.data["family"], r.op.data["variance"]][2]
        bad = replace(r.output, value=r.output.value + 10 * oracles.regime_tolerance(err))
        if not self.check_one(r.op.data, bad, table):
            return ["self-test: regime-switching oracle accepted a cost off by ten tolerances"]
        return []

    def layer_metrics(self, records) -> dict:
        prim = [r for r in primary(records) if not isinstance(r.output, Exception)]
        per_cycle: dict = {}
        for r in prim:
            per_cycle[r.cycle] = per_cycle.get(r.cycle, 0.0) + r.seconds
        floor_times = []
        for _, _, target in self.targets:
            t0 = time.perf_counter()
            stochvol.floor_price(self.model, self.model.p, target)
            floor_times.append(time.perf_counter() - t0)
        return {
            "stochvol.floor_price_ms": median_ms(floor_times),
            "stochvol.cost_ms": median_ms([r.seconds for r in prim]),
            "stochvol.curve_s": statistics.median(per_cycle.values()),
            "stochvol.gap_cost_ms": median_ms([r.seconds for r in records if r.op.kind == "alt"]),
            "stochvol.bound_excess_max": max(r.output.value - self.mean for r in prim),
        }


# ------------------------------------------------------------ cli-oneshot


def run_command(argv):
    """One effico command in a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "effico.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _child_runs(code: str, samples: int) -> list[tuple[float, str]]:
    """(wall seconds, stdout) of ``samples`` runs of ``python -c code``."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append((time.perf_counter() - t0, proc.stdout))
    return out


class CliOneshot(Workload):
    """One effico command per fresh interpreter, one at a time.

    Primary op: ``three-state --all`` alternating with ``solve --all`` on
    the canonical market.  Alt op: ``utility --kind log``.  Interpreter
    start and ``import effico`` dominate every op.
    """

    name = "cli-oneshot"
    in_children = True
    IMPORT_SAMPLES = 5

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.market_file = workdir / "market.json"
        self.market_file.write_text(json.dumps(CANONICAL.to_dict()))
        self.files = 0

    @staticmethod
    def warm_up():
        with redirect_stdout(io.StringIO()):
            cli.main(["three-state", "--x=1", "--y=2", "--z=3", "--all"])

    def _triple(self):
        return perfect_triple(self.rng) if self.rng.random() < 0.25 else random_triple(self.rng)

    def _x0(self):
        return self.rng.randint(10, 1000) / 100

    def cycle(self) -> list[Op]:
        a, b = self._triple(), self._triple()
        self.files += 1
        dist_file = self.workdir / f"dist{self.files}.json"
        dist_file.write_text(json.dumps({"values": [str(v) for v in b]}))
        three = ["three-state", *(f"--{k}={v}" for k, v in zip("xyz", a)), "--all"]
        solve = ["solve", "--market", str(self.market_file), "--dist", str(dist_file), "--all"]
        ops = [Op("primary", partial(run_command, three), {"command": "three-state", "argv": three, "triple": a})]
        ops.append(self._utility_op())
        ops.append(Op("primary", partial(run_command, solve), {"command": "solve", "argv": solve, "triple": b}))
        ops.append(self._utility_op())
        return ops

    def _utility_op(self):
        x0 = self._x0()
        argv = ["utility", "--kind", "log", "--x0", str(x0)]
        return Op("alt", partial(run_command, argv), {"command": "utility", "argv": argv, "x0": x0})

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    @staticmethod
    def json_errors(data, out) -> list[str]:
        """Check one command's parsed JSON output."""
        import oracles

        if data["command"] == "utility":
            x0 = data["x0"]
            x = out["x_star"]
            errors = []
            if not oracles.close(x, 0.75 * x0, 1e-12):
                errors.append(f"utility x0={x0}: x* {x!r} != 0.75 x0")
            payoff = out["payoff"]
            for u in (F(0), F(1, 5), F(1, 4), F(1, 3)):
                w = (3 * u, 3 - 9 * u, 6 * u)
                priced = sum(float(a) * b for a, b in zip(w, payoff)) / 3
                if not oracles.close(priced, x0, 1e-12):
                    errors.append(f"utility x0={x0}: payoff prices to {priced!r} under u={u}")
            return errors
        x, y, z = data["triple"]
        shared, minimax = oracles.three_state_table(x, y, z)
        want = {"maximin": shared, "convexified_maximin": shared,
                "convexified_minimax": shared, "minimax": minimax}
        got = {name: F(sol["value"]) for name, sol in out["solutions"].items()}
        errors = []
        if got != want:
            errors.append(f"{data['command']} {data['triple']}: values {got} != table {want}")
        if data["command"] == "three-state" and out["perfectly_cost_efficient"] != (z == 3 * y - 2 * x):
            errors.append(f"three-state {data['triple']}: wrong perfectly_cost_efficient flag")
        return errors

    def check(self, records):
        errors = []
        for r in records:
            if isinstance(r.output, Exception):
                errors += _raised(r.output)
                continue
            code, stdout, stderr = r.output
            if code != 0:
                errors.append(f"{r.op.data['argv']}: exit code {code}: {stderr.strip()[-200:]}")
                continue
            try:
                out = json.loads(stdout)
            except json.JSONDecodeError as exc:
                errors.append(f"{r.op.data['argv']}: output is not JSON: {exc}")
                continue
            errors += self.json_errors(r.op.data, out)
        return 0, errors

    def self_test(self, records) -> list[str]:
        missed = []
        for command in ("three-state", "utility"):
            r = next(
                r for r in records
                if r.op.data["command"] == command and not isinstance(r.output, Exception) and r.output[0] == 0
            )
            out = json.loads(r.output[1])
            if command == "utility":
                out["x_star"] *= 1 + 1e-9
            else:
                sol = out["solutions"]["maximin"]
                sol["value"] = str(F(sol["value"]) + F(1, 10**9))
            if not self.json_errors(r.op.data, out):
                missed.append(f"self-test: cli check accepted a perturbed {command} output")
        return missed

    def layer_metrics(self, records) -> dict:
        by_command: dict = {}
        for r in records:
            by_command.setdefault(r.op.data["command"], []).append(r)
        main_times = []
        for r in by_command["three-state"]:
            with redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.main(r.op.data["argv"])
                main_times.append(time.perf_counter() - t0)
        wealth_times = []
        for r in by_command["utility"]:
            t0 = time.perf_counter()
            for _ in range(100):
                utility.optimal_wealth(utility.LogUtility(), r.op.data["x0"])
            wealth_times.append((time.perf_counter() - t0) / 100)
        plain = _child_runs("pass", self.IMPORT_SAMPLES)
        code = (
            "import sys, time\n"
            "before = len(sys.modules)\n"
            "t0 = time.perf_counter()\n"
            "import effico\n"
            "print(time.perf_counter() - t0, len(sys.modules) - before)\n"
        )
        imports = [out.split() for _, out in _child_runs(code, self.IMPORT_SAMPLES)]
        return {
            "import.python_ms": median_ms([t for t, _ in plain]),
            "import.effico_ms": median_ms([float(s) for s, _ in imports]),
            "import.modules_loaded": statistics.median(int(n) for _, n in imports),
            "cli.three_state_ms": median_ms([r.seconds for r in by_command["three-state"]]),
            "cli.solve_ms": median_ms([r.seconds for r in by_command["solve"]]),
            "cli.main_three_state_ms": median_ms(main_times),
            "cli.utility_ms": median_ms([r.seconds for r in by_command["utility"]]),
            "utility.optimal_wealth_us": statistics.median(wealth_times) * 1e6,
        }


WORKLOADS = {w.name: w for w in (ExactSweep, GenericTies, StochvolCurve, CliOneshot)}

# effico must come from this checkout's src/, never from an installed copy
if Path(effico.__file__).resolve().parent != SRC / "effico":
    raise ImportError(f"effico was imported from {effico.__file__}, not from {SRC}")
