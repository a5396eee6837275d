import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from effico import lp as lp_module
from effico._numbers import parse_number
from effico.errors import DimensionMismatchError
from effico.lp import LinearProgram, LpBuilder, _Tableau, add_top_k_sum_bound, solve_lp

F = Fraction


def _corner_program() -> LinearProgram:
    # min b  s.t.  a >= 1,  b <= 5,  3 <= a + b <= 7,  a + 5b >= 16
    b = LpBuilder()
    a_var = b.add_var(lo=F(1))
    b_var = b.add_var(cost=F(1), hi=F(5))
    b.add_ub({a_var: F(-1), b_var: F(-1)}, F(-3))
    b.add_ub({a_var: F(1), b_var: F(1)}, F(7))
    b.add_ub({a_var: F(-1), b_var: F(-5)}, F(-16))
    return b.build()


def test_corner_lp_exact():
    sol = solve_lp(_corner_program())
    assert sol.status == "optimal"
    assert sol.value == F(9, 4)
    assert sol.x == (F(19, 4), F(9, 4))
    assert isinstance(sol.value, Fraction)
    # the optimum sits where a+b = 7 and a+5b = 16 are both tight
    assert ("ub", 1) in sol.active and ("ub", 2) in sol.active


def test_corner_lp_float_agrees():
    b = LpBuilder()
    a_var = b.add_var(lo=1.0)
    b_var = b.add_var(cost=1.0, hi=5.0)
    b.add_ub({a_var: -1.0, b_var: -1.0}, -3.0)
    b.add_ub({a_var: 1.0, b_var: 1.0}, 7.0)
    b.add_ub({a_var: -1.0, b_var: -5.0}, -16.0)
    sol = solve_lp(b.build())
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(2.25, abs=1e-9)
    assert sol.x == pytest.approx((4.75, 2.25), abs=1e-9)


def test_maximize_sense():
    b = LpBuilder()
    a_var = b.add_var(cost=F(1), lo=F(0))
    b_var = b.add_var(cost=F(1), lo=F(0))
    b.add_ub({a_var: F(1), b_var: F(1)}, F(7))
    sol = solve_lp(b.build(), sense="max")
    assert sol.status == "optimal" and sol.value == F(7)
    with pytest.raises(ValueError):
        solve_lp(b.build(), sense="sideways")


def test_unbounded_and_infeasible():
    b = LpBuilder()
    b.add_var(cost=F(1), lo=F(0))
    assert solve_lp(b.build(), sense="max").status == "unbounded"

    b = LpBuilder()
    v = b.add_var(cost=F(1), lo=F(1))
    b.add_ub({v: F(1)}, F(0))
    assert solve_lp(b.build()).status == "infeasible"


def test_empty_variable_bounds_raise():
    b = LpBuilder()
    b.add_var(lo=F(2), hi=F(1))
    with pytest.raises(ValueError):
        solve_lp(b.build())


def test_free_and_negative_bounds():
    # min x  s.t.  x >= -3
    b = LpBuilder()
    b.add_var(cost=F(1), lo=F(-3))
    sol = solve_lp(b.build())
    assert sol.value == F(-3)

    # free variable pinned by an equality
    b = LpBuilder()
    v = b.add_var(cost=F(1))
    w = b.add_var(lo=F(0), hi=F(2))
    b.add_eq({v: F(1), w: F(1)}, F(-5))
    sol = solve_lp(b.build())
    assert sol.status == "optimal"
    assert sol.value == F(-7)
    assert sol.x == (F(-7), F(2))


def test_top_k_sum_bound_pairwise():
    # max x1+x2+x3, each in [0,3], sum of the 2 largest <= 4 -> all at 2
    b = LpBuilder()
    xs = [b.add_var(cost=F(1), lo=F(0), hi=F(3)) for _ in range(3)]
    add_top_k_sum_bound(b, xs, 2, F(4), threshold_bounds=(F(0), F(3)))
    sol = solve_lp(b.build(), sense="max")
    assert sol.status == "optimal"
    assert sol.value == F(6)
    top2 = sum(sorted(sol.x[:3], reverse=True)[:2])
    assert top2 <= F(4)


def test_top_k_sum_bound_caps_the_maximum():
    # k=1 bounds every single variable
    b = LpBuilder()
    xs = [b.add_var(cost=F(1), lo=F(0), hi=F(3)) for _ in range(3)]
    add_top_k_sum_bound(b, xs, 1, F(3, 2), threshold_bounds=(F(0), F(3)))
    sol = solve_lp(b.build(), sense="max")
    assert sol.value == F(9, 2)
    assert all(x <= F(3, 2) for x in sol.x[:3])


def test_builder_builds_dense_rows():
    b = LpBuilder()
    v0 = b.add_var(cost=F(2), lo=F(0))
    v1 = b.add_var()
    b.add_ub({v1: F(3)}, F(1))
    b.add_eq({v0: F(1), v1: F(1)}, F(4))
    lp = b.build()
    assert lp.objective == (F(2), 0)
    assert lp.a_ub == ((0, F(3)),)
    assert lp.b_ub == (F(1),)
    assert lp.a_eq == ((F(1), F(1)),)
    assert lp.bounds == ((F(0), None), (None, None))


def _random_program(rng: np.random.Generator):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    c = rng.uniform(-2, 2, size=n)
    a_ub = rng.uniform(-1, 1, size=(m, n))
    b_ub = rng.uniform(0.5, 3.0, size=m)  # x = 0 stays feasible
    bounds = [(0.0, float(rng.uniform(1, 5))) for _ in range(n)]
    return c, a_ub, b_ub, bounds


def test_random_lps_match_scipy():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        c, a_ub, b_ub, bounds = _random_program(rng)
        builder = LpBuilder()
        xs = [builder.add_var(cost=c[j], lo=lo, hi=hi) for j, (lo, hi) in enumerate(bounds)]
        for i in range(len(b_ub)):
            builder.add_ub({xs[j]: a_ub[i, j] for j in range(len(xs))}, b_ub[i])
        mine = solve_lp(builder.build())
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert mine.status == "optimal" and ref.status == 0
        assert mine.value == pytest.approx(ref.fun, abs=1e-8)
        x = np.array(mine.x)
        assert np.all(a_ub @ x <= b_ub + 1e-8)
        for xv, (lo, hi) in zip(x, bounds):
            assert lo - 1e-9 <= xv <= hi + 1e-9


def _dense_pivot(self, i, j, cost):
    """Pivot that rewrites every entry of every row, zeros included."""
    pv = self.rows[i][j]
    self.rows[i] = [v / pv for v in self.rows[i]]
    prow = self.rows[i]
    for r in range(len(self.rows)):
        if r != i and self.rows[r][j] != 0:
            factor = self.rows[r][j]
            self.rows[r] = [a - factor * b for a, b in zip(self.rows[r], prow)]
    if cost[j] != 0:
        factor = cost[j]
        cost[:] = [a - factor * b for a, b in zip(cost, prow)]
    self.basis[i] = j


def _random_exact_program(rng: random.Random):
    """Rational LP feasible at a random point x0: box, lower-only, upper-only and
    free variables, inequality rows with slack and equality rows through x0."""
    n = rng.randint(2, 6)

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    x0 = [rat() for _ in range(n)]
    bounds = []
    for x in x0:
        kind = rng.choice(("box", "lo", "hi", "free"))
        lo = x - rng.randint(0, 3) if kind in ("box", "lo") else None
        hi = x + rng.randint(0, 3) if kind in ("box", "hi") else None
        bounds.append((lo, hi))
    a_ub = [[rat() for _ in range(n)] for _ in range(rng.randint(1, 4))]
    b_ub = [sum(a * x for a, x in zip(row, x0)) + rng.randint(0, 2) for row in a_ub]
    # a box around x0 keeps the program bounded
    for j in range(n):
        for sign in (1, -1):
            row = [F(0)] * n
            row[j] = F(sign)
            a_ub.append(row)
            b_ub.append(sign * x0[j] + 5)
    a_eq = [[rat() for _ in range(n)] for _ in range(rng.randint(0, 2))]
    b_eq = [sum(a * x for a, x in zip(row, x0)) for row in a_eq]
    c = [rat() for _ in range(n)]
    return LinearProgram(
        tuple(c), tuple(map(tuple, a_ub)), tuple(b_ub), tuple(map(tuple, a_eq)), tuple(b_eq),
        tuple(bounds),
    )


def test_random_exact_lps_match_highs_and_dense_pivot(monkeypatch):
    rng = random.Random(1018)
    for _ in range(60):
        lp = _random_exact_program(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert isinstance(sol.value, Fraction) and all(isinstance(v, Fraction) for v in sol.x)
        ref = linprog(
            [float(v) for v in lp.objective],
            A_ub=[[float(v) for v in row] for row in lp.a_ub],
            b_ub=[float(v) for v in lp.b_ub],
            A_eq=[[float(v) for v in row] for row in lp.a_eq] or None,
            b_eq=[float(v) for v in lp.b_eq] or None,
            bounds=[(None if lo is None else float(lo), None if hi is None else float(hi))
                    for lo, hi in lp.bounds],
            method="highs",
        )
        assert ref.status == 0
        assert float(sol.value) == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        x = sol.x
        assert sol.value == sum(c * v for c, v in zip(lp.objective, x))
        assert all(sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(lp.a_ub, lp.b_ub))
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(lp.a_eq, lp.b_eq))
        assert all((lo is None or lo <= v) and (hi is None or v <= hi)
                   for v, (lo, hi) in zip(x, lp.bounds))
        with monkeypatch.context() as patch:
            patch.setattr(_Tableau, "pivot", _dense_pivot)
            assert solve_lp(lp) == sol


def _reference_coerce_program(lp: LinearProgram):
    """The coercion ``solve_lp`` used before each entry was converted only once:
    every entry through ``parse_number``, then all of them to float unless all
    are Fractions."""
    obj = [parse_number(c) for c in lp.objective]
    a_ub = [[parse_number(c) for c in row] for row in lp.a_ub]
    b_ub = [parse_number(b) for b in lp.b_ub]
    a_eq = [[parse_number(c) for c in row] for row in lp.a_eq]
    b_eq = [parse_number(b) for b in lp.b_eq]
    bounds = lp.bounds if lp.bounds is not None else tuple((None, None) for _ in obj)
    bounds = [
        (None if lo is None else parse_number(lo), None if hi is None else parse_number(hi))
        for lo, hi in bounds
    ]
    n = len(obj)
    if len(bounds) != n:
        raise DimensionMismatchError("one bound pair per variable required")
    for row in a_ub:
        if len(row) != n:
            raise DimensionMismatchError("a_ub row width must match variable count")
    for row in a_eq:
        if len(row) != n:
            raise DimensionMismatchError("a_eq row width must match variable count")
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise DimensionMismatchError("constraint matrices and rhs lengths differ")
    pieces = obj + b_ub + b_eq
    for row in a_ub + a_eq:
        pieces += row
    for lo, hi in bounds:
        pieces += [v for v in (lo, hi) if v is not None]
    exact = all(isinstance(v, Fraction) for v in pieces)
    if not exact:
        obj = [float(v) for v in obj]
        a_ub = [[float(v) for v in row] for row in a_ub]
        b_ub = [float(v) for v in b_ub]
        a_eq = [[float(v) for v in row] for row in a_eq]
        b_eq = [float(v) for v in b_eq]
        bounds = [
            (None if lo is None else float(lo), None if hi is None else float(hi))
            for lo, hi in bounds
        ]
    return obj, a_ub, b_ub, a_eq, b_eq, bounds, exact


def _map_entries(lp: LinearProgram, fn) -> LinearProgram:
    def each(vec):
        return tuple(None if v is None else fn(v) for v in vec)

    return LinearProgram(
        each(lp.objective), tuple(map(each, lp.a_ub)), each(lp.b_ub), tuple(map(each, lp.a_eq)),
        each(lp.b_eq), tuple(map(each, lp.bounds)),
    )


def _solve_both_ways(lp: LinearProgram, monkeypatch):
    """(solution or error) of solve_lp, with its own coercion and with the reference one."""
    out = []
    for coerce in (lp_module._coerce_program, _reference_coerce_program):
        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "_coerce_program", coerce)
            try:
                out.append(solve_lp(lp))
            except Exception as exc:  # compared below, type and message
                out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("with_floats", [False, True])
def test_mixed_entry_types_solve_as_the_reference_coercion(monkeypatch, with_floats):
    """Programs mixing int, Fraction, float, numeric strings and numpy scalars in
    the objective, the rows and the bounds solve exactly as before."""
    rng = random.Random(2026 + with_floats)
    exact_forms = [
        lambda v: v,
        str,
        lambda v: f"{v.numerator}/{v.denominator}",
        lambda v: int(v) if v.denominator == 1 else v,
        lambda v: np.int64(int(v)) if v.denominator == 1 else v,
    ]
    float_forms = [float, lambda v: np.float64(float(v))] if with_floats else []
    kinds = set()
    for _ in range(40):
        lp = _random_exact_program(rng)

        def scramble(v):
            form = rng.choice(exact_forms + float_forms)
            out = form(v)
            kinds.add(type(out))
            return out

        mixed = _map_entries(lp, scramble)
        new, ref = _solve_both_ways(mixed, monkeypatch)
        assert new == ref
        assert repr(new) == repr(ref)
        if not with_floats:
            assert new == solve_lp(lp)
    assert {int, str, Fraction, np.int64} <= kinds
    if with_floats:
        assert {float, np.float64} <= kinds


@pytest.mark.parametrize("bad", [True, np.True_, float("nan"), float("inf"), -np.inf, "1/0", "x"])
@pytest.mark.parametrize("where", ["objective", "a_ub", "b_ub", "bounds"])
def test_bad_entries_raise_as_the_reference_coercion(monkeypatch, bad, where):
    lp = _corner_program()
    for base in (lp, _map_entries(lp, float)):
        fields = {
            "objective": (bad, base.objective[1]),
            "a_ub": base.a_ub[:1] + ((bad, base.a_ub[1][1]),) + base.a_ub[2:],
            "b_ub": (base.b_ub[0], bad, base.b_ub[2]),
            "bounds": ((base.bounds[0][0], bad), base.bounds[1]),
        }
        new, ref = _solve_both_ways(replace(base, **{where: fields[where]}), monkeypatch)
        assert isinstance(ref, tuple), "the reference coercion accepted a bad entry"
        assert new == ref
