import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

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
