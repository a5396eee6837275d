"""Small dense linear programming by a two-phase tableau simplex.

The solver is self-contained on purpose: problems in this package are tiny
(tens of variables), and Bland's rule pivoting runs unchanged on exact
Fraction data, so rational inputs produce drift-free optima.  Floats use
the documented tolerances instead.

Variables are free by default; per-variable bounds are folded away by
shifting, negating, or splitting before the tableau is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from ._numbers import Num, parse_number
from .errors import DimensionMismatchError, NumericalError

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpBuilder",
    "solve_lp",
    "add_top_k_sum_bound",
]

_COST_TOL = 1e-9
_PIVOT_FLOOR = 1e-13
_RATIO_FLOOR = 1e-12  # times the entering column's largest magnitude, at least 1
_FEAS_TOL = 1e-8
_ACTIVE_TOL = 1e-9
_RESIDUAL_TOL = 1e-9  # times 1 + |rhs| + sum |a_i x_i|

Bound = tuple[Optional[Num], Optional[Num]]


@dataclass(frozen=True)
class LinearProgram:
    """min/max objective . x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq, bounds."""

    objective: tuple[Num, ...]
    a_ub: tuple[tuple[Num, ...], ...] = ()
    b_ub: tuple[Num, ...] = ()
    a_eq: tuple[tuple[Num, ...], ...] = ()
    b_eq: tuple[Num, ...] = ()
    bounds: tuple[Bound, ...] | None = None


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Num | None
    x: tuple[Num, ...] | None
    active: tuple[tuple[str, int], ...] = ()


class LpBuilder:
    """Incremental construction of a LinearProgram."""

    def __init__(self) -> None:
        self._cost: list[Num] = []
        self._bounds: list[Bound] = []
        self._ub: list[tuple[dict[int, Num], Num]] = []
        self._eq: list[tuple[dict[int, Num], Num]] = []

    def add_var(self, cost: Num = 0, lo: Num | None = None, hi: Num | None = None) -> int:
        self._cost.append(cost)
        self._bounds.append((lo, hi))
        return len(self._cost) - 1

    def add_ub(self, coeffs: dict[int, Num], rhs: Num) -> int:
        self._ub.append((dict(coeffs), rhs))
        return len(self._ub) - 1

    def add_eq(self, coeffs: dict[int, Num], rhs: Num) -> int:
        self._eq.append((dict(coeffs), rhs))
        return len(self._eq) - 1

    def build(self) -> LinearProgram:
        n = len(self._cost)

        def dense(rows):
            out = []
            for coeffs, _ in rows:
                row = [0] * n
                for j, c in coeffs.items():
                    row[j] = c
                out.append(tuple(row))
            return tuple(out)

        return LinearProgram(
            objective=tuple(self._cost),
            a_ub=dense(self._ub),
            b_ub=tuple(r for _, r in self._ub),
            a_eq=dense(self._eq),
            b_eq=tuple(r for _, r in self._eq),
            bounds=tuple(self._bounds),
        )


def add_top_k_sum_bound(
    builder: LpBuilder,
    var_indices: Sequence[int],
    k: int,
    bound: Num,
    threshold_bounds: Bound = (None, None),
) -> None:
    """Constrain the sum of the k largest of the given variables to <= bound.

    Uses the standard epigraph lift: a threshold t plus overshoots w_i >= 0
    with  k t + sum_i w_i <= bound  and  w_i >= x_i - t.
    """
    t = builder.add_var(lo=threshold_bounds[0], hi=threshold_bounds[1])
    ws = [builder.add_var(lo=0) for _ in var_indices]
    builder.add_ub({t: k, **{w: 1 for w in ws}}, bound)
    for v, w in zip(var_indices, ws):
        builder.add_ub({v: 1, t: -1, w: -1}, 0)


def _coerce_program(lp: LinearProgram):
    """Each entry converted once: all to Fraction if every one is exact, else all to float."""
    bounds = lp.bounds if lp.bounds is not None else ((None, None),) * len(lp.objective)
    entries = [*lp.objective, *chain(*lp.a_ub), *lp.b_ub, *chain(*lp.a_eq), *lp.b_eq]
    entries += [v for pair in bounds for v in pair if v is not None]
    kinds = set(map(type, entries))
    finite = all(math.isfinite(v) for v in entries if type(v) is float)
    if kinds <= {int, Fraction, float} and finite:
        exact = float not in kinds
        conv = (lambda v: Fraction(v) if type(v) is int else v) if exact else float
    else:  # parse_number parses or rejects anything else, in entry order
        exact = all([isinstance(parse_number(v), Fraction) for v in entries])
        conv = parse_number if exact else (lambda v: float(parse_number(v)))
    obj = [conv(c) for c in lp.objective]
    a_ub = [[conv(c) for c in row] for row in lp.a_ub]
    b_ub = [conv(b) for b in lp.b_ub]
    a_eq = [[conv(c) for c in row] for row in lp.a_eq]
    b_eq = [conv(b) for b in lp.b_eq]
    bounds = [tuple(None if v is None else conv(v) for v in pair) for pair in bounds]
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
    return obj, a_ub, b_ub, a_eq, b_eq, bounds, exact


class _Tableau:
    def __init__(self, exact: bool):
        self.exact = exact
        self.zero = Fraction(0) if exact else 0.0
        self.one = Fraction(1) if exact else 1.0
        self.rows: list[list[Num]] = []
        self.basis: list[int] = []
        self.cost_tol = 0 if exact else _COST_TOL

    def pivot(self, i: int, j: int, cost: list[Num]) -> None:
        """Pivot on (i, j) in place, touching only the pivot row's nonzero columns.

        Tableau rows are mostly zeros, and a zero in the pivot row leaves
        its column unchanged in every other row.
        """
        prow = self.rows[i]
        pv = prow[j]
        cols = [k for k, v in enumerate(prow) if v != 0]
        if pv != 1:
            for k in cols:
                prow[k] = prow[k] / pv
        for row in self.rows + [cost]:
            factor = row[j]
            if factor != 0 and row is not prow:
                for k in cols:
                    row[k] = row[k] - factor * prow[k]
        self.basis[i] = j

    def run(self, cost: list[Num], banned: set[int], maxiter: int) -> str:
        width = len(cost) - 1
        for _ in range(maxiter):
            entering = -1
            for j in range(width):
                if j not in banned and cost[j] < -self.cost_tol:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leave = -1
            best_ratio = None
            col = [row[entering] for row in self.rows]
            # scaled to the column, so that no rounding residue of a zero becomes the pivot
            floor = 0 if self.exact else _RATIO_FLOOR * max(1.0, max(map(abs, col), default=0.0))
            for i, a in enumerate(col):
                if a > floor:
                    ratio = self.rows[i][-1] / a
                    if best_ratio is None or ratio < best_ratio:
                        take = True
                    elif ratio == best_ratio or (
                        not self.exact and abs(ratio - best_ratio) <= 1e-12 * (1 + abs(ratio))
                    ):
                        take = self.basis[i] < self.basis[leave]
                    else:
                        take = False
                    if take:
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, entering, cost)
        raise NumericalError("simplex iteration limit exceeded")


def _reduced_cost_row(raw: list[Num], tab: _Tableau) -> list[Num]:
    cost = list(raw) + [tab.zero]
    for i, b in enumerate(tab.basis):
        factor = cost[b]
        if factor != 0:
            for k, v in enumerate(tab.rows[i]):
                if v != 0:
                    cost[k] = cost[k] - factor * v
    return cost


def _check_residual(kind: str, i: int, excess: float, rhs: float, terms) -> None:
    """Raise when a float solution breaks a constraint by more than rounding explains."""
    if excess > _RESIDUAL_TOL * (1 + abs(rhs) + sum(map(abs, terms))):
        raise NumericalError(f"float simplex solution violates {kind} {i} by {excess:.3g}")


def solve_lp(lp: LinearProgram, sense: str = "min") -> LpSolution:
    """Solve a small LP; returns status, optimum, a vertex solution, active set."""
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    obj, a_ub, b_ub, a_eq, b_eq, bounds, exact = _coerce_program(lp)
    n = len(obj)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0

    # fold bounds away: every tableau variable becomes nonnegative
    transforms: list[tuple] = []
    bound_rows: list[tuple[int, Num]] = []
    ncols = 0
    for lo, hi in bounds:
        if lo is not None and hi is not None and hi < lo:
            raise ValueError("variable bounds are empty")
        if lo is not None:
            transforms.append(("shift", ncols, lo))
            if hi is not None:
                bound_rows.append((ncols, hi - lo))
            ncols += 1
        elif hi is not None:
            transforms.append(("neg", ncols, hi))
            ncols += 1
        else:
            transforms.append(("split", ncols, ncols + 1))
            ncols += 2

    def rewrite(coeffs: Sequence[Num], rhs: Num) -> tuple[list[Num], Num]:
        row = [zero] * ncols
        r = rhs
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            tr = transforms[j]
            if tr[0] == "shift":
                row[tr[1]] += c
                r -= c * tr[2]
            elif tr[0] == "neg":
                row[tr[1]] -= c
                r -= c * tr[2]
            else:
                row[tr[1]] += c
                row[tr[2]] -= c
        return row, r

    ub_rows: list[tuple[list[Num], Num]] = []
    for coeffs, rhs in zip(a_ub, b_ub):
        ub_rows.append(rewrite(coeffs, rhs))
    for col, cap in bound_rows:
        row = [zero] * ncols
        row[col] = one
        ub_rows.append((row, cap))
    eq_rows = [rewrite(coeffs, rhs) for coeffs, rhs in zip(a_eq, b_eq)]

    n_ub = len(ub_rows)
    n_art = sum(1 for _, rhs in ub_rows if rhs < 0) + len(eq_rows)
    slack_base = ncols
    art_base = ncols + n_ub
    width = ncols + n_ub + n_art

    tab = _Tableau(exact)
    art_cols: list[int] = []
    art_idx = 0
    for i, (coeffs, rhs) in enumerate(ub_rows):
        row = list(coeffs) + [zero] * (n_ub + n_art) + [rhs]
        if rhs >= 0:
            row[slack_base + i] = one
            tab.rows.append(row)
            tab.basis.append(slack_base + i)
        else:
            row = [-v for v in row]
            row[slack_base + i] = -one
            col = art_base + art_idx
            row[col] = one
            art_idx += 1
            art_cols.append(col)
            tab.rows.append(row)
            tab.basis.append(col)
    for coeffs, rhs in eq_rows:
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
        row = list(coeffs) + [zero] * (n_ub + n_art) + [rhs]
        col = art_base + art_idx
        row[col] = one
        art_idx += 1
        art_cols.append(col)
        tab.rows.append(row)
        tab.basis.append(col)

    maxiter = 2000 + 60 * (len(tab.rows) + width)
    banned: set[int] = set()

    if art_cols:
        raw = [zero] * width
        for c in art_cols:
            raw[c] = one
        cost = _reduced_cost_row(raw, tab)
        status = tab.run(cost, banned, maxiter)
        if status != "optimal":
            raise NumericalError("phase-1 simplex did not terminate at an optimum")
        infeas = -cost[-1]
        if infeas > (0 if exact else _FEAS_TOL):
            return LpSolution("infeasible", None, None)
        # drive leftover artificials out of the basis; rows that cannot be
        # pivoted are redundant and get dropped
        art_set = set(art_cols)
        for i in range(len(tab.rows)):
            if tab.basis[i] in art_set:
                for j in range(art_base):
                    if abs(tab.rows[i][j]) > (0 if exact else _PIVOT_FLOOR):
                        tab.pivot(i, j, cost)
                        break
        keep = [i for i in range(len(tab.rows)) if tab.basis[i] not in art_set]
        tab.rows = [tab.rows[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]
        banned = art_set

    raw_obj, _ = rewrite(obj if sense == "min" else [-c for c in obj], zero)
    raw = list(raw_obj) + [zero] * (n_ub + n_art)
    cost = _reduced_cost_row(raw, tab)
    status = tab.run(cost, banned, maxiter)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    x_std = [zero] * width
    for i, b in enumerate(tab.basis):
        x_std[b] = tab.rows[i][-1]
    x = [zero] * n
    for j, tr in enumerate(transforms):
        if tr[0] == "shift":
            x[j] = tr[2] + x_std[tr[1]]
        elif tr[0] == "neg":
            x[j] = tr[2] - x_std[tr[1]]
        else:
            x[j] = x_std[tr[1]] - x_std[tr[2]]
    value = sum(c * v for c, v in zip(obj, x)) if n else zero
    if isinstance(value, int):
        value = Fraction(value)

    # the float path also checks x against every constraint, so that a bad
    # pivot raises instead of returning a wrong optimum
    act_tol = 0 if exact else _ACTIVE_TOL
    active: list[tuple[str, int]] = []
    for i, (coeffs, rhs) in enumerate(zip(a_ub, b_ub)):
        terms = [c * v for c, v in zip(coeffs, x)]
        lhs = sum(terms)
        scale = 1 if exact else 1 + abs(rhs)
        if abs(lhs - rhs) <= act_tol * scale:
            active.append(("ub", i))
        if not exact:
            _check_residual("ub", i, lhs - rhs, rhs, terms)
    for i, (coeffs, rhs) in enumerate(zip(a_eq, b_eq)):
        active.append(("eq", i))
        if not exact:
            terms = [c * v for c, v in zip(coeffs, x)]
            _check_residual("eq", i, abs(sum(terms) - rhs), rhs, terms)
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None and abs(x[j] - lo) <= act_tol:
            active.append(("lo", j))
        if hi is not None and abs(x[j] - hi) <= act_tol:
            active.append(("hi", j))
        if not exact and lo is not None:
            _check_residual("lower bound", j, lo - x[j], lo, (x[j],))
        if not exact and hi is not None:
            _check_residual("upper bound", j, x[j] - hi, hi, (x[j],))
    return LpSolution("optimal", value, tuple(x), tuple(active))
