"""One-period equiprobable markets and their pricing kernels.

A market has n states, each with probability 1/n, a riskless bond worth 1
in every state, and d risky assets with spot prices s0 and terminal payoffs
sT (one row per asset).  A pricing kernel is a nonnegative state weighting
xi with mean one that reprices every asset:

    (1/n) sum_i xi_i          = 1
    (1/n) sum_i xi_i sT[j][i] = s0[j]        for every asset j.

The admissible kernels form a bounded polytope.  Depending on the rank of
the constraint system it is a single point, a segment parametrized by one
scalar u, or a body described by its vertices.  Kernels on the relative
boundary (some state weight zero) are limits of pricing kernels rather
than pricing kernels proper and are flagged as such wherever they attain
an optimum.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence, Union

from ._numbers import (
    Num,
    all_exact,
    average_dot,
    format_number,
    is_exact,
    normalize_values,
    parse_number,
)
from .errors import DimensionMismatchError, InfeasibleError, TooManyStatesError

__all__ = [
    "DiscreteMarket",
    "PricingKernel",
    "ParametricFamily",
    "VertexFamily",
    "KernelFamily",
    "SuperhedgeResult",
    "kernel_family",
    "price",
    "superhedge_cost",
]

_BOUNDARY_TOL = 1e-12
_ATTAIN_TOL = 1e-12
_RANK_TOL = 1e-10
_DEDUP_TOL = 1e-10
_KERNEL_MAX_STATES = 12  # kernel_family's limit: vertex enumeration tries every basis


def _state_count(n) -> int:
    """A market file's ``n``: an int, not a bool or a float that ``int()`` would truncate."""
    try:
        if not isinstance(n, bool):
            return operator.index(n)
    except TypeError:
        pass
    raise ValueError(f"market JSON: n must be an int, got {n!r}")


@dataclass(frozen=True)
class DiscreteMarket:
    """Equiprobable n-state market: spot prices ``s0``, payoff rows ``sT``."""

    n: int
    s0: tuple[Num, ...]
    sT: tuple[tuple[Num, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a market needs at least two states")
        s0 = normalize_values(self.s0)
        rows = [normalize_values(row) for row in self.sT]
        if any(isinstance(v, float) for v in s0) or any(
            isinstance(v, float) for row in rows for v in row
        ):
            s0 = tuple(float(v) for v in s0)
            rows = [tuple(float(v) for v in row) for row in rows]
        if len(rows) != len(s0):
            raise DimensionMismatchError("one terminal payoff row per asset required")
        if any(len(row) != self.n for row in rows):
            raise DimensionMismatchError("terminal payoff rows must have n entries")
        if any(v <= 0 for v in s0):
            raise ValueError("spot prices must be positive")
        if any(v < 0 for row in rows for v in row):
            raise ValueError("terminal payoffs must be nonnegative")
        object.__setattr__(self, "s0", tuple(s0))
        object.__setattr__(self, "sT", tuple(tuple(row) for row in rows))

    @property
    def assets(self) -> int:
        return len(self.s0)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.s0) and all(all_exact(row) for row in self.sT)

    @classmethod
    def canonical_three_state(cls) -> "DiscreteMarket":
        """The 3-state reference market: s0 = 2, terminal prices (4, 2, 1)."""
        return cls(3, (Fraction(2),), ((Fraction(4), Fraction(2), Fraction(1)),))

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMarket":
        try:
            return cls(_state_count(data["n"]), data["s0"], data["sT"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"market JSON needs keys n, s0, sT: {exc}") from exc

    def to_dict(self, decimal: bool = False) -> dict:
        return {
            "n": self.n,
            "s0": [format_number(v, decimal) for v in self.s0],
            "sT": [[format_number(v, decimal) for v in row] for row in self.sT],
        }


@dataclass(frozen=True)
class PricingKernel:
    """State weights of one kernel; ``u`` set when drawn from a 1-parameter family."""

    weights: tuple[Num, ...]
    u: Num | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def is_boundary(self) -> bool:
        """True when some state weight vanishes (limit of pricing kernels)."""
        tol = 0 if all_exact(self.weights) else _BOUNDARY_TOL
        return any(w <= tol for w in self.weights)


@dataclass(frozen=True)
class ParametricFamily:
    """One-dimensional kernel family xi(u) = base + u * direction, u in [u_min, u_max].

    The parameter is pinned to u = xi_j / n for the first state j whose
    weight varies along the family; in the canonical 3-state market this
    gives the map u -> (3u, 3-9u, 6u) on [0, 1/3].
    """

    base: tuple[Num, ...]
    direction: tuple[Num, ...]
    u_min: Num
    u_max: Num

    @property
    def n(self) -> int:
        return len(self.base)

    @cached_property
    def domain(self) -> tuple[Num, Num]:
        return (self.u_min, self.u_max)

    def kernel_at(self, u: Num) -> PricingKernel:
        u = parse_number(u)
        tol = 0 if (is_exact(u) and all_exact(self.base)) else 1e-12
        if u < self.u_min - tol or u > self.u_max + tol:
            raise ValueError(f"u={u} outside the kernel domain [{self.u_min}, {self.u_max}]")
        w = tuple(b + u * d for b, d in zip(self.base, self.direction))
        if not all_exact(w):
            w = tuple(0.0 if -1e-15 < v < 0 else float(v) for v in w)
        return PricingKernel(w, u=u)

    def endpoint_kernels(self) -> tuple[PricingKernel, PricingKernel]:
        """The kernels at u_min and u_max, built once per family object."""
        return self._endpoints

    @cached_property
    def _endpoints(self) -> tuple[PricingKernel, PricingKernel]:
        return (self.kernel_at(self.u_min), self.kernel_at(self.u_max))


@dataclass(frozen=True)
class VertexFamily:
    """Kernel polytope given by its vertices (includes the unique-kernel case)."""

    vertices: tuple[PricingKernel, ...]

    @property
    def n(self) -> int:
        return len(self.vertices[0].weights)


KernelFamily = Union[ParametricFamily, VertexFamily]


@dataclass(frozen=True)
class SuperhedgeResult:
    """Superhedging cost together with every attaining kernel.

    ``u_range`` is set when the price is constant across a parametric family,
    in which case every kernel in that closed range attains the value and
    ``kernels`` holds the two endpoints.
    """

    value: Num
    kernels: tuple[PricingKernel, ...]
    u_range: tuple[Num, Num] | None = None

    @property
    def any_boundary(self) -> bool:
        return any(k.is_boundary for k in self.kernels)


def price(kernel, payoff: Sequence[Num]) -> Num:
    """Expected payoff under a kernel: (1/n) sum_i xi_i Z_i."""
    weights = kernel.weights if isinstance(kernel, PricingKernel) else tuple(kernel)
    w = [parse_number(v) for v in weights]
    z = [parse_number(v) for v in payoff]
    if len(w) != len(z):
        raise DimensionMismatchError(
            f"kernel has {len(w)} states, payoff has {len(z)}"
        )
    if not (all(isinstance(v, Fraction) for v in w) and all(isinstance(v, Fraction) for v in z)):
        w = [float(v) for v in w]
        z = [float(v) for v in z]
    return average_dot(w, z)


def _rref(aug: list[list[Num]], width: int, exact: bool) -> tuple[list[int], bool]:
    """In-place reduced row echelon form of an augmented matrix.

    ``width`` counts the coefficient columns; everything beyond is right-hand
    side.  Returns (pivot columns, consistent).
    """
    tol = 0 if exact else _RANK_TOL
    m = len(aug)
    pivots: list[int] = []
    row = 0
    for col in range(width):
        pivot_row = None
        best = tol
        for r in range(row, m):
            mag = abs(aug[r][col])
            if mag > best:
                best = mag
                pivot_row = r
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    consistent = True
    rhs_tol = 0 if exact else 1e-8
    for r in range(row, m):
        if all(abs(v) <= (0 if exact else _RANK_TOL) for v in aug[r][:width]) and any(
            abs(v) > rhs_tol for v in aug[r][width:]
        ):
            consistent = False
    return pivots, consistent


def _constraint_system(market: DiscreteMarket) -> tuple[list[list[Num]], list[Num], bool]:
    """Rows A and rhs b of {A xi = b}: mean one plus one repricing row per asset."""
    exact = market.is_exact
    one = Fraction(1) if exact else 1.0
    rows: list[list[Num]] = [[one] * market.n]
    rhs: list[Num] = [Fraction(market.n) if exact else float(market.n)]
    for j, row in enumerate(market.sT):
        rows.append(list(row))
        rhs.append(market.n * market.s0[j])
    if not exact:
        # scale each row to unit max magnitude so rank tolerances are meaningful
        scaled_rows, scaled_rhs = [], []
        for row, b in zip(rows, rhs):
            scale = max(max(abs(v) for v in row), abs(b), 1.0)
            scaled_rows.append([v / scale for v in row])
            scaled_rhs.append(b / scale)
        rows, rhs = scaled_rows, scaled_rhs
    return rows, rhs, exact


def _solve_affine(rows, rhs, n, exact):
    """Particular solution (free vars zero) and null-space basis of A xi = b."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, consistent = _rref(aug, n, exact)
    if not consistent:
        raise InfeasibleError("market constraints are contradictory (no kernel exists)")
    free = [c for c in range(n) if c not in pivots]
    zero = Fraction(0) if exact else 0.0
    particular = [zero] * n
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n]
    null_basis = []
    for f in free:
        vec = [zero] * n
        vec[f] = Fraction(1) if exact else 1.0
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][f]
        null_basis.append(vec)
    return particular, null_basis


def _feasible_interval(particular, direction, exact):
    """The t-interval where particular + t*direction stays nonnegative."""
    lo, hi = None, None
    tol = 0 if exact else 1e-12
    for p, d in zip(particular, direction):
        if abs(d) <= tol:
            if p < -(0 if exact else 1e-9):
                raise InfeasibleError("kernel constraints force a negative weight")
            continue
        bound = -p / d
        if d > 0:
            lo = bound if lo is None or bound > lo else lo
        else:
            hi = bound if hi is None or bound < hi else hi
    if lo is None or hi is None or lo > hi + (0 if exact else 1e-12):
        raise InfeasibleError("kernel constraints admit no nonnegative solution")
    return lo, hi


def _enumerate_vertices(rows, rhs, n, rank, exact) -> list[tuple[Num, ...]]:
    verts: list[tuple[Num, ...]] = []
    zero = Fraction(0) if exact else 0.0
    for cols in combinations(range(n), rank):
        aug = [[row[c] for c in cols] + [b] for row, b in zip(rows, rhs)]
        pivots, consistent = _rref(aug, rank, exact)
        if not consistent or len(pivots) < rank:
            continue
        point = [zero] * n
        ok = True
        for r, pc in enumerate(pivots):
            val = aug[r][rank]
            if val < -(0 if exact else 1e-9):
                ok = False
                break
            point[cols[pc]] = val if exact else max(float(val), 0.0)
        if not ok:
            continue
        if not exact:
            # basic solutions from near-singular subsystems can violate the
            # full system; reject anything that does not reprice
            residual = max(
                abs(sum(a * p for a, p in zip(row, point)) - b)
                for row, b in zip(rows, rhs)
            )
            if residual > 1e-8:
                continue
        if all(
            max(abs(a - b) for a, b in zip(point, v)) > (0 if exact else _DEDUP_TOL)
            for v in verts
        ):
            verts.append(tuple(point))
    return verts


def kernel_family(market: DiscreteMarket) -> KernelFamily:
    """All pricing kernels of a market, as a point, a segment, or a vertex list.

    Families are cached per market, so all solvers share one enumeration,
    and results share the family's kernels: its vertices, or the endpoint
    and breakpoint kernels that a parametric family builds once.
    """
    if market.n > _KERNEL_MAX_STATES:
        raise TooManyStatesError(
            f"kernel enumeration supports up to {_KERNEL_MAX_STATES} states, got {market.n}"
        )
    return _cached_family(market, market.is_exact)


@lru_cache(maxsize=64)
def _cached_family(market: DiscreteMarket, exact: bool) -> KernelFamily:
    # ``exact`` is part of the key because an exact market compares equal
    # to its float copy.
    rows, rhs, _ = _constraint_system(market)
    particular, null_basis = _solve_affine(rows, rhs, market.n, exact)
    dim = len(null_basis)
    if dim == 0:
        tolneg = 0 if exact else 1e-9
        if any(p < -tolneg for p in particular):
            raise InfeasibleError("the unique candidate kernel has negative weights")
        w = tuple(p if exact else max(float(p), 0.0) for p in particular)
        return VertexFamily((PricingKernel(w),))
    if dim == 1:
        v = null_basis[0]
        t_lo, t_hi = _feasible_interval(particular, v, exact)
        if t_hi - t_lo <= (0 if exact else 1e-12):
            t_mid = (t_lo + t_hi) / 2
            w = tuple(p + t_mid * d for p, d in zip(particular, v))
            if not exact:
                w = tuple(max(float(x), 0.0) for x in w)
            return VertexFamily((PricingKernel(w),))
        j = next(i for i, d in enumerate(v) if abs(d) > (0 if exact else 1e-12))
        # reparametrize so that u = xi_j / n along the family
        scale = market.n / v[j] if exact else market.n / float(v[j])
        direction = tuple(d * scale for d in v)
        shift = particular[j] / v[j]
        base = tuple(p - d * shift for p, d in zip(particular, v))
        u_a = (particular[j] + t_lo * v[j]) / market.n
        u_b = (particular[j] + t_hi * v[j]) / market.n
        u_min, u_max = (u_a, u_b) if u_a <= u_b else (u_b, u_a)
        return ParametricFamily(base, direction, u_min, u_max)
    rank = market.n - dim
    verts = _enumerate_vertices(rows, rhs, market.n, rank, exact)
    if not verts:
        raise InfeasibleError("kernel polytope is empty")
    return VertexFamily(tuple(PricingKernel(v) for v in sorted(verts)))


def superhedge_cost(family: KernelFamily, payoff: Sequence[Num]) -> SuperhedgeResult:
    """sup over the closed kernel family of the payoff price, with attainers.

    The supremum of a linear functional over the closed polytope is attained
    at extreme kernels; every attaining kernel within tolerance 1e-12 is
    reported, boundary kernels flagged via ``PricingKernel.is_boundary``.
    """
    payoff = normalize_values(payoff)
    if len(payoff) != family.n:
        raise DimensionMismatchError(
            f"payoff has {len(payoff)} entries, market has {family.n} states"
        )
    if isinstance(family, VertexFamily):
        prices = [price(k, payoff) for k in family.vertices]
        best = max(prices)
        exact = all_exact(prices)
        tol = 0 if exact else _ATTAIN_TOL
        attaining = tuple(
            k for k, p in zip(family.vertices, prices) if best - p <= tol
        )
        return SuperhedgeResult(best, attaining)
    ends = k_lo, k_hi = family.endpoint_kernels()
    p_lo = price(k_lo, payoff)
    p_hi = price(k_hi, payoff)
    exact = all_exact((p_lo, p_hi))
    tol = 0 if exact else _ATTAIN_TOL
    if abs(p_hi - p_lo) <= tol:
        return SuperhedgeResult(p_lo, ends, u_range=family.domain)
    if p_lo > p_hi:
        return SuperhedgeResult(p_lo, (k_lo,))
    return SuperhedgeResult(p_hi, (k_hi,))
