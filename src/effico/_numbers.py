"""Number handling shared by all modules.

Inputs are either exact (int, Fraction, or strings like "3/4" and "1.5")
or binary64 floats.  Containers normalize to all-Fraction when every entry
is exact and to all-float otherwise; exact data then flows through the
solvers without drift while float data uses the documented tolerances.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Iterable, Sequence, Union

Num = Union[int, float, Fraction]


def parse_number(value) -> Num:
    """Coerce ``value`` to a Fraction (exact inputs) or a finite float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric inputs")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return value
    if hasattr(value, "item"):  # numpy scalars
        return parse_number(value.item())
    raise TypeError(f"cannot interpret {value!r} as a number")


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def all_exact(values: Iterable) -> bool:
    return all(is_exact(v) for v in values)


def normalize_values(values: Iterable) -> tuple[Num, ...]:
    """Parse a sequence: all-Fraction if every entry is exact, else all-float.

    A UserWarning names the first float when it demotes a Fraction or string.
    """
    values = tuple(values)
    parsed = [parse_number(v) for v in values]
    if all(isinstance(p, Fraction) for p in parsed):
        return tuple(parsed)
    if any(isinstance(v, (Fraction, str)) for v in values):
        i = next(i for i, p in enumerate(parsed) if isinstance(p, float))
        warnings.warn(f"entry {i} is float {values[i]!r}: exact entries become floats", stacklevel=2)
    return tuple(float(p) for p in parsed)


def format_number(x: Num, decimal: bool = False):
    """JSON-ready form: exact values as 'p/q' strings unless decimal is requested."""
    if is_exact(x) and not decimal:
        return str(Fraction(x))
    return float(f"{float(x):.15g}")


def average_dot(a: Sequence[Num], b: Sequence[Num]) -> Num:
    """(1/n) sum_i a_i b_i, exact when both vectors are exact."""
    n = len(a)
    total = sum(u * v for u, v in zip(a, b))
    if isinstance(total, int):
        return Fraction(total, n)
    return total / n
