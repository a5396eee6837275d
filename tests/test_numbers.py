from fractions import Fraction

import numpy as np
import pytest

from effico._numbers import (
    all_exact,
    average_dot,
    format_number,
    is_exact,
    normalize_values,
    parse_number,
)

F = Fraction


def test_parse_number_exact_forms():
    assert parse_number("3/4") == F(3, 4)
    assert parse_number("1.5") == F(3, 2)
    assert parse_number(" 2/5 ") == F(2, 5)
    assert parse_number(7) == F(7)
    assert isinstance(parse_number(7), Fraction)
    assert parse_number(F(9, 5)) == F(9, 5)


def test_parse_number_floats_stay_float():
    v = parse_number(0.1)
    assert isinstance(v, float) and v == 0.1


def test_parse_number_numpy_scalars():
    assert parse_number(np.int64(3)) == F(3)
    assert isinstance(parse_number(np.int64(3)), Fraction)
    assert parse_number(np.float64(0.25)) == 0.25
    assert isinstance(parse_number(np.float64(0.25)), float)


def test_parse_number_rejects_junk():
    with pytest.raises(TypeError):
        parse_number(True)
    with pytest.raises(TypeError):
        parse_number(object())
    with pytest.raises(ValueError):
        parse_number(float("nan"))
    with pytest.raises(ValueError):
        parse_number(float("inf"))
    with pytest.raises(ValueError):
        parse_number("not a number")


def test_exactness_predicates():
    assert is_exact(F(1, 3)) and is_exact(4)
    assert not is_exact(0.5) and not is_exact(True)
    assert all_exact((F(1), 2, F(3, 7)))
    assert not all_exact((F(1), 0.5))


def test_normalize_values_demotes_mixed_input():
    assert normalize_values(("1/2", 2)) == (F(1, 2), F(2))
    with pytest.warns(UserWarning, match=r"entry 1 is float 0\.5"):
        mixed = normalize_values((F(1, 2), 0.5, 3))
    assert mixed == (0.5, 0.5, 3.0)
    assert all(isinstance(v, float) for v in mixed)


@pytest.mark.filterwarnings("error::UserWarning")
def test_normalize_values_warns_for_fraction_or_string_not_int():
    assert normalize_values((1, 2.5, 3)) == (1.0, 2.5, 3.0)
    with pytest.raises(UserWarning, match=r"entry 2 is float 3\.0"):
        normalize_values(("1", 2, 3.0))


def test_format_number():
    assert format_number(F(9, 5)) == "9/5"
    assert format_number(F(2)) == "2"
    assert format_number(F(9, 5), decimal=True) == 1.8
    assert format_number(0.25) == 0.25


def test_average_dot_exact_and_float():
    assert average_dot((1, 2, 3), (1, 1, 1)) == F(2)
    assert isinstance(average_dot((1, 2, 3), (1, 1, 1)), Fraction)
    assert average_dot((F(3, 4), F(3, 4), F(3, 2)), (3, 2, 1)) == F(7, 4)
    assert average_dot((0.5, 0.5), (1.0, 3.0)) == pytest.approx(1.0)
