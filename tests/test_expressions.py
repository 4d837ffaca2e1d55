import math

import pytest

from pqharmonic.expressions import (ExpressionError, evaluate_literal, parse)


def test_numbers_and_fractions():
    assert evaluate_literal("3") == 3.0
    assert evaluate_literal("7/4") == 1.75
    assert evaluate_literal("2.5e-2") == 0.025
    assert evaluate_literal(".5") == 0.5


def test_constants():
    assert evaluate_literal("pi") == math.pi
    assert evaluate_literal("2*pi") == 2 * math.pi
    assert evaluate_literal("e") == math.e


def test_precedence_and_associativity():
    assert evaluate_literal("2+3*4") == 14.0
    assert evaluate_literal("(2+3)*4") == 20.0
    assert evaluate_literal("2^3^2") == 512.0  # right associative
    assert evaluate_literal("-2^2") == -4.0    # unary minus binds looser than ^
    assert evaluate_literal("2^-1") == 0.5
    assert evaluate_literal("10-4-3") == 3.0


def test_functions():
    assert evaluate_literal("sin(0)") == 0.0
    assert evaluate_literal("cos(0)") == 1.0
    assert evaluate_literal("sqrt(9)") == 3.0
    assert evaluate_literal("sinh(0)+cosh(0)") == 1.0
    assert parse("sin(u)^2 + cos(u)^2").evaluate(u=0.37) == pytest.approx(1.0)


def test_variables():
    ex = parse("u*cos(v)")
    assert ex.variables == {"u", "v"}
    assert ex.evaluate(u=2.0, v=0.0) == 2.0
    with pytest.raises(ExpressionError):
        ex.evaluate(u=2.0)  # missing v


def test_allowed_variables_guard():
    with pytest.raises(ExpressionError):
        parse("u*cos(w)", allowed_variables=("u", "v"))
    parse("u*cos(v)", allowed_variables=("u", "v"))


def test_syntax_errors():
    for bad in ("2+", "sin 3", "(1+2", "1 2", "2**3", "$x"):
        with pytest.raises(ExpressionError):
            parse(bad)


def test_division_by_zero_is_reported():
    with pytest.raises(ExpressionError):
        evaluate_literal("1/0")


def test_non_real_value_is_reported():
    with pytest.raises(ExpressionError):
        evaluate_literal("(-1)^0.5")
    with pytest.raises(ExpressionError):
        parse("u^0.5").evaluate(u=-4.0)
