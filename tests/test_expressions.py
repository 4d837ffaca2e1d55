import math
import sys
import time

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


def test_number_literals_keep_their_values():
    # integers with leading zeros, which Python's own grammar refuses
    assert evaluate_literal("07") == 7.0
    assert evaluate_literal("5+09") == 14.0
    assert evaluate_literal("00.5") == 0.5
    assert evaluate_literal("1e07") == 1e7
    assert evaluate_literal("2.5E-03") == 0.0025
    assert evaluate_literal("1.") == 1.0
    assert parse("u07 + 0.07").evaluate(u07=1.0) == 1.07
    # any white space separates tokens
    assert evaluate_literal("1\n+\t2\u00a0* 3") == 7.0


@pytest.mark.parametrize("text", [
    "u[0]", "u.real", "u<1", "1 if u else 2", "(1)(2)", "()", "sin", "sin(u)(v)", "u(1)",
    "pi(2)", "sin()", "0x10", "1_000", "1j", "2pi", "1.5.2", "2//3", "2* *3", "2^*3",
    "not u", "u and v", "u or 1", "True", "None", "lambda", "sin(*u)", "'1'", "1,2",
])
def test_python_beyond_the_grammar_is_refused(text):
    with pytest.raises(ExpressionError):
        parse(text)


@pytest.mark.parametrize("text", [
    "(" * 1000 + "2" + ")" * 1000, "+".join(["1"] * 3000), "-" * 3000 + "1",
    "2^" * 3000 + "2", "sin(" * 1000 + "u" + ")" * 1000,
], ids=["parentheses", "sum", "negations", "powers", "calls"])
def test_deep_input_is_an_expression_error(text):
    with pytest.raises(ExpressionError):
        parse(text)


@pytest.mark.parametrize("text, message", [
    ("u;v", "unexpected token ';' at position 1"),
    ("2pi + 1", "unexpected token '2pi' at position 0"),
    ("u**2", "unexpected token '**' at position 1"),
    ("a" * 28 + "!", "unexpected token '!' at position 28"),
    ("sinh(u)*" * 8 + "u;", "unexpected token ';' at position 65"),
    ("2+", "unexpected token 'end of input'"),
], ids=["semicolon", "number-into-name", "python-power", "long-name", "many-calls", "end"])
def test_errors_name_the_token_quickly(text, message):
    # the lexical check matches each token one way: no backtracking over the
    # ways to split a name, which took seconds for these at 2^27 and 8^8
    start = time.perf_counter()
    with pytest.raises(ExpressionError) as info:
        parse(text)
    assert time.perf_counter() - start < 1.0
    assert str(info.value).startswith(message)


def test_evaluation_deeper_than_the_stack_is_an_expression_error():
    # parsed at the test's depth, evaluated near the recursion limit
    expr = parse("+".join(["u"] * 500))

    def deeper(k):
        return deeper(k - 1) if k else expr.evaluate(u=1.0)

    with pytest.raises(ExpressionError, match="recursion"):
        deeper(sys.getrecursionlimit() - 400)


def test_division_by_zero_is_reported():
    with pytest.raises(ExpressionError):
        evaluate_literal("1/0")


def test_non_real_value_is_reported():
    with pytest.raises(ExpressionError):
        evaluate_literal("(-1)^0.5")
    with pytest.raises(ExpressionError):
        parse("u^0.5").evaluate(u=-4.0)
