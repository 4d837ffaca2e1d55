"""A small arithmetic expression grammar for user-supplied chart maps.

Supports +, -, *, /, ^ (right associative), unary minus, parentheses,
the functions sin, cos, sinh, cosh, sqrt, the constants pi and e, and
free variables (typically u, v for hypersurface charts and t for
curves).  Expressions are parsed once into an evaluation tree and
evaluated many times.  Derivatives come from the same tree run on
forward-mode jets (:meth:`Expression.jet`, :mod:`pqharmonic.jets`), not
symbolically and not by finite differences.

Evaluation is numpy arithmetic, so the variables may be arrays: a whole
batch of points is one evaluation, and floats give a float.

    >>> parse("7/4 * sin(u)^2").evaluate(u=0.5)
    0.40223548236537776
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
}

CONSTANTS = {"pi": np.float64(np.pi), "e": np.float64(np.e)}

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


class ExpressionError(ValueError):
    """Raised for syntax errors, unknown identifiers and failed evaluations."""


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(
                f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append((m.lastgroup, m.group()))
    out.append(("end", ""))
    return out


# -- evaluation tree --------------------------------------------------------

@dataclass(frozen=True)
class Expression:
    """A parsed expression; call :meth:`evaluate` with keyword variables."""

    _fn: object
    variables: frozenset
    source: str

    def evaluate(self, **vars):
        """The value, elementwise over array variables; a float for floats.

        Overflow, division by zero and non-real values raise ExpressionError;
        underflow to zero does not, as in scalar floating point."""
        value = self._run({k: np.asarray(x, dtype=float) for k, x in vars.items()})
        return float(value) if np.ndim(value) == 0 else value

    def jet(self, **jets):
        """The jet of the expression (:class:`pqharmonic.jets.Jet`) from jets
        of its variables, or a float where it does not depend on them.  The
        tree runs unchanged, and a jet that overflows, divides by zero or
        leaves the reals raises ExpressionError as a value does."""
        return self._run(jets)

    def _run(self, values):
        missing = self.variables - set(values)
        if missing:
            raise ExpressionError(
                f"missing values for {sorted(missing)} in {self.source!r}")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return self._fn(values)
        except FloatingPointError as exc:
            raise ExpressionError(f"evaluation failed for {self.source!r}: {exc}")

    def __call__(self, **vars):
        return self.evaluate(**vars)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.variables = set()

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tk, tv = self.tokens[self.i]
        if (kind is not None and tk != kind) or (value is not None and tv != value):
            want = value if value is not None else kind
            raise ExpressionError(f"expected {want!r}, found {tv or 'end of input'!r}")
        self.i += 1
        return tv

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take("op")
            rhs = self.term()
            node = (lambda f, g: lambda v: f(v) + g(v))(node, rhs) if op == "+" \
                else (lambda f, g: lambda v: f(v) - g(v))(node, rhs)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take("op")
            rhs = self.unary()
            node = (lambda f, g: lambda v: f(v) * g(v))(node, rhs) if op == "*" \
                else (lambda f, g: lambda v: f(v) / g(v))(node, rhs)
        return node

    # unary := ('-'|'+') unary | power
    def unary(self):
        if self.peek() == ("op", "-"):
            self.take("op")
            inner = self.unary()
            return lambda v: -inner(v)
        if self.peek() == ("op", "+"):
            self.take("op")
            return self.unary()
        return self.power()

    # power := atom ('^' unary)?   (right associative, signed exponents ok)
    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op")
            expo = self.unary()
            # the C library pow, as for floats, and the same bits in a
            # batch of any size (numpy's array power differs in the last bit)
            return lambda v: np.float_power(base(v), expo(v))
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "number":
            self.take()
            x = np.float64(value)
            return lambda v: x
        if kind == "ident":
            self.take()
            if value in FUNCTIONS:
                fn = FUNCTIONS[value]
                self.take("op", "(")
                arg = self.expr()
                self.take("op", ")")
                return lambda v: fn(arg(v))
            if value in CONSTANTS:
                x = CONSTANTS[value]
                return lambda v: x
            self.variables.add(value)
            return lambda v, name=value: v[name]
        if (kind, value) == ("op", "("):
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        raise ExpressionError(f"unexpected token {value or 'end of input'!r}")


def parse(text, allowed_variables=None) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    When ``allowed_variables`` is given, any other free identifier is a
    parse error (guards against typos in chart files).
    """
    parser = _Parser(_tokenize(text))
    fn = parser.expr()
    parser.take("end")
    if allowed_variables is not None:
        extra = parser.variables - set(allowed_variables)
        if extra:
            raise ExpressionError(
                f"unknown variable(s) {sorted(extra)} in {text!r}; "
                f"allowed: {sorted(allowed_variables)}")
    return Expression(_fn=fn, variables=frozenset(parser.variables), source=text)


def evaluate_literal(text) -> float:
    """Parse and evaluate a variable-free expression such as ``7/4`` or ``2*pi``."""
    return parse(text, allowed_variables=()).evaluate()
