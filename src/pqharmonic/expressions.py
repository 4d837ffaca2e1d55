"""A small arithmetic expression grammar for user-supplied chart maps.

Supports +, -, *, /, ^ (right associative), unary minus, parentheses,
the functions sin, cos, sinh, cosh, sqrt, the constants pi and e, and
free variables (typically u, v for hypersurface charts and t for
curves).  The grammar is Python's arithmetic with ``^`` for powers, so
Python's own parser (:mod:`ast`) reads it, behind a check that admits
only the grammar's tokens; Python keywords are not variable names.
Expressions are parsed once into an evaluation tree and evaluated many
times.  Derivatives come from the same tree run on forward-mode jets
(:meth:`Expression.jet`, :mod:`pqharmonic.jets`), not symbolically and
not by finite differences.

Evaluation is numpy arithmetic, so the variables may be arrays: a whole
batch of points is one evaluation, and floats give a float.

    >>> parse("7/4 * sin(u)^2").evaluate(u=0.5)
    0.40223548236537776
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = {name: getattr(np, name) for name in ("sin", "cos", "sinh", "cosh", "sqrt")}

CONSTANTS = {"pi": np.float64(np.pi), "e": np.float64(np.e)}

# the grammar's tokens and white space, each matched whole so that the
# match runs in linear time; a number that runs into a name, a digit or a
# point (1_000, 0x10, 1j, 2pi, 1.5.2) is none of its tokens, nor is **
_LEXICON = re.compile(r"""(?:
    (?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?![A-Za-z_0-9.])
  | [A-Za-z_][A-Za-z_0-9]*(?![A-Za-z_0-9])
  | \*(?!\*) | [-+/^()]
  | \s
)*""", re.VERBOSE)

# the word or character an error names
_WORD = re.compile(r"\*\*|[A-Za-z_0-9.]+|\S")

# the leading zeros of an integer literal such as 07, which Python refuses
_LEADING_ZEROS = re.compile(r"(?<![A-Za-z_0-9.])0+(?=[0-9])")

# the C library pow for ^, as for floats, and the same bits in a batch of
# any size (numpy's array power differs in the last bit)
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: np.float_power}


class ExpressionError(ValueError):
    """Raised for syntax errors, unknown identifiers and failed evaluations."""


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
            raise ExpressionError(f"missing values for {sorted(missing)} in {self.source!r}")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return self._fn(values)
        except (FloatingPointError, RecursionError) as exc:
            raise ExpressionError(f"evaluation failed for {self.source!r}: {exc}")


def _tree(node, source, variables):
    """The evaluation tree of the Python expression ``node`` of ``source``;
    a node outside the grammar raises ExpressionError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return lambda v, x=np.float64(source[node.col_offset:node.end_col_offset]): x
    if isinstance(node, ast.Name) and node.id in CONSTANTS:
        return lambda v, x=CONSTANTS[node.id]: x
    if isinstance(node, ast.Name) and node.id not in FUNCTIONS:
        variables.add(node.id)
        return lambda v, name=node.id: v[name]
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        inner = _tree(node.operand, source, variables)
        return inner if type(node.op) is ast.UAdd else lambda v: -inner(v)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        f, g = _tree(node.left, source, variables), _tree(node.right, source, variables)
        return lambda v: op(f(v), g(v))
    if isinstance(node, ast.Call) and type(node.func) is ast.Name and node.func.id in FUNCTIONS \
            and len(node.args) == 1 and not node.keywords:
        fn = FUNCTIONS[node.func.id]
        arg = _tree(node.args[0], source, variables)
        return lambda v: fn(arg(v))
    raise ExpressionError(f"unexpected token {ast.get_source_segment(source, node)!r}")


def parse(text, allowed_variables=None) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    When ``allowed_variables`` is given, any other free identifier is a
    parse error (guards against typos in chart files).
    """
    end = _LEXICON.match(text).end()
    if end < len(text):
        raise ExpressionError(f"unexpected token {_WORD.match(text, end)[0]!r} at position {end}")
    source = _LEADING_ZEROS.sub("", " ".join(text.split())).replace("^", "**")
    variables = set()
    try:
        fn = _tree(ast.parse(source, mode="eval").body, source, variables)
    except SyntaxError as exc:     # in one line of source, where ** is the user's ^
        at = exc.offset and _WORD.search(source, exc.offset - 1)   # 0: the end
        token = at[0].replace("**", "^") if at else "end of input"
        raise ExpressionError(f"unexpected token {token!r} ({exc.msg})") from None
    except (RecursionError, MemoryError):
        raise ExpressionError("the expression nests too deeply to parse") from None
    if allowed_variables is not None:
        extra = variables - set(allowed_variables)
        if extra:
            raise ExpressionError(
                f"unknown variable(s) {sorted(extra)} in {text!r}; "
                f"allowed: {sorted(allowed_variables)}")
    return Expression(_fn=fn, variables=frozenset(variables), source=text)


def evaluate_literal(text) -> float:
    """Parse and evaluate a variable-free expression such as ``7/4`` or ``2*pi``."""
    return parse(text, allowed_variables=()).evaluate()
