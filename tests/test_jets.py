import math
import re

import numpy as np
import pytest

from pqharmonic import jets
from pqharmonic.expressions import ExpressionError, parse

# points (u, v) clear of every singularity of the cases below
UV = np.array([[0.3, 0.2], [0.7, 1.1], [1.2, 0.45], [1.7, 1.5]])


def _composite(f, d1, d2, w, dw, ddw):
    """Value, gradient and Hessian of f(w) from f, f', f'' and w's own."""
    return (f(w), d1(w)[:, None] * dw,
            d1(w)[:, None, None] * ddw + d2(w)[:, None, None] * dw[:, :, None] * dw[:, None, :])


def _closed_form(case, u, v):
    """(value, gradient (n, 2), Hessian (n, 2, 2)) of each case at (u, v)."""
    n = len(u)
    zero, one = np.zeros(n), np.ones(n)

    def grad(a, b):
        return np.stack([a * one, b * one], axis=-1)

    def hess(aa, ab, bb):
        return np.stack([grad(aa, ab), grad(ab, bb)], axis=-2)

    uv, duv, dduv = u * v, grad(v, u), hess(zero, one, zero)
    lin, dlin = u + 2 * v, grad(1, 2)
    diff, ddiff = u - v, grad(1, -1)
    flat = hess(zero, zero, zero)
    return {
        "u + v": (u + v, grad(1, 1), flat),
        "u + 3": (u + 3, grad(1, 0), flat),
        "3 - u": (3 - u, grad(-1, 0), flat),
        "u - 2*v": (u - 2 * v, grad(1, -2), flat),
        "-u*v": (-uv, -duv, -dduv),
        "u*v": (uv, duv, dduv),
        "u/4": (u / 4, grad(0.25, 0), flat),
        "2/u": (2 / u, grad(-2 / u ** 2, 0), hess(4 / u ** 3, 0, 0)),
        "u/v": (u / v, grad(1 / v, -u / v ** 2), hess(0, -1 / v ** 2, 2 * u / v ** 3)),
        "u^3": (u ** 3, grad(3 * u ** 2, 0), hess(6 * u, 0, 0)),
        "u^2.5": (u ** 2.5, grad(2.5 * u ** 1.5, 0), hess(3.75 * u ** 0.5, 0, 0)),
        "u^1": (u, grad(1, 0), flat),
        "u^0": (one, grad(0, 0), flat),
        "u^v": (u ** v, grad(v * u ** (v - 1), u ** v * np.log(u)),
                hess(v * (v - 1) * u ** (v - 2), u ** (v - 1) * (1 + v * np.log(u)),
                     u ** v * np.log(u) ** 2)),
        "2^u": (2 ** u, grad(math.log(2) * 2 ** u, 0), hess(math.log(2) ** 2 * 2 ** u, 0, 0)),
        "sin(u*v)": _composite(np.sin, np.cos, lambda w: -np.sin(w), uv, duv, dduv),
        "cos(u + 2*v)": _composite(np.cos, lambda w: -np.sin(w), lambda w: -np.cos(w),
                                   lin, dlin, flat),
        "sinh(u*v)": _composite(np.sinh, np.cosh, np.sinh, uv, duv, dduv),
        "cosh(u - v)": _composite(np.cosh, np.sinh, np.cosh, diff, ddiff, flat),
        "sqrt(u*v)": _composite(np.sqrt, lambda w: 0.5 / np.sqrt(w),
                                lambda w: -0.25 / w ** 1.5, uv, duv, dduv),
        "pi*u + e*v": (math.pi * u + math.e * v, grad(math.pi, math.e), flat),
        "cosh(0.8)": (math.cosh(0.8) * one, grad(0, 0), flat),
    }[case]


CASES = ["u + v", "u + 3", "3 - u", "u - 2*v", "-u*v", "u*v", "u/4", "2/u", "u/v", "u^3",
         "u^2.5", "u^1", "u^0", "u^v", "2^u", "sin(u*v)", "cos(u + 2*v)", "sinh(u*v)",
         "cosh(u - v)", "sqrt(u*v)", "pi*u + e*v", "cosh(0.8)"]


@pytest.mark.parametrize("case", CASES)
def test_every_grammar_operation_matches_its_closed_form_derivatives(case):
    ex = parse(case)
    n, m = UV.shape
    value, grad, hess = _closed_form(case, UV[:, 0], UV[:, 1])
    out = {}
    for degree in (1, 2):
        jet = ex.jet(**dict(zip("uv", jets.seed(UV, degree))))
        out[degree] = jets.derivatives([jet], degree, n, m)[:, 0]
        # the value is the float evaluation's, bit for bit
        got = jet.value if isinstance(jet, jets.Jet) else np.full(n, jet)
        assert np.array_equal(got, np.broadcast_to(ex.evaluate(u=UV[:, 0], v=UV[:, 1]), n))
        assert np.allclose(got, value, rtol=1e-14, atol=0)
    assert np.allclose(out[1], grad, rtol=1e-13, atol=1e-15), out[1] - grad
    assert np.allclose(out[2], hess, rtol=1e-13, atol=1e-15), out[2] - hess
    # a jacobian from degree-1 jets is the gradient of the degree-2 pass, bit for bit
    jet2 = ex.jet(**dict(zip("uv", jets.seed(UV, 2))))
    assert np.array_equal(out[1], jets.derivatives([jet2], 1, n, m)[:, 0])


@pytest.mark.parametrize("n", [1, 2, 7, 16, 208, 1000])
def test_a_points_jets_are_the_same_bits_in_a_batch_of_any_size(n):
    rng = np.random.default_rng(n)
    X = rng.uniform(0.2, 1.8, (n, 2))
    exprs = [parse(text) for text in ("u*cos(v)*0.4", "sinh(0.8)*sin(u)*cos(v)",
                                      "sqrt(u*v)/(1 + u^2)", "u^v - cosh(u - v)", "cosh(0.8)")]
    for degree in (1, 2):
        batch = jets.derivatives([ex.jet(**dict(zip("uv", jets.seed(X, degree))))
                                  for ex in exprs], degree, n, 2)
        for i in sorted(set(range(min(n, 8))) | {n // 3, n // 2, n - 1}):
            one = jets.derivatives([ex.jet(**dict(zip("uv", jets.seed(X[i:i + 1], degree))))
                                    for ex in exprs], degree, 1, 2)
            assert np.array_equal(batch[i], one[0]), (degree, i)


@pytest.mark.parametrize("text, at", [("sqrt(u)", 0.0), ("u^1.5", 0.0), ("(u^2)^0.75", 0.0),
                                      ("sqrt(u)", 1e-300)])
def test_a_jet_that_fails_where_its_value_holds_names_the_expression(text, at):
    ex = parse(text)
    X = np.array([[at, 1.0]])
    ex.evaluate(u=X[:, 0])
    with pytest.raises(ExpressionError, match=f"^evaluation failed for {re.escape(repr(text))}"):
        ex.jet(**dict(zip("uv", jets.seed(X, 2))))


@pytest.mark.parametrize("text, grad, hess", [("u^1", 1.0, 0.0), ("u^0", 0.0, 0.0),
                                             ("u^2", 0.0, 2.0)])
def test_integer_powers_hold_at_zero(text, grad, hess):
    # the chain rule's terms in c and c (c - 1) are left out where they vanish
    jet = parse(text).jet(**dict(zip("uv", jets.seed(np.array([[0.0, 1.0]]), 2))))
    assert np.array_equal(jets.derivatives([jet], 1, 1, 2), [[[grad, 0.0]]])
    assert np.array_equal(jets.derivatives([jet], 2, 1, 2), [[[[hess, 0.0], [0.0, 0.0]]]])


def test_unsupported_ufuncs_are_refused():
    (u,) = jets.seed(np.array([[0.5]]), 2)
    with pytest.raises(TypeError):
        np.exp(u)
    with pytest.raises(TypeError):
        u < 1.0
