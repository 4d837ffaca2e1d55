import math
import re

import numpy as np
import pytest

from pqharmonic import jets
from pqharmonic.errors import DomainError
from pqharmonic.expressions import ExpressionError, parse

# points (u, v) clear of every singularity of the cases below
UV = np.array([[0.3, 0.2], [0.7, 1.1], [1.2, 0.45], [1.7, 1.5]])


def _uv(X):
    """The jets of u and v at the points X (n, 2)."""
    x = jets.Jet.variable(X)
    return {"u": x[..., 0], "v": x[..., 1]}


def _derivatives(value, n):
    """The value (n,), gradient (n, 2) and Hessian (n, 2, 2) of a jet, or of a
    constant, at n points."""
    if isinstance(value, jets.Jet):
        return (value.value,) + value.derivatives()
    return np.full(n, value), np.zeros((n, 2)), np.zeros((n, 2, 2))


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
    n = len(UV)
    value, grad, hess = _closed_form(case, UV[:, 0], UV[:, 1])
    got, got_grad, got_hess = _derivatives(ex.jet(**_uv(UV)), n)
    # the value is the float evaluation's, bit for bit
    assert np.array_equal(got, np.broadcast_to(ex.evaluate(u=UV[:, 0], v=UV[:, 1]), n))
    assert np.allclose(got, value, rtol=1e-14, atol=0)
    assert np.allclose(got_grad, grad, rtol=1e-13, atol=1e-15), got_grad - grad
    assert np.allclose(got_hess, hess, rtol=1e-13, atol=1e-15), got_hess - hess


@pytest.mark.parametrize("n", [1, 2, 7, 16, 208, 1000])
def test_a_points_jets_are_the_same_bits_in_a_batch_of_any_size(n):
    rng = np.random.default_rng(n)
    X = rng.uniform(0.2, 1.8, (n, 2))
    exprs = [parse(text) for text in ("u*cos(v)*0.4", "sinh(0.8)*sin(u)*cos(v)",
                                      "sqrt(u*v)/(1 + u^2)", "u^v - cosh(u - v)", "cosh(0.8)")]
    for ex in exprs:
        batch = _derivatives(ex.jet(**_uv(X)), n)
        for i in sorted(set(range(min(n, 8))) | {n // 3, n // 2, n - 1}):
            one = _derivatives(ex.jet(**_uv(X[i:i + 1])), 1)
            for a, b in zip(batch, one):
                assert np.array_equal(a[i], b[0]), (ex.source, i)


@pytest.mark.parametrize("text, at", [("sqrt(u)", 0.0), ("u^1.5", 0.0), ("(u^2)^0.75", 0.0),
                                      ("sqrt(u)", 1e-300)])
def test_a_jet_that_fails_where_its_value_holds_names_the_expression(text, at):
    ex = parse(text)
    X = np.array([[at, 1.0]])
    ex.evaluate(u=X[:, 0])
    with pytest.raises(ExpressionError, match=f"^evaluation failed for {re.escape(repr(text))}"):
        ex.jet(**_uv(X))


@pytest.mark.parametrize("text, grad, hess", [("u^1", 1.0, 0.0), ("u^0", 0.0, 0.0),
                                             ("u^2", 0.0, 2.0)])
def test_integer_powers_hold_at_zero(text, grad, hess):
    # the chain rule's terms in c and c (c - 1) are left out where they vanish
    _, got_grad, got_hess = _derivatives(parse(text).jet(**_uv(np.array([[0.0, 1.0]]))), 1)
    assert np.array_equal(got_grad, [[grad, 0.0]])
    assert np.array_equal(got_hess, [[[hess, 0.0], [0.0, 0.0]]])


def test_unsupported_ufuncs_are_refused():
    u = _uv(np.array([[0.5, 1.0]]))["u"]
    with pytest.raises(TypeError):
        np.tan(u)
    with pytest.raises(TypeError):
        u < 1.0


X = np.array([[0.3, 0.2], [0.7, 1.1], [1.2, 0.45]])


def test_a_jet_acts_over_the_last_axis():
    x = jets.Jet.variable(X)
    # np.asarray reads the value: one row per point, as a tracer counts them
    for array in (np.asarray(x, dtype=float), x.__array__(), x.__array__(None, copy=True)):
        assert array.shape == (3, 2) and np.array_equal(array, X)
    assert x.shape == (3, 2)
    # indexing acts on the value axes and keeps the derivatives' own
    u = x[..., 0]
    assert u.shape == (3,) and np.array_equal(u.value, X[:, 0])
    assert np.array_equal(u.derivatives()[0], np.tile([1.0, 0.0], (3, 1)))
    assert np.array_equal(x[1:, 1].value, X[1:, 1])
    assert x[..., None].shape == (3, 2, 1)


def test_a_jet_stacks_and_concatenates_with_float_constants():
    x = jets.Jet.variable(X)
    u, v = x[..., 0], x[..., 1]
    # a constant in a stack takes the shape of the first jet
    Y = np.stack([2.0, u * v, v], axis=-1)
    assert Y.shape == (3, 3) and np.array_equal(np.asarray(Y)[:, 0], np.full(3, 2.0))
    J, H = Y.derivatives()
    assert np.array_equal(J[:, 0], np.zeros((3, 2)))
    assert np.array_equal(J[:, 1], np.stack([X[:, 1], X[:, 0]], axis=-1))
    assert np.array_equal(H[:, 1], np.tile([[0.0, 1.0], [1.0, 0.0]], (3, 1, 1)))
    assert np.array_equal(J[:, 2], np.tile([0.0, 1.0], (3, 1)))
    # a constant in a concatenation keeps its own shape
    Z = np.concatenate([x, np.full((3, 1), 5.0)], axis=-1)
    assert Z.shape == (3, 3)
    assert np.array_equal(np.asarray(Z), np.hstack([X, np.full((3, 1), 5.0)]))
    J, H = Z.derivatives()
    assert np.array_equal(J, np.broadcast_to([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], (3, 3, 2)))
    assert not H.any()
    for axis in (0, 1):
        assert np.concatenate([x, x], axis=axis).shape == np.concatenate([X, X], axis=axis).shape


def test_a_jet_times_a_constant_matrix_and_its_powers():
    x = jets.Jet.variable(X)
    M = np.array([[1.0, 2.0, 0.5], [-1.0, 0.0, 3.0]])
    Y = x @ M
    assert np.array_equal(np.asarray(Y), X @ M)
    J, H = Y.derivatives()
    assert np.array_equal(J, np.broadcast_to(M.T, (3, 3, 2))) and not H.any()
    # np.power (**) and np.float_power: the value is the ufunc's, bit for bit
    u = x[..., 0]
    for c in (3, 2.5):
        for ufunc in (np.power, np.float_power):
            p = ufunc(u, c)
            assert np.array_equal(p.value, ufunc(X[:, 0], c))
            grad, hess = p.derivatives()
            assert np.allclose(grad[:, 0], c * X[:, 0] ** (c - 1), rtol=1e-15, atol=0)
            assert np.allclose(hess[:, 0, 0], c * (c - 1) * X[:, 0] ** (c - 2), rtol=1e-15, atol=0)
            assert not grad[:, 1].any() and not hess[:, 1].any()
    assert np.array_equal((u ** 2).value, X[:, 0] ** 2)
    with pytest.raises(TypeError):
        u ** np.array([2.0, 3.0, 4.0])


@pytest.mark.parametrize("chart_map", [
    lambda w: np.asarray(w) * 2.0,
    lambda w: np.where(w > 1.0, w, 0.0),
    lambda w: np.stack([w[..., 0], np.abs(w[..., 1])], axis=-1),
    lambda w: np.sum(w, axis=-1),
], ids=["asarray", "where", "abs", "sum"])
def test_a_map_that_does_not_carry_a_jet_is_refused(chart_map):
    def in_place(w):
        out = np.empty(w.shape[:-1] + (3,))
        out[..., :2], out[..., 2] = w, 1.0
        return out

    for fn in (chart_map, in_place):
        with pytest.raises(DomainError, match=r"^the map must take a jet of its points "
                                              r"\(jets\.Jet\) and return their jet: write it"):
            jets.carried(lambda: fn(jets.Jet.variable(X)), jets.Jet, "the map")
        fn(X)       # each runs on floats


# -- truncated Taylor series ------------------------------------------------

TS = np.array([0.3, 0.7, 1.2, 1.7])


def _series(text, ts=TS):
    """The degree-4 series of the expression ``text`` in t at the points ts."""
    return parse(text).jet(t=jets.Taylor.variable(ts))


def test_series_coefficients_are_the_scaled_derivatives():
    # sin(t^2) takes the general recurrence, sin(2t) the one of a linear argument
    s, c, t = np.sin(TS * TS), np.cos(TS * TS), TS
    derivatives = {
        "sin(t*t)": [s, 2 * t * c, 2 * c - 4 * t * t * s, -12 * t * s - 8 * t ** 3 * c,
                     -12 * s - 48 * t * t * c + 16 * t ** 4 * s],
        "sin(2*t)": [np.sin(2 * t), 2 * np.cos(2 * t), -4 * np.sin(2 * t), -8 * np.cos(2 * t),
                     16 * np.sin(2 * t)],
        "1/(1 + t)": [(-1) ** k * math.factorial(k) / (1 + t) ** (k + 1) for k in range(5)],
        "sqrt(1 + t)": [(1 + t) ** 0.5, 0.5 * (1 + t) ** -0.5, -0.25 * (1 + t) ** -1.5,
                        0.375 * (1 + t) ** -2.5, -0.9375 * (1 + t) ** -3.5],
    }
    # exp and log, which the grammar lacks, on the variable's series itself
    t_series = jets.Taylor.variable(TS)
    series = {text: _series(text) for text in derivatives}
    series["exp(2*t)"], series["log(1 + t)"] = np.exp(2.0 * t_series), np.log(1.0 + t_series)
    series["exp(t*t)"] = np.exp(t_series * t_series)
    derivatives["exp(2*t)"] = [2.0 ** k * np.exp(2 * t) for k in range(5)]
    derivatives["log(1 + t)"] = [np.log(1 + t)] + [(-1) ** (k - 1) * math.factorial(k - 1)
                                                   / (1 + t) ** k for k in range(1, 5)]
    e = np.exp(t * t)
    derivatives["exp(t*t)"] = [e, 2 * t * e, (2 + 4 * t * t) * e, (12 * t + 8 * t ** 3) * e,
                               (12 + 48 * t * t + 16 * t ** 4) * e]
    for text, want in derivatives.items():
        got = series[text].c
        for k, w in enumerate(want):
            assert np.allclose(got[k] * math.factorial(k), w, rtol=1e-13, atol=1e-14), (text, k)


@pytest.mark.parametrize("text, identity", [
    ("sin(t*t - t/2)^2 + cos(t*t - t/2)^2", "1"), ("sin(3*t + 1)^2 + cos(3*t + 1)^2", "1"),
    ("cosh(t*t/4)^2 - sinh(t*t/4)^2", "1"), ("sqrt(1 + t*t) * sqrt(1 + t*t)", "1 + t*t"),
    ("(sin(t) / (2 + t*t)) * (2 + t*t)", "sin(t)"), ("(1 + t)^2.5", "(1 + t)^2 * sqrt(1 + t)"),
    ("(2 + t)^-1.5 * (2 + t)^1.5", "1"),
])
def test_series_rules_keep_identities_to_every_degree(text, identity):
    got, want = _series(text).c, _series(identity)
    want = want.c if isinstance(want, jets.Taylor) else np.eye(5)[:, :1] * want
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13), got - want


def test_the_coefficient_shift_is_d_dt():
    got, want = _series("sin(t*t)").d().c, _series("2*t*cos(t*t)").c[:4]
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("text", ["t*t - 3", "2 - t", "-t/4", "3/t", "t/(1 + t)", "t^3",
                                  "t^2.5", "sin(t)", "cos(t*t)", "sinh(2*t)", "cosh(t - 1)",
                                  "sqrt(t)", "e^2*t"])
def test_a_series_value_is_the_float_evaluation_bit_for_bit(text):
    ex = parse(text)
    assert np.array_equal(_series(text).c[0], ex.evaluate(t=TS))


@pytest.mark.parametrize("n", [1, 2, 7, 89, 1000])
def test_a_points_series_are_the_same_bits_in_a_batch_of_any_size(n):
    ts = np.random.default_rng(n).uniform(0.2, 1.8, n)
    for text in ("sin(t*t)/(1 + t)", "sqrt(t)*cosh(0.8)", "t^3 - t^2.5", "sinh(3*t) + cos(t)"):
        batch = _series(text, ts).c
        for i in sorted(set(range(min(n, 4))) | {n // 2, n - 1}):
            assert np.array_equal(batch[:, i], _series(text, ts[i:i + 1]).c[:, 0]), (text, i)


def test_integer_powers_of_series_hold_at_zero():
    t = jets.Taylor.variable(np.array([0.0]))
    for cube in (t ** 3, np.float_power(t, 3.0), _series("t^3", np.array([0.0]))):
        assert np.array_equal(cube.c[:, 0], [0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.array_equal((t ** 0).c[:, 0], [1.0, 0.0, 0.0, 0.0, 0.0])


def test_series_stack_with_constants_and_read_as_an_array():
    t = jets.Taylor.variable(TS)
    X = np.stack([np.cos(t), 2.0, np.zeros_like(t)], axis=-1)
    assert X.c.shape == (5, 4, 3)
    assert np.array_equal(X.c[:, :, 1], np.eye(5)[:, :1] * np.full(4, 2.0))
    assert np.concatenate([X, X[..., :1]], axis=-1).c.shape == (5, 4, 4)
    # a tracer reads a series' coefficients, with the numpy 1 and 2 signatures
    for array in (np.asarray(t, dtype=float), t.__array__(), t.__array__(None, copy=None)):
        assert array.shape == (5, 4) and np.array_equal(array[0], TS)


def test_series_refuse_what_they_do_not_carry():
    # a curve map that meets one of these is refused
    t = jets.Taylor.variable(TS)
    for refused in (lambda: np.tan(t), lambda: np.where(TS > 1, t, 0.0), lambda: t < 1.0,
                    lambda: np.abs(t), lambda: len(t),
                    lambda: np.shape(t), lambda: np.zeros(np.size(t))):
        with pytest.raises(TypeError):
            refused()
    for refused in (lambda: t.reshape(-1), lambda: np.empty(t.shape + (3,))):
        with pytest.raises(AttributeError):
            refused()


def test_series_concatenate_keeps_a_constants_own_shape():
    # as for jets; a constant block is not broadcast to the series' value shape
    t = jets.Taylor.variable(TS)
    X = np.stack([np.cos(t), np.sin(t)], axis=-1)
    Y = np.concatenate([X, np.full((4, 1), 5.0)], axis=-1)
    assert Y.c.shape == (5, 4, 3)
    assert np.array_equal(Y.c[:, :, :2], X.c)
    assert np.array_equal(Y.c[:, :, 2], np.eye(5)[:, :1] * np.full(4, 5.0))


def test_series_of_carried_exponents_match_their_closed_forms():
    # x^y = exp(y log x), valued at the power of the values
    t, log2, u = TS, math.log(2.0), 1.0 + np.log(TS)
    derivatives = {
        "2^t": [log2 ** k * 2.0 ** t for k in range(5)],
        "e^(0.2*t)": [0.2 ** k * np.exp(0.2 * t) for k in range(5)],
        # y = t^t: y' = y u with u = 1 + log t, and u' = 1/t
        "t^t": [t ** t * d for d in (1.0, u, u * u + 1 / t, u ** 3 + 3 * u / t - t ** -2.0,
                                     u ** 4 + 6 * u * u / t - 4 * u / t ** 2 + 3 / t ** 2
                                     + 2 / t ** 3)],
    }
    for text, want in derivatives.items():
        got = _series(text)
        assert np.array_equal(got.c[0], parse(text).evaluate(t=TS)), text
        for k, w in enumerate(want):
            assert np.allclose(got.c[k] * math.factorial(k), w, rtol=1e-13, atol=0), (text, k)


def test_jets_take_exp_and_log():
    x = _uv(UV)
    u, v = UV[:, 0], UV[:, 1]
    one, zero = np.ones(len(u)), np.zeros(len(u))
    uv, duv = u * v, np.stack([v, u], axis=-1)
    dduv = np.stack([np.stack([zero, one], -1), np.stack([one, zero], -1)], -2)
    for got, want in ((np.exp(x["u"] * x["v"]), _composite(np.exp, np.exp, np.exp, uv, duv, dduv)),
                      (np.log(x["u"] * x["v"]), _composite(np.log, lambda w: 1 / w,
                                                           lambda w: -1 / w ** 2, uv, duv, dduv))):
        for a, b in zip(_derivatives(got, len(u)), want):
            assert np.allclose(a, b, rtol=1e-14, atol=1e-15)
