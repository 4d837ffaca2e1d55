import math

import numpy as np
import pytest

from pqharmonic import numeric
from nested_stencils import deriv1, deriv1_richardson, deriv2, partial2


def test_deriv1_polynomial_exact():
    # 4th-order stencil is exact on quartics
    fn = lambda x: x ** 4 - 2 * x ** 2 + 3 * x
    assert deriv1(fn, 1.3, 0.1) == pytest.approx(4 * 1.3 ** 3 - 4 * 1.3 + 3, abs=1e-11)


def test_deriv1_trig_accuracy():
    err = abs(deriv1(math.sin, 0.7, 1e-2) - math.cos(0.7))
    assert err < 1e-9


def test_deriv1_richardson_improves():
    plain = abs(deriv1(math.exp, 0.3, 5e-2) - math.exp(0.3))
    rich = abs(deriv1_richardson(math.exp, 0.3, 5e-2) - math.exp(0.3))
    assert rich < plain / 10


def test_deriv2_trig():
    err = abs(deriv2(math.sin, 0.4, 1e-2) + math.sin(0.4))
    assert err < 1e-8


def test_deriv1_vector_valued():
    fn = lambda t: np.array([math.cos(t), math.sin(t)])
    out = deriv1(fn, 0.2, 1e-3)
    assert np.allclose(out, [-math.sin(0.2), math.cos(0.2)], atol=1e-10)


def test_partials_mixed():
    fn = lambda u: math.sin(u[0]) * math.cos(2 * u[1])
    u = np.array([0.5, 0.3])
    d01 = partial2(fn, u, 0, 1, 1e-2)
    exact = -2 * math.cos(0.5) * math.sin(0.6)
    assert d01 == pytest.approx(exact, abs=1e-7)


def test_richardson_order2():
    # exact limit 1, approximations 1 + C h^2
    assert numeric.richardson(1 + 4e-4, 1 + 1e-4, order=2) == pytest.approx(1.0, abs=1e-12)


def test_observed_order():
    vals = [1 + 4e-4, 1 + 1e-4, 1 + 2.5e-5]
    assert numeric.observed_order(vals) == pytest.approx(2.0, abs=1e-6)


def test_simpson_exact_on_cubics():
    K = 16
    dt = 1.0 / K
    w = numeric.simpson_weights(K, dt)
    xs = np.linspace(0, 1, K + 1)
    assert np.dot(w, xs ** 3) == pytest.approx(0.25, abs=1e-14)


def test_simpson_rejects_odd():
    with pytest.raises(ValueError):
        numeric.simpson_weights(7, 0.1)


def test_smooth_bump_support_and_peak():
    assert numeric.smooth_bump(0.05, 0.1, 0.9) == 0.0
    assert numeric.smooth_bump(0.95, 0.1, 0.9) == 0.0
    assert numeric.smooth_bump(0.5, 0.1, 0.9) == pytest.approx(1.0)
    arr = numeric.smooth_bump(np.array([0.0, 0.5, 1.0]), 0.1, 0.9)
    assert arr[0] == 0.0 and arr[2] == 0.0 and arr[1] == pytest.approx(1.0)


def test_smooth_bump_vanishing_edge_derivative():
    h = 1e-4
    d = deriv1(lambda t: numeric.smooth_bump(t, 0.0, 1.0), 1.0 - 2 * h, h)
    assert abs(d) < 1e-10


def test_stencil_weights_match_deriv1_and_deriv2():
    x, h = 0.3, 0.05
    d1 = sum(w * math.exp(x + k * h)
             for k, w in zip(numeric.D1_OFFSETS, numeric.D1_WEIGHTS)) / h
    d2 = sum(w * math.exp(x + k * h)
             for k, w in zip(numeric.D2_OFFSETS, numeric.D2_WEIGHTS)) / (h * h)
    assert d1 == pytest.approx(deriv1(math.exp, x, h), rel=1e-13)
    assert d2 == pytest.approx(deriv2(math.exp, x, h), rel=1e-11)


def _well_conditioned(rng, n, k):
    """n diagonally dominant k x k matrices: condition numbers of a few units."""
    return 3.0 * np.eye(k) + rng.uniform(-0.5, 0.5, size=(n, k, k))


def _close(got, want):
    return np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_small_matrix_kernels_match_linalg(k):
    rng = np.random.default_rng(k)
    A = _well_conditioned(rng, 40, k)
    det, adj = numeric._adjugate(A)
    assert _close(det, np.linalg.det(A))
    assert _close(adj / det[:, None, None], np.linalg.inv(A))
    # det[M, e_j] for the (k, k-1) matrix M of the first k - 1 columns
    M = A[..., :-1]
    unit = np.broadcast_to(np.eye(k)[:, None, :, None], (k,) + M.shape[:-1] + (1,))
    want = np.stack([np.linalg.det(np.concatenate([M, unit[j]], axis=-1)) for j in range(k)],
                    axis=-1)
    assert _close(numeric._cofactors(M), want)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_small_matrix_kernels_give_a_row_the_same_bits_in_any_batch(k):
    A = _well_conditioned(np.random.default_rng(10 + k), 17, k)
    det, adj = numeric._adjugate(A)
    cof = numeric._cofactors(A[..., :-1])
    for i in range(len(A)):
        one_det, one_adj = numeric._adjugate(A[i])
        assert one_det == det[i] and np.array_equal(one_adj, adj[i])
        assert np.array_equal(numeric._cofactors(A[i, :, :-1]), cof[i])
        assert np.array_equal(numeric._adjugate(A[i:i + 1])[1], adj[i:i + 1])
