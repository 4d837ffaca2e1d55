import math

import numpy as np
import pytest

from pqharmonic import SpaceForm
from nested_stencils import deriv1
from pqharmonic.errors import DomainError, ModelConstraintError, TangencyError


def test_models_and_dimensions():
    assert SpaceForm(3, 0.0).model == "Euclidean"
    assert SpaceForm(3, 0.0).ambient_dim == 3
    assert SpaceForm(3, 1.0).model == "SphereEmbedded"
    assert SpaceForm(3, 1.0).ambient_dim == 4
    assert SpaceForm(3, -1.0).model == "Hyperboloid"
    assert SpaceForm(3, -1.0).ambient_dim == 4


def test_check_point_sphere():
    sf = SpaceForm(2, 4.0)  # radius 1/2
    sf.check_point([0.5, 0.0, 0.0])
    with pytest.raises(ModelConstraintError):
        sf.check_point([1.0, 0.0, 0.0])


def test_check_point_hyperboloid_sheet():
    sf = SpaceForm(2, -1.0)
    sf.check_point([0.0, 0.0, 1.0])
    with pytest.raises(ModelConstraintError):
        sf.check_point([0.0, 0.0, -1.0])


def test_check_point_is_relative_to_the_size_of_the_point():
    sf = SpaceForm(3, -1.0)
    # a hyperboloid point at distance 12.2 from the base point: <P,P> = -1
    # cancels from terms near 1e10, and misses it by 1.9e-6 after rounding
    x = np.array([[1e5, 0.0, 0.0, math.sqrt(1.0 + 1e10)]])
    assert abs(sf.pair(x, x)[0] + 1.0) > 1e-6
    sf.check_point(x)
    with pytest.raises(ModelConstraintError, match=r"^point \[.*\] off the Hyperboloid model: "
                                                   r"<P,P> = -0\.75, not 1/c = -1$"):
        sf.check_point(np.array([[0.5, 0.0, 0.0, 1.0]]))
    with pytest.raises(ModelConstraintError, match="off the SphereEmbedded model"):
        SpaceForm(3, 1.0).check_point(np.zeros((2, 5, 4)))
    SpaceForm(3, 0.0).check_point(np.zeros((2, 3)))


def test_tangency():
    sf = SpaceForm(2, 1.0)
    P = np.array([1.0, 0.0, 0.0])
    sf.check_tangent(P, [0.0, 1.0, 0.0])
    with pytest.raises(TangencyError):
        sf.check_tangent(P, [1.0, 1.0, 0.0])


def test_tangent_project_idempotent():
    sf = SpaceForm(3, -1.0)
    P = np.array([0.3, 0.1, 0.2, math.sqrt(1 + 0.09 + 0.01 + 0.04)])
    V = np.array([1.0, -2.0, 0.5, 0.3])
    W = sf.tangent_project(P, V)
    assert abs(sf.pair(P, W)) < 1e-12
    assert np.allclose(sf.tangent_project(P, W), W, atol=1e-12)


def test_curvature_tensor_identity():
    # R(X,Y)Z = c[h(Y,Z)X - h(X,Z)Y] on orthogonal tangent vectors
    sf = SpaceForm(2, 1.0)
    P = np.array([0.0, 0.0, 1.0])
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0])
    assert np.allclose(sf.curvature_tensor(P, X, Y, Y), X)
    assert np.allclose(sf.curvature_tensor(P, X, Y, X), -Y)
    assert np.allclose(SpaceForm(2, 0.0).curvature_tensor(P[:2] * 0, X[:2], Y[:2], Y[:2]),
                       0.0)


def test_ricci_data_space_form():
    ric, top = SpaceForm(3, 1.0).ricci_data(np.zeros(4))
    assert ric == 2.0
    assert np.all(top == 0)


def test_covariant_derivative_great_circle_is_geodesic():
    sf = SpaceForm(2, 1.0)
    curve = lambda t: np.array([math.cos(t), math.sin(t), 0.0])
    vel = lambda t: np.array([-math.sin(t), math.cos(t), 0.0])
    acc = sf.tangent_project(curve(0.7), deriv1(vel, 0.7, 1e-4))
    assert np.allclose(acc, 0.0, atol=1e-9)


def test_covariant_derivative_latitude_circle():
    # latitude circle at polar angle theta0: |nabla_t gamma'| = sin cos theta0
    sf = SpaceForm(2, 1.0)
    th = 0.8
    curve = lambda t: np.array([math.sin(th) * math.cos(t),
                                math.sin(th) * math.sin(t), math.cos(th)])
    vel = lambda t: np.array([-math.sin(th) * math.sin(t),
                              math.sin(th) * math.cos(t), 0.0])
    acc = sf.tangent_project(curve(0.4), deriv1(vel, 0.4, 1e-4))
    assert np.linalg.norm(acc) == pytest.approx(math.sin(th) * math.cos(th),
                                                abs=1e-9)
    assert abs(sf.pair(acc, curve(0.4))) < 1e-9


def test_retract_identity_on_model():
    sf = SpaceForm(3, 1.0)
    P = np.array([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(sf.retract(2.3 * P), P, atol=1e-14)
    sfh = SpaceForm(2, -1.0)
    Q = np.array([0.3, 0.4, math.sqrt(1.25)])
    assert np.allclose(sfh.retract(1.7 * Q), Q, atol=1e-14)


def test_retract_rejects_bad_input():
    with pytest.raises(DomainError):
        SpaceForm(2, 1.0).retract([0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        SpaceForm(2, -1.0).retract([5.0, 0.0, 1.0])  # spacelike



@pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_complement_is_the_oriented_unit_normal(c, k):
    sf = SpaceForm(k + 1, c)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, sf.ambient_dim))
    if c > 0:
        P = x / np.linalg.norm(x, axis=-1, keepdims=True)
    elif c < 0:
        x[:, -1] = np.sqrt(1.0 + np.sum(x[:, :-1] ** 2, axis=-1))
        P = x
    else:
        P = None
    V = rng.normal(size=(5, sf.ambient_dim, k))
    if P is not None:
        V = np.moveaxis(sf.tangent_project(P[:, None, :], np.moveaxis(V, -1, 1)), 1, -1)
    w, nrm2 = sf.complement(P, V)
    assert np.all(nrm2 > 0)
    assert np.allclose(sf.pair(w, w), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(np.einsum("nd,nda->na", sf.pairing_signs() * w, V), 0.0, atol=1e-12)
    cols = [V, w[..., None]]
    if P is not None:
        assert np.allclose(sf.pair(w, P), 0.0, atol=1e-12)
        cols.append(P[..., None])
    assert np.all(np.linalg.det(np.concatenate(cols, axis=-1)) > 0)
    if c == 0 and k == 2:
        cross = np.cross(V[..., 0], V[..., 1])
        assert np.allclose(w, cross / np.linalg.norm(cross, axis=-1, keepdims=True),
                           rtol=0, atol=1e-14)


def _left_to_right(X, Y, signs):
    """sum_k signs[k] X[..., k] Y[..., k], added in the order k = 0, 1, ..."""
    out = signs[0] * X[..., 0] * Y[..., 0]
    for k in range(1, X.shape[-1]):
        out = out + signs[k] * X[..., k] * Y[..., k]
    return out


_MODELS = [(c, dim) for c in (0.0, 1.3, -0.7) for dim in (3, 4, 5, 6)]


@pytest.mark.parametrize("c, dim", _MODELS)
def test_pair_is_the_left_to_right_sum_bit_for_bit(c, dim):
    sf = SpaceForm(dim if c == 0 else dim - 1, c)
    assert sf.ambient_dim == dim
    signs = sf.pairing_signs()
    rng = np.random.default_rng(dim)
    X, Y = rng.standard_normal((2, 257, dim))
    assert sf.pair(X, Y).tobytes() == _left_to_right(X, Y, signs).tobytes()
    # a (dim,) operand broadcasts against the batch, on either side, and a list is taken as is
    y = Y[0]
    want = _left_to_right(X, y, signs)
    assert sf.pair(X, y).tobytes() == want.tobytes()
    assert sf.pair(X, list(y)).tobytes() == want.tobytes()
    assert sf.pair(y, X).tobytes() == _left_to_right(y, X, signs).tobytes()
    assert sf.pair(list(X[1]), list(y)) == _left_to_right(X[1], y, signs)


@pytest.mark.parametrize("c, dim", [(c, dim) for c, dim in _MODELS if c != 0])
def test_check_point_refuses_at_the_left_to_right_norm_bit_for_bit(c, dim):
    # the refusal threshold is tol |P|^2 with |P|^2 summed left to right: find
    # the least tol that keeps each point, and see the next float down refuse it
    sf = SpaceForm(dim - 1, c)
    ones = np.ones(dim)
    rng = np.random.default_rng(10 * dim)
    for _ in range(8):
        x = rng.standard_normal(dim - 1)
        P = sf.retract(np.append(x, 1.0 + np.sum(np.abs(x)))) * (1.0 + 1e-13)
        defect = abs(_left_to_right(P, P, sf.pairing_signs()) - 1.0 / c)
        norm2 = _left_to_right(P, P, ones)
        tol = defect / norm2
        while tol * norm2 < defect:
            tol = np.nextafter(tol, np.inf)
        while np.nextafter(tol, 0.0) * norm2 >= defect:
            tol = np.nextafter(tol, 0.0)
        sf.check_point(P, tol=tol)
        sf.check_point(P[None, None], tol=tol)
        with pytest.raises(ModelConstraintError):
            sf.check_point(P, tol=np.nextafter(tol, 0.0))
