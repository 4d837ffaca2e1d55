import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pqharmonic import (Classification, PQParams, classify, coefficients,
                        cone, plane, residual, residual_einstein,
                        residual_spaceform, solve_p, solve_param_pair,
                        sphere_in_sphere, umbilic_f)
from pqharmonic.errors import NoRootInBracketError
from pqharmonic.immersion import GeometricSample, ImmersionChart, stack_samples
from pqharmonic.residual import classify_samples
from pqharmonic.spaceform import SpaceForm


def _sphere_sample(f=-1.0, normA2=2.0, ric=2.0, m=2):
    return GeometricSample(m=m, f=f, grad_f=np.zeros(m), grad_f_norm2=0.0,
                           laplacian_f=0.0, normA2=normA2,
                           A_grad_f=np.zeros(m), ric_eta_eta=ric,
                           ricci_eta_top=np.zeros(m))


def test_pqparams_guard():
    with pytest.raises(ValueError):
        PQParams(1.0, 2.0)
    with pytest.raises(ValueError):
        PQParams(2.0, 0.5)
    assert PQParams(Fraction(4, 3), 3).pq == Fraction(4, 1)


def test_pqparams_rejects_non_finite():
    for p, q in ((math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0)):
        with pytest.raises(ValueError):
            PQParams(p, q)


def test_coefficients_exact_rational():
    co = coefficients(PQParams(2, 3), 2)
    assert co.as_tuple() == (-2, -2, 1, -1, 0, 4, -2, 2)
    co = coefficients(PQParams(Fraction(4, 3), 3), 2)
    assert co.d3 == 0  # 2 + (4/3 - 2)*3
    assert co.c5 == Fraction(-4, 3)


def test_coefficients_biharmonic_reduction():
    for m in range(1, 7):
        co = coefficients(PQParams(2, 2), m)
        assert co.as_tuple() == (-1, 0, 1, -1, 0, 2, -2, m)
        assert all(isinstance(x, (int, Fraction)) for x in co.as_tuple())


def test_residual_sphere_sample():
    s = _sphere_sample()
    for q in (2.0, 2.5, 3.0):
        eq1, eq2 = residual(s, PQParams(2, q))
        assert eq1 == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(eq2, 0.0)
    eq1, _ = residual(s, PQParams(3, 2))
    assert eq1 == pytest.approx(2.0, abs=1e-14)  # m(p-2)f^4 = 2


def test_residual_minimal_sample_vanishes():
    s = _sphere_sample(f=0.0, normA2=0.0)
    eq1, eq2 = residual(s, PQParams(3.7, 2.2))
    assert eq1 == 0.0 and np.all(eq2 == 0.0)


def test_residual_einstein_matches_spaceform():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        c = float(rng.uniform(-2, 2))
        s = GeometricSample(m=m, f=rng.uniform(-2, 2),
                            grad_f=rng.standard_normal(m),
                            grad_f_norm2=rng.uniform(0, 2),
                            laplacian_f=rng.uniform(-2, 2),
                            normA2=rng.uniform(0, 4),
                            A_grad_f=rng.standard_normal(m),
                            ric_eta_eta=0.0, ricci_eta_top=np.zeros(m))
        params = PQParams(rng.uniform(1.1, 4), rng.uniform(1.1, 4))
        e1a, e2a = residual_spaceform(s, params, c)
        e1b, e2b = residual_einstein(s, params, m * (m + 1) * c, m)
        assert e1a == pytest.approx(e1b, rel=1e-13, abs=1e-13)
        assert np.allclose(e2a, e2b, atol=1e-13)


def _random_sample(rng, m, with_g):
    g = None
    if with_g:
        a = rng.standard_normal((m, m))
        g = a @ a.T + m * np.eye(m)
    return GeometricSample(m=m, f=rng.uniform(-2, 2),
                           grad_f=rng.standard_normal(m),
                           grad_f_norm2=rng.uniform(0, 2),
                           laplacian_f=rng.uniform(-2, 2),
                           normA2=rng.uniform(0, 4),
                           A_grad_f=rng.standard_normal(m),
                           ric_eta_eta=rng.uniform(-3, 3),
                           ricci_eta_top=rng.standard_normal(m), g=g)


def test_batched_kernel_matches_per_sample():
    rng = np.random.default_rng(11)
    for m in range(1, 5):
        for with_g in (False, True):
            samples = [_random_sample(rng, m, with_g) for _ in range(6)]
            batch = stack_samples(samples)
            params = PQParams(rng.uniform(1.1, 4), rng.uniform(1.1, 4))
            c, S = float(rng.uniform(-2, 2)), float(rng.uniform(-6, 6))
            # (batched call, per-sample calls, classify_samples Ricci choice)
            cases = [
                (residual(batch, params),
                 [residual(s, params) for s in samples], {}),
                (residual_spaceform(batch, params, c),
                 [residual_spaceform(s, params, c) for s in samples], {"c": c}),
                (residual_einstein(batch, params, S, m),
                 [residual_einstein(s, params, S, m) for s in samples], {"S": S}),
            ]
            for (eq1, eq2), per_sample, ambient in cases:
                assert eq1.shape == (6,) and eq2.shape == (6, m)
                np.testing.assert_allclose(eq1, [e1 for e1, _ in per_sample],
                                           rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(eq2, [e2 for _, e2 in per_sample],
                                           rtol=1e-13, atol=1e-13)
                norms = [s.g_norm(e2) for s, (_, e2) in zip(samples, per_sample)]
                np.testing.assert_allclose(batch.g_norm(eq2), norms,
                                           rtol=1e-13, atol=1e-13)
                report = classify_samples(samples, params, **ambient)
                np.testing.assert_allclose(report.eq1, eq1, rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(report.eq2_norm, norms,
                                           rtol=1e-13, atol=1e-13)


def test_umbilic_f():
    assert umbilic_f(PQParams(2, 2), 2, 6.0) == pytest.approx(1.0)
    assert umbilic_f(PQParams(3, 2), 2, 0.0) is None
    assert umbilic_f(PQParams(3, 2), 2, -6.0) is None


def test_classify_plane_minimal():
    rep = classify(plane(), PQParams(2.5, 2.5))
    assert rep.classification is Classification.MINIMAL
    assert rep.max_abs_eq1 == 0.0 and rep.max_eq2_norm == 0.0


def test_classify_sphere_proper_and_not():
    ch = sphere_in_sphere(2, 0.5)
    rep = classify(ch, PQParams(2, 2.5), tol=1e-7)
    assert rep.classification is Classification.PROPER_PQ_HARMONIC
    rep = classify(ch, PQParams(2.5, 2.0))
    assert rep.classification is Classification.NOT_PQ_HARMONIC
    assert rep.max_abs_eq1 == pytest.approx(1.0, abs=1e-12)  # m(p-2)f^4


def test_classify_mixed_sign_f():
    # graph z = (u - 1)^3 has f = 0 along u = 1 inside the patch
    sf = SpaceForm(3, 0.0)
    ch = ImmersionChart(
        sf=sf, m=2, domain=((0.0, 2.0), (0.0, 1.0)),
        map=lambda w: np.stack([w[..., 0], w[..., 1], (w[..., 0] - 1.0) ** 3], axis=-1),
        name="inflected-graph")
    rep = classify(ch, PQParams(2, 2), n_per_axis=9, use_analytic=False)
    assert rep.classification is Classification.MIXED_SIGN_F


def test_grid_density_invariance_analytic():
    ch = sphere_in_sphere(2, 0.5)
    r1 = classify(ch, PQParams(2.5, 2), n_per_axis=4)
    r2 = classify(ch, PQParams(2.5, 2), n_per_axis=16)
    assert abs(r1.max_abs_eq1 - r2.max_abs_eq1) < 1e-12


def test_solve_p_sphere():
    assert solve_p(sphere_in_sphere(2, 0.5), 2.0, (1.2, 5.0)).p == pytest.approx(2.0, abs=1e-9)
    assert solve_p(sphere_in_sphere(2, 0.7), 3.0, (1.2, 5.0)).p == pytest.approx(10 / 3, abs=1e-9)


def test_solve_p_minimal_chart_fails_cleanly():
    result = solve_p(plane(), 2.0, (1.2, 5.0))
    assert not result.success
    assert result.p is None


def test_solve_p_no_root():
    # cone with fixed r is never (p, 2)-harmonic for p in the bracket
    with pytest.raises(NoRootInBracketError):
        solve_p(cone(0.5), 2.0, (1.5, 4.0))


@pytest.mark.parametrize("q", [2.5, 3.0, 3.4, 3.8])
def test_solve_p_analytic_cone(q):
    # the proper cone r = 1/sqrt(q(q-1)) has p = 2(1 - 1/q) exactly
    result = solve_p(cone(1 / math.sqrt(q * (q - 1))), q, (1.1, 8.0))
    assert result.success
    assert result.p == pytest.approx(2 * (1 - 1 / q), abs=1e-12)


def test_solve_p_root_outside_bracket():
    # the exact p = 2 of this sphere lies below the bracket
    with pytest.raises(NoRootInBracketError):
        solve_p(sphere_in_sphere(2, 0.5), 2.0, (2.5, 5.0))


def test_solve_param_pair_cone():
    result = solve_param_pair(lambda r: cone(r), 3.0, (0.3, 0.7), (0.5, 2.5))
    assert result.converged and result.admissible
    assert result.p == pytest.approx(4 / 3, abs=1e-9)
    assert result.theta == pytest.approx(1 / math.sqrt(6), abs=1e-9)
    assert result.iterations <= 100


def test_solve_param_pair_cone_q356():
    q = 3.56
    result = solve_param_pair(lambda r: cone(r), q, (0.3, 0.7), (0.5, 2.5))
    assert result.converged and result.admissible
    assert result.theta == pytest.approx(1 / math.sqrt(q * (q - 1)), abs=1e-9)
    assert result.p == pytest.approx(2 * (1 - 1 / q), abs=1e-9)


def test_solve_param_pair_p_outside_bracket():
    # the solution p = 1.4382 at q = 3.56 lies below this p bracket
    with pytest.raises(NoRootInBracketError):
        solve_param_pair(lambda r: cone(r), 3.56, (0.3, 0.7), (1.5, 2.5))


@pytest.mark.parametrize("q", [5.7, 6.0, 8.0])
def test_solve_param_pair_cone_large_q(q):
    # the root r = 1/sqrt(q(q-1)) < 0.2 lies below the bracket, where p(r) is
    # smaller; widening from the end of smaller |mean| ran off to r ~ 7.7e4
    calls = []

    def family(r):
        calls.append(r)
        return cone(r)

    result = solve_param_pair(family, q, (0.3, 0.7), (0.5, 2.5))
    assert result.converged and result.admissible
    assert result.theta == pytest.approx(1 / math.sqrt(q * (q - 1)), abs=1e-9)
    assert result.p == pytest.approx(2 * (1 - 1 / q), abs=1e-9)
    assert min(calls) > 0


def test_solve_param_pair_benchmark_brackets_do_not_widen():
    # roots inside (0.3, 0.7): the search never leaves the starting bracket
    for q in np.linspace(2.3, 3.0, 8):
        calls = []

        def family(r):
            calls.append(r)
            return cone(r)

        solve_param_pair(family, q, (0.3, 0.7), (0.5, 2.5))
        assert 0.3 <= min(calls) and max(calls) <= 0.7, q


@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 3.56])
def test_solve_param_pair_family_samplings(q):
    calls = []

    def family(r):
        calls.append(r)
        return cone(r)

    result = solve_param_pair(family, q, (0.3, 0.7), (0.5, 2.5))
    assert len(calls) <= 25  # post-verification included
    assert result.iterations <= len(calls)


@pytest.mark.parametrize("q", [0.5, 1.0, -3.0, math.nan, math.inf])
def test_solve_param_pair_rejects_bad_q(q):
    with pytest.raises(ValueError):
        solve_param_pair(lambda r: cone(r), q, (0.3, 0.7), (0.5, 2.5))


def test_solve_param_pair_cone_q2_inadmissible():
    result = solve_param_pair(lambda r: cone(r), 2.0, (0.3, 0.7), (0.5, 2.5))
    assert result.converged and not result.admissible
    assert result.p == pytest.approx(1.0, abs=1e-8)


def test_solve_param_pair_degenerate_family():
    # sphere family: tangential equation identically zero, any q gives p = 1/b^2
    result = solve_param_pair(lambda a2: sphere_in_sphere(2, a2), 2.5,
                              (0.55, 0.85), (2.0, 6.0))
    assert result.converged and result.admissible
    b2 = 1.0 - result.theta
    assert result.p == pytest.approx(1.0 / b2, abs=1e-8)


def test_solve_param_pair_minimal_family():
    # p = -mean(a1)/mean(s1) would be 0/0 on a family of planes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoRootInBracketError, match="minimal"):
            solve_param_pair(lambda r: plane(), 3.0, (0.3, 0.7), (0.5, 2.5))
