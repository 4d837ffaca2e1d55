import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pqharmonic import (Classification, PQParams, classify, coefficients,
                        cone, geometric_sample, plane, residual, sample_grid, solve_p,
                        solve_param_pair, sphere_in_sphere, umbilic_f)
from pqharmonic.cli import load_chart_file
from pqharmonic.errors import NoRootInBracketError, NonConvergenceError
from pqharmonic.immersion import GeometricSample, ImmersionChart, _row
from pqharmonic.residual import (MAX_FAMILY_SAMPLES, _affine_in_p, _ricci, _system,
                                 classify_samples)
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
        e1a, e2a = residual(s, params, c=c)
        e1b, e2b = residual(s, params, S=m * (m + 1) * c)
        assert e1a == pytest.approx(e1b, rel=1e-13, abs=1e-13)
        assert np.allclose(e2a, e2b, atol=1e-13)


def _random_batch(rng, m, with_g, n):
    g = None
    if with_g:
        a = rng.standard_normal((n, m, m))
        g = a @ np.swapaxes(a, 1, 2) + m * np.eye(m)
    return GeometricSample(m=m, f=rng.uniform(-2, 2, n),
                           grad_f=rng.standard_normal((n, m)),
                           grad_f_norm2=rng.uniform(0, 2, n),
                           laplacian_f=rng.uniform(-2, 2, n),
                           normA2=rng.uniform(0, 4, n),
                           A_grad_f=rng.standard_normal((n, m)),
                           ric_eta_eta=rng.uniform(-3, 3, n),
                           ricci_eta_top=rng.standard_normal((n, m)), g=g)


def test_batched_kernel_matches_per_sample():
    rng = np.random.default_rng(11)
    for m in range(1, 5):
        for with_g in (False, True):
            batch = _random_batch(rng, m, with_g, 6)
            samples = [_row(batch, i) for i in range(6)]
            params = PQParams(rng.uniform(1.1, 4), rng.uniform(1.1, 4))
            c, S = float(rng.uniform(-2, 2)), float(rng.uniform(-6, 6))
            # (batched call, per-sample calls, classify_samples Ricci choice)
            cases = [
                (residual(batch, params),
                 [residual(s, params) for s in samples], {}),
                (residual(batch, params, c=c),
                 [residual(s, params, c=c) for s in samples], {"c": c}),
                (residual(batch, params, S=S),
                 [residual(s, params, S=S) for s in samples], {"S": S}),
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
                report = classify_samples(batch, params, **ambient)
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


def test_solve_param_pair_stops_at_max_family_samples():
    # a family that does not depend on r keeps one sign at both ends, so the
    # bracket widens until MAX_FAMILY_SAMPLES family calls are spent
    calls = []

    def family(r):
        calls.append(r)
        return cone(0.5)

    with pytest.raises(NonConvergenceError, match="in 100 evaluations"):
        solve_param_pair(family, 3.0, (0.3, 0.7), (0.5, 2.5))
    assert len(calls) == MAX_FAMILY_SAMPLES == 100


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


def _cone_solves(qs):
    """(q, result, family calls) of the cone pair solve at each q."""
    for q in qs:
        calls = []

        def family(r):
            calls.append(r)
            return cone(r)

        yield q, solve_param_pair(family, float(q), (0.3, 0.7), (0.5, 2.5)), len(calls)


def test_solve_param_pair_recovers_the_cone_pair_to_rounding():
    # (p, r) = (2(1 - 1/q), 1/sqrt(q(q-1))); q = 2 gives the inadmissible p = 1
    for q, result, _ in _cone_solves(np.arange(2.0, 12.0 + 1e-9, 0.05)):
        assert result.converged and result.admissible == (q > 2.0 + 1e-9), q
        assert abs(result.p - 2 * (1 - 1 / q)) <= 1e-12, q
        assert abs(result.theta - 1 / math.sqrt(q * (q - 1))) <= 1e-12, q


def test_solve_param_pair_counts_every_family_call():
    # post-verification reuses the last sampling; the rounding stop takes
    # the total to 1,662 calls (2,115 without it and with a resampling check)
    total = 0
    for q, result, calls in _cone_solves(np.linspace(2.3, 3.0, 141)):
        assert calls == result.iterations, q
        total += calls
    assert total <= 1750


def _h3_sphere_file(tmp_path):
    path = tmp_path / "h3.txt"
    path.write_text("type: hypersurface\nc: -1\nu: 0.45, 2.65\nv: 0, 2*pi\n"
                    "x1: sinh(0.8)*sin(u)*cos(v)\nx2: sinh(0.8)*sin(u)*sin(v)\n"
                    "x3: sinh(0.8)*cos(u)\nx4: cosh(0.8)\n")
    return load_chart_file(str(path))


@pytest.mark.parametrize("make, use_analytic", [
    (lambda tmp_path: cone(0.45), True),
    (lambda tmp_path: sphere_in_sphere(2, 0.4), True),
    (lambda tmp_path: sphere_in_sphere(3, 0.55), True),
    (_h3_sphere_file, False),
], ids=["cone", "sphere2", "sphere3", "file-h3-sphere"])
def test_affine_in_p_slopes_reproduce_the_system_at_p1(make, use_analytic, tmp_path):
    ch = make(tmp_path)
    batch = geometric_sample(ch, sample_grid(ch, 6), use_analytic=use_analytic)
    for q in (1.5, 2.0, 3.7):
        (a1, s1), (a2, s2) = _affine_in_p(batch, q, ch.sf.c)
        e1, e2 = _system(batch, 1.0, q, *_ricci(batch, ch.sf.c))
        for affine, direct in ((a1 + s1, e1), (a2 + s2, e2)):
            scale = max(np.max(np.abs(direct)), np.max(np.abs(affine)))
            assert np.max(np.abs(affine - direct)) <= 1e-14 * scale, (ch.name, q)


@pytest.mark.parametrize("make, n", [
    (lambda: sphere_in_sphere(4, 0.6), 8),
    (lambda: sphere_in_sphere(4, 0.6).flipped(), 8),
    (lambda: cone(0.45), 64),
], ids=["sphere4", "sphere4-flipped", "cone"])
def test_system_gives_a_point_the_same_bits_alone_as_in_a_4096_point_batch(make, n):
    # products, not numpy's power loop, take f^4: a one-point call and a
    # 4,096-point call round it the same (the m = 4 sphere has f < 0)
    ch = make()
    batch = geometric_sample(ch, sample_grid(ch, n))
    assert len(batch.f) == 4096
    c = ch.sf.c
    eq1, eq2 = _system(batch, 2.5, 2.5, *_ricci(batch, c))
    (a1, s1), (a2, s2) = _affine_in_p(batch, 2.5, c)
    for i in list(range(0, 4096, 61)) + [4095]:
        one = _row(batch, i)
        one_eq1, one_eq2 = _system(one, 2.5, 2.5, *_ricci(one, c))
        (b1, t1), (b2, t2) = _affine_in_p(one, 2.5, c)
        assert one_eq1 == eq1[i] and np.array_equal(one_eq2, eq2[i]), i
        assert (b1, t1) == (a1[i], s1[i]), i
        assert np.array_equal(b2, a2[i]) and np.array_equal(t2, s2[i]), i
