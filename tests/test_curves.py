import math
from dataclasses import fields, replace

import numpy as np
import pytest

from pqharmonic import (CurveChart, DiscretizedCurve, PQParams, circle, cli,
                        curve_system_residual, energy_pq, first_variation_check, frenet,
                        helix, p_closed_form, random_bump_field, tension_pq_curve)
from pqharmonic import curves
from pqharmonic.curves import FrenetApparatus
from pqharmonic.errors import (DomainError, FrameUndefinedError, ModelConstraintError,
                               SingularFactorError, SingularSpeedError)
from pqharmonic.spaceform import SpaceForm
from nested_stencils import deriv1

SQ7 = math.sqrt(7.0)

# the helix(pi/4, sqrt(7)/2, 1/2) of S^3 traced at constant speed 1.6
HELIX_FILE = """\
type: curve
c: 1
t: 0, 2*pi/1.6
x1: cos(pi/4)*cos(1.6*sqrt(7)/2*t)
x2: cos(pi/4)*sin(1.6*sqrt(7)/2*t)
x3: sin(pi/4)*cos(0.8*t)
x4: sin(pi/4)*sin(0.8*t)
"""

# the circle of radius 0.8 in H^3: k = coth(0.8), tau = 0
H3_CIRCLE_FILE = """\
type: curve
c: -1
t: 0, 2*pi
x1: sinh(0.8)*cos(t)
x2: sinh(0.8)*sin(t)
x3: 0
x4: cosh(0.8)
"""


def test_circle_frenet():
    fr = frenet(circle(1.0), 2.0)
    assert fr.k == pytest.approx(1.0, abs=1e-8)
    assert fr.tau == pytest.approx(0.0, abs=1e-8)
    assert abs(fr.k_prime) < 1e-7 and abs(fr.tau_prime) < 1e-6


def test_circle_radius_scaling():
    fr = frenet(circle(2.5), 3.0)
    assert fr.k == pytest.approx(1 / 2.5, abs=1e-8)


def test_helix_frenet_closed_form():
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    assert not hr.rescaled
    assert hr.k == pytest.approx(0.75)
    assert hr.tau == pytest.approx(SQ7 / 4)
    assert hr.p == pytest.approx(2.0)
    assert hr.admissible
    fr = frenet(hr.curve, 1.7)
    assert fr.k == pytest.approx(0.75, abs=1e-8)
    assert fr.tau == pytest.approx(SQ7 / 4, abs=1e-8)


def _retraced(curve, speed):
    """``curve`` traced at ``speed`` times its own speed."""
    return CurveChart(sf=curve.sf, domain=(0.0, curve.domain[1] / speed),
                      map=lambda t: curve.map(speed * t), name="retraced")


def test_frenet_at_constant_non_unit_speed():
    fr = frenet(_retraced(circle(2.0), 1.5), np.linspace(0.3, 8.0, 7))
    assert np.allclose(fr.k, 0.5, atol=1e-8) and np.allclose(fr.tau, 0.0, atol=1e-8)
    fr = frenet(_retraced(helix(math.pi / 4, SQ7 / 2, 0.5).curve, 1.7), np.linspace(0.3, 3.3, 7))
    assert np.allclose(fr.k, 0.75, atol=1e-8) and np.allclose(fr.tau, SQ7 / 4, atol=1e-8)


def _elliptic_helix_closed_forms(t, a, b, c):
    """k, tau, k', tau' (by arc length) and the speed of t -> (a cos t, b sin t, c t)."""
    s, co = np.sin(t), np.cos(t)
    S, dS = a * a * s * s + b * b * co * co + c * c, 2 * s * co * (a * a - b * b)
    C = b * b * c * c * s * s + a * a * c * c * co * co + a * a * b * b   # |g' x g''|^2
    dC = 2 * s * co * (b * b - a * a) * c * c
    k, tau = np.sqrt(C) / S ** 1.5, a * b * c / C
    return k, tau, k * (dC / (2 * C) - 1.5 * dS / S) / np.sqrt(S), \
        -a * b * c * dC / (C * C * np.sqrt(S)), np.sqrt(S)


def test_frenet_of_a_raw_elliptic_helix_matches_its_closed_forms():
    # (2 cos t, sin t, t/2) has speed between 1.1 and 2.1, and k, tau vary
    a, b, c = 2.0, 1.0, 0.5
    raw = CurveChart(sf=SpaceForm(3, 0.0), domain=(0.0, 2 * math.pi),
                     map=lambda t: np.stack([a * np.cos(t), b * np.sin(t), c * t], axis=-1))
    ts = np.linspace(0.3, 6.0, 12)
    fr = frenet(raw, ts)
    k, tau, k_prime, tau_prime, speed = _elliptic_helix_closed_forms(ts, a, b, c)
    # k'' = d/ds k', by the deriv1 stencil of the closed form at a small step
    k_second = deriv1(lambda t: _elliptic_helix_closed_forms(t, a, b, c)[2], ts, 1e-3) / speed
    for got, want, bound in ((fr.k, k, 1e-6), (fr.tau, tau, 1e-6), (fr.k_prime, k_prime, 1e-6),
                             (fr.k_second, k_second, 1e-5), (fr.tau_prime, tau_prime, 1e-5)):
        assert np.max(np.abs(got - want)) < bound


def _torus_curve_closed_forms(t, a, b):
    """k and tau of t -> (a cos u, a sin u, b cos v, b sin v) in S^3, with
    u = 1.3 (t + 0.2 t^2) and v = 0.7 t, from its Darboux frame on the flat
    torus: the geodesic curvature kg of the plane curve (a u, b v), the normal
    curvature kn = ab (v'^2 - u'^2)/S and the geodesic torsion u'v'/S, where
    S = |gamma'|^2, give k^2 = kg^2 + kn^2 and tau = u'v'/S + d/ds atan(kn/kg)."""
    du, ddu, dv = 1.3 * (1.0 + 0.4 * t), 0.52, 0.7
    S = a * a * du * du + b * b * dv * dv
    dS = 2.0 * a * a * du * ddu
    kg, kn = -a * b * dv * ddu / S ** 1.5, a * b * (dv * dv - du * du) / S
    dkg = 1.5 * a * b * dv * ddu * dS / S ** 2.5
    dkn = a * b * (-2.0 * du * ddu * S - (dv * dv - du * du) * dS) / (S * S)
    k2 = kg * kg + kn * kn
    return np.sqrt(k2), du * dv / S + (kg * dkn - kn * dkg) / (k2 * np.sqrt(S))


def test_series_frames_of_s3_curves_match_their_closed_forms():
    # the helix at speed 1 + 0.4 t: constant k and tau, so k' = k'' = tau' = 0
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    retimed = CurveChart(sf=hr.curve.sf, domain=(0.0, 4.0),
                         map=lambda t: hr.curve.map(t + 0.2 * t * t))
    fr = frenet(retimed, np.linspace(0.2, 3.8, 13))
    assert np.max(np.abs(fr.k - hr.k)) < 1e-10 and np.max(np.abs(fr.tau - hr.tau)) < 1e-10
    assert max(np.max(np.abs(x)) for x in (fr.k_prime, fr.k_second, fr.tau_prime)) < 1e-10
    # a curve on the torus of radii (cos 0.7, sin 0.7) whose k and tau vary
    a, b = math.cos(0.7), math.sin(0.7)
    u, v = (lambda t: 1.3 * (t + 0.2 * t * t)), (lambda t: 0.7 * t)
    raw = CurveChart(sf=SpaceForm(3, 1.0), domain=(0.0, 3.0),
                     map=lambda t: np.stack([a * np.cos(u(t)), a * np.sin(u(t)),
                                             b * np.cos(v(t)), b * np.sin(v(t))], axis=-1))
    ts = np.linspace(0.2, 2.8, 13)
    fr = frenet(raw, ts)
    k, tau = _torus_curve_closed_forms(ts, a, b)
    assert np.max(np.abs(fr.k - k)) < 1e-10 and np.max(np.abs(fr.tau - tau)) < 1e-10


def test_frenet_of_no_nodes_is_empty():
    # a map that takes Taylor series, and one that takes only arrays
    for curve in (helix(math.pi / 4, SQ7 / 2, 0.5).curve, _retraced(circle(2.0), 1.5)):
        fr = frenet(curve, np.array([]))
        dim = curve.sf.ambient_dim
        for fd in fields(FrenetApparatus):
            want = (0, dim) if fd.name in "TNB" else (0,)
            assert getattr(fr, fd.name).shape == want, (curve.name, fd.name)


def test_frenet_refuses_a_vanishing_speed():
    cusp = CurveChart(sf=SpaceForm(3, 0.0), domain=(-1.0, 1.0),
                      map=lambda t: np.stack([t * t, t ** 3, 0.0 * t], axis=-1))
    with pytest.raises(SingularSpeedError, match=r"^curve speed 0\.000e\+00 at or below 1e-10 "):
        frenet(cusp, 0.0)
    assert np.all(np.isfinite(frenet(cusp, 0.5).T))


def test_frenet_refuses_a_curve_off_the_model():
    off = CurveChart(sf=SpaceForm(3, 1.0), domain=(0.0, 1.0),
                     map=lambda t: np.stack([t, t, 0.0 * t, 1.0 + 0.0 * t], axis=-1))
    with pytest.raises(ModelConstraintError, match="off the SphereEmbedded model"):
        frenet(off, 0.5)


def test_helix_rescaling():
    hr = helix(math.pi / 4, 2.0, 0.7)  # violates the unit-speed constraint
    assert hr.rescaled
    ca2, sa2 = 0.5, 0.5
    assert hr.a ** 2 * ca2 + hr.b ** 2 * sa2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("domain", [(2 * math.pi, 0.0), (1.0, 1.0), (0.0, math.inf)])
def test_a_curve_domain_needs_finite_lo_below_hi(domain):
    with pytest.raises(ValueError, match=r"^reversed: domain interval .* needs finite lo < hi$"):
        CurveChart(sf=SpaceForm(3, 0.0), domain=domain, map=circle().map, name="reversed")


def test_helix_domain_errors():
    with pytest.raises(DomainError):
        helix(0.0, SQ7 / 2, 0.5)
    with pytest.raises(DomainError):
        helix(math.pi / 2, SQ7 / 2, 0.5)
    with pytest.raises(DomainError):
        helix(math.pi / 4, 0.5, 0.5)  # needs a > b
    with pytest.raises(DomainError):
        helix(math.pi / 4, 1.0, -0.2)


def test_great_circle_frame_undefined():
    sf = SpaceForm(3, 1.0)
    curve = CurveChart(sf=sf, domain=(0.0, 2 * math.pi),
                       map=lambda t: np.stack([np.cos(t), np.sin(t), 0.0 * t, 0.0 * t], axis=-1))
    with pytest.raises(FrameUndefinedError):
        frenet(curve, 1.0)


def test_frenet_equations_hold_on_helix():
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    curve, sf = hr.curve, hr.curve.sf
    h = 1e-3 * curve.width
    rng = np.random.default_rng(3)
    lo, hi = curve.domain
    for t in rng.uniform(lo + 0.1, hi - 0.1, 8):
        fr = frenet(curve, float(t))
        # nabla_T of each frame field: the deriv1 stencil over the frames at
        # t +- h and t +- 2h, projected onto the tangent space at t
        dT, dN, dB = (sf.tangent_project(
            curve.map(float(t)),
            deriv1(lambda s: getattr(frenet(curve, s), field), float(t), h))
            for field in "TNB")
        assert np.allclose(dT, fr.k * fr.N, atol=1e-6)
        assert np.allclose(dN, -fr.k * fr.T + fr.tau * fr.B, atol=1e-6)
        assert np.allclose(dB, -fr.tau * fr.N, atol=1e-6)


@pytest.mark.parametrize("text, k, tau", [(HELIX_FILE, 0.75, SQ7 / 4),
                                          (H3_CIRCLE_FILE, 1 / math.tanh(0.8), 0.0)])
def test_chart_file_frenet_pinned(tmp_path, text, k, tau):
    path = tmp_path / "curve.txt"
    path.write_text(text)
    curve = cli.load_chart_file(str(path))
    lo, hi = curve.domain
    for t in (lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)):
        fr = frenet(curve, t)
        assert fr.k == pytest.approx(k, abs=1e-8)
        assert fr.tau == pytest.approx(tau, abs=1e-8)
        assert max(abs(fr.k_prime), abs(fr.k_second), abs(fr.tau_prime)) < 1e-6


def test_frenet_samples_the_lattice_once():
    # the helix map takes one Taylor series: the coefficients of t + s at 1.7
    curve = helix(math.pi / 4, SQ7 / 2, 0.5).curve
    calls = []

    def counted(t):
        calls.append(np.array(t, dtype=float))
        return curve.map(t)

    frenet(replace(curve, map=counted), 1.7)
    assert len(calls) == 1 and calls[0].shape == (5, 1)
    assert calls[0][:, 0].tolist() == [1.7, 1.0, 0.0, 0.0, 0.0]


def test_a_map_without_series_is_refused():
    # np.asarray of a series is its coefficients, so arrays_only returns an
    # array, and t.shape fails on a series: no curve kernel takes either map,
    # and the error says what the map must take
    curve = helix(math.pi / 4, SQ7 / 2, 0.5).curve

    def arrays_only(t):
        return curve.map(np.asarray(t, dtype=float))

    def preallocating(t):
        X = np.empty(t.shape + (4,))
        X[..., 0], X[..., 1], X[..., 2], X[..., 3] = (curve.map(t)[..., i] for i in range(4))
        return X

    params = PQParams(3, 2)
    for fn in (arrays_only, preallocating):
        bad = replace(curve, map=fn, name=fn.__name__)
        dc = DiscretizedCurve(curve=bad, K=32)
        field = random_bump_field(bad, np.random.default_rng(0), amplitude=0.5)
        for call in (lambda: frenet(bad, np.linspace(0.5, 5.5, 7)), lambda: energy_pq(dc, params),
                     lambda: tension_pq_curve(bad, 1.7, params),
                     lambda: first_variation_check(dc, field, params)):
            with pytest.raises(DomainError, match=rf"^{fn.__name__}: the curve map must take "
                                                  r"a Taylor series of t \(jets.Taylor\)"):
                call()


def _batch_cases(tmp_path):
    yield helix(math.pi / 4, SQ7 / 2, 0.5).curve
    yield circle(1.3)
    for name, text in (("helix.txt", HELIX_FILE), ("h3-circle.txt", H3_CIRCLE_FILE)):
        path = tmp_path / name
        path.write_text(text)
        yield cli.load_chart_file(str(path))


def test_frenet_over_an_array_matches_each_point(tmp_path):
    for curve in _batch_cases(tmp_path):
        lo, hi = curve.domain
        ts = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 11)
        batch = frenet(curve, ts)
        singles = [frenet(curve, float(t)) for t in ts]
        for fd in fields(FrenetApparatus):
            stacked = np.stack([getattr(fr, fd.name) for fr in singles])
            assert np.array_equal(getattr(batch, fd.name), stacked), (curve.name, fd.name)


def test_frenet_calls_the_map_once_per_frame_points_nodes(monkeypatch):
    curve = helix(math.pi / 4, SQ7 / 2, 0.5).curve
    calls = []

    def counted(t):
        calls.append(np.asarray(t, dtype=float).shape)     # 5 coefficients per node
        return curve.map(t)

    fr = frenet(replace(curve, map=counted), np.linspace(0.5, 5.5, 32))
    assert calls == [(5, 32)]
    assert fr.k.shape == (32,) and fr.T.shape == (32, 4)

    ts = np.linspace(0.5, 5.5, 10)
    whole = frenet(curve, ts)
    monkeypatch.setattr(curves, "FRAME_POINTS", 4)
    calls.clear()
    fr = frenet(replace(curve, map=counted), ts)
    assert calls == [(5, 4), (5, 4), (5, 2)]
    for fd in fields(FrenetApparatus):
        assert np.array_equal(getattr(fr, fd.name), getattr(whole, fd.name)), fd.name


def test_frenet_over_an_array_marks_undefined_frames_nan():
    sf = SpaceForm(3, 1.0)
    curve = CurveChart(sf=sf, domain=(0.0, 2 * math.pi),
                       map=lambda t: np.stack([np.cos(t), np.sin(t), 0.0 * t, 0.0 * t], axis=-1))
    fr = frenet(curve, np.array([1.0, 2.0]))
    for fd in fields(FrenetApparatus):
        assert np.all(np.isnan(getattr(fr, fd.name))), fd.name
    assert all(np.isnan(r).all() for r in curve_system_residual(fr, PQParams(2, 2), 1.0))


def test_curve_maps_act_over_the_last_axis(tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text(HELIX_FILE)
    raw = cli.load_chart_file(str(path))
    for curve in (helix(math.pi / 4, SQ7 / 2, 0.5).curve, circle(1.3), raw):
        lo, hi = curve.domain
        ts = lo + (hi - lo) * np.linspace(0.05, 0.95, 9)
        batch = curve.map(ts)
        assert batch.shape == (9, curve.sf.ambient_dim), curve.name
        assert np.array_equal(batch, np.stack([curve.map(float(t)) for t in ts])), curve.name


def test_curve_system_constant_apparatus():
    dims = dict(k_prime=0.0, k_second=0.0, tau_prime=0.0,
                T=np.zeros(3), N=np.zeros(3), B=np.zeros(3))
    fr = FrenetApparatus(k=1.0, tau=0.0, **dims)
    assert curve_system_residual(fr, PQParams(2, 2.7), 1.0) == (0.0, 0.0, 0.0)
    # r1 = (1 - pq) k^(q-1) k' is +0, not -0, where k' = 0, so reports print 0
    assert not np.signbit(curve_system_residual(fr, PQParams(2, 2.7), 1.0)[0])
    r1, r2, r3 = curve_system_residual(fr, PQParams(2, 2), 0.0)
    assert (r1, r3) == (0.0, 0.0)
    assert r2 == pytest.approx(-1.0)


def test_curve_system_singular_k_guard():
    dims = dict(k_prime=0.0, k_second=0.0, tau_prime=0.0,
                T=np.zeros(3), N=np.zeros(3), B=np.zeros(3))
    fr = FrenetApparatus(k=1e-12, tau=0.0, **dims)
    with pytest.raises(SingularFactorError):
        curve_system_residual(fr, PQParams(2, 2.5), 1.0)


def test_helix_sys_residuals_vanish():
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    params = PQParams(2, 2)
    for t in np.linspace(0.5, 5.5, 7):
        fr = frenet(hr.curve, float(t))
        r = curve_system_residual(fr, params, 1.0)
        assert max(abs(x) for x in r) < 1e-6


def test_p_closed_form():
    p, ok = p_closed_form(1.0, 0.0, 1.0)
    assert p == 2.0 and ok
    p, ok = p_closed_form(0.75, SQ7 / 4, 1.0)
    assert p == pytest.approx(2.0, abs=1e-12) and ok
    p, ok = p_closed_form(1.3, 0.7, 0.0)
    assert p < 1 and not ok
    with pytest.raises(ValueError):
        p_closed_form(0.0, 0.0, 1.0)


def test_theorem_parameter_is_unique_root():
    # constant-(k, tau) curves solve SYS exactly at p_closed_form and only there
    dims = dict(k_prime=0.0, k_second=0.0, tau_prime=0.0,
                T=np.zeros(3), N=np.zeros(3), B=np.zeros(3))
    fr = FrenetApparatus(k=0.6, tau=0.4, **dims)
    p_star, ok = p_closed_form(0.6, 0.4, 1.0)
    assert ok
    r = curve_system_residual(fr, PQParams(p_star, 2.3), 1.0)
    assert max(abs(x) for x in r) < 1e-10
    r_off = curve_system_residual(fr, PQParams(p_star + 0.01, 2.3), 1.0)
    assert abs(r_off[1]) > 1e-3


@pytest.mark.parametrize("curve", [
    helix(math.pi / 4, SQ7 / 2, 0.5).curve, helix(0.6, 1.3, 0.5).curve, circle(1.0), circle(2.5),
], ids=["helix-sq7", "helix-1.3", "circle-1", "circle-2.5"])
def test_curve_residual_squares_are_the_float_power_squares_bit_for_bit(curve):
    # the residual squares k' and tau by products; float_power(x, 2.0) is the
    # form they replaced, and the residual keeps its bits at every node
    fr = frenet(curve, np.linspace(*curve.domain, 41)[1:-1])
    k, kp, ks, tau, taup, c = fr.k, fr.k_prime, fr.k_second, fr.tau, fr.tau_prime, curve.sf.c
    for p, q in ((2.0, 2.0), (2.5, 3.0), (1.5, 2.5)):
        km3, km2, km1, kp1 = (np.float_power(k, e) for e in (q - 3, q - 2, q - 1, q + 1))
        want = ((1.0 - p * q) * km1 * kp + 0.0,
                c * km1 + (q - 1) * (q - 2) * km3 * np.float_power(kp, 2.0)
                + (q - 1) * km2 * ks - kp1 - km1 * np.float_power(tau, 2.0) - (p - 2) * kp1,
                2 * (q - 1) * km2 * kp * tau + km1 * taup)
        got = curve_system_residual(fr, PQParams(p, q), c)
        for r, w in zip(got, want):
            assert np.asarray(r).tobytes() == np.asarray(w).tobytes(), (p, q)
