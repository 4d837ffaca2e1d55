import math
from dataclasses import replace

import numpy as np
import pytest

from pqharmonic import (CurveChart, PQParams, circle, cli, curve_system_residual,
                        frenet, helix, numeric, p_closed_form, reparametrize_arclength)
from pqharmonic.curves import FrenetApparatus
from pqharmonic.errors import DomainError, FrameUndefinedError, SingularFactorError
from pqharmonic.spaceform import SpaceForm

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


def test_helix_rescaling():
    hr = helix(math.pi / 4, 2.0, 0.7)  # violates the unit-speed constraint
    assert hr.rescaled
    ca2, sa2 = 0.5, 0.5
    assert hr.a ** 2 * ca2 + hr.b ** 2 * sa2 == pytest.approx(1.0, abs=1e-12)


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
    curve = CurveChart(sf=sf, domain=(0.0, 2 * math.pi), unit_speed=True,
                       map=lambda t: np.stack([np.cos(t), np.sin(t), 0.0 * t, 0.0 * t], axis=-1))
    with pytest.raises(FrameUndefinedError):
        frenet(curve, 1.0)


def test_frenet_equations_hold_on_helix():
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    curve, sf = hr.curve, hr.curve.sf
    h = curve.frame_step()
    rng = np.random.default_rng(3)
    lo, hi = curve.domain
    for t in rng.uniform(lo + 0.1, hi - 0.1, 8):
        fr = frenet(curve, float(t))
        # nabla_T of each frame field: the deriv1 stencil over the frames at
        # t +- h and t +- 2h, projected onto the tangent space at t
        dT, dN, dB = (sf.tangent_project(
            curve.map(float(t)),
            numeric.deriv1(lambda s: getattr(frenet(curve, s), field), float(t), h))
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
    curve = helix(math.pi / 4, SQ7 / 2, 0.5).curve
    calls = []

    def counted(t):
        calls.append(np.array(t, dtype=float))
        return curve.map(t)

    frenet(replace(curve, map=counted), 1.7)
    assert len(calls) == 1 and calls[0].shape == (17,)
    rows = calls[0]
    assert len(rows) == 17 and len(set(rows.tolist())) == 17


def test_curve_maps_act_over_the_last_axis(tmp_path, monkeypatch):
    path = tmp_path / "curve.txt"
    path.write_text(HELIX_FILE)
    arclength = cli.load_chart_file(str(path))
    monkeypatch.setattr(cli.crv, "reparametrize_arclength", lambda curve: curve)
    raw = cli.load_chart_file(str(path))
    assert arclength.map is not raw.map
    for curve in (helix(math.pi / 4, SQ7 / 2, 0.5).curve, circle(1.3), raw, arclength):
        lo, hi = curve.domain
        ts = lo + (hi - lo) * np.linspace(0.05, 0.95, 9)
        batch = curve.map(ts)
        assert batch.shape == (9, curve.sf.ambient_dim), curve.name
        assert np.array_equal(batch, np.stack([curve.map(float(t)) for t in ts])), curve.name


def test_arclength_newton_stops_each_s_at_its_tolerance():
    # on the circle traced as t + 0.3 t^2 the Newton step count varies with s;
    # a batch must cost the raw map rows its points cost one at a time
    rows = []

    def gamma(t):
        rows.append(np.size(t))
        phi = t + 0.3 * t * t
        return np.stack([np.cos(phi), np.sin(phi), 0.0 * t], axis=-1)

    out = reparametrize_arclength(CurveChart(sf=SpaceForm(3, 0.0), domain=(0.0, 2.0),
                                             map=gamma))
    # s = 0 and the full length are coarse nodes: one step; the others take two
    ss = out.domain[1] * np.linspace(0.0, 1.0, 9)
    rows.clear()
    batch = out.map(ss)
    batch_rows = sum(rows)
    rows.clear()
    single = np.stack([out.map(float(s)) for s in ss])
    assert batch_rows == sum(rows)
    assert np.array_equal(batch, single)


def test_reparametrize_identity_on_unit_speed():
    c = circle(1.0)
    assert reparametrize_arclength(c) is not c  # frozen replace, same map
    out = reparametrize_arclength(c)
    assert out.unit_speed
    for t in (0.5, 2.0):
        assert np.allclose(out.map(t), c.map(t), atol=1e-10)


def test_reparametrize_nonunit_circle():
    rho = 2.0
    sf = SpaceForm(3, 0.0)
    raw = CurveChart(sf=sf, domain=(0.0, 2 * math.pi),
                     map=lambda t: np.stack([rho * np.cos(t), rho * np.sin(t), 0.0 * t], axis=-1))
    out = reparametrize_arclength(raw)
    assert out.unit_speed
    assert out.domain[1] == pytest.approx(2 * math.pi * rho, abs=1e-8)
    for s in (1.0, 4.0, 9.0):
        v = (out.map(s + 1e-4) - out.map(s - 1e-4)) / 2e-4
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)


def test_curve_system_constant_apparatus():
    dims = dict(k_prime=0.0, k_second=0.0, tau_prime=0.0,
                T=np.zeros(3), N=np.zeros(3), B=np.zeros(3))
    fr = FrenetApparatus(k=1.0, tau=0.0, **dims)
    assert curve_system_residual(fr, PQParams(2, 2.7), 1.0) == (0.0, 0.0, 0.0)
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
