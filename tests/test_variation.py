import importlib.util
import math
import pathlib

import numpy as np
import pytest

from pqharmonic import (CurveChart, DiscretizedCurve, PQParams, circle,
                        bump_normal_field, curve_system_residual, energy_pq,
                        first_variation_check, frenet, helix,
                        random_bump_field, tension_p, tension_pq_curve)
from pqharmonic import variation
from pqharmonic.errors import DomainError, SingularFactorError, SingularSpeedError
from pqharmonic.spaceform import SpaceForm
from pqharmonic.variation import VariationField, varied_curve

SQ7 = math.sqrt(7.0)


def _line(speed=1.0):
    sf = SpaceForm(3, 0.0)
    return CurveChart(sf=sf, domain=(0.0, 4.0),
                      map=lambda t: np.stack([speed * t, 0.0 * t + 1.0, 0.0 * t + 2.0], axis=-1),
                      unit_speed=(speed == 1.0), name="line")


def test_tension_p_unit_speed_norm_is_k():
    c = circle(1.0)
    for p in (2.0, 3.0, 1.5):
        tp = tension_p(c, 2.0, p)
        assert np.linalg.norm(tp) == pytest.approx(1.0, abs=1e-8)


def test_tension_p_line_vanishes():
    for p in (2.0, 3.0):
        assert np.linalg.norm(tension_p(_line(2.0), 1.0, p)) < 1e-10


def test_tension_p_speedy_circle():
    # circle radius rho at speed s: |tau_p| = s^(p-2) * s^2 / rho
    rho, s = 2.0, 1.5
    sf = SpaceForm(3, 0.0)
    curve = CurveChart(sf=sf, domain=(0.0, 2 * math.pi * rho / s),
                       map=lambda t: np.stack([rho * np.cos(s * t / rho),
                                               rho * np.sin(s * t / rho), 0.0 * t], axis=-1))
    for p in (2.0, 3.0):
        tp = tension_p(curve, 1.0, p)
        assert np.linalg.norm(tp) == pytest.approx(s ** (p - 2) * s * s / rho, abs=1e-6)


def test_energy_circle_closed_forms():
    dc = DiscretizedCurve(curve=circle(1.0), K=256)
    assert energy_pq(dc, PQParams(2, 2)) == pytest.approx(math.pi, abs=1e-8)
    rho = 2.0
    dc2 = DiscretizedCurve(curve=circle(rho), K=256)
    # (1/q) rho^(1-q) 2 pi for a unit-speed circle of radius rho
    assert energy_pq(dc2, PQParams(2, 3)) == pytest.approx(
        (1 / 3) * rho ** (1 - 3) * 2 * math.pi, abs=1e-8)


def test_energy_geodesic_zero():
    dc = DiscretizedCurve(curve=_line(), K=32)
    assert energy_pq(dc, PQParams(2, 2)) == pytest.approx(0.0, abs=1e-20)


def test_energy_quadrature_convergence():
    e1 = energy_pq(DiscretizedCurve(curve=circle(1.3), K=256), PQParams(2.5, 2.5))
    e2 = energy_pq(DiscretizedCurve(curve=circle(1.3), K=512), PQParams(2.5, 2.5))
    assert abs(e1 - e2) <= 1e-8


def test_discretized_curve_guards():
    with pytest.raises(ValueError):
        DiscretizedCurve(curve=circle(1.0), K=15)
    with pytest.raises(ValueError):
        DiscretizedCurve(curve=circle(1.0), K=8)


def test_tension_pq_matches_frenet_system():
    # tau_pq of a constant-(k,tau) curve equals -(r1 T + r2 N + r3 B)
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    t0 = 2.0
    fr = frenet(hr.curve, t0)
    for (p, q) in ((2.0, 2.0), (2.0, 3.0), (1.5, 2.5)):
        params = PQParams(p, q)
        r1, r2, r3 = curve_system_residual(fr, params, 1.0)
        expected = -(r1 * fr.T + r2 * fr.N + r3 * fr.B)
        got = tension_pq_curve(hr.curve, t0, params)
        assert np.allclose(got, expected, atol=2e-6)


def test_tension_pq_geodesic_zero():
    out = tension_pq_curve(_line(), 2.0, PQParams(2, 2))
    assert np.linalg.norm(out) < 1e-10


def test_tension_pq_singular_factor_guard():
    with pytest.raises(SingularFactorError):
        tension_pq_curve(_line(), 2.0, PQParams(2, 1.5))


def test_variation_field_support():
    v = VariationField(fn=lambda t: np.multiply.outer(np.ones_like(t), [1.0, 0.0, 0.0]),
                       support=(1.0, 2.0))
    assert v(0.5) is None and v(2.5) is None
    assert np.allclose(v(1.5), [1.0, 0.0, 0.0])
    vals = v.values([0.5, 1.5, 2.5], 3)
    assert np.allclose(vals[0], 0) and np.allclose(vals[2], 0)


def test_field_values_match_pointwise_calls():
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    v = random_bump_field(hr.curve, np.random.default_rng(2), amplitude=0.5)
    ts = np.linspace(*hr.curve.domain, 41)
    vals = v.values(ts, 4)
    for t, row in zip(ts, vals):
        w = v(float(t))
        assert np.array_equal(row, np.zeros(4) if w is None else w)
    gt = varied_curve(hr.curve, v, 0.05)
    assert np.array_equal(gt.map(ts), np.stack([gt.map(float(t)) for t in ts]))


def test_varied_curve_stays_on_model():
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    v = bump_normal_field(hr.curve,
                          lambda t: np.multiply.outer(np.ones_like(t), [0.3, -0.2, 0.5, 0.1]))
    gt = varied_curve(hr.curve, v, 0.05)
    sf = hr.curve.sf
    for t in np.linspace(*hr.curve.domain, 11):
        assert sf.constraint_defect(gt.map(float(t))) < 1e-12


def test_random_bump_field_amplitude_and_tangency():
    c = circle(1.0)
    rng = np.random.default_rng(0)
    v = random_bump_field(c, rng, amplitude=0.5)
    sup = max(np.linalg.norm(v(t)) for t in np.linspace(*v.support, 200)[1:-1])
    assert sup == pytest.approx(0.5, rel=0.05)


def test_first_variation_circle_22():
    c = circle(1.0)
    dc = DiscretizedCurve(curve=c, K=128)
    v = bump_normal_field(c, lambda t: np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1),
                          amplitude=0.5)
    rep = first_variation_check(dc, v, PQParams(2, 2))
    assert rep.rel_error <= 1e-4
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-4)


def test_first_variation_helix_q3():
    # a generic (non-critical at p=2) helix: k^2 + tau^2 != 1
    hr = helix(math.acos(math.sqrt(0.4)), math.sqrt(1.6), math.sqrt(0.6))
    dc = DiscretizedCurve(curve=hr.curve, K=128)
    v = random_bump_field(hr.curve, np.random.default_rng(5), amplitude=0.5)
    rep = first_variation_check(dc, v, PQParams(2, 3))
    assert rep.rel_error <= 1e-4
    assert rep.observed_order == pytest.approx(2.0, abs=0.2)


def test_first_variation_critical_helix():
    # at its closed-form parameter the helix is critical: dE/dt = 0
    hr = helix(math.pi / 4, SQ7 / 2, 0.5)
    dc = DiscretizedCurve(curve=hr.curve, K=128)
    v = random_bump_field(hr.curve, np.random.default_rng(11), amplitude=0.5)
    rep = first_variation_check(dc, v, PQParams(hr.p, 2))
    assert abs(rep.lhs) <= 1e-5 * rep.v_norm


# -- pinned values of the discretisation ------------------------------------

# Computed with nested per-point deriv1 closures, before the stencil lattice;
# the lattice changes only the evaluation order, so these must not move.
TENSION_P_PINS = {
    ("circle", 2, 2): [0.4161468365045446, -0.9092974267310884, 0.0],
    ("circle", 3, 2): [0.4161468364834897, -0.9092974266836, 0.0],
    ("circle", 1.5, 2.5): [0.41614683651507667, -0.9092974267548304, 0.0],
    ("helix", 2, 2): [0.31064917565211936, -0.21793827004731137,
                      0.006692920500340999, 0.3097663712190427],
    ("helix", 3, 2): [0.310649175624012, -0.2179382700267118,
                      0.006692920500267075, 0.3097663711905907],
    ("helix", 1.5, 2.5): [0.3106491756661676, -0.2179382700576189,
                          0.0066929205003708955, 0.3097663712332689],
}
TENSION_PQ_PINS = {
    ("circle", 2, 2): [0.4161468278068205, -0.90929740259698, 0.0],
    ("circle", 3, 2): [0.8322936590308142, -1.8185948022087075, -0.0],
    ("circle", 1.5, 2.5): [0.20807341381857908, -0.45464870250705336, 0.0],
    ("helix", 2, 2): [0.06212981790561556, -0.043587636861946555,
                      0.001338583897897501, 0.06195325468940921],
    ("helix", 3, 2): [0.1366856171629996, -0.09589280956221584,
                      0.0029448908422463325, 0.13629717603300057],
    ("helix", 1.5, 2.5): [0.01739453241628449, -0.012203263512719584,
                          0.00037476335369673246, 0.01734509973037761],
}
# lhs, rhs, v_norm at (p,q) = (3,2) for the first default_rng(9) field
VARIATION_PINS = {
    "circle": (0.09604734149801786, 0.09604737540367504, 0.49933404105035595),
    "helix": (-0.021393098939326283, -0.021393070327117503, 0.5000000000000001),
}


def _pin_curves():
    return {"circle": circle(1.0),
            "helix": helix(math.acos(math.sqrt(0.4)), math.sqrt(1.6),
                           math.sqrt(0.6)).curve}


def test_tension_pinned_values():
    for name, curve in _pin_curves().items():
        for (p, q) in ((2, 2), (3, 2), (1.5, 2.5)):
            for got, pins in ((tension_p(curve, 2.0, p), TENSION_P_PINS),
                              (tension_pq_curve(curve, 2.0, PQParams(p, q)), TENSION_PQ_PINS)):
                want = np.array(pins[(name, p, q)])
                assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want), \
                    (name, p, q, got, want)


def test_first_variation_pinned_values():
    for name, curve in _pin_curves().items():
        v = random_bump_field(curve, np.random.default_rng(9), amplitude=0.5)
        rep = first_variation_check(DiscretizedCurve(curve=curve, K=128), v, PQParams(3, 2))
        for got, want in zip((rep.lhs, rep.rhs, rep.v_norm), VARIATION_PINS[name]):
            assert got == pytest.approx(want, rel=1e-6), (name, got, want)


def test_batched_tension_equals_per_node_calls():
    ts = np.array([1.5, 2.0, 2.7, 3.1])
    for curve in _pin_curves().values():
        h = curve.frame_step()
        X = variation._sample(curve.map, variation._lattice(ts, h))
        for (p, q) in ((2, 2), (3, 2), (1.5, 2.5)):
            params = PQParams(p, q)
            batched_p = variation._tension_p(curve.sf, X, h, p)[0]
            batched_pq = variation._tension_pq(curve, ts, params, h)
            for i, t in enumerate(ts):
                assert np.array_equal(batched_p[i], tension_p(curve, t, p))
                assert np.array_equal(batched_pq[i], tension_pq_curve(curve, t, params))


def _cubic():
    # t -> (t^3, 0, 0): the stencil speed at the node t = 0 is exactly 0
    return CurveChart(sf=SpaceForm(3, 0.0), domain=(-1.0, 1.0),
                      map=lambda t: np.stack([t ** 3, 0.0 * t, 0.0 * t], axis=-1), name="cubic")


def test_singular_speed_guard():
    dc = DiscretizedCurve(curve=_cubic(), K=16)
    assert dc.ts[8] == 0.0
    with pytest.raises(SingularSpeedError):
        energy_pq(dc, PQParams(1.5, 2))
    with pytest.raises(SingularSpeedError):
        tension_pq_curve(dc.curve, 0.0, PQParams(1.5, 2))


@pytest.mark.parametrize("name", ["curves", "hypersurfaces", "variation"])
def test_demo_runs(name, capsys):
    # the demos build charts through the public API only
    path = pathlib.Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    assert out.startswith("== ")
    if name == "variation":
        assert "== circle of radius 1 in R^3 ==" in out
        assert out.count("rel err") == 3 and out.count("random field") == 3


def _circle_traced_by(phi, name):
    """The unit circle in R^3 traced as t -> phi(t) on (0, 2)."""
    return CurveChart(sf=SpaceForm(3, 0.0), domain=(0.0, 2.0),
                      map=lambda t: np.stack([np.cos(phi(t)), np.sin(phi(t)), 0.0 * t], axis=-1),
                      unit_speed=False, name=name)


def test_first_variation_refuses_non_constant_speed():
    # the check weighs tau_pq with the flat measure, which is only right at
    # constant speed: on t + 0.3 t^2 it gave rel_error 0.18 and 0.45 silently
    accelerating = _circle_traced_by(lambda t: t + 0.3 * t * t, "accelerating")
    steady = _circle_traced_by(lambda t: 2.0 * t, "speed 2")
    for params in (PQParams(2.0, 2.0), PQParams(3.0, 2.0)):
        v = random_bump_field(accelerating, np.random.default_rng(1))
        with pytest.raises(DomainError, match="reparametrize_arclength"):
            first_variation_check(DiscretizedCurve(accelerating, 128), v, params)
        v = random_bump_field(steady, np.random.default_rng(1))
        rep = first_variation_check(DiscretizedCurve(steady, 128), v, params)
        assert rep.rel_error < 1e-6
