import dataclasses
import importlib.util
import math
import pathlib
import re

import numpy as np
import pytest

from pqharmonic import (CurveChart, DiscretizedCurve, PQParams, circle,
                        bump_normal_field, curve_system_residual, energy_pq,
                        first_variation_check, frenet, helix,
                        random_bump_field, tension_p, tension_pq_curve)
from pqharmonic import cli, curves, variation
from pqharmonic.errors import (DomainError, ModelConstraintError, SingularFactorError,
                               SingularSpeedError)
from pqharmonic.spaceform import SpaceForm
from pqharmonic.variation import VariationField, varied_curve

SQ7 = math.sqrt(7.0)
CRITERION_7_PQ = ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0), (1.5, 2.5))

# the helix(pi/4, sqrt(7)/2, 1/2) of S^3 traced at constant speed 1.6
SPEEDY_HELIX_FILE = """\
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


def _line(speed=1.0):
    sf = SpaceForm(3, 0.0)
    return CurveChart(sf=sf, domain=(0.0, 4.0),
                      map=lambda t: np.stack([speed * t, 0.0 * t + 1.0, 0.0 * t + 2.0], axis=-1),
                      name="line")


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


@pytest.mark.parametrize("p, q", CRITERION_7_PQ)
def test_energy_at_constant_speed_is_over_the_parameter(p, q):
    # circle of radius rho at speed s: |tau_p| = s^p / rho over a domain of width 2 pi rho / s
    rho, s = 2.0, 1.5
    curve = CurveChart(sf=SpaceForm(3, 0.0), domain=(0.0, 2 * math.pi * rho / s),
                       map=lambda t: circle(rho).map(s * t))
    energy = energy_pq(DiscretizedCurve(curve=curve, K=256), PQParams(p, q))
    assert energy == pytest.approx((s ** p / rho) ** q * 2 * math.pi * rho / s / q, rel=1e-8)


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


def test_tension_pq_matches_frenet_system_at_varying_curvature():
    # the conical spiral (s/C)(cos theta, sin theta, beta), theta = ln(s/C)/alpha,
    # is unit speed in closed form: k, tau and their derivatives all vary (as 1/s),
    # so every component of tau_pq = -(r1 T + r2 N + r3 B) is tested
    alpha, beta = 0.3, 0.5
    C = math.sqrt(alpha * alpha * (1 + beta * beta) + 1) / alpha

    def spiral(s):
        theta = np.log(s / C) / alpha
        return (s / C)[..., None] * np.stack([np.cos(theta), np.sin(theta), 0 * s + beta], axis=-1)

    curve = CurveChart(sf=SpaceForm(3, 0.0), domain=(1.0, 3.0), map=spiral)
    for s in 1.0 + 2.0 * np.array([0.1, 0.2, 0.45]):
        fr = frenet(curve, float(s))
        for (p, q) in CRITERION_7_PQ:
            got = tension_pq_curve(curve, float(s), PQParams(p, q))
            size = np.linalg.norm(got)
            r = curve_system_residual(fr, PQParams(p, q), 0.0)
            for axis, ri in zip((fr.T, fr.N, fr.B), r):
                # each component is large enough that a wrong sign would show
                assert abs(ri) > 5e-2 * size
                assert abs(np.dot(got, axis) + ri) <= 1e-3 * size, (s, p, q)


def test_tension_pq_geodesic_zero():
    out = tension_pq_curve(_line(), 2.0, PQParams(2, 2))
    assert np.linalg.norm(out) < 1e-10


def test_tension_pq_singular_factor_guard():
    with pytest.raises(SingularFactorError):
        tension_pq_curve(_line(), 2.0, PQParams(2, 1.5))


def test_curve_kernels_refuse_a_curve_off_its_model():
    # a radius-1.5 circle declared in S^3
    off = CurveChart(sf=SpaceForm(3, 1.0), domain=(0.0, 2 * math.pi),
                     map=lambda t: 1.5 * np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=-1),
                     name="off-model")
    dc, params = DiscretizedCurve(curve=off, K=16), PQParams(2.5, 2.5)
    # a field with no Simpson node in its support: no tau_pq is taken
    between = (dc.ts[4] + 0.01, dc.ts[5] - 0.01)
    field = bump_normal_field(off, lambda t: np.multiply.outer(np.ones_like(t), [0, 0, 1.0, 0]),
                              support=between)
    for call in (lambda: tension_p(off, 1.0, 2.5), lambda: energy_pq(dc, params),
                 lambda: tension_pq_curve(off, 1.0, params),
                 lambda: first_variation_check(dc, field, params)):
        with pytest.raises(ModelConstraintError, match="off the SphereEmbedded model"):
            call()


def test_a_support_without_simpson_nodes_is_refused():
    # no Simpson node lies in the support: both sides would be sums of nothing
    dc = DiscretizedCurve(curve=circle(1.0), K=16)
    between = (dc.ts[4] + 0.01, dc.ts[5] - 0.01)
    field = random_bump_field(dc.curve, np.random.default_rng(0), support=between)
    want = f"the field's support ({between[0]:g}, {between[1]:g}) holds no Simpson node of K = 16"
    with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
        first_variation_check(dc, field, PQParams(2, 2))


def test_a_field_without_series_is_refused():
    c = circle(1.0)
    field = bump_normal_field(c, lambda t: np.multiply.outer(np.ones_like(t), [0, 0, 1.0]))
    with pytest.raises(DomainError, match=r"^the variation field must take a Taylor series"):
        first_variation_check(DiscretizedCurve(curve=c, K=32), field, PQParams(2, 2))


def test_variation_field_support():
    v = VariationField(fn=lambda t: np.multiply.outer(np.ones_like(t), [1.0, 0.0, 0.0]),
                       support=(1.0, 2.0))
    assert v(0.5) is None and v(2.5) is None
    assert np.allclose(v(1.5), [1.0, 0.0, 0.0])
    vals = v.values([0.5, 1.5, 2.5], 3)
    assert np.allclose(vals[0], 0) and np.allclose(vals[2], 0)


def test_field_values_match_pointwise_calls(tmp_path):
    # v(t) is the row of values([t]) and of a batch, bit for bit, on the
    # helix and circle maps and on an arc-length chart-file curve
    path = tmp_path / "helix.txt"
    path.write_text(SPEEDY_HELIX_FILE)
    for curve, points in ((helix(math.pi / 4, SQ7 / 2, 0.5).curve, 1500), (circle(1.3), 1500),
                          (cli.load_chart_file(str(path)), 300)):
        dim = curve.sf.ambient_dim
        v = random_bump_field(curve, np.random.default_rng(2), amplitude=0.5)
        lo, hi = curve.domain
        ts = lo + (hi - lo) * np.random.default_rng(3).random(points)
        vals = v.values(ts, dim)
        for t, row in zip(ts, vals):
            w = v(float(t))
            assert w is not None or not v.support[0] < t < v.support[1]
            w = np.zeros(dim) if w is None else w
            assert np.array_equal(w, row) and np.array_equal(w, v.values([t], dim)[0]), \
                (curve.name, t)
        gt = varied_curve(curve, v, 0.05)
        assert np.array_equal(gt.map(ts[:41]), np.stack([gt.map(float(t)) for t in ts[:41]]))
        # on series, the varied curve's values are its points, in the support and out of it
        assert np.allclose(curves._series(gt, ts[:41]).c[0], gt.map(ts[:41]), rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("text", [H3_CIRCLE_FILE, SPEEDY_HELIX_FILE],
                         ids=["h3-circle", "speedy-helix"])
@pytest.mark.parametrize("p, q", CRITERION_7_PQ)
def test_first_variation_in_h3_and_at_non_unit_speed(tmp_path, text, p, q):
    # the hyperboloid's retraction on series, and a curve at speed 1.6
    path = tmp_path / "curve.txt"
    path.write_text(text)
    curve = cli.load_chart_file(str(path))
    v = random_bump_field(curve, np.random.default_rng(0), amplitude=0.5)
    rep = first_variation_check(DiscretizedCurve(curve=curve, K=128), v, PQParams(p, q))
    if text is SPEEDY_HELIX_FILE and p == 2.0:
        # the helix's closed-form p is 2: it is critical for every q, so tau_pq
        # vanishes and a relative error means nothing; criterion 7's bound
        assert abs(rep.rhs) <= 1e-12 * rep.v_norm and abs(rep.lhs) <= 1e-5 * rep.v_norm, rep
        return
    assert rep.rel_error <= 1e-4, rep
    fd = rep.fd_values
    converged = abs(fd[-2] - fd[-1]) <= 1e-7 * max(1.0, abs(rep.lhs))
    assert converged or abs(rep.observed_order - 2.0) <= 0.2, rep


@pytest.mark.parametrize("p, q", CRITERION_7_PQ)
def test_first_variation_on_a_line(p, q):
    # tau_p vanishes along a line, so dE/dt = 0 for every field.  Where q/2
    # is not an integer |tau_p|^q is not analytic there, and the ladder takes
    # central differences.  At p = 1.5 tau_p is not linear in t, and they
    # fall at order q, which the order-2 Richardson step leaves as a residue
    line = _line()
    for seed in range(3):
        v = random_bump_field(line, np.random.default_rng(seed), amplitude=0.5)
        rep = first_variation_check(DiscretizedCurve(curve=line, K=128), v, PQParams(p, q))
        assert rep.rhs == 0.0, rep
        if (p, q) == (1.5, 2.5):
            assert rep.observed_order == pytest.approx(q, abs=0.05), rep
            assert abs(rep.lhs) < abs(rep.fd_values[-1]), rep
        else:
            assert abs(rep.lhs) <= 1e-5 * rep.v_norm, rep


@pytest.mark.parametrize("p, q", CRITERION_7_PQ[:2])
def test_first_variation_on_a_great_circle(p, q):
    # a geodesic of S^3; at q != 2 the right side is refused (tau_pq's series
    # does not exist where tau_p vanishes only up to rounding)
    curve = CurveChart(sf=SpaceForm(3, 1.0), domain=(0.0, 2 * math.pi), name="great circle",
                       map=lambda t: np.stack([np.cos(t), np.sin(t), 0.0 * t, 0.0 * t], axis=-1))
    for seed in range(3):
        v = random_bump_field(curve, np.random.default_rng(seed), amplitude=0.5)
        rep = first_variation_check(DiscretizedCurve(curve=curve, K=128), v, PQParams(p, q))
        assert abs(rep.rhs) <= 1e-12 * rep.v_norm and abs(rep.lhs) <= 1e-5 * rep.v_norm, rep


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


# repr of lhs, rhs and fd_values for the first default_rng(9) field.  lhs
# and fd_values are from the energies on Taylor series, summed over the
# field's support: complex steps at q = 2, central differences otherwise;
# rhs is from the Taylor-series tension field, with the field's values on
# the float path
FIRST_VARIATION_BITS = {
    ("circle", 2.0, 2.0): (0.048023653075075605, 0.048023688756042696,
                           (0.048023653075075605, 0.048023653075075605, 0.048023653075075605)),
    ("circle", 3.0, 2.0): (0.09604734139795447, 0.09604737751208535,
                           (0.09412096560577768, 0.09556574744990992, 0.09592694291094334)),
    ("circle", 2.0, 3.0): (0.04802365523509285, 0.04802368875604271,
                           (0.0486102217822415, 0.04817032118191733, 0.04806032172179897)),
    ("circle", 1.5, 2.5): (0.024011809979995746, 0.024011844378021358,
                           (0.023878208656691324, 0.023978421652692816, 0.024003462898170014)),
    ("helix", 2.0, 2.0): (-0.009724149096096757, -0.009724124330379016,
                          (-0.009696188559676043, -0.009717159111559273, -0.009722401599962386)),
    ("helix", 3.0, 2.0): (-0.021393099144537967, -0.021393073526833846,
                          (-0.02000458738411915, -0.02104597129492401, -0.02130631718213448)),
    ("helix", 2.0, 3.0): (-0.004763842745113729, -0.004763828560962348,
                          (-0.005107379871166495, -0.004849751046967499, -0.004785319820577172)),
    ("helix", 1.5, 2.5): (-0.0027224875990439212, -0.0027224712660495324,
                          (-0.0026878016147896533, -0.002713808400506279, -0.0027203177994095107)),
}


def test_first_variation_rhs_matches_its_closed_form():
    # on a unit-speed curve of constant (k, tau) in N^3(c), tau_pq is
    # k^(q-1)((p-1)k^2 + tau^2 - c) N, so the right side is that coefficient
    # times the Simpson sum of -<v, N>
    hr = helix(math.acos(math.sqrt(0.4)), math.sqrt(1.6), math.sqrt(0.6))
    ca, sa = math.cos(hr.alpha), math.sin(hr.alpha)

    def helix_normal(t):        # (gamma'' + gamma)/k
        return np.stack([ca * (1 - hr.a ** 2) * np.cos(hr.a * t),
                         ca * (1 - hr.a ** 2) * np.sin(hr.a * t),
                         sa * (1 - hr.b ** 2) * np.cos(hr.b * t),
                         sa * (1 - hr.b ** 2) * np.sin(hr.b * t)], axis=-1) / hr.k

    closed = {"circle": (1.0, 0.0, 0.0, lambda t: -np.stack([np.cos(t), np.sin(t), 0 * t], -1)),
              "helix": (hr.k, hr.tau, 1.0, helix_normal)}
    for name, curve in _pin_curves().items():
        k, tau, c, normal = closed[name]
        dc = DiscretizedCurve(curve=curve, K=128)
        v = random_bump_field(curve, np.random.default_rng(9), amplitude=0.5)
        field = v.values(dc.ts, curve.sf.ambient_dim)
        pairing = -np.sum(dc.weights * curve.sf.pair(field, normal(dc.ts)))
        for (p, q) in CRITERION_7_PQ:
            rhs = first_variation_check(dc, v, PQParams(p, q)).rhs
            want = k ** (q - 1) * ((p - 1) * k * k + tau * tau - c) * pairing
            assert abs(rhs - want) <= 1e-12 * abs(want), (name, p, q, rhs, want)


def _loops_round_as_pinned():
    """True where numpy's power, cos and sin loops give the bits they gave
    when the pins were taken: the AVX-512 power loop, and the C library's cos
    and sin.  Other loops round some values the other way."""
    x = np.linspace(0.1, 7.0, 1001)
    return ((np.array([0.43981766800214817]) ** 1.37)[0] == 0.32455145462585805
            and np.array_equal(np.cos(x), [math.cos(a) for a in x])
            and np.array_equal(np.sin(x), [math.sin(a) for a in x]))


def _complex_products_round_as_pinned():
    """True where numpy's complex multiply rounds as it did when the pins
    were taken, with a fused multiply-add: a*c - b*d gives ...263 here."""
    product = np.array([1.0067243153057943 - 0.001048796567280681j]) \
        * np.array([-0.590434943289043 - 1.1705426351003028j])
    return product[0] == -0.5956328751128261 - 1.1777944867158685j


@pytest.mark.skipif(not _loops_round_as_pinned(),
                    reason="numpy's power, cos or sin loop here rounds unlike the pinned ones")
def test_first_variation_bits_are_pinned():
    # the complex steps at q = 2 go through complex products: where those
    # round otherwise, their lhs and fd_values are held to 1e-12 relative
    exact = _complex_products_round_as_pinned()
    for name, curve in _pin_curves().items():
        v = random_bump_field(curve, np.random.default_rng(9), amplitude=0.5)
        for (p, q) in CRITERION_7_PQ:
            rep = first_variation_check(DiscretizedCurve(curve=curve, K=128), v, PQParams(p, q))
            lhs, rhs, fd_values = FIRST_VARIATION_BITS[(name, p, q)]
            assert rep.rhs == rhs, (name, p, q)
            if exact or q != 2.0:
                assert (rep.lhs, rep.fd_values) == (lhs, fd_values), (name, p, q)
            else:
                assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0), (name, p, q)
                assert rep.fd_values == pytest.approx(fd_values, rel=1e-12, abs=0), (name, p, q)


def test_first_variation_samples_each_point_once():
    # one Taylor series at each of the 129 Simpson nodes: the left side takes
    # the 89 nodes in the field's support from it, and so does the right side
    curve = _pin_curves()["helix"]
    rows = []

    def counted(t):
        rows.append(np.array(t, dtype=float))
        return curve.map(t)

    base = dataclasses.replace(curve, map=counted)
    v = random_bump_field(base, np.random.default_rng(9), amplitude=0.5)
    rows.clear()
    dc = DiscretizedCurve(curve=base, K=128)
    first_variation_check(dc, v, PQParams(3, 2))
    (series,) = rows
    assert series.shape == (5, 129) and np.array_equal(series[0], dc.ts)
    assert np.all(series[1] == 1.0) and not series[2:].any()
    assert np.count_nonzero((dc.ts > v.support[0]) & (dc.ts < v.support[1])) == 89


def test_batched_tension_equals_per_node_calls():
    ts = np.array([1.5, 2.0, 2.7, 3.1])
    for curve in _pin_curves().values():
        X = curves._series(curve, ts)
        for (p, q) in ((2, 2), (3, 2), (1.5, 2.5)):
            params = PQParams(p, q)
            batched_p = variation._series_tension_p(curve.sf, X.truncated(2), p)[0].c[0]
            batched_pq = variation._series_tension_pq(curve.sf, X, params)
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
    # at p > 2, tau_p = d/dt(|g'|^(p-2) g') = 2 (3 t^2) 6 t e1 = 36 t^3 e1 at p = 3:
    # its limit 0 where the speed vanishes, and (1/2) |tau_p|^2 = 648 t^6
    assert np.array_equal(tension_p(dc.curve, 0.0, 3.0), [0.0, 0.0, 0.0])
    assert np.array_equal(tension_p(dc.curve, 0.5, 3.0), [4.5, 0.0, 0.0])
    assert energy_pq(dc, PQParams(3, 2)) == pytest.approx(np.sum(dc.weights * 648 * dc.ts ** 6),
                                                          rel=1e-12)


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
                      name=name)


def test_first_variation_holds_at_non_constant_speed():
    # energy and pairing are both over dt: with the arc measure on the left
    # side, t + 0.3 t^2 gave rel_error 0.18 and 0.45
    accelerating = _circle_traced_by(lambda t: t + 0.3 * t * t, "accelerating")
    steady = _circle_traced_by(lambda t: 2.0 * t, "speed 2")
    for params in (PQParams(2.0, 2.0), PQParams(3.0, 2.0)):
        v = random_bump_field(accelerating, np.random.default_rng(1))
        rep = first_variation_check(DiscretizedCurve(accelerating, 128), v, params)
        assert rep.rel_error < 1e-4
        v = random_bump_field(steady, np.random.default_rng(1))
        rep = first_variation_check(DiscretizedCurve(steady, 128), v, params)
        assert rep.rel_error < 1e-6
