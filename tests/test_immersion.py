import math
from dataclasses import fields, replace

import numpy as np
import pytest

from pqharmonic import (PQParams, classify, cone, first_fundamental, geometric_sample,
                        great_sphere, plane, sample_grid, shape_packet, sphere_in_sphere,
                        unit_normal)
from pqharmonic import immersion, numeric
from pqharmonic.cli import load_chart_file
from pqharmonic.errors import BoundaryProximityError, DegenerateImmersionError
from pqharmonic.immersion import GeometricSample, ImmersionChart, flip_sample
from pqharmonic.spaceform import SpaceForm

U_SPHERE = np.array([1.1, 2.3])
U_CONE = np.array([1.3, 2.0])


def test_sphere_first_fundamental():
    ch = sphere_in_sphere(2, 0.5)
    ff = first_fundamental(ch, U_SPHERE)
    a2 = 0.5
    # round metric of radius a: diag(a^2, a^2 sin^2 theta)
    expected = np.diag([a2, a2 * math.sin(U_SPHERE[0]) ** 2])
    assert np.allclose(ff.g, expected, atol=1e-12)
    assert ff.det_g == pytest.approx(np.linalg.det(expected), abs=1e-12)


def test_unit_normal_is_unit_and_orthogonal():
    ch = sphere_in_sphere(2, 0.5)
    eta = unit_normal(ch, U_SPHERE)
    sf = ch.sf
    P = ch.map(U_SPHERE)
    J = ch.jacobian(U_SPHERE)
    assert sf.pair(eta, eta) == pytest.approx(1.0, abs=1e-12)
    assert abs(sf.pair(eta, P)) < 1e-12
    for a in range(2):
        assert abs(sf.pair(eta, J[:, a])) < 1e-12


def test_sphere_shape_packet_umbilic():
    ch = sphere_in_sphere(2, 0.5)
    pk = shape_packet(ch, U_SPHERE)
    # S^2(a) in S^3 with a = b: totally umbilic with f = -b/a = -1
    assert pk.f == pytest.approx(-1.0, abs=1e-12)
    assert pk.normA2 == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(pk.A, -np.eye(2), atol=1e-12)


def test_cone_stencil_matches_analytic():
    ch = cone(1.0 / math.sqrt(6.0))
    sa = geometric_sample(ch, U_CONE)
    ss = geometric_sample(ch, U_CONE, use_analytic=False)
    assert ss.f == pytest.approx(sa.f, abs=1e-10)
    assert ss.normA2 == pytest.approx(sa.normA2, abs=1e-10)
    assert ss.grad_f_norm2 == pytest.approx(sa.grad_f_norm2, abs=1e-7)
    assert ss.laplacian_f == pytest.approx(sa.laplacian_f, abs=1e-5)
    assert np.allclose(ss.A_grad_f, sa.A_grad_f, atol=1e-7)


def test_cone_closed_forms_at_reference_point():
    # r = 1/sqrt(6), u = 1: f = 3/sqrt(7), lap f = 18/(7 sqrt 7),
    # |grad f|^2 = 54/49, |A|^2 = 36/7
    ch = cone(1.0 / math.sqrt(6.0))
    s = geometric_sample(ch, np.array([1.0, 1.0]))
    assert s.f == pytest.approx(3 / math.sqrt(7), abs=1e-14)
    assert s.laplacian_f == pytest.approx(18 / (7 * math.sqrt(7)), abs=1e-14)
    assert s.grad_f_norm2 == pytest.approx(54 / 49, abs=1e-14)
    assert s.normA2 == pytest.approx(36 / 7, abs=1e-14)
    assert np.allclose(s.A_grad_f, 0.0)


def test_sphere_stencil_matches_analytic():
    ch = sphere_in_sphere(2, 0.7)
    sa = geometric_sample(ch, U_SPHERE)
    ss = geometric_sample(ch, U_SPHERE, use_analytic=False)
    assert ss.f == pytest.approx(sa.f, abs=1e-10)
    assert ss.grad_f_norm2 == pytest.approx(0.0, abs=1e-10)
    assert ss.laplacian_f == pytest.approx(0.0, abs=1e-6)


def test_flipped_chart_negates_f():
    ch = cone(0.5)
    s = geometric_sample(ch, U_CONE)
    sflip = geometric_sample(ch.flipped(), U_CONE)
    assert sflip.f == pytest.approx(-s.f, abs=1e-14)
    assert np.allclose(sflip.grad_f, -s.grad_f)
    assert sflip.normA2 == pytest.approx(s.normA2)


def test_flip_sample_parity():
    s = geometric_sample(cone(0.5), U_CONE)
    t = flip_sample(s)
    assert t.f == -s.f and t.laplacian_f == -s.laplacian_f
    assert np.allclose(t.A_grad_f, s.A_grad_f)
    assert t.grad_f_norm2 == s.grad_f_norm2


def test_degenerate_immersion_raises():
    sf = SpaceForm(3, 0.0)
    ch = ImmersionChart(sf=sf, m=2, domain=((0.0, 1.0), (0.0, 1.0)),
                        map=lambda u: np.stack([u[..., 0], u[..., 0], 0.0 * u[..., 0]], axis=-1),
                        name="collapsed")
    with pytest.raises(DegenerateImmersionError):
        first_fundamental(ch, np.array([0.5, 0.5]))


def test_boundary_proximity_guard():
    ch = cone(0.5)
    with pytest.raises(BoundaryProximityError):
        geometric_sample(ch, np.array([0.5, 1.0]), use_analytic=False)


def test_sample_grid_respects_margins():
    ch = cone(0.5)
    pts = sample_grid(ch, 6)
    assert pts.shape == (36, 2)
    for u in pts:
        assert 0.5 < u[0] < 2.0
        assert 0.0 < u[1] < 2 * math.pi


def test_plane_and_great_sphere_are_minimal_geometry():
    s = geometric_sample(plane(), np.array([0.5, 0.5]), use_analytic=False)
    assert abs(s.f) < 1e-12 and s.normA2 < 1e-12
    g = geometric_sample(great_sphere(2), U_SPHERE, use_analytic=False)
    assert abs(g.f) < 1e-11 and g.normA2 < 1e-10


def test_higher_dimensional_sphere():
    # m = 3 small sphere in S^4, FD fallback only for f
    ch = sphere_in_sphere(3, 0.4)
    u = np.array([1.0, 1.4, 2.0])
    pk = shape_packet(ch, u)
    b_over_a = math.sqrt(0.6) / math.sqrt(0.4)
    assert pk.f == pytest.approx(-b_over_a, abs=1e-11)
    assert pk.normA2 == pytest.approx(3 * 0.6 / 0.4, abs=1e-10)


# -- the stencil lattice -----------------------------------------------------

R6 = 1.0 / math.sqrt(6.0)


def _cone_file(tmp_path):
    """The r = 1/sqrt(6) cone as a chart file: FD jets from the map only."""
    path = tmp_path / "cone.txt"
    path.write_text("type: hypersurface\nc: 0\nu: 1/2, 2\nv: 0, 2*pi\n"
                    f"x1: u*cos(v)*{R6!r}\nx2: u*sin(v)*{R6!r}\nx3: u\n")
    return load_chart_file(str(path))


def _h3_sphere_file(tmp_path):
    """A geodesic sphere of radius 0.8 in H^3 as a chart file."""
    path = tmp_path / "h3.txt"
    path.write_text("type: hypersurface\nc: -1\nu: 0.45, 2.65\nv: 0, 2*pi\n"
                    "x1: sinh(0.8)*sin(u)*cos(v)\nx2: sinh(0.8)*sin(u)*sin(v)\n"
                    "x3: sinh(0.8)*cos(u)\nx4: cosh(0.8)\n")
    return load_chart_file(str(path))


# stencil-path values recorded with the nested per-point stencils this
# lattice replaced: (u, f, grad f, lap f, |A|^2, A(grad f))
PINNED = {
    "file-cone": [
        ((1.3, 2.0), 0.8722257069204891, (-0.5750938539921523, 8.929628779622479e-09),
         0.4423800659848916, 3.043110735330094, (1.2907727046906771e-11, 1.5580478225811173e-08)),
        ((0.8, 4.5), 1.4173667737668345, (-1.518606888050746, 1.1696368384201088e-08),
         1.898255415696922, 8.03571428548237, (-8.156452294303422e-12, 3.315956742044039e-08)),
    ],
    "jet-cone": [
        ((1.3, 2.0), 0.8722257069443703, (-0.5750938526165209, 1.305118373096309e-14),
         0.4423798093333482, 3.0431107354184275, (0.0, 2.2823825951142474e-14)),
        ((0.8, 4.5), 1.4173667737846019, (-1.518606887354244, 2.0703166994159483e-13),
         1.8982562938604994, 8.035714285714281, (0.0, 5.864844657399725e-13)),
    ],
    "jet-sphere": [
        ((1.1, 2.3), -0.6546536707079771, (0.0, 0.0), 0.0, 0.8571428571428572, (0.0, 0.0)),
        ((2.0, 5.0), -0.6546536707079771, (0.0, 0.0), 0.0, 0.857142857142857, (0.0, 0.0)),
    ],
    "jet-sphere-m3": [
        ((1.0, 1.4, 2.0), -1.224744871391589, (0.0, 0.0, 0.0), 0.0, 4.499999999999997,
         (0.0, 0.0, 0.0)),
    ],
    "file-h3-sphere": [
        ((1.1, 2.3), -1.5059407020717126, (-2.565447597137362e-09, -4.932605126092475e-09),
         2.2732314789104495e-07, 4.535714796312484, (3.8634119556675034e-09, 7.428210826428801e-09)),
    ],
}


def _pinned_charts(tmp_path):
    return {"file-cone": _cone_file(tmp_path), "jet-cone": cone(R6),
            "jet-sphere": sphere_in_sphere(2, 0.7), "jet-sphere-m3": sphere_in_sphere(3, 0.4),
            "file-h3-sphere": _h3_sphere_file(tmp_path)}


def test_stencil_pinned_values(tmp_path):
    charts = _pinned_charts(tmp_path)
    for name, rows in PINNED.items():
        fd = name.startswith("file")
        # map-only charts carry rounding noise through two stencil levels
        tol_grad, tol_lap = (1e-7, 1e-5) if fd else (1e-10, 1e-8)
        for u, f, grad_f, lap, normA2, A_grad_f in rows:
            s = geometric_sample(charts[name], np.array(u), use_analytic=False)
            assert s.f == pytest.approx(f, rel=1e-9), name
            assert s.normA2 == pytest.approx(normA2, rel=1e-9), name
            assert np.allclose(s.grad_f, grad_f, rtol=0, atol=tol_grad), name
            assert s.laplacian_f == pytest.approx(lap, abs=tol_lap), name
            assert np.allclose(s.A_grad_f, A_grad_f, rtol=0, atol=tol_grad), name


def test_batched_sample_equals_per_point_calls(tmp_path):
    # 36 and 16 grid points: more than one kernel batch (KERNEL_POINTS)
    fd_sphere = replace(sphere_in_sphere(3, 0.4), jacobian=None, hessian=None)
    for ch, pts in ((_cone_file(tmp_path), sample_grid(cone(R6), 6)),
                    (cone(R6), sample_grid(cone(R6), 6)),
                    (_h3_sphere_file(tmp_path), sample_grid(great_sphere(2), 6)),
                    (fd_sphere, sample_grid(fd_sphere, 4)[::4])):
        batch = geometric_sample(ch, pts, use_analytic=False)
        assert batch.f.shape == (len(pts),)
        for i in (0, len(pts) // 2, len(pts) - 1):
            one = geometric_sample(ch, pts[i], use_analytic=False)
            for fd in fields(GeometricSample):
                if fd.name != "m":
                    assert np.array_equal(getattr(batch, fd.name)[i],
                                          getattr(one, fd.name)), (ch.name, fd.name)


def test_stencil_samples_each_lattice_point_once(tmp_path):
    ch = _cone_file(tmp_path)
    calls = []

    def counted(w):
        calls.append(np.array(w, dtype=float))
        return ch.map(w)

    geometric_sample(replace(ch, map=counted), np.array([1.3, 2.0]), use_analytic=False)
    assert len(calls) == 1 and calls[0].ndim == 2
    rows = calls[0]
    # nested per-point stencils made 5,619 map calls here
    assert len(rows) == 507
    assert len(rows) <= 700
    assert len(np.unique(np.round(rows, 9), axis=0)) == len(rows)

    jets = {"jacobian": [], "hessian": []}
    exact = cone(R6)

    def counting(name):
        fn = getattr(exact, name)

        def wrapped(w):
            jets[name].append(np.shape(w))
            return fn(w)
        return wrapped

    geometric_sample(replace(exact, jacobian=counting("jacobian"),
                             hessian=counting("hessian")),
                     np.array([1.3, 2.0]), use_analytic=False)
    # one call each, one row per f-lattice point
    assert jets == {"jacobian": [(33, 2)], "hessian": [(33, 2)]}


def _same_sample(a, b, i):
    """Row i of the stacked sample ``a`` equals the one-point sample ``b``, bit for bit."""
    for fd in fields(GeometricSample):
        x, y = getattr(a, fd.name), getattr(b, fd.name)
        if fd.name == "m" or x is None:
            assert x == y, fd.name
        else:
            assert np.array_equal(x[i], y), fd.name


def test_callbacks_act_over_the_last_axis(tmp_path):
    charts = {"sphere-m2": sphere_in_sphere(2, 0.7), "sphere-m3": sphere_in_sphere(3, 0.4),
              "great-sphere": great_sphere(2), "cone": cone(R6), "plane": plane(),
              "file-cone": _cone_file(tmp_path), "file-h3-sphere": _h3_sphere_file(tmp_path)}
    rng = np.random.default_rng(7)
    for name, ch in charts.items():
        lo, hi = np.array(ch.domain).T
        U = lo + (hi - lo) * rng.uniform(0.05, 0.95, (7, ch.m))
        dim, m = ch.sf.ambient_dim, ch.m
        for cb, shape in (("map", (dim,)), ("jacobian", (dim, m)),
                          ("hessian", (dim, m, m)), ("reference_normal", (dim,))):
            fn = getattr(ch, cb)
            if fn is None:
                continue
            batch = fn(U)
            assert batch.shape == (7,) + shape, (name, cb)
            assert np.array_equal(batch, np.stack([fn(u) for u in U])), (name, cb)
        if ch.analytic_geometry is not None:
            stacked, sampled = ch.analytic_geometry(U), geometric_sample(ch, U)
            for i, u in enumerate(U):
                _same_sample(stacked, ch.analytic_geometry(u), i)
                _same_sample(sampled, geometric_sample(ch, u), i)


def test_chart_file_classify_calls_the_map_once_per_batch(tmp_path):
    ch = _cone_file(tmp_path)
    calls = []

    def counted(w):
        calls.append(np.shape(w))
        return ch.map(w)

    counting = replace(ch, map=counted)
    classify(counting, PQParams(4 / 3, 3), n_per_axis=4)
    # the 8,112 points the per-point loop evaluated, in one call
    assert calls == [(8112, 2)]
    calls.clear()
    classify(counting, PQParams(4 / 3, 3), n_per_axis=8)
    # one call per KERNEL_POINTS batch of f points
    assert len(calls) == 3 and all(len(s) == 2 for s in calls)


def test_guards_raise_inside_a_batch():
    sf = SpaceForm(3, 0.0)
    # flat patch whose v direction collapses along u = 0.5
    pinched = ImmersionChart(sf=sf, m=2, domain=((0.0, 1.0), (0.0, 1.0)),
                             map=lambda u: np.stack([u[..., 0], (u[..., 0] - 0.5) * u[..., 1],
                                                     0.0 * u[..., 0]], axis=-1),
                             name="pinched")
    batch = np.array([[0.2, 0.5], [0.5, 0.5], [0.8, 0.5]])
    geometric_sample(pinched, batch[[0, 2]], use_analytic=False)
    with pytest.raises(DegenerateImmersionError):
        geometric_sample(pinched, batch, use_analytic=False)

    ch = cone(0.5)
    h_step = 2e-3 * 2 * math.pi
    near_edge = np.array([[1.3, 2.0], [0.5 + 1.5 * h_step, 2.0], [1.0, 3.0]])
    with pytest.raises(BoundaryProximityError):
        geometric_sample(ch, near_edge, use_analytic=False)


def test_flipped_chart_negates_stencil_quantities():
    ch = cone(0.5)
    pts = sample_grid(ch, 4)
    s = geometric_sample(ch, pts, use_analytic=False)
    t = geometric_sample(ch.flipped(), pts, use_analytic=False)
    for name in ("f", "grad_f", "laplacian_f"):
        assert np.allclose(getattr(t, name), -getattr(s, name), rtol=1e-13, atol=1e-15), name
    assert np.allclose(t.normA2, s.normA2, rtol=1e-13)


def test_map_lattice_jets_match_nested_stencils(tmp_path):
    # the nested numeric.partial1 / partial2 stencils are the reference; the
    # lattice applies the same weights, so only rounding may differ
    fd_sphere = replace(sphere_in_sphere(3, 0.4), jacobian=None, hessian=None)
    for ch, u in ((_cone_file(tmp_path), U_CONE), (fd_sphere, np.array([1.0, 1.4, 2.0]))):
        h = ch.steps()
        J, H, P = immersion._jets(ch, u[None], None)
        assert np.array_equal(P[0], ch.map(u))
        J_ref = np.stack([numeric.partial1(ch.map, u, a, h[a], richardson=True)
                          for a in range(ch.m)], axis=1)
        assert np.allclose(J[0], J_ref, rtol=0, atol=1e-12)
        for a in range(ch.m):
            for b in range(ch.m):
                H_ref = numeric.partial2(ch.map, u, a, b, max(h[a], h[b]))
                assert np.allclose(H[0, :, a, b], H_ref, rtol=0, atol=1e-9), (ch.name, a, b)
