import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from pqharmonic import (PQParams, classify, cone, first_fundamental, geometric_sample,
                        great_sphere, plane, sample_grid, shape_packet, sphere_in_sphere,
                        unit_normal)
from pqharmonic import immersion, jets
from pqharmonic.catalog import _omega
from pqharmonic.cli import load_chart_file
from pqharmonic.errors import (BoundaryProximityError, DegenerateImmersionError, DomainError,
                               ModelConstraintError)
from pqharmonic.expressions import ExpressionError
from pqharmonic.immersion import GeometricSample, ImmersionChart, flip_sample
from pqharmonic.residual import residual
from pqharmonic.spaceform import SpaceForm
from nested_stencils import partial1, partial2

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


def test_a_constant_chart_file_is_a_degenerate_immersion(tmp_path):
    # no coordinate depends on (u, v), so the map's jet is built from constants
    ch = _load(tmp_path, "point.txt", "type: hypersurface\nc: 0\nu: 0, 1\nv: 0, 1\n"
                                      "x1: 1\nx2: 2\nx3: 3\n")
    with pytest.raises(DegenerateImmersionError, match="^degenerate immersion"):
        classify(ch, PQParams(2.0, 2.0), n_per_axis=4, use_analytic=False)


@pytest.mark.parametrize("c, coords, error", [
    # P = u d_u X, so d_u X, d_v X and P span only a plane; P is on the
    # sphere at u = 1, the only f point of a single-point call
    (1.0, lambda u, v: (u * np.cos(v), u * np.sin(v), 0.0 * u, 0.0 * u),
     DegenerateImmersionError),
    # P is spacelike, so off the hyperboloid model: refused before any normal
    (-1.0, lambda u, v: (u, v, 2.0 + 0.0 * u, 0.0 * u), ModelConstraintError),
], ids=["radial-in-S3", "spacelike-P-in-H3"])
def test_normal_guards_raise(c, coords, error):
    ch = ImmersionChart(sf=SpaceForm(3, c), m=2, domain=((0.5, 1.5), (0.0, 2.0)),
                        map=lambda u: np.stack(coords(u[..., 0], u[..., 1]), axis=-1))
    with pytest.raises(error):
        unit_normal(ch, np.array([1.0, 1.0]))


def test_boundary_proximity_guard():
    ch = cone(0.5)
    with pytest.raises(BoundaryProximityError):
        geometric_sample(ch, np.array([0.5, 1.0]), use_analytic=False)


@pytest.mark.parametrize("fn", [shape_packet, first_fundamental, unit_normal])
def test_single_point_callers_read_only_the_point(fn, tmp_path):
    # the map's jets and exact jets read u itself, so they need no margin:
    # sqrt(u) holds up to u = 0, where its jet divides by zero
    path = tmp_path / "sqrt.txt"
    path.write_text("type: hypersurface\nc: 0\nu: 0, 1\nv: 0, 1\nx1: u\nx2: v\nx3: sqrt(u)\n")
    ch = load_chart_file(str(path))
    assert ch.jacobian is None
    fn(ch, np.array([1e-9, 0.5]))
    with pytest.raises(ExpressionError, match="divide by zero"):
        fn(ch, np.array([0.0, 0.5]))
    for chart in (cone(0.5), replace(cone(0.5), jacobian=None, hessian=None)):
        fn(chart, np.array([0.5 + 1e-9, 1.0]))


def test_a_single_point_jet_that_fails_names_the_expression(tmp_path):
    # exact jets read u itself: at u = 0 sqrt(u) holds and its jets divide by zero
    ch = _load(tmp_path, "sqrt.txt",
               "type: hypersurface\nc: 0\nu: 0, 1\nv: 0, 1\nx1: u\nx2: v\nx3: sqrt(u)\n")
    with pytest.raises(ExpressionError, match="^evaluation failed for 'sqrt\\(u\\)': divide by zero"):
        shape_packet(ch, np.array([0.0, 0.5]))
    shape_packet(ch, np.array([0.001, 0.5]))


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


CONE_FILE = ("type: hypersurface\nc: 0\nu: 1/2, 2\nv: 0, 2*pi\n"
             f"x1: u*cos(v)*{R6!r}\nx2: u*sin(v)*{R6!r}\nx3: u\n")
H3_SPHERE_FILE = ("type: hypersurface\nc: -1\nu: 0.45, 2.65\nv: 0, 2*pi\n"
                  "x1: sinh(0.8)*sin(u)*cos(v)\nx2: sinh(0.8)*sin(u)*sin(v)\n"
                  "x3: sinh(0.8)*cos(u)\nx4: cosh(0.8)\n")


def _load(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return load_chart_file(str(path))


def _cone_file(tmp_path):
    """The r = 1/sqrt(6) cone as a chart file: its map, which takes jets."""
    return _load(tmp_path, "cone.txt", CONE_FILE)


def _h3_sphere_file(tmp_path):
    """A geodesic sphere of radius 0.8 in H^3 as a chart file."""
    return _load(tmp_path, "h3.txt", H3_SPHERE_FILE)


# stencil-path values recorded with the nested per-point stencils this
# lattice replaced: (u, f, grad f, lap f, |A|^2, A(grad f)), the file
# charts' with finite-difference jets of their maps; the jet-cone
# lap f is recorded from the non-divergence Laplacian on the straight-line
# f-lattice, whose truncation error is within JET_CONE_LAP_ERROR of the
# closed form (the divergence scheme's was 9.3e-8 and 2.8e-6)
PINNED = {
    "file-cone": [
        ((1.3, 2.0), 0.8722257069204891, (-0.5750938539921523, 8.929628779622479e-09),
         0.4423800659848916, 3.043110735330094, (1.2907727046906771e-11, 1.5580478225811173e-08)),
        ((0.8, 4.5), 1.4173667737668345, (-1.518606888050746, 1.1696368384201088e-08),
         1.898255415696922, 8.03571428548237, (-8.156452294303422e-12, 3.315956742044039e-08)),
    ],
    "jet-cone": [
        ((1.3, 2.0), 0.8722257069443703, (-0.5750938526165209, 1.305118373096309e-14),
         0.44237988665988204, 3.0431107354184275, (0.0, 2.2823825951142474e-14)),
        ((0.8, 4.5), 1.4173667737846019, (-1.518606887354244, 2.0703166994159483e-13),
         1.898258609254369, 8.035714285714281, (0.0, 5.864844657399725e-13)),
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


# measured: 1.5e-8 and 4.6e-7 from f1/(s^2 u^3)
JET_CONE_LAP_ERROR = {(1.3, 2.0): 5e-8, (0.8, 4.5): 1e-6}


def _pinned_charts(tmp_path):
    return {"file-cone": _cone_file(tmp_path), "jet-cone": cone(R6),
            "jet-sphere": sphere_in_sphere(2, 0.7), "jet-sphere-m3": sphere_in_sphere(3, 0.4),
            "file-h3-sphere": _h3_sphere_file(tmp_path)}


@pytest.mark.parametrize("name", ["file-cone", "file-h3-sphere", "jet-cone", "jet-sphere-m3"])
def test_stencil_classify_stays_inside_the_domain(name, tmp_path):
    ch = _pinned_charts(tmp_path)[name]
    points = []

    def recording(fn):
        def wrapped(w):
            points.append(np.asarray(w).reshape(-1, ch.m))
            return fn(w)
        return wrapped

    watched = replace(ch, **{cb: recording(getattr(ch, cb))
                             for cb in ("map", "jacobian", "hessian")
                             if getattr(ch, cb) is not None})
    lo, hi = np.array(ch.domain).T
    for grid in (4, 8):
        points.clear()
        classify(watched, PQParams(2.5, 2.5), n_per_axis=grid, use_analytic=False)
        X = np.concatenate(points)
        outside = np.any((X < lo) | (X > hi), axis=1)
        assert not outside.any(), (grid, int(outside.sum()), len(X))


def test_stencil_pinned_values(tmp_path):
    charts = _pinned_charts(tmp_path)
    for name, rows in PINNED.items():
        fd = name.startswith("file")
        # the file charts' pinned values carry the rounding of finite-difference
        # map jets through two stencil levels
        tol_grad, tol_lap = (1e-7, 1e-5) if fd else (1e-10, 1e-8)
        for u, f, grad_f, lap, normA2, A_grad_f in rows:
            s = geometric_sample(charts[name], np.array(u), use_analytic=False)
            assert s.f == pytest.approx(f, rel=1e-9), name
            assert s.normA2 == pytest.approx(normA2, rel=1e-9), name
            assert np.allclose(s.grad_f, grad_f, rtol=0, atol=tol_grad), name
            assert s.laplacian_f == pytest.approx(lap, abs=tol_lap), name
            assert np.allclose(s.A_grad_f, A_grad_f, rtol=0, atol=tol_grad), name
            if name == "jet-cone":
                closed = geometric_sample(charts[name], np.array(u)).laplacian_f
                assert abs(s.laplacian_f - closed) < JET_CONE_LAP_ERROR[u], u


def test_batched_sample_equals_per_point_calls(tmp_path, monkeypatch):
    monkeypatch.setattr(immersion, "KERNEL_POINTS", 1024)
    # 100 and 64 grid points: two kernel batches (KERNEL_POINTS) of 78 and
    # of 40 grid points, whose f-lattices have 13 and 25 points
    map_only_sphere = replace(sphere_in_sphere(3, 0.4), jacobian=None, hessian=None)
    calls = []

    def counted(fn):
        def wrapped(w):
            calls.append(len(np.asarray(w)))
            return fn(w)
        return wrapped

    for ch, pts in ((_cone_file(tmp_path), sample_grid(cone(R6), 10)),
                    (cone(R6), sample_grid(cone(R6), 10)),
                    (_h3_sphere_file(tmp_path), sample_grid(great_sphere(2), 10)),
                    (map_only_sphere, sample_grid(map_only_sphere, 4))):
        # the map takes the f points of a map-only chart, the jacobian those of exact jets
        lattice_cb = "map" if ch.hessian is None else "jacobian"
        calls.clear()
        batch = geometric_sample(replace(ch, **{lattice_cb: counted(getattr(ch, lattice_cb))}),
                                 pts, use_analytic=False)
        assert len(calls) == 2, (ch.name, calls)
        assert batch.f.shape == (len(pts),)
        for i in (0, len(pts) // 2, len(pts) - 1):
            one = geometric_sample(ch, pts[i], use_analytic=False)
            for fd in fields(GeometricSample):
                if fd.name != "m":
                    assert np.array_equal(getattr(batch, fd.name)[i],
                                          getattr(one, fd.name)), (ch.name, fd.name)


@pytest.mark.parametrize("ch", [cone(R6), plane(), sphere_in_sphere(2, 0.7),
                                sphere_in_sphere(3, 0.4), great_sphere(2)], ids=lambda ch: ch.name)
def test_catalog_maps_carry_jets_that_match_their_callbacks(ch):
    # the catalog keeps its exact callbacks, but its maps run on jets too;
    # measured: equal bit for bit
    U = sample_grid(ch, 4)
    J, H, P = immersion._jets(replace(ch, jacobian=None, hessian=None), U)
    assert np.array_equal(P, ch.map(U))
    assert np.allclose(J, ch.jacobian(U), rtol=0, atol=1e-15)
    assert np.allclose(H, ch.hessian(U), rtol=0, atol=1e-15)


def test_the_jet_cone_file_is_the_catalog_cone(tmp_path):
    exact, U = cone(R6), sample_grid(cone(R6), 8)
    eps = np.finfo(float).eps
    # u*cos(v)*r rounds otherwise than the catalog's r*u*cos(v): a few ulp
    J, H, P = immersion._jets(_cone_file(tmp_path), U)
    for cb, got in (("map", P), ("jacobian", J), ("hessian", H)):
        want = getattr(exact, cb)(U)
        assert np.allclose(got, want, rtol=2 * eps, atol=2 * eps), cb
    # in the catalog's order the file is the same map, and the stencil path agrees
    ordered = _load(tmp_path, "cone-ordered.txt",
                    CONE_FILE.replace(f"u*cos(v)*{R6!r}", f"{R6!r}*u*cos(v)")
                    .replace(f"u*sin(v)*{R6!r}", f"{R6!r}*u*sin(v)"))
    s = geometric_sample(ordered, U, use_analytic=False)
    t = geometric_sample(exact, U, use_analytic=False)
    for fd in fields(GeometricSample):
        if fd.name != "m":
            got, want = getattr(s, fd.name), getattr(t, fd.name)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), fd.name


@pytest.mark.parametrize("c", [0, -1])
def test_a_jet_chart_file_takes_its_jets_once_on_the_f_lattice(c, tmp_path):
    ch = _cone_file(tmp_path) if c == 0 else _h3_sphere_file(tmp_path)
    assert ch.jacobian is None and ch.hessian is None
    rows = []

    def counted(w):
        rows.append((type(w), np.asarray(w).shape))
        return ch.map(w)

    classify(replace(ch, map=counted), PQParams(4 / 3, 3), n_per_axis=4)
    # 16 grid points of 13 f points, in one call on their jet
    assert rows == [(jets.Jet, (208, 2))]


def test_an_h3_chart_file_calls_its_map_once_per_batch_on_jets(tmp_path, monkeypatch):
    # one degree-2 jet gives the model check's points, J and H: no float map
    # call, and no jacobian or hessian callback
    monkeypatch.setattr(immersion, "KERNEL_POINTS", 1024)
    ch = _h3_sphere_file(tmp_path)
    calls = []

    def recording(name):
        fn = getattr(ch, name)

        def wrapped(w):
            calls.append((name, type(w), len(np.asarray(w))))
            return fn(w)
        return wrapped

    callbacks = {name: recording(name) for name in ("map", "jacobian", "hessian")
                 if getattr(ch, name) is not None}
    classify(replace(ch, **callbacks), PQParams(4 / 3, 3), n_per_axis=10)
    # 100 grid points of 13 f points: batches of 78 and 22 grid points
    assert calls == [("map", jets.Jet, 78 * 13), ("map", jets.Jet, 22 * 13)]


def test_the_jet_cone_file_classifies_proper_within_7e_5(tmp_path):
    # measured: 6.6e-5, where finite-difference jets of the map gave 9.3e-5
    report = classify(_cone_file(tmp_path), PQParams(4 / 3, 3), n_per_axis=4)
    assert report.classification.value == "ProperPQHarmonic"
    assert report.max_abs_eq1 <= 7e-5


def test_stencil_samples_each_lattice_point_once(tmp_path):
    ch = _cone_file(tmp_path)
    calls = []

    def counted(w):
        calls.append(np.array(w, dtype=float))
        return ch.map(w)

    geometric_sample(replace(ch, map=counted), np.array([1.3, 2.0]), use_analytic=False)
    assert len(calls) == 1 and calls[0].ndim == 2
    rows = calls[0]
    # the f-lattice, once; nested per-point stencils made 5,619 map calls here
    assert len(rows) == 13
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
    assert jets == {"jacobian": [(13, 2)], "hessian": [(13, 2)]}


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
        for cb, shape in (("map", (dim,)), ("jacobian", (dim, m)), ("hessian", (dim, m, m))):
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


def test_chart_file_classify_calls_the_map_once_per_batch(tmp_path, monkeypatch):
    monkeypatch.setattr(immersion, "KERNEL_POINTS", 1024)
    ch = _cone_file(tmp_path)
    calls = []

    def counted(w):
        calls.append(np.asarray(w).shape)
        return ch.map(w)

    counting = replace(ch, map=counted)
    classify(counting, PQParams(4 / 3, 3), n_per_axis=4)
    # 13 f points per grid point, in one call
    assert calls == [(208, 2)]
    calls.clear()
    classify(counting, PQParams(4 / 3, 3), n_per_axis=10)
    # one call per KERNEL_POINTS batch of f points: 100 grid points of 13
    assert immersion.KERNEL_POINTS // 13 < 100
    assert len(calls) == 2 and all(len(s) == 2 for s in calls)


@pytest.mark.parametrize("build", [lambda: cone(R6), lambda: sphere_in_sphere(2, 0.6),
                                   lambda: sphere_in_sphere(3, 0.4), lambda: great_sphere(2)],
                         ids=["cone", "sphere-m2", "sphere-m3", "great-sphere"])
def test_grid_point_rows_equal_the_single_point_kernel(build):
    # the stencil path takes A and |A|^2 at its grid points only, in batches;
    # with exact jets a grid point's row carries the bits of the one-point kernel
    ch = build()
    U = sample_grid(ch, 4)
    sample = geometric_sample(ch, U, use_analytic=False)
    for i, u in enumerate(U):
        assert np.array_equal(sample.g[i], first_fundamental(ch, u).g), (ch.name, i)
        assert sample.normA2[i] == shape_packet(ch, u).normA2, (ch.name, i)


def test_the_m3_grid_runs_in_one_batch():
    ch = sphere_in_sphere(3, 0.4)
    calls = []

    def counted(w):
        calls.append(len(w))
        return ch.jacobian(w)

    classify(replace(ch, jacobian=counted), PQParams(1 / 0.6, 3), n_per_axis=4,
             use_analytic=False)
    # 4^3 grid points of 25 f points each
    assert calls == [1600]


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


# the orientation of builtins and chart files is the volume form's
@pytest.mark.parametrize("make", [lambda tmp_path: cone(0.5), _cone_file, _h3_sphere_file],
                         ids=["cone", "file-cone", "file-h3-sphere"])
def test_flipped_chart_negates_stencil_quantities(make, tmp_path):
    ch = make(tmp_path)
    pts = sample_grid(ch, 4)
    s = geometric_sample(ch, pts, use_analytic=False)
    t = geometric_sample(ch.flipped(), pts, use_analytic=False)
    for name in ("f", "grad_f", "laplacian_f"):
        assert np.allclose(getattr(t, name), -getattr(s, name), rtol=1e-13, atol=1e-15), name
    assert np.allclose(t.normA2, s.normA2, rtol=1e-13)


def test_flipped_map_only_chart_samples_its_lattice_once(tmp_path):
    ch = _cone_file(tmp_path)
    rows = []

    def counted(w):
        rows.append(len(np.asarray(w)))
        return ch.map(w)

    watched = replace(ch, map=counted)
    pts = sample_grid(ch, 4)
    s = geometric_sample(watched, pts, use_analytic=False)
    for flipped in (watched.flipped(), watched.flipped().flipped()):
        rows.clear()
        t = geometric_sample(flipped, pts, use_analytic=False)
        # a reference normal from unit_normal of the unflipped chart cost rows more
        assert rows == [208]
        rows.clear()
        geometric_sample(flipped, U_CONE, use_analytic=False)
        assert rows == [13]
    t = geometric_sample(watched.flipped(), pts, use_analytic=False)
    _same_sample(t, flip_sample(s), slice(None))
    assert np.array_equal(unit_normal(watched.flipped(), pts), -unit_normal(watched, pts))
    assert np.array_equal(unit_normal(watched.flipped().flipped(), pts), unit_normal(watched, pts))


# the closed-form normals each builtin's f is stated for, as the orientation oracle
def _sphere_normal(m, a2):
    """(b omega, -a) of S^m(a) in S^(m+1), under which f = -b/a."""
    a, b = math.sqrt(a2), math.sqrt(1.0 - a2)
    return lambda u: np.concatenate([b * _omega(u), np.full(u.shape[:-1] + (1,), -a)], axis=-1)


def _cone_normal(w):
    """(-cos v, -sin v, r)/sqrt(1 + r^2) of cone(R6), under which f > 0."""
    v = w[..., 1]
    return np.stack([-np.cos(v), -np.sin(v), np.full(v.shape, R6)], axis=-1) / math.sqrt(1 + R6**2)


ORIENTED = {**{f"sphere-m{m}": (lambda m=m: sphere_in_sphere(m, 0.4), _sphere_normal(m, 0.4))
               for m in (1, 2, 3, 4)},
            "great-sphere": (lambda: great_sphere(2), _sphere_normal(2, 1.0)),
            "cone": (lambda: cone(R6), _cone_normal),
            "plane": (plane, lambda w: np.broadcast_to([0.0, 0.0, 1.0], w.shape[:-1] + (3,)))}


@pytest.mark.parametrize("name", list(ORIENTED))
def test_builtins_take_the_closed_form_normal_from_the_volume_form(name):
    make, normal = ORIENTED[name]
    ch = make()
    assert ch.reference_normal is None
    pts = sample_grid(ch, 8 if ch.m <= 2 else 4)
    eta = unit_normal(ch, pts)
    # measured: the cofactor normal is within 2.2e-16 of the closed form
    assert np.allclose(eta, normal(pts), rtol=0, atol=1e-15)
    assert np.array_equal(unit_normal(ch.flipped(), pts), -eta)
    for use_analytic in (True, False):
        s = geometric_sample(ch, pts, use_analytic=use_analytic)
        t = geometric_sample(ch.flipped(), pts, use_analytic=use_analytic)
        _same_sample(t, flip_sample(s), slice(None))


@pytest.mark.parametrize("sign", [1, -1])
def test_a_reference_normal_orients_a_user_chart_and_flips(sign):
    base = cone(R6)
    ch = replace(base, reference_normal=lambda w: sign * _cone_normal(w))
    pts = sample_grid(ch, 4)
    eta = unit_normal(ch, pts)
    assert np.array_equal(eta, sign * unit_normal(base, pts))
    assert np.array_equal(unit_normal(ch.flipped(), pts), -eta)
    assert np.array_equal(unit_normal(ch.flipped().flipped(), pts), eta)
    s = geometric_sample(ch, pts, use_analytic=False)
    _same_sample(geometric_sample(ch.flipped(), pts, use_analytic=False), flip_sample(s),
                 slice(None))


def test_map_jets_match_nested_stencils(tmp_path):
    # the map's jets against the nested partial1 / partial2 stencils at
    # h = f_step / 8 on every axis, which balances their truncation and
    # rounding.  Measured: J 1.5e-13, H 9.0e-11
    map_only_sphere = replace(sphere_in_sphere(3, 0.4), jacobian=None, hessian=None)
    for ch, u in ((_cone_file(tmp_path), U_CONE),
                  (map_only_sphere, np.array([1.0, 1.4, 2.0]))):
        h = ch.f_step() / 8
        J, H, P = immersion._jets(ch, u[None])
        assert np.array_equal(P[0], ch.map(u))
        J_ref = np.stack([partial1(ch.map, u, a, h) for a in range(ch.m)], axis=1)
        assert np.allclose(J[0], J_ref, rtol=0, atol=1e-12)
        for a in range(ch.m):
            for b in range(ch.m):
                H_ref = partial2(ch.map, u, a, b, h)
                assert np.allclose(H[0, :, a, b], H_ref, rtol=0, atol=1e-9), (ch.name, a, b)


def _skew(u):
    """X = (u + 0.4v, v - 0.3u^2, sin(u + 0.7v) cos(uv/2) + 0.2uv): g_uv and
    B_uv are far from 0, so the mixed entries of H reach f."""
    u, v = u[..., 0], u[..., 1]
    return np.stack([u + 0.4 * v, v - 0.3 * u * u,
                     np.sin(u + 0.7 * v) * np.cos(0.5 * u * v) + 0.2 * u * v], axis=-1)


def _skew_jacobian(u):
    u, v = u[..., 0], u[..., 1]
    cs, ss = np.cos(u + 0.7 * v), np.sin(u + 0.7 * v)
    ct, st = np.cos(0.5 * u * v), np.sin(0.5 * u * v)
    one = np.ones_like(u)
    return np.stack([np.stack([one, 0.4 * one], -1), np.stack([-0.6 * u, one], -1),
                     np.stack([cs * ct - 0.5 * v * ss * st + 0.2 * v,
                               0.7 * cs * ct - 0.5 * u * ss * st + 0.2 * u], -1)], axis=-2)


def _skew_hessian(u):
    u, v = u[..., 0], u[..., 1]
    cs, ss = np.cos(u + 0.7 * v), np.sin(u + 0.7 * v)
    ct, st = np.cos(0.5 * u * v), np.sin(0.5 * u * v)
    H = np.zeros(u.shape + (3, 2, 2))
    H[..., 1, 0, 0] = -0.6
    H[..., 2, 0, 0] = -ss * ct - v * cs * st - 0.25 * v * v * ss * ct
    H[..., 2, 1, 1] = -0.49 * ss * ct - 0.7 * u * cs * st - 0.25 * u * u * ss * ct
    H[..., 2, 0, 1] = H[..., 2, 1, 0] = (-0.7 * ss * ct - 0.5 * u * cs * st - 0.5 * ss * st
                                         - 0.35 * v * cs * st - 0.25 * u * v * ss * ct + 0.2)
    return H


def test_fd_jets_and_samples_match_exact_jets_on_a_skew_chart():
    # the map-only chart's jets come from its map, the other's from the
    # hand-written callbacks: they differ by rounding alone
    fd = ImmersionChart(sf=SpaceForm(3, 0.0), m=2, domain=((0.2, 1.8), (-0.7, 0.9)),
                        map=_skew, name="skew")
    exact = replace(fd, jacobian=_skew_jacobian, hessian=_skew_hessian)
    pts = sample_grid(fd, 4)
    assert np.max(np.abs(geometric_sample(exact, pts, use_analytic=False).g[:, 0, 1])) > 0.5
    # measured at the grid points and their f-lattices: J and H 2.2e-16
    lattice = (pts[:, None] + immersion._f_lattice(2) * fd.f_step()).reshape(-1, 2)
    for X in (pts, lattice):
        J, H, _ = immersion._jets(fd, X)
        assert np.allclose(J, _skew_jacobian(X), rtol=0, atol=2e-15), len(X)
        assert np.allclose(H, _skew_hessian(X), rtol=0, atol=2e-15), len(X)
    s = geometric_sample(fd, pts, use_analytic=False)
    t = geometric_sample(exact, pts, use_analytic=False)
    # measured: f 1.1e-16, grad f 5.5e-14, lap f 6.1e-11, |A|^2 4.4e-16
    for name, atol in (("f", 2e-15), ("grad_f", 6e-13), ("laplacian_f", 7e-10),
                       ("normA2", 5e-15)):
        assert np.allclose(getattr(s, name), getattr(t, name), rtol=0, atol=atol), name


# the linear reparametrization (u, v) = M (s, t) of the cone: g_st and the
# Christoffel symbols of (s, t) are far from 0, so the non-divergence
# Laplacian reads every term
_SKEW_M = np.array([[0.8, 0.05], [0.4, 1.0]])


def _reparametrized_cone():
    """cone(1/sqrt 6) over (s, t) in (0.7, 1.9) x (0.5, 4.5), with exact jets
    by the chain rule: J M, and M^T H M per ambient component."""
    base = cone(R6)

    def uv(w):
        return w @ _SKEW_M.T

    return ImmersionChart(
        sf=base.sf, m=2, domain=((0.7, 1.9), (0.5, 4.5)),
        map=lambda w: base.map(uv(w)), jacobian=lambda w: base.jacobian(uv(w)) @ _SKEW_M,
        hessian=lambda w: _SKEW_M.T @ base.hessian(uv(w)) @ _SKEW_M,
        # det M scales the volume form: keep the cone's normal, and its f
        orientation=int(np.sign(np.linalg.det(_SKEW_M))), name="skew-cone")


@pytest.mark.parametrize("fd", [False, True], ids=["exact-jets", "map-only"])
def test_laplacian_of_a_skew_reparametrized_cone_matches_the_closed_form(fd):
    ch = _reparametrized_cone()
    if fd:
        ch = replace(ch, jacobian=None, hessian=None)
    assert abs(geometric_sample(ch, np.array([1.3, 2.5]), use_analytic=False).g[0, 1]) > 0.05
    # measured at grids 4 and 8: exact jets 2.5e-8 (1.1e-6 in divergence
    # form), and the map's jets 2.5e-8; each bound is at least 10x the larger
    bound = 2e-5
    for grid in (4, 8):
        pts = sample_grid(ch, grid)
        closed = cone(R6).analytic_geometry(pts @ _SKEW_M.T).laplacian_f
        lap = geometric_sample(ch, pts, use_analytic=False).laplacian_f
        assert np.max(np.abs(lap - closed)) < bound, grid
    report = classify(ch, PQParams(4 / 3, 3.0), n_per_axis=4, use_analytic=False)
    assert report.classification.value == "ProperPQHarmonic", report.max_abs_eq1


def _lifted_cone(c, scale):
    """The cone scale * X_cone(u, v) of R^3 lifted into the model of curvature
    c = +-1 as (Y, sqrt(1 - c |Y|^2)), with exact jets by the chain rule: f
    varies, and the last coordinate enters the pairing with the sign of c."""
    base = cone(R6)

    def lift(Y):
        """The last coordinate sqrt(1 - c |Y|^2), on floats or jets."""
        return np.sqrt(1.0 - c * (Y[..., 0] * Y[..., 0] + Y[..., 1] * Y[..., 1]
                                  + Y[..., 2] * Y[..., 2]))

    def parts(w):
        Y, J = scale * base.map(w), scale * base.jacobian(w)
        x0 = lift(Y)
        d0 = -c * np.einsum("...k,...ka->...a", Y, J) / x0[..., None]
        return Y, J, x0, d0

    def chart_map(w):
        Y = scale * base.map(w)
        return np.concatenate([Y, lift(Y)[..., None]], axis=-1)

    def jacobian(w):
        _, J, _, d0 = parts(w)
        return np.concatenate([J, d0[..., None, :]], axis=-2)

    def hessian(w):
        Y, J, x0, d0 = parts(w)
        H = scale * base.hessian(w)
        H0 = (-c * (np.einsum("...ka,...kb->...ab", J, J) + np.einsum("...k,...kab->...ab", Y, H))
              - d0[..., :, None] * d0[..., None, :]) / x0[..., None, None]
        return np.concatenate([H, H0[..., None, :, :]], axis=-3)

    return ImmersionChart(sf=SpaceForm(3, float(c)), m=2, domain=base.domain, map=chart_map,
                          jacobian=jacobian, hessian=hessian, name=f"lifted-cone(c={c})")


def _divergence_laplacian(chart, u, h):
    """Lap f = (1/sqrt det g) d_a (sqrt(det g) g^ab d_b f) at u, by nested
    per-point stencils of step h over the single-point f and g."""
    def flux(a):
        def W(w):
            ff = first_fundamental(chart, w)
            df = [partial1(lambda x: shape_packet(chart, x).f, w, b, h) for b in range(chart.m)]
            return math.sqrt(ff.det_g) * (ff.g_inv[a] @ df)
        return W
    div = sum(partial1(flux(a), u, a, h) for a in range(chart.m))
    return div / math.sqrt(first_fundamental(chart, u).det_g)


# measured against the reference at h = 0.01: S^3 (|Lap f| up to 85)
# exact jets and the map's jets 1.1e-4 (2.9e-4 with the engine's Lap f
# in divergence form), H^3 (|Lap f| up to 5.5) 1.1e-5 (2.5e-5); each
# bound is at least 10x the larger.
# Dropping the Minkowski signs from the Christoffel term moves the H^3
# Lap f by 4.0
@pytest.mark.parametrize("c, scale, atol", [(1, 0.4, 3e-3), (-1, 1.0, 3e-4)], ids=["S3", "H3"])
def test_laplacian_in_curved_models_matches_the_divergence_form(c, scale, atol):
    ch = _lifted_cone(c, scale)
    pts = sample_grid(ch, 4)[::5]
    ref = np.array([_divergence_laplacian(ch, u, 0.01) for u in pts])
    for chart in (ch, replace(ch, jacobian=None, hessian=None)):
        s = geometric_sample(chart, pts, use_analytic=False)
        assert np.max(np.abs(s.grad_f)) > 1.0
        assert np.allclose(s.laplacian_f, ref, rtol=0, atol=atol), chart.jacobian is None


@pytest.mark.parametrize("det", [1, -1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rigid_motion_keeps_eq1_and_orients_f_by_det(seed, det):
    base = cone(R6)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    if np.linalg.det(Q) * det < 0:
        Q[:, 2] *= -1.0
    # map-only charts: the orientation comes from the volume form
    before, after = (ImmersionChart(sf=base.sf, m=2, domain=base.domain, map=fn)
                     for fn in (base.map, lambda u: base.map(u) @ Q.T))
    pts = sample_grid(base, 4)
    params = PQParams(2.5, 2.5)
    s, t = (geometric_sample(ch, pts, use_analytic=False) for ch in (before, after))
    # rounding of the map, amplified by the f-lattice stencils; measured:
    # f 8.9e-16 and |A|^2 1.8e-15 relative, eq1 2.3e-11 relative
    assert np.allclose(t.f, det * s.f, rtol=1e-14, atol=0)
    assert np.allclose(t.normA2, s.normA2, rtol=2e-14, atol=0)
    assert np.allclose(residual(t, params)[0], residual(s, params)[0], rtol=3e-10, atol=0)


def _moved(chart, M):
    """The chart moved by the ambient isometry M (dim, dim)."""
    return replace(chart, map=lambda u: chart.map(u) @ M.T)


def _assert_same_geometry(before, after, f_rtol, normA2_rtol, lap_atol, eq1_atol):
    # M has det +1, so f keeps its sign; each bound is at least 10x the
    # largest rounding difference measured
    pts = sample_grid(before, 4)
    s, t = (geometric_sample(ch, pts, use_analytic=False) for ch in (before, after))
    assert np.allclose(t.f, s.f, rtol=f_rtol, atol=0)
    assert np.allclose(t.normA2, s.normA2, rtol=normA2_rtol, atol=0)
    assert np.allclose(t.laplacian_f, s.laplacian_f, rtol=0, atol=lap_atol)
    params = PQParams(2.5, 2.5)
    assert np.allclose(residual(t, params)[0], residual(s, params)[0], rtol=0, atol=eq1_atol)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotation_keeps_the_geometry_of_a_map_only_sphere_in_s3(seed):
    base = replace(sphere_in_sphere(2, 0.4), jacobian=None, hessian=None)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    if np.linalg.det(Q) < 0:
        Q[:, 3] *= -1.0
    # measured: f 8.9e-16 and |A|^2 1.8e-15 relative, lap f 1.7e-10, eq1 3.2e-10
    _assert_same_geometry(base, _moved(base, Q), f_rtol=1e-14, normA2_rtol=2e-14,
                          lap_atol=2e-9, eq1_atol=4e-9)


@pytest.mark.parametrize("rapidity", [0.5, 1.5])
def test_lorentz_boost_keeps_the_geometry_of_the_h3_sphere_file(rapidity, tmp_path):
    ch = _h3_sphere_file(tmp_path)
    B = np.eye(4)
    B[0, 0] = B[3, 3] = math.cosh(rapidity)
    B[0, 3] = B[3, 0] = math.sinh(rapidity)
    # measured at rapidity 1.5: f 3.1e-15 and |A|^2 6.2e-15 relative,
    # lap f 3.0e-10, eq1 6.7e-10; the rounding grows with cosh(rapidity)
    _assert_same_geometry(ch, _moved(ch, B), f_rtol=4e-14, normA2_rtol=7e-14,
                          lap_atol=3e-9, eq1_atol=7e-9)


def _m_cone(m, q):
    """The map-only cone X(u, w) = (r u omega(w), u) over S^(m-1)(r) in
    R^(m+1), with r^2 = (m-1)/(q(q-1)): proper (p,q)-harmonic at p = 2 - m/q."""
    r = math.sqrt((m - 1) / (q * (q - 1)))

    def X(u):
        return np.concatenate([r * u[..., :1] * _omega(u[..., 1:]), u[..., :1]], axis=-1)
    domain = ((0.5, 2.0),) + ((0.45, 2.65),) * (m - 2) + ((0.0, 2.0 * math.pi),)
    return ImmersionChart(sf=SpaceForm(m + 1, 0.0), m=m, domain=domain, map=X,
                          name=f"cone-m{m}")


_ROUNDING_LIMITED = pytest.mark.xfail(
    strict=True, reason="the truncation error of the f-lattice stencils leaves max |eq1| "
    "above the absolute 1e-3; ROADMAP items 1 and 4 (a finer or higher-order f-lattice, an "
    "error-estimated verdict) are to make it pass")


@pytest.mark.parametrize("m, q", [(3, 4.0), pytest.param(3, 5.5, marks=_ROUNDING_LIMITED),
                                  pytest.param(3, 8.0, marks=_ROUNDING_LIMITED)])
def test_map_only_m_cone_classifies_proper_on_the_stencil_path(m, q):
    # max |eq1| at grid 4 with the map's jets: 2.3e-4 at q = 4, 1.5e-3 at
    # q = 5.5, 9.7e-3 at q = 8 (4.0e-4, 2.9e-3 and 2.3e-2 with
    # finite-difference jets of the map)
    report = classify(_m_cone(m, q), PQParams(2 - m / q, q), n_per_axis=4, use_analytic=False)
    assert report.classification.value == "ProperPQHarmonic", report.max_abs_eq1


def test_f_lattice_is_built_once_and_read_only(tmp_path):
    lattice = immersion._f_lattice(2)
    assert immersion._f_lattice(2) is lattice
    # the centre and 4 points on each of the lines e_0, e_1 and e_0 + e_1:
    # 13 for m = 2, 25 for m = 3 and 41 for m = 4, all distinct
    for m, size in ((2, 13), (3, 25), (4, 41)):
        offsets = immersion._f_lattice(m)
        assert offsets.shape == (size, m) and len(np.unique(offsets, axis=0)) == size
    with pytest.raises(ValueError):
        lattice[0, 0] = 0
    # a second map-only chart of the same m builds nothing
    misses = immersion._f_lattice.cache_info().misses
    ch = _cone_file(tmp_path)
    flat = replace(ch, map=lambda u: np.concatenate([u, np.zeros(u.shape[:-1] + (1,))], -1))
    for chart in (ch, flat):
        classify(chart, PQParams(2.5, 2.5), n_per_axis=4, use_analytic=False)
    assert immersion._f_lattice.cache_info().misses == misses


def _omega_partial(u, j, axes):
    """d/du_axes of omega_j at one point, from sin^(k)(x) = sin(x + k pi/2)."""
    m = len(u)
    out = 1.0
    for i in range(m):
        k = axes.count(i)
        if i < j or j == m:
            out *= math.sin(u[i] + k * math.pi / 2)
        elif i == j:
            out *= math.cos(u[i] + k * math.pi / 2)
        elif k:
            out = 0.0
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_omega_is_the_product_of_its_factors(m):
    u = np.random.default_rng(m).uniform(0.3, 2.8, size=(5, m))
    for order in range(3):
        got = _omega(u, order)
        assert got.shape == (5, m + 1) + (m,) * order
        for n in range(len(u)):
            for j in range(m + 1):
                for axes in itertools.product(range(m), repeat=order):
                    assert got[(n, j) + axes] == pytest.approx(
                        _omega_partial(u[n], j, axes), rel=1e-14, abs=1e-15)


def _linspace_grid(chart, n):
    """The grid as np.linspace and np.meshgrid build it: the reference for sample_grid."""
    lo, hi = np.array(chart.domain, dtype=float).T
    mg = np.maximum(immersion.GRID_MARGIN * chart.f_step(), 0.02 * (hi - lo))
    axes = np.linspace(lo + mg, hi - mg, n).T
    return np.stack([ax.ravel() for ax in np.meshgrid(*axes, indexing="ij")], axis=1)


@pytest.mark.parametrize("n", [4, 5, 8, 12, 16])
def test_sample_grid_is_the_linspace_meshgrid_grid_bit_for_bit(n, tmp_path):
    charts = [sphere_in_sphere(m, 0.4) for m in (1, 2, 3, 4)]
    charts += [great_sphere(3), cone(0.45), plane(), _cone_file(tmp_path)]
    for ch in charts:
        pts, ref = sample_grid(ch, n), _linspace_grid(ch, n)
        assert pts.shape == ref.shape == (n ** ch.m, ch.m)
        assert pts.dtype == ref.dtype and pts.tobytes() == ref.tobytes(), (ch.name, n)


def test_grid_index_is_built_once_and_read_only():
    index = immersion._grid_index(5, 3)
    assert immersion._grid_index(5, 3) is index
    assert index.shape == (125, 3)
    with pytest.raises(ValueError):
        index[0, 0] = 1
    # the grid a caller gets is its own
    ch = cone(0.45)
    pts = sample_grid(ch, 5)
    pts[0, 0] = -1.0
    assert sample_grid(ch, 5)[0, 0] > 0


def test_grid_index_keeps_only_small_grids():
    # 65^2 = 4225 points is past the cutoff: built for the call, not kept
    kept = immersion._grid_index.cache_info().currsize
    pts = sample_grid(cone(0.45), 65)
    assert pts.tobytes() == _linspace_grid(cone(0.45), 65).tobytes()
    assert immersion._grid_index.cache_info().currsize == kept
    sample_grid(cone(0.45), 64)
    assert immersion._grid_index.cache_info().currsize <= kept + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_euclidean_g_dot_is_the_identity_einsum_bit_for_bit(m):
    rng = np.random.default_rng(m)
    a, b = rng.standard_normal((2, 4096, m))
    s = GeometricSample(m=m, f=np.zeros(4096), grad_f=a, grad_f_norm2=np.zeros(4096),
                        laplacian_f=np.zeros(4096), normA2=np.zeros(4096), A_grad_f=b,
                        ric_eta_eta=np.zeros(4096), ricci_eta_top=np.zeros((4096, m)))
    ref = np.einsum("...i,...ij,...j->...", a, np.eye(m), b)
    assert s.g_dot(a, b).tobytes() == ref.tobytes()
    ref_norm = np.sqrt(np.maximum(np.einsum("...i,...ij,...j->...", a, np.eye(m), a), 0.0))
    assert s.g_norm(a).tobytes() == ref_norm.tobytes()
    assert s.g_dot(a[0], b[0]) == ref[0]


def _counted_jets(ch, calls):
    def jac(w):
        calls.append(len(w))
        return ch.jacobian(w)
    return replace(ch, jacobian=jac)


@pytest.mark.parametrize("k", [1.3, 1.5, 2.0])
def test_classify_refuses_a_step_the_grid_cannot_hold(k):
    # k times the largest step the grid holds: the grid keeps GRID_MARGIN =
    # 5 f_step from the edge of u, and the f-lattice of exact jets reaches
    # 2 h_step, so it admits h_step up to 2.5 f_step
    ch = cone(R6)
    calls = []
    h_step = k * 2.5 * ch.f_step()
    with pytest.raises(BoundaryProximityError) as err:
        classify(_counted_jets(ch, calls), PQParams(4 / 3, 3.0), use_analytic=False,
                 h_step=h_step)
    message = str(err.value)
    assert f"h_step={h_step:g}" in message and "\n" not in message
    assert f"up to {2.5 * ch.f_step():g}" in message
    assert calls == []     # nothing was sampled
    # geometric_sample on the same grid says the same
    with pytest.raises(BoundaryProximityError) as direct:
        geometric_sample(ch, sample_grid(ch, 8), h_step=h_step, use_analytic=False)
    assert str(direct.value) == message


def test_a_map_only_chart_file_admits_the_default_step(tmp_path):
    # the map's jets read only the f points, 2 h_step out as exact jets do:
    # the grid's 5 f_step from the edge of u hold steps up to 5/2 f_step
    ch = _cone_file(tmp_path)
    pts = sample_grid(ch, 4)
    for k in (1.0, 2.4):
        geometric_sample(ch, pts, h_step=k * ch.f_step(), use_analytic=False)
    with pytest.raises(BoundaryProximityError, match=f"up to {2.5 * ch.f_step():g}$"):
        geometric_sample(ch, pts, h_step=2.6 * ch.f_step(), use_analytic=False)


def test_a_point_at_the_edge_admits_no_step():
    ch = cone(0.5)
    with pytest.raises(BoundaryProximityError, match="admit no h_step"):
        geometric_sample(ch, np.array([[1.0, 2.0], [0.5, 1.0]]), use_analytic=False)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
# "fd" is the chart without exact jets, which takes its jets from the map
@pytest.mark.parametrize("exact, stencil, units", [
    (True, True, 2.0),      # the f-lattice, 2 h_step out
    (False, True, 2.0),     # the same: the map's jets read only the f points
    (False, False, 0.0),    # a single point reads only the point
    (True, False, 0.0),
], ids=["stencil-exact", "stencil-fd", "point-fd", "point-exact"])
def test_the_guard_admits_exactly_the_reach_of_the_lattice(m, exact, stencil, units):
    ch = sphere_in_sphere(m, 0.4)
    ch = ch if exact else replace(ch, jacobian=None, hessian=None)
    h_step = ch.f_step()
    lo, hi = np.array(ch.domain).T

    def sample_at(k):
        """Sample the middle of the domain moved to k h_step from the lower
        edge of its last axis, the azimuth, where the patch is regular."""
        u = (lo + hi) / 2
        u[-1] = lo[-1] + k * h_step
        return geometric_sample(ch, u, use_analytic=False) if stencil else shape_packet(ch, u)

    sample_at(1.01 * units if units else 1e-9)
    if units:
        with pytest.raises(BoundaryProximityError,
                           match=f"^h_step={h_step:g} reaches outside .* "
                                 f"admit h_step up to {0.99 * h_step:g}$"):
            sample_at(0.99 * units)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_second_partials_weigh_the_five_point_rows_bit_for_bit(m):
    # the centre weighed in place, in the order of _weigh over the offsets -2..2
    rng = np.random.default_rng(m)
    centre = rng.standard_normal((7, 3))
    line = rng.standard_normal((7, 3, m * (m + 1) // 2, 4))
    five = np.insert(line, 2, centre[..., None], axis=-1)
    D2 = immersion._weigh(five, immersion.numeric.D2_WEIGHTS) / (0.01 * 0.01)
    H = immersion._second_partials(centre, line, m, 0.01)
    a, b = np.triu_indices(m, 1)
    assert H[..., range(m), range(m)].tobytes() == D2[..., :m].tobytes()
    assert H[..., a, b].tobytes() == ((D2[..., m:] - D2[..., a] - D2[..., b]) / 2).tobytes()
    assert np.array_equal(H, np.swapaxes(H, -1, -2))


@pytest.mark.parametrize("lone", ["jacobian", "hessian"])
def test_a_chart_with_a_lone_exact_jet_is_refused(lone):
    ch = cone(0.5)
    other = "hessian" if lone == "jacobian" else "jacobian"
    with pytest.raises(ValueError, match="give jacobian and hessian together, or neither"):
        replace(ch, **{other: None})
    with pytest.raises(ValueError, match="together"):
        ImmersionChart(sf=ch.sf, m=2, domain=ch.domain, map=ch.map,
                       **{lone: getattr(ch, lone)})


@pytest.mark.parametrize("orientation", [0, 2, -2, 0.5])
def test_an_orientation_other_than_plus_or_minus_one_is_refused(orientation):
    with pytest.raises(ValueError, match=rf"^cone\(r=0.5\): orientation must be \+1 or -1, "
                                         rf"got {orientation}$"):
        replace(cone(0.5), orientation=orientation)


def _nan_past_1_2(fn):
    """The callback fn (on a flat batch), NaN at the points with u > 1.2."""
    def nan_fn(w):
        out = np.array(fn(w), dtype=float)
        out[w[:, 0] > 1.2] = np.nan
        return out
    return nan_fn


def _nan_map_past_1_2(w):
    """cone(R6)'s map, on floats or jets, NaN at the points with u > 1.2."""
    return cone(R6).map(w) + 0.0 * np.sqrt(1.2 - w[..., :1])


def test_a_non_finite_callback_value_is_a_domain_error():
    # the grid reaches u > 1.2: refused before any arithmetic on the values
    base = cone(R6)
    fd = ImmersionChart(sf=base.sf, m=2, domain=base.domain, map=_nan_map_past_1_2)
    with pytest.raises(DomainError,
                       match="^non-finite map value at the points the chart is sampled at$"):
        classify(fd, PQParams(4 / 3, 3.0), use_analytic=False)
    with pytest.raises(DomainError, match="non-finite map value"):
        shape_packet(fd, np.array([1.5, 1.0]))
    shape_packet(fd, np.array([1.0, 1.0]))
    for name in ("jacobian", "hessian"):
        exact = replace(base, **{name: _nan_past_1_2(getattr(base, name))})
        with pytest.raises(DomainError, match=f"non-finite {name} value"):
            classify(exact, PQParams(4 / 3, 3.0), use_analytic=False)
    aligned = replace(base, reference_normal=_nan_past_1_2(_cone_normal))
    with pytest.raises(DomainError, match="non-finite reference_normal value"):
        classify(aligned, PQParams(4 / 3, 3.0), n_per_axis=4, use_analytic=False)


@pytest.mark.parametrize("domain", [((2.0, 0.5), (0.0, 1.0)), ((0.5, 2.0), (1.0, 1.0)),
                                    ((0.5, 2.0), (0.0, float("nan"))),
                                    ((0.5, float("inf")), (0.0, 1.0)), ((-1e308, 1e308), (0, 1))])
def test_a_domain_needs_finite_lo_below_hi(domain):
    with pytest.raises(ValueError,
                       match=r"^cone\(r=0.5\): domain interval .* needs finite lo < hi$"):
        replace(cone(0.5), domain=domain)


@pytest.mark.parametrize("domain", [((0.5, 2.0),), ((0.5, 2.0), (0.0, 1.0), (0.0, 1.0))])
def test_a_domain_needs_one_interval_per_parameter(domain):
    with pytest.raises(ValueError, match=rf"^cone\(r=0.5\): need 2 domain intervals, "
                                         rf"got {len(domain)}$"):
        replace(cone(0.5), domain=domain)


@pytest.mark.parametrize("k", [0.5, 1.0, 1.2, 1.3, 1.5])
def test_classify_takes_a_step_the_grid_holds(k):
    ch = cone(R6)
    report = classify(ch, PQParams(4 / 3, 3.0), use_analytic=False, h_step=k * ch.f_step())
    assert report.classification.value == "ProperPQHarmonic"


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_euclidean_g_dot_is_the_left_to_right_sum_bit_for_bit(m):
    rng = np.random.default_rng(20 + m)
    a, b = rng.standard_normal((2, 4096, m))
    s = GeometricSample(m=m, f=np.zeros(4096), grad_f=a, grad_f_norm2=np.zeros(4096),
                        laplacian_f=np.zeros(4096), normA2=np.zeros(4096), A_grad_f=b,
                        ric_eta_eta=np.zeros(4096), ricci_eta_top=np.zeros((4096, m)))
    for x, y in ((a, b), (a, b[7]), (a[7], b)):
        want = x[..., 0] * y[..., 0]
        for k in range(1, m):
            want = want + x[..., k] * y[..., k]
        assert s.g_dot(x, y).tobytes() == want.tobytes()
