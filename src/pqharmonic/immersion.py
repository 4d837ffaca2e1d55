"""Pointwise geometry of parametrized hypersurface patches.

Everything the (p,q)-harmonic residual system consumes is computed here:
induced metric, unit normal, second fundamental form, shape operator, mean
curvature f, grad f, Laplace-Beltrami of f, |A|^2 and A(grad f).

A composition of central stencils is one weight tensor on an integer
lattice (Fornberg, Math. Comp. 51 (1988) 699-706).  So the stencil path
samples each quantity once per distinct lattice point, batched over all
grid points of a call:

* the f-lattice: grad f takes f at u + k h e_a, and the divergence of the
  flux sqrt(det g) g^-1 df takes it at u + (k e_a + l e_b) h, for k, l in
  {-2, -1, 1, 2} and h = ``h_step``: 33 points for m = 2, 73 for m = 3;
* the jets of the map at each f point come from the exact ``jacobian`` and
  ``hessian`` when the chart has them.  Otherwise they are stencils on the
  map lattice around the point: the centre, +-h_a/2, +-h_a and +-2 h_a per
  axis (deriv1 at h and h/2 with one Richardson level, and deriv2 at h)
  and (i e_a + j e_b) max(h_a, h_b) for the nested mixed stencil.  The map
  is called once per batch, on the distinct points of all these lattices;
* g, det g, g^-1, the unit normal (the null space of the tangent rows, by
  a batched SVD), B, A, f and |A|^2 = tr(A^2) are computed at all f points
  at once, and every guard is checked at every f point.

Catalog entries with closed-form geometry double as cross-checks of the
stencil path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from . import numeric
from .numeric import _weigh
from .errors import BoundaryProximityError, DegenerateImmersionError
from .spaceform import SpaceForm

RANK_TOL = 1e-10
KERNEL_POINTS = 1024        # f points per kernel batch; bounds a call's memory


@dataclass(frozen=True)
class ImmersionChart:
    """A C^4 parametrized hypersurface patch in a space form.

    Every callback acts over the last axis, as :meth:`SpaceForm.pair`
    does: it takes parameter points of shape (..., m) and returns one
    value per point.  ``map`` gives ambient embedding coordinates
    (..., dim).  Optional exact ``jacobian`` (..., dim, m) and ``hessian``
    (..., dim, m, m) callbacks are preferred over finite differences when
    present.  ``reference_normal`` (..., dim) fixes the orientation;
    without it the sign comes from the ambient volume form.
    ``analytic_geometry`` supplies closed-form samples for catalog
    entries, as one :class:`GeometricSample` with its fields stacked along
    axis 0.  The engine calls each callback once per batch, on a flat
    (n, m) array.
    """

    sf: SpaceForm
    m: int
    domain: tuple
    map: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable] = None
    hessian: Optional[Callable] = None
    reference_normal: Optional[Callable] = None
    analytic_geometry: Optional[Callable] = None
    name: str = "chart"

    def widths(self):
        return np.array([hi - lo for lo, hi in self.domain], dtype=float)

    def steps(self):
        """Per-axis steps of the map-derivative stencils."""
        return 1e-3 * self.widths()

    def flipped(self):
        """Same patch with the opposite orientation."""
        ref = self.reference_normal
        ana = self.analytic_geometry
        new_ref = (lambda u: -ref(u)) if ref is not None else None
        new_ana = (lambda u: flip_sample(ana(u))) if ana is not None else None
        return replace(self, reference_normal=new_ref, analytic_geometry=new_ana,
                       name=self.name + "(flipped)")


@dataclass(frozen=True)
class FirstFundamental:
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float


@dataclass(frozen=True)
class ShapePacket:
    eta: np.ndarray        # unit normal, ambient coordinates
    B: np.ndarray          # second fundamental form h(B(d_i, d_j), eta)
    A: np.ndarray          # shape operator g^-1 B
    f: float               # mean curvature trace(A)/m
    normA2: float          # sum of squared principal curvatures


@dataclass(frozen=True)
class GeometricSample:
    """All pointwise quantities the residual equations consume.

    Tangent vectors (grad_f, A_grad_f, ricci_eta_top) are chart-basis
    coefficient arrays of length m; ``g`` is kept so downstream code can
    take g-norms of tangential residuals.  :func:`stack_samples` stacks
    samples of one chart along a new axis 0 of every field but ``m``.
    """

    m: int
    f: float
    grad_f: np.ndarray
    grad_f_norm2: float
    laplacian_f: float
    normA2: float
    A_grad_f: np.ndarray
    ric_eta_eta: float
    ricci_eta_top: np.ndarray
    g: Optional[np.ndarray] = None

    def g_dot(self, a, b):
        """g(a, b) of tangent vectors, per sample for a stacked sample."""
        g = np.eye(self.m) if self.g is None else self.g
        return np.einsum("...i,...ij,...j->...", a, g, b)

    def g_norm(self, vec):
        return np.sqrt(np.maximum(self.g_dot(vec, vec), 0.0))


def stack_samples(samples) -> GeometricSample:
    """Samples of one hypersurface dimension as one sample with stacked fields."""
    samples = list(samples)
    m = samples[0].m
    stacked = {fd.name: np.stack([np.asarray(getattr(s, fd.name), dtype=float)
                                  for s in samples])
               for fd in fields(GeometricSample) if fd.name not in ("m", "g")}
    g = None if all(s.g is None for s in samples) else np.stack(
        [np.eye(m) if s.g is None else s.g for s in samples])
    return GeometricSample(m=m, g=g, **stacked)


def flip_sample(s: GeometricSample) -> GeometricSample:
    """The sample seen with the opposite unit normal (eta -> -eta)."""
    return replace(s, f=-s.f, grad_f=-s.grad_f, laplacian_f=-s.laplacian_f,
                   A_grad_f=s.A_grad_f, ricci_eta_top=-s.ricci_eta_top)


# -- the lattices -----------------------------------------------------------

def _f_lattice(m):
    """The f-lattice in steps of h_step, and the rows its stencils read.

    Returns the integer offsets (L, m); the rows of the flux points, which
    are the centre and then k e_a for each axis a and each k in D1_OFFSETS;
    and, per flux point and axis b, the rows of its deriv1 stencil along b,
    shaped (1 + 4m, m, 4).
    """
    eye = np.eye(m, dtype=int)
    flux_pts = [np.zeros(m, dtype=int)] + [k * eye[a] for a in range(m)
                                           for k in numeric.D1_OFFSETS]
    stencils = [[[tuple(p + l * eye[b]) for l in numeric.D1_OFFSETS]
                 for b in range(m)] for p in flux_pts]
    offsets = sorted({tuple(p) for p in flux_pts}
                     | {pt for per_point in stencils for line in per_point for pt in line})
    row = {pt: i for i, pt in enumerate(offsets)}
    flux = np.array([row[tuple(p)] for p in flux_pts])
    df = np.array([[[row[pt] for pt in line] for line in per_point]
                   for per_point in stencils])
    return np.array(offsets, dtype=float), flux, df


# axis offsets of the map lattice in steps h_a: deriv1 at h and at h/2 (one
# Richardson level) and deriv2 at h, which also reads the centre
_AXIS = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
_AT_H = [0, 1, 4, 5]        # -2h, -h, h, 2h
_AT_HALF = [1, 2, 3, 4]     # -h, -h/2, h/2, h


def _map_lattice(h):
    """Offsets of the map lattice around one point, one row each.

    The centre; then _AXIS * h_a along each axis a; then, for each pair
    a < b, the 16 points (i e_a + j e_b) max(h_a, h_b) for i, j in
    D1_OFFSETS.
    """
    m = len(h)
    eye = np.eye(m)
    K = numeric.D1_OFFSETS
    rows = [np.zeros((1, m))] + [_AXIS[:, None] * h[a] * eye[a] for a in range(m)]
    for a, b in itertools.combinations(range(m), 2):
        ij = K[:, None, None] * eye[a] + K[None, :, None] * eye[b]
        rows.append(max(h[a], h[b]) * ij.reshape(-1, m))
    return np.concatenate(rows)


def _sample_map(chart, pts, quantum):
    """``chart.map`` once per distinct point of ``pts`` (..., m): (..., dim).

    Points closer than ``quantum`` are one lattice point; they differ only
    by the rounding of their offsets, as u + 2h and (u + h) + h do.
    """
    flat = pts.reshape(-1, pts.shape[-1])
    _, first, inverse = np.unique(np.rint(flat / quantum), axis=0,
                                  return_index=True, return_inverse=True)
    vals = np.asarray(chart.map(flat[first]), dtype=float)
    return vals[inverse.reshape(-1)].reshape(pts.shape[:-1] + (-1,))


def _jets(chart, X, h_step):
    """Jacobian (n, dim, m), hessian (n, dim, m, m) and map (n, dim) at X (n, m).

    Exact callbacks are called once, on all of X.  Missing ones are stencils
    on the map lattice around each point, with the map sampled once per
    distinct point of the map lattices of all X, which lie on the f-lattice
    of step ``h_step`` (None for unrelated points).  The map is None when
    nothing needs it.
    """
    n, m = X.shape
    P = None
    if chart.jacobian is None or chart.hessian is None:
        h = chart.steps()
        spacing = min(0.5 * float(np.min(h)), h_step or np.inf)
        S = _sample_map(chart, X[:, None, :] + _map_lattice(h), 1e-7 * spacing)
        P = S[:, 0]
        line = np.moveaxis(S[:, 1:1 + 6 * m].reshape(n, m, 6, -1), 3, 1)
    elif chart.sf.c != 0:
        P = np.asarray(chart.map(X), dtype=float)

    w = numeric.D1_WEIGHTS
    if chart.jacobian is not None:
        J = np.asarray(chart.jacobian(X), dtype=float)
    else:
        d_h = _weigh(line[..., _AT_H], w) / h
        d_h2 = _weigh(line[..., _AT_HALF], w) / (h / 2.0)
        J = numeric.richardson(d_h, d_h2, order=4)

    if chart.hessian is not None:
        H = np.asarray(chart.hessian(X), dtype=float)
    else:
        centre = np.broadcast_to(P[:, :, None, None], line.shape[:3] + (1,))
        five = np.concatenate([line[..., :2], centre, line[..., 4:]], axis=-1)
        H = np.zeros(P.shape + (m, m))
        H[:, :, range(m), range(m)] = _weigh(five, numeric.D2_WEIGHTS) / (h * h)
        cross = S[:, 1 + 6 * m:].reshape(n, -1, 4, 4, P.shape[1])
        for c, (a, b) in enumerate(itertools.combinations(range(m), 2)):
            s = max(h[a], h[b])
            inner = _weigh(np.moveaxis(cross[:, c], 1, -1), w)     # along b
            H[:, :, a, b] = H[:, :, b, a] = _weigh(np.moveaxis(inner, 1, -1), w) / (s * s)
    return J, H, P


# -- the batched kernel -------------------------------------------------------

def _first_guard(bad, X, message):
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DegenerateImmersionError(message(i, X[i]))


def _unit_normal(chart, X, J, P):
    """Unit normals (n, dim) at X, oriented as :func:`unit_normal` says."""
    sf = chart.sf
    signs = sf.pairing_signs()
    rows = np.swapaxes(signs[:, None] * J, 1, 2)
    if sf.c != 0:
        rows = np.concatenate([rows, (signs * P)[:, None, :]], axis=1)
    _, sv, vh = np.linalg.svd(rows, full_matrices=True)
    # numerical rank: singular values above eps * max(shape) * the largest
    tol = sv[:, :1] * np.finfo(float).eps * max(rows.shape[1:])
    null_dim = rows.shape[2] - np.sum(sv > tol, axis=1)
    _first_guard(null_dim != 1, X,
                 lambda i, x: f"normal space at {x} has dimension {null_dim[i]}")
    w = vh[:, -1]
    nrm2 = np.sum(signs * w * w, axis=1)
    _first_guard(nrm2 <= 0, X, lambda i, x: "normal direction is not spacelike")
    eta = w / np.sqrt(nrm2)[:, None]
    if chart.reference_normal is not None:
        ref = np.asarray(chart.reference_normal(X), dtype=float)
        flip = np.sum(signs * eta * ref, axis=1) < 0
    else:
        cols = [J, eta[:, :, None]] + ([P[:, :, None]] if sf.c != 0 else [])
        flip = np.linalg.det(np.concatenate(cols, axis=2)) < 0
    return np.where(flip[:, None], -eta, eta)


def _shape(chart, X, h_step=None):
    """First fundamental form and shape packet at X (n, m), fields stacked."""
    J, H, P = _jets(chart, X, h_step)
    signs = chart.sf.pairing_signs()
    g = np.einsum("nka,k,nkb->nab", J, signs, J)
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    det_g = np.linalg.det(g)
    _first_guard(det_g <= RANK_TOL, X,
                 lambda i, x: f"degenerate immersion at {x}: det g = {det_g[i]:.3e}")
    g_inv = np.linalg.inv(g)
    eta = _unit_normal(chart, X, J, P)
    # h(nabla_{d_i} d_j X, eta) = h(d^2 X / du_i du_j, eta): the model-normal
    # part of the coordinate second derivative pairs to zero with eta
    B = np.einsum("nk,nkab->nab", signs * eta, H)
    B = 0.5 * (B + np.swapaxes(B, 1, 2))
    A = g_inv @ B
    f = np.trace(A, axis1=1, axis2=2) / chart.m
    # sum of squared principal curvatures: the eigenvalues of A = g^-1 B
    normA2 = np.einsum("nab,nba->n", A, A)
    return (FirstFundamental(g=g, g_inv=g_inv, det_g=det_g),
            ShapePacket(eta=eta, B=B, A=A, f=f, normA2=normA2))


def _row(stacked, i=0):
    """Entry i of every stacked array field; per-point scalars become floats."""
    return replace(stacked, **{fd.name: (float(v[i]) if v.ndim == 1 else v[i])
                               for fd in fields(stacked)
                               if isinstance(v := getattr(stacked, fd.name), np.ndarray)})


def _one_point(chart, u):
    return _shape(chart, np.asarray(u, dtype=float)[None])


# -- operations -------------------------------------------------------------

def first_fundamental(chart, u):
    """Induced metric g_ij = h(d_i X, d_j X) with inverse and determinant."""
    return _row(_one_point(chart, u)[0])


def unit_normal(chart, u):
    """Unit ambient vector orthogonal to the patch (and to the model normal).

    Orientation follows the chart's declared reference normal when present,
    otherwise the ambient volume form: det[d_1 X, ..., d_m X, eta(, P)] > 0.
    """
    return _one_point(chart, u)[1].eta[0]


def shape_packet(chart, u):
    """Second fundamental form, shape operator, mean curvature and |A|^2."""
    return _row(_one_point(chart, u)[1])


def mean_curvature(chart, u):
    return shape_packet(chart, u).f


def _stencil_sample(chart, U, h_step, lattice):
    """The stencil path at the grid points U (n, m): one stacked sample."""
    n, m = U.shape
    offsets, flux_rows, df_rows = lattice
    L = len(offsets)
    ff, pk = _shape(chart, (U[:, None, :] + offsets * h_step).reshape(-1, m), h_step)
    w = numeric.D1_WEIGHTS
    f = pk.f.reshape(n, L)
    df = _weigh(f[:, df_rows], w) / h_step              # (n, 1 + 4m, m)

    def at_flux(a):
        return a.reshape((n, L) + a.shape[1:])[:, flux_rows]

    g_inv, det_g = at_flux(ff.g_inv), at_flux(ff.det_g)
    grad_f = _weigh(g_inv[:, 0], df[:, 0, None, :])
    # divergence form of the Laplace-Beltrami operator: the flux
    # W^a = sqrt(det g) g^{ab} d_b f is differentiated once more
    W = np.sqrt(det_g)[..., None] * _weigh(g_inv, df[:, :, None, :])
    W_along = np.einsum("naka->nak", W[:, 1:].reshape(n, m, 4, m))
    div = _weigh(_weigh(W_along, w), np.ones(m)) / h_step

    g, A, eta = (at_flux(a)[:, 0] for a in (ff.g, pk.A, pk.eta))
    ric_eta_eta, _ = chart.sf.ricci_data(eta)
    return GeometricSample(
        m=m, f=f[:, flux_rows[0]], grad_f=grad_f,
        grad_f_norm2=_weigh(df[:, 0], grad_f),
        laplacian_f=div / np.sqrt(det_g[:, 0]), normA2=at_flux(pk.normA2)[:, 0],
        A_grad_f=_weigh(A, grad_f[:, None, :]),
        ric_eta_eta=np.full(n, float(ric_eta_eta)),
        ricci_eta_top=np.zeros((n, m)), g=g)


def geometric_sample(chart, u, h_step=None, use_analytic=True):
    """Assemble every residual-system quantity at parameter point(s) ``u``.

    ``u`` of shape (m,) gives one sample; (N, m) gives one sample with
    fields stacked along axis 0.  If the chart carries closed-form geometry
    and ``use_analytic`` is true that path is used, in one call on all the
    points; pass ``use_analytic=False`` to force the stencil path, which
    evaluates the points on one lattice, KERNEL_POINTS f points at a time.
    """
    u = np.asarray(u, dtype=float)
    U = np.atleast_2d(u)
    if use_analytic and chart.analytic_geometry is not None:
        sample = chart.analytic_geometry(U)
        return _row(sample) if u.ndim == 1 else sample

    if h_step is None:
        h_step = 2e-3 * float(np.max(chart.widths()))
    lo, hi = np.array(chart.domain, dtype=float).T
    near = np.any((U < lo + 2 * h_step) | (U > hi - 2 * h_step), axis=1)
    if np.any(near):
        raise BoundaryProximityError(
            f"parameter {U[np.argmax(near)]} outside the stencil-safe region of {chart.name}")

    lattice = _f_lattice(chart.m)
    per = max(1, KERNEL_POINTS // len(lattice[0]))
    parts = [_stencil_sample(chart, U[i:i + per], h_step, lattice)
             for i in range(0, len(U), per)]
    sample = replace(parts[0], **{fd.name: np.concatenate([getattr(s, fd.name) for s in parts])
                                  for fd in fields(GeometricSample) if fd.name != "m"})
    return _row(sample) if u.ndim == 1 else sample


def sample_grid(chart, n_per_axis, margin=None):
    """Uniform interior grid of parameter points respecting stencil margins."""
    if n_per_axis < 4:
        raise ValueError("need at least 4 points per axis")
    h = chart.steps()
    axes = []
    for a, (lo, hi) in enumerate(chart.domain):
        mg = margin if margin is not None else max(4 * h[a], 0.02 * (hi - lo))
        axes.append(np.linspace(lo + mg, hi - mg, n_per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=1)
