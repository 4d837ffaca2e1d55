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
  axis (D1 at h and h/2 with one Richardson level, and D2 at h)
  and (i e_a + j e_b) max(h_a, h_b) for the nested mixed stencil.  These
  offsets around all f points form one pattern around every grid point; it
  is deduplicated once per batch, and the map is called once, on the grid
  points plus its distinct offsets;
* g, det g, g^-1, the unit normal (:meth:`SpaceForm.complement` of the
  tangent columns), B, A, f and |A|^2 = tr(A^2) are computed at all f
  points at once, and every guard is checked at every f point.  det g and
  g^-1 = adj g / det g are elementwise Laplace expansions over the batch
  (:func:`numeric._adjugate`): a LAPACK call per 2x2 to 5x5 metric costs
  far more in call overhead than in arithmetic.  det g is checked before
  it divides.

Catalog entries with closed-form geometry double as cross-checks of the
stencil path.
"""

from __future__ import annotations

import functools
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
GRID_POINTS = 2 ** 20       # largest grid sample_grid builds
_INDEXED_GRID_POINTS = 4096  # grids up to this size keep their index table


@dataclass(frozen=True)
class ImmersionChart:
    """A C^4 parametrized hypersurface patch in a space form.

    Every callback acts over the last axis, as :meth:`SpaceForm.pair`
    does: it takes parameter points of shape (..., m) and returns one
    value per point.  ``map`` gives ambient embedding coordinates
    (..., dim).  Optional exact ``jacobian`` (..., dim, m) and ``hessian``
    (..., dim, m, m) callbacks are preferred over finite differences when
    present.  ``reference_normal`` (..., dim) fixes the orientation;
    without it the sign comes from the ambient volume form, times
    ``orientation`` (+1 or -1).
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
    orientation: int = 1

    def widths(self):
        return np.array([hi - lo for lo, hi in self.domain], dtype=float)

    def steps(self):
        """Per-axis steps of the map-derivative stencils."""
        return 1e-3 * self.widths()

    def f_step(self):      # default step of the f-lattice stencils
        return 2e-3 * float(np.max(self.widths()))

    def flipped(self):
        """Same patch with the opposite orientation: the reference normal, or
        without one the orientation sign, negated."""
        ref, ana = self.reference_normal, self.analytic_geometry
        if ref is None:
            flip = {"orientation": -self.orientation}
        else:
            flip = {"reference_normal": lambda u: -ref(u)}
        new_ana = (lambda u: flip_sample(ana(u))) if ana is not None else None
        return replace(self, analytic_geometry=new_ana, name=self.name + "(flipped)", **flip)


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
    take g-norms of tangential residuals.  A sample at N points has every
    field but ``m`` stacked along axis 0.
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
        if self.g is None:
            return np.sum(a * b, axis=-1)
        return np.einsum("...i,...ij,...j->...", a, self.g, b)

    def g_norm(self, vec):
        return np.sqrt(np.maximum(self.g_dot(vec, vec), 0.0))


def flip_sample(s: GeometricSample) -> GeometricSample:
    """The sample seen with the opposite unit normal (eta -> -eta)."""
    return replace(s, f=-s.f, grad_f=-s.grad_f, laplacian_f=-s.laplacian_f,
                   A_grad_f=s.A_grad_f, ricci_eta_top=-s.ricci_eta_top)


# -- the lattices -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _f_lattice(m):
    """The f-lattice in steps of h_step, and the rows its stencils read.

    Returns the integer offsets (L, m); the rows of the flux points, which
    are the centre and then k e_a for each axis a and each k in D1_OFFSETS;
    and, per flux point and axis b, the rows of its D1 stencil along b,
    shaped (1 + 4m, m, 4).  Built once per m, on first use; the arrays are
    read-only, since every caller shares them.
    """
    eye = np.eye(m, dtype=int)
    K = numeric.D1_OFFSETS
    flux = np.concatenate([np.zeros((1, m), dtype=int), (K[:, None] * eye[:, None]).reshape(-1, m)])
    reads = flux[:, None, None] + K[:, None] * eye[:, None]         # (1 + 4m, m, 4, m)
    offsets, inverse = np.unique(np.concatenate([flux, reads.reshape(-1, m)]), axis=0,
                                 return_inverse=True)
    inverse = inverse.reshape(-1)
    lattice = (offsets.astype(float), inverse[:len(flux)], inverse[len(flux):].reshape(-1, m, 4))
    for a in lattice:
        a.flags.writeable = False
    return lattice


# axis offsets of the map lattice in steps h_a: D1 at h and at h/2 (one
# Richardson level) and D2 at h, which also reads the centre
_AXIS = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
_AT_H = [0, 1, 4, 5]        # -2h, -h, h, 2h
_AT_HALF = [1, 2, 3, 4]     # -h, -h/2, h/2, h


def _map_lattice(h):
    """Offsets of the map lattice around one point, one row each.

    The centre; then _AXIS * h_a along each axis a; then, for each pair
    a < b, the 16 points (i e_a + j e_b) max(h_a, h_b) for i, j in
    D1_OFFSETS.  Every offset lies within 2 max(h) along each axis.
    """
    m = len(h)
    eye = np.eye(m)
    K = numeric.D1_OFFSETS
    rows = [np.zeros((1, m))] + [_AXIS[:, None] * h[a] * eye[a] for a in range(m)]
    for a, b in itertools.combinations(range(m), 2):
        ij = K[:, None, None] * eye[a] + K[None, :, None] * eye[b]
        rows.append(max(h[a], h[b]) * ij.reshape(-1, m))
    return np.concatenate(rows)


def _reach(chart, h_step, fd):
    """How far along an axis the stencil path evaluates the chart from a grid
    point: 4 h_step on the f-lattice, plus 2 max(h) on FD map lattices."""
    return 4 * h_step + (2 * float(np.max(chart.steps())) if fd else 0.0)


def _jets(chart, U, D):
    """Jacobian (n, dim, m), hessian (n, dim, m, m) and map (n, dim) at the
    n = N L points U + D, for grid points U (N, m) and offsets D (L, m).

    Exact callbacks are called once, on all n points.  Missing ones are
    stencils on the map lattice around each point.  The pattern D + map
    lattice is the same around every grid point, so it is deduplicated once
    and the map is called once, on U plus its distinct offsets.  The map is
    None when nothing needs it.
    """
    N, m = U.shape
    X = (U[:, None] + D).reshape(-1, m)
    n = len(X)
    P = None
    if chart.jacobian is None or chart.hessian is None:
        h = chart.steps()
        pattern = (D[:, None] + _map_lattice(h)).reshape(-1, m)
        # 3 h_step - 2 h_a and 2 h_step are one point up to rounding; distinct
        # points lie at least one spacing apart
        spacing = min(0.5 * np.min(h), np.min(np.abs(D), where=D != 0, initial=np.inf))
        _, first, inverse = np.unique(np.rint(pattern / (1e-7 * spacing)), axis=0,
                                      return_index=True, return_inverse=True)
        vals = np.asarray(chart.map((U[:, None] + pattern[first]).reshape(-1, m)), dtype=float)
        S = vals.reshape(N, len(first), -1)[:, inverse.reshape(-1)].reshape(n, -1, vals.shape[-1])
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


def _unit_normal(chart, X, J, P, det_g):
    """Unit normals (n, dim) at X, oriented as :func:`unit_normal` says."""
    sf = chart.sf
    eta, nrm2 = sf.complement(P, J)
    # <w, w> = det g |<P, P>| (det g in R^n) for an immersion into the model
    scale = det_g if sf.c == 0 else det_g * np.abs(sf.pair(P, P))
    _first_guard(~(nrm2 > RANK_TOL * scale), X,
                 lambda i, x: f"no spacelike unit normal at {x}: <w, w> = {nrm2[i]:.3e}")
    if chart.reference_normal is not None:
        ref = np.asarray(chart.reference_normal(X), dtype=float)
        eta = np.where((sf.pair(eta, ref) < 0)[:, None], -eta, eta)
    elif chart.orientation < 0:
        eta = -eta
    return eta


def _shape(chart, U, D):
    """First fundamental form and shape packet at the points U + D, fields stacked."""
    J, H, P = _jets(chart, U, D)
    X = (U[:, None] + D).reshape(-1, chart.m)
    signs = chart.sf.pairing_signs()
    g = np.einsum("nka,k,nkb->nab", J, signs, J)
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    det_g, adj_g = numeric._adjugate(g)
    _first_guard(det_g <= RANK_TOL, X,
                 lambda i, x: f"degenerate immersion at {x}: det g = {det_g[i]:.3e}")
    g_inv = adj_g / det_g[:, None, None]
    eta = _unit_normal(chart, X, J, P, det_g)
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
    return _shape(chart, np.asarray(u, dtype=float)[None], np.zeros((1, chart.m)))


# -- operations -------------------------------------------------------------

def first_fundamental(chart, u):
    """Induced metric g_ij = h(d_i X, d_j X) with inverse and determinant."""
    return _row(_one_point(chart, u)[0])


def unit_normal(chart, u):
    """Unit ambient vectors (..., dim) at u (..., m), orthogonal to the patch (and P).

    Orientation follows the chart's declared reference normal when present,
    otherwise the ambient volume form, det[d_1 X, ..., d_m X, eta(, P)] > 0,
    with eta negated on a chart of orientation -1.
    """
    u = np.asarray(u, dtype=float)
    eta = _shape(chart, u.reshape(-1, chart.m), np.zeros((1, chart.m)))[1].eta
    return eta.reshape(u.shape[:-1] + eta.shape[-1:])


def shape_packet(chart, u):
    """Second fundamental form, shape operator, mean curvature and |A|^2."""
    return _row(_one_point(chart, u)[1])


def _stencil_sample(chart, U, h_step, lattice):
    """The stencil path at the grid points U (n, m): one stacked sample."""
    n, m = U.shape
    offsets, flux_rows, df_rows = lattice
    L = len(offsets)
    ff, pk = _shape(chart, U, offsets * h_step)
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

    h_step = chart.f_step() if h_step is None else h_step
    fd = chart.jacobian is None or chart.hessian is None
    reach = _reach(chart, h_step, fd)
    lo, hi = np.array(chart.domain, dtype=float).T
    near = np.any((U < lo + reach) | (U > hi - reach), axis=1)
    if np.any(near):
        # the reach grows by 4 per unit of h_step from its value at h_step = 0
        edge = min(float(np.min(U - lo)), float(np.min(hi - U)))
        largest = (edge - _reach(chart, 0.0, fd)) / 4
        admits = f"h_step up to {largest:g}" if largest > 0 else "no h_step"
        raise BoundaryProximityError(
            f"h_step={h_step:g} reaches outside {chart.name} from parameter "
            f"{U[np.argmax(near)]}; the points given admit {admits}")

    lattice = _f_lattice(chart.m)
    per = max(1, KERNEL_POINTS // len(lattice[0]))
    parts = [_stencil_sample(chart, U[i:i + per], h_step, lattice)
             for i in range(0, len(U), per)]
    sample = replace(parts[0], **{fd.name: np.concatenate([getattr(s, fd.name) for s in parts])
                                  for fd in fields(GeometricSample) if fd.name != "m"})
    return _row(sample) if u.ndim == 1 else sample


@functools.lru_cache(maxsize=None)
def _grid_index(n, m):
    """Flat indices into an (n, m) axis table that gather the n^m grid
    points in meshgrid "ij" order, shaped (n^m, m).  Built once per (n, m)
    of at most _INDEXED_GRID_POINTS points, on first use; read-only, since
    every caller shares it."""
    index = np.indices((n,) * m).reshape(m, -1).T * m + np.arange(m)
    index.flags.writeable = False
    return index


def sample_grid(chart, n_per_axis):
    """Uniform interior grid, clear of each axis's outer 2% and of the widest
    stencil reach at the default step, so that one grid serves every path."""
    if n_per_axis < 4:
        raise ValueError("need at least 4 points per axis")
    if n_per_axis ** chart.m > GRID_POINTS:
        raise ValueError(f"a grid of {n_per_axis}^{chart.m} points exceeds {GRID_POINTS}")
    lo, hi = np.array(chart.domain, dtype=float).T
    mg = np.maximum(_reach(chart, chart.f_step(), fd=True), 0.02 * (hi - lo))
    start, stop = lo + mg, hi - mg
    # the points of np.linspace(start, stop, n_per_axis), bit for bit
    axes = np.arange(n_per_axis, dtype=float)[:, None] * ((stop - start) / (n_per_axis - 1)) + start
    axes[-1] = stop
    if n_per_axis ** chart.m > _INDEXED_GRID_POINTS:
        index = _grid_index.__wrapped__(n_per_axis, chart.m)    # built, not kept
    else:
        index = _grid_index(n_per_axis, chart.m)
    return axes.ravel()[index]
