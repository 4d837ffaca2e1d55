"""Pointwise geometry of parametrized hypersurface patches.

Everything the (p,q)-harmonic residual system consumes is computed here:
induced metric, unit normal, second fundamental form, shape operator, mean
curvature f, grad f, Laplace-Beltrami of f, |A|^2 and A(grad f).

A composition of central stencils is one weight tensor on an integer
lattice (Fornberg, Math. Comp. 51 (1988) 699-706).  So the stencil path
samples each quantity once per distinct lattice point, batched over all
grid points of a call:

* the f-lattice: u and u + k h d for k in {-2, -1, 1, 2}, h = ``h_step``,
  along the straight lines d = e_a and e_a + e_b, a < b: 13 points for
  m = 2, 25 for m = 3, 41 for m = 4.  grad f is D1 along the axes.  Lap f
  is g^ij (f_ij - Gamma^k_ij f_k): f_ij is D2 along each line, the mixed
  entries by polarization, and Gamma comes from the jets at u;
* the map's value, Jacobian and Hessian at the f points come from the
  chart's exact ``jacobian`` and ``hessian`` when it has them, as every
  catalog entry does, and otherwise from one call of the map per batch on
  the jet of the f points (:class:`jets.Jet`), refused unless it carries
  it (:func:`jets.carried`): no derivative of a map is taken by finite
  differences;
* no callback runs unless the f-lattice lies in the domain, 2 h_step
  around each grid point; a single point reads only itself;
* g, det g, g^-1, the unit normal (:meth:`SpaceForm.complement` of the
  tangent columns), B and f = g^ij B_ij / m are computed at all f points
  at once, so every guard is checked at every f point.  A = g^-1 B and
  |A|^2 = tr(A^2) are taken only at the rows the caller reads: the grid
  points on the stencil path, every point of a single-point call.  det g
  and g^-1 = adj g / det g are elementwise Laplace expansions over the
  batch (:func:`numeric._adjugate`): a LAPACK call per 2x2 to 5x5 metric
  costs far more in call overhead than in arithmetic.  det g is checked
  before it divides;
* the contractions act per matrix: g = (s J)^T J and A by stacked matmul,
  B by a two-operand einsum (which times below a matmul for it), and f,
  |A|^2 and :meth:`GeometricSample.g_dot` (through g, or as the plain dot
  product of a sample without g) term by term
  (:func:`numeric._weigh`).  None sums in an order that depends on the
  batch, so a point gets the same bits in a batch of any size.

Catalog entries with closed-form geometry double as cross-checks of the
stencil path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from . import jets, numeric
from .numeric import _weigh
from .errors import BoundaryProximityError, DegenerateImmersionError
from .spaceform import SpaceForm

RANK_TOL = 1e-10
# f points per kernel batch; bounds a call's memory.  The m = 3 grid-4 sample
# (64 x 25 f points) runs in one batch; the largest batch, m = 4 (49 x 41 f
# points), peaks at 7.1 MiB of numpy arrays with the map's jets and at 5.0 MiB
# with exact ones (tracemalloc)
KERNEL_POINTS = 2048
GRID_POINTS = 2 ** 20       # largest grid sample_grid builds
_INDEXED_GRID_POINTS = 4096  # grids up to this size keep their index table
GRID_MARGIN = 5             # f_steps sample_grid keeps from each edge


@dataclass(frozen=True)
class ImmersionChart:
    """A C^4 parametrized hypersurface patch in a space form.

    Every callback acts over the last axis, as :meth:`SpaceForm.pair`
    does: it takes parameter points of shape (..., m) and returns one
    value per point.  ``map`` gives ambient embedding coordinates
    (..., dim).  It must also take the jet of the points (:class:`jets.Jet`)
    and return the jet of its values, unless the chart has exact
    ``jacobian`` (..., dim, m) and ``hessian`` (..., dim, m, m) callbacks,
    which are then taken instead.  The unit normal takes the sign of the
    ambient volume form, times ``orientation`` (+1 or -1), which is all
    :meth:`flipped` negates; an optional ``reference_normal`` (..., dim), which no
    builtin passes, replaces the volume form's sign by alignment with it.
    ``analytic_geometry`` supplies closed-form samples for catalog
    entries, as one :class:`GeometricSample` with its fields stacked along
    axis 0.  The engine calls each callback once per batch, on a flat
    (n, m) array.  ``jacobian`` and ``hessian`` come together or not at
    all; ``domain`` holds m intervals (lo, hi), each with finite lo < hi.
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

    def __post_init__(self):
        if (self.jacobian is None) != (self.hessian is None):
            raise ValueError(f"{self.name}: give jacobian and hessian together, or neither")
        if self.orientation not in (1, -1):
            raise ValueError(f"{self.name}: orientation must be +1 or -1, got {self.orientation!r}")
        if len(self.domain) != self.m:
            raise ValueError(f"{self.name}: need {self.m} domain intervals, got {len(self.domain)}")
        numeric._check_domain(self.domain, self.name)

    def widths(self):
        return np.array([hi - lo for lo, hi in self.domain], dtype=float)

    def f_step(self):      # default step of the f-lattice stencils
        return 2e-3 * float(np.max(self.widths()))

    def analytic_path(self, use_analytic=True):    # geometric_sample takes closed forms
        return use_analytic and self.analytic_geometry is not None

    def flipped(self):
        """Same patch with the opposite orientation: the orientation sign negated."""
        ana = self.analytic_geometry
        new_ana = (lambda u: flip_sample(ana(u))) if ana is not None else None
        return replace(self, orientation=-self.orientation, analytic_geometry=new_ana,
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
        """g(a, b) of tangent vectors, per sample for a stacked sample; the
        dot product when the sample carries no g."""
        if self.g is None:
            return _weigh(a, b)
        return _weigh(a, _weigh(self.g, b[..., None, :]))

    def g_norm(self, vec):
        return np.sqrt(np.maximum(self.g_dot(vec, vec), 0.0))


def flip_sample(s: GeometricSample) -> GeometricSample:
    """The sample seen with the opposite unit normal (eta -> -eta)."""
    return replace(s, f=-s.f, grad_f=-s.grad_f, laplacian_f=-s.laplacian_f,
                   A_grad_f=s.A_grad_f, ricci_eta_top=-s.ricci_eta_top)


# -- the lattices -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _f_lattice(m):
    """The straight-line lattice of the stencil path, as integer offsets
    (1 + 4 m(m+1)/2, m): the centre, then k d for k in D1_OFFSETS along the
    lines d = e_a and then d = e_a + e_b, a < b, in ``np.triu_indices``
    order.  That is 13 points for m = 2, 25 for m = 3 and 41 for m = 4, all
    distinct.  The f points sit on it in steps of h_step.  Built once per m,
    on first use; read-only, since every caller shares it.
    """
    eye = np.eye(m, dtype=int)
    a, b = np.triu_indices(m, 1)
    lines = np.concatenate([eye, eye[a] + eye[b]])
    offsets = np.concatenate([np.zeros((1, m), dtype=int),
                              (numeric.D1_OFFSETS[:, None] * lines[:, None]).reshape(-1, m)])
    offsets.flags.writeable = False
    return offsets


def _second_partials(centre, line, m, h):
    """The second partials (..., m, m) by D2 of step h along the lines of
    :func:`_f_lattice`, from the values at the centre (...) and at k d on
    each line d (..., lines, 4).  D2 along e_a gives H_aa, and the mixed
    entries come by polarization: D2 along e_a + e_b gives H_aa + 2 H_ab + H_bb.
    """
    w = numeric.D2_WEIGHTS                     # offsets -2..2, term by term as _weigh
    D2 = (_weigh(line[..., :2], w[:2]) + centre[..., None] * w[2]
          + line[..., 2] * w[3] + line[..., 3] * w[4]) / (h * h)
    H = np.empty(centre.shape + (m, m))
    H[..., range(m), range(m)] = D2[..., :m]
    a, b = np.triu_indices(m, 1)
    H[..., a, b] = H[..., b, a] = (D2[..., m:] - D2[..., a] - D2[..., b]) / 2.0
    return H


def _guard_reach(chart, U, h_step):
    """Refuse the grid points U (N, m) unless their f-lattices, 2 h_step out,
    lie in the domain, naming h_step and the largest step they admit."""
    units = np.max(_f_lattice(chart.m))
    lo, hi = np.array(chart.domain, dtype=float).T
    near = np.any((U < lo + units * h_step) | (U > hi - units * h_step), axis=1)
    if np.any(near):
        largest = min(float(np.min(U - lo)), float(np.min(hi - U))) / units
        admits = f"h_step up to {largest:g}" if largest > 0 else "no h_step"
        raise BoundaryProximityError(
            f"h_step={h_step:g} reaches outside {chart.name} from parameter "
            f"{U[np.argmax(near)]}; the points given admit {admits}")


def _jets(chart, X):
    """The map (n, dim), its jacobian (n, dim, m) and hessian (n, dim, m, m)
    at the f points X (n, m), from one call of each exact callback or from
    one call of the map on the jet of X.  The map is None when nothing
    needs it (exact jets in flat space).  Every value must be finite, and
    the map values on the model (:meth:`SpaceForm.check_point`)."""
    if chart.jacobian is not None:
        P = chart.map(X) if chart.sf.c != 0 else None
        J, H = chart.jacobian(X), chart.hessian(X)
    else:
        x = jets.carried(lambda: chart.map(jets.Jet.variable(X)), jets.Jet,
                         f"{chart.name}: the chart map")
        P, (J, H) = x.value, x.derivatives()
    P = None if P is None else chart.sf.check_point(numeric._finite(P))
    return numeric._finite(J, "jacobian"), numeric._finite(H, "hessian"), P


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
        ref = numeric._finite(chart.reference_normal(X), "reference_normal")
        eta = np.where((sf.pair(eta, ref) < 0)[:, None], -eta, eta)
    return -eta if chart.orientation < 0 else eta


def _shape(chart, X, J, H, P):
    """First fundamental form, unit normal, B and f at the f points X from
    the map's jets there (:func:`_jets`), fields stacked."""
    n, m = X.shape
    signs = chart.sf.pairing_signs()
    g = np.swapaxes(signs[:, None] * J, 1, 2) @ J
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
    # f = tr(g^-1 B)/m = g^ij B_ij/m, as B is symmetric
    f = _weigh(g_inv.reshape(n, -1), B.reshape(n, -1)) / m
    return FirstFundamental(g=g, g_inv=g_inv, det_g=det_g), eta, B, f


def _shape_operator(g_inv, B):
    """A = g^-1 B and |A|^2 = tr(A^2), the sum of squared principal
    curvatures, at the rows given."""
    A = g_inv @ B
    n = len(A)
    return A, _weigh(A.reshape(n, -1), np.swapaxes(A, 1, 2).reshape(n, -1))


def _row(stacked, i=0):
    """Entry i of every stacked array field; per-point scalars become floats."""
    return replace(stacked, **{fd.name: (float(v[i]) if v.ndim == 1 else v[i])
                               for fd in fields(stacked)
                               if isinstance(v := getattr(stacked, fd.name), np.ndarray)})


def _one_point(chart, u):
    """The first fundamental form and shape packet at u (..., m)."""
    U = np.asarray(u, dtype=float).reshape(-1, chart.m)
    ff, eta, B, f = _shape(chart, U, *_jets(chart, U))
    A, normA2 = _shape_operator(ff.g_inv, B)
    return ff, ShapePacket(eta=eta, B=B, A=A, f=f, normA2=normA2)


# -- operations -------------------------------------------------------------

def first_fundamental(chart, u):
    """Induced metric g_ij = h(d_i X, d_j X) with inverse and determinant."""
    return _row(_one_point(chart, u)[0])


def unit_normal(chart, u):
    """Unit ambient vectors (..., dim) at u (..., m), orthogonal to the patch (and P).

    Orientation follows the ambient volume form, det[d_1 X, ..., d_m X,
    eta(, P)] > 0, or the chart's reference normal when it has one, with
    eta then negated on a chart of orientation -1.
    """
    eta = _one_point(chart, u)[1].eta
    return eta.reshape(np.shape(u)[:-1] + eta.shape[-1:])


def shape_packet(chart, u):
    """Second fundamental form, shape operator, mean curvature and |A|^2."""
    return _row(_one_point(chart, u)[1])


def _stencil_sample(chart, U, h_step):
    """The stencil path at the grid points U (n, m): one stacked sample.

    df is D1 along the axes of the f-lattice, f_ij is :func:`_second_partials`,
    and Lap f = g^ij (f_ij - Gamma^k_ij f_k) in non-divergence form.  Each
    model's metric is induced from the flat pairing h, so the Gauss formula
    gives Gamma^k_ij = g^kl h(H_ij, J_l) from the centre's jets, and
    Gamma^k_ij f_k = h(H_ij, J grad f).
    """
    n, m = U.shape
    L = len(_f_lattice(m))
    X = (U[:, None] + _f_lattice(m) * h_step).reshape(-1, m)
    J, H, P = _jets(chart, X)
    ff, eta, B, f = _shape(chart, X, J, H, P)
    f = f.reshape(n, L)
    line = f[:, 1:].reshape(n, -1, 4)
    df = _weigh(line[:, :m], numeric.D1_WEIGHTS) / h_step
    f_ij = _second_partials(f[:, 0], line, m, h_step)
    # the centre of each grid point is the first of its L rows
    J, H, g, g_inv, B, eta = (a[::L] for a in (J, H, ff.g, ff.g_inv, B, eta))
    A, normA2 = _shape_operator(g_inv, B)
    grad_f = _weigh(g_inv, df[:, None, :])
    tangent = chart.sf.pairing_signs() * _weigh(J, grad_f[:, None, :])      # J grad f, paired
    christoffel_df = _weigh(np.moveaxis(H, 1, -1), tangent[:, None, None, :])
    laplacian_f = _weigh(_weigh(g_inv, f_ij - christoffel_df), np.ones(m))
    ric_eta_eta, _ = chart.sf.ricci_data(eta)
    return GeometricSample(
        m=m, f=f[:, 0], grad_f=grad_f, grad_f_norm2=_weigh(df, grad_f),
        laplacian_f=laplacian_f, normA2=normA2,
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
    ``h_step`` (default ``chart.f_step()``) is the step of the f-lattice,
    the only finite differences the path takes.
    """
    u = np.asarray(u, dtype=float)
    U = np.atleast_2d(u)
    if chart.analytic_path(use_analytic):
        sample = chart.analytic_geometry(U)
        return _row(sample) if u.ndim == 1 else sample

    h_step = chart.f_step() if h_step is None else h_step
    _guard_reach(chart, U, h_step)

    per = max(1, KERNEL_POINTS // len(_f_lattice(chart.m)))
    parts = [_stencil_sample(chart, U[i:i + per], h_step)
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
    """Uniform interior grid, clear of each axis's outer 2% and of GRID_MARGIN
    f_step: the stencil path reads 2 f_step out at the default step, but a
    tighter margin would move every grid point, and so every report."""
    if n_per_axis < 4:
        raise ValueError("need at least 4 points per axis")
    if n_per_axis ** chart.m > GRID_POINTS:
        raise ValueError(f"a grid of {n_per_axis}^{chart.m} points exceeds {GRID_POINTS}")
    lo, hi = np.array(chart.domain, dtype=float).T
    mg = np.maximum(GRID_MARGIN * chart.f_step(), 0.02 * (hi - lo))
    start, stop = lo + mg, hi - mg
    # the points of np.linspace(start, stop, n_per_axis), bit for bit
    axes = np.arange(n_per_axis, dtype=float)[:, None] * ((stop - start) / (n_per_axis - 1)) + start
    axes[-1] = stop
    if n_per_axis ** chart.m > _INDEXED_GRID_POINTS:
        index = _grid_index.__wrapped__(n_per_axis, chart.m)    # built, not kept
    else:
        index = _grid_index(n_per_axis, chart.m)
    return axes.ravel()[index]
