"""Pointwise geometry of parametrized hypersurface patches.

Everything the (p,q)-harmonic residual system consumes is computed here:
induced metric, unit normal, second fundamental form, shape operator, mean
curvature f, grad f, Laplace-Beltrami of f, |A|^2 and A(grad f).

Derivatives of the chart map come from exact callbacks when the chart
carries them, otherwise from 4th-order central differences with one
Richardson level.  Derivatives of f itself (for grad f and the Laplacian)
are always taken by stencils over the chart parameters, so catalog entries
with closed-form geometry double as cross-checks of the stencil path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from . import numeric
from .errors import BoundaryProximityError, DegenerateImmersionError
from .spaceform import SpaceForm

RANK_TOL = 1e-10


@dataclass(frozen=True)
class ImmersionChart:
    """A C^4 parametrized hypersurface patch in a space form.

    ``map`` sends an m-vector of parameters to ambient embedding
    coordinates.  Optional exact ``jacobian`` (ambient_dim x m) and
    ``hessian`` (ambient_dim x m x m) callbacks are preferred over finite
    differences when present.  ``reference_normal`` fixes the orientation;
    without it the sign comes from the ambient volume form.
    ``analytic_geometry`` supplies closed-form samples for catalog entries.
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
    fd_step: Optional[tuple] = None  # per-axis map-derivative steps

    def widths(self):
        return np.array([hi - lo for lo, hi in self.domain], dtype=float)

    def steps(self):
        if self.fd_step is not None:
            return np.asarray(self.fd_step, dtype=float)
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


# -- derivative plumbing ----------------------------------------------------

def chart_jacobian(chart, u):
    if chart.jacobian is not None:
        return np.asarray(chart.jacobian(u), dtype=float)
    h = chart.steps()
    cols = [numeric.partial1(chart.map, u, a, h[a], richardson=True)
            for a in range(chart.m)]
    return np.stack(cols, axis=1)


def chart_hessian(chart, u):
    if chart.hessian is not None:
        return np.asarray(chart.hessian(u), dtype=float)
    h = chart.steps()
    dim = chart.sf.ambient_dim
    H = np.zeros((dim, chart.m, chart.m))
    for a in range(chart.m):
        for b in range(a, chart.m):
            hab = numeric.partial2(chart.map, u, a, b, max(h[a], h[b]))
            H[:, a, b] = hab
            H[:, b, a] = hab
    return H


# -- operations -------------------------------------------------------------

def first_fundamental(chart, u):
    """Induced metric g_ij = h(d_i X, d_j X) with inverse and determinant."""
    u = np.asarray(u, dtype=float)
    J = chart_jacobian(chart, u)
    signs = chart.sf.pairing_signs()
    g = J.T @ (signs[:, None] * J)
    g = 0.5 * (g + g.T)
    det_g = float(np.linalg.det(g))
    if det_g <= RANK_TOL:
        raise DegenerateImmersionError(
            f"degenerate immersion at {u}: det g = {det_g:.3e}")
    return FirstFundamental(g=g, g_inv=np.linalg.inv(g), det_g=det_g)


def unit_normal(chart, u):
    """Unit ambient vector orthogonal to the patch (and to the model normal).

    Orientation follows the chart's declared reference normal when present,
    otherwise the ambient volume form: det[d_1 X, ..., d_m X, eta(, P)] > 0.
    """
    u = np.asarray(u, dtype=float)
    P = np.asarray(chart.map(u), dtype=float)
    J = chart_jacobian(chart, u)
    sf = chart.sf
    first_fundamental(chart, u)  # rank check
    signs = sf.pairing_signs()
    rows = [signs * J[:, a] for a in range(chart.m)]
    if sf.c != 0:
        rows.append(signs * P)
    null = scipy.linalg.null_space(np.stack(rows))
    if null.shape[1] != 1:
        raise DegenerateImmersionError(
            f"normal space at {u} has dimension {null.shape[1]}")
    w = null[:, 0]
    nrm2 = sf.pair(w, w)
    if nrm2 <= 0:
        raise DegenerateImmersionError("normal direction is not spacelike")
    eta = w / np.sqrt(nrm2)
    if chart.reference_normal is not None:
        if sf.pair(eta, np.asarray(chart.reference_normal(u), dtype=float)) < 0:
            eta = -eta
    else:
        cols = [J[:, a] for a in range(chart.m)] + [eta]
        if sf.c != 0:
            cols.append(P)
        if np.linalg.det(np.stack(cols, axis=1)) < 0:
            eta = -eta
    return eta


def shape_packet(chart, u):
    """Second fundamental form, shape operator, mean curvature and |A|^2."""
    u = np.asarray(u, dtype=float)
    ff = first_fundamental(chart, u)
    eta = unit_normal(chart, u)
    H = chart_hessian(chart, u)
    signs = chart.sf.pairing_signs()
    # h(nabla_{d_i} d_j X, eta) = h(d^2 X / du_i du_j, eta): the model-normal
    # part of the coordinate second derivative pairs to zero with eta
    B = np.einsum("k,kab->ab", signs * eta, H)
    B = 0.5 * (B + B.T)
    A = ff.g_inv @ B
    f = float(np.trace(A)) / chart.m
    # principal curvatures from the g-symmetric pencil (B, g)
    kappas = scipy.linalg.eigh(B, ff.g, eigvals_only=True)
    normA2 = float(np.sum(kappas ** 2))
    return ShapePacket(eta=eta, B=B, A=A, f=f, normA2=normA2)


def mean_curvature(chart, u):
    return shape_packet(chart, u).f


def geometric_sample(chart, u, h_step=None, use_analytic=True):
    """Assemble every residual-system quantity at parameter point ``u``.

    If the chart carries closed-form geometry and ``use_analytic`` is true
    that path is used; pass ``use_analytic=False`` to force the stencil
    path (used by the cross-check tests).
    """
    u = np.asarray(u, dtype=float)
    if use_analytic and chart.analytic_geometry is not None:
        return chart.analytic_geometry(u)

    if h_step is None:
        h_step = 2e-3 * float(np.max(chart.widths()))
    for a, (lo, hi) in enumerate(chart.domain):
        if u[a] < lo + 2 * h_step or u[a] > hi - 2 * h_step:
            raise BoundaryProximityError(
                f"parameter {u} outside the stencil-safe region of {chart.name}")

    ff = first_fundamental(chart, u)
    pk = shape_packet(chart, u)
    fval = lambda w: shape_packet(chart, w).f

    df = np.array([numeric.partial1(fval, u, a, h_step) for a in range(chart.m)])
    grad_f = ff.g_inv @ df
    grad_f_norm2 = float(df @ grad_f)

    # divergence form of the Laplace-Beltrami operator: the flux
    # W^a = sqrt(det g) g^{ab} d_b f is differentiated once more
    def flux(w):
        ffw = first_fundamental(chart, w)
        dfw = np.array([numeric.partial1(fval, w, a, h_step) for a in range(chart.m)])
        return np.sqrt(ffw.det_g) * (ffw.g_inv @ dfw)

    div = sum(numeric.partial1(lambda w: flux(w)[a], u, a, h_step)
              for a in range(chart.m))
    laplacian_f = float(div) / np.sqrt(ff.det_g)

    ric_eta_eta, _ = chart.sf.ricci_data(pk.eta)
    return GeometricSample(
        m=chart.m, f=pk.f, grad_f=grad_f, grad_f_norm2=grad_f_norm2,
        laplacian_f=laplacian_f, normA2=pk.normA2, A_grad_f=pk.A @ grad_f,
        ric_eta_eta=ric_eta_eta, ricci_eta_top=np.zeros(chart.m), g=ff.g)


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
