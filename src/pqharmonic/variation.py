"""Discretized (p,q)-energy for curves and the first-variation oracle.

The energy of a curve gamma : I -> N is

    E_{p,q}(gamma) = (1/q) int_I |tau_p(gamma)|^q dmu ,

with tau_p the p-tension field of the map from (I, dt^2) and dmu = dt, the
volume of that metric, in whatever parametrization the curve comes.  So the
energy of the variations gamma_t = retract(gamma + t v) is over dt too, and
that is what the first-variation identity

    d/dt E_{p,q}(gamma_t)|_0 = - int <v, tau_{p,q}(gamma)>

is stated for.  The identity is checked by comparing a Richardson-
extrapolated central difference of the energy against composite-Simpson
quadrature of the pairing.

Every derivative is the 4th-order central stencil
:func:`numeric._stencil`, applied along the stencil lattice of
:mod:`numeric`: the curve is sampled once per distinct lattice point, as
an (N, L, dim) array for N nodes and L offsets k:

* tau_p at a node uses the offsets k = -4..4 of the step h;
* tau_{p,q} uses tau_p at the nine nodes t + 4 j h1 (j = -4..4), so the
  offsets -20..20 of h1, and stencils of step h2 = 4 h1 over those nodes;
* the first-variation check samples the base curve once on the (K+1) x 9
  energy lattice and takes the field from those samples.  tau_p of the base
  is computed once; the six varied curves differ from it only on the windows
  that meet the field's support, so their tau_p is one batch over those
  windows, and the six energies are one batch too.  tau_{p,q} at the Simpson
  nodes samples only its offsets beyond -4..4, which the energy lattice holds.

Wherever these kernels sample the base curve, its points at the nodes
(offset 0) must lie on the model, as in :mod:`curves`; a curve off it is a
``ModelConstraintError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numeric
from .curves import SPEED_FLOOR, CurveChart
from .errors import DomainError, SingularFactorError, SingularSpeedError
from .numeric import _lattice, _sample, _stencil, require_finite
from .residual import PQParams

TAU_P_FLOOR = 1e-6

TP_OFFSETS = numeric.NESTED_OFFSETS     # the lattice of one tau_p, in steps h
OUTER = 4                               # h2 = OUTER * h1 for the tau_pq stencils
PQ_OFFSETS = np.arange(-20, 21)         # the lattice of one tau_pq, in steps h1
PQ_NODES = 20 + OUTER * TP_OFFSETS      # indices of its nine tau_p nodes
PQ_OUTER = np.abs(PQ_OFFSETS) > TP_OFFSETS[-1]   # its offsets beyond the energy lattice
# largest DiscretizedCurve.K: variation-check of the S^3 helix (3 fields) at
# this K peaks at 115 MiB (tracemalloc, report included)
MAX_K = 2 ** 14


# -- p-tension field --------------------------------------------------------

def _tension_p(sf, X, h, p):
    """tau_p, velocity and squared speed at the centres of (N, 9, dim) windows."""
    if h <= 0 or not np.isfinite(h):
        raise DomainError("derivative step must be positive and finite")
    V = _stencil(X, h)                      # offsets -2..2
    s2 = sf.pair(V, V)
    vel, s2c = V[:, 2], s2[:, 2]
    if p < 2 and np.any(s2c < SPEED_FLOOR ** 2):
        low = float(np.min(s2c))
        raise SingularSpeedError(f"speed {math.sqrt(max(low, 0)):.3e} with p = {p} < 2")
    acc = sf.tangent_project(X[:, 4], _stencil(V, h)[:, 0])
    if p == 2:
        return acc, vel, s2c
    e = (p - 2) / 2.0
    dsp = _stencil(s2 ** e, h)[:, 0]
    return (s2c ** e)[:, None] * acc + dsp[:, None] * vel, vel, s2c


def _sample_base(curve, pts):
    """The curve at the points t + k h (n, 9) of :func:`numeric._lattice`,
    (n, 9, dim), refused unless its points at the nodes t (offset 0) lie on
    the model (:meth:`SpaceForm.check_point`)."""
    X = _sample(curve.map, pts)
    curve.sf.check_point(X[:, len(TP_OFFSETS) // 2])
    return X


def tension_p(curve: CurveChart, t, p):
    """tau_p = |g'|^(p-2) nabla_t g' + d/dt(|g'|^(p-2)) g' at parameter t."""
    h = curve.frame_step()
    return _tension_p(curve.sf, _sample_base(curve, _lattice([t], h)), h, p)[0][0]


# -- discretized energy -----------------------------------------------------

@dataclass(frozen=True)
class DiscretizedCurve:
    """A curve with K+1 Simpson nodes over its domain (K even, 16 <= K <= MAX_K)."""

    curve: CurveChart
    K: int

    def __post_init__(self):
        if self.K > MAX_K:
            raise ValueError(f"node count K = {self.K} exceeds {MAX_K}")
        if self.K < 16 or self.K % 2 != 0:
            raise ValueError("need an even node count K >= 16")

    @property
    def ts(self):
        return np.linspace(self.curve.domain[0], self.curve.domain[1], self.K + 1)

    @property
    def dt(self):
        return self.curve.width / self.K

    @property
    def weights(self):
        return numeric.simpson_weights(self.K, self.dt)


def energy_pq(dcurve: DiscretizedCurve, params: PQParams):
    """Composite-Simpson value of (1/q) |tau_p|^q over the parameter t."""
    h = dcurve.curve.frame_step()
    X = _sample_base(dcurve.curve, _lattice(dcurve.ts, h))
    tp = _tension_p(dcurve.curve.sf, X, h, params.p)[0]
    return float(_energy(dcurve, tp, params))


def _energy(dcurve, tp, params):
    """energy_pq from tau_p at the Simpson nodes (..., K+1, dim): one energy
    per leading index."""
    sf, q = dcurve.curve.sf, float(params.q)
    return np.sum(dcurve.weights * sf.pair(tp, tp) ** (q / 2.0), axis=-1) / q


# -- (p,q)-tension field ----------------------------------------------------

def _tension_pq(curve, ts, params, h1, base=None):
    """The (p,q)-tension field at the nodes ``ts`` from one sampled lattice.

    ``base``, when given, holds the curve at the offsets -4..4 of ``ts``
    (an energy lattice, (n, 9, dim)), and only the other offsets are sampled.
    """
    sf = curve.sf
    p, q = float(params.p), float(params.q)
    h2 = OUTER * h1
    if base is None:
        X = _sample(curve.map, _lattice(ts, h1, PQ_OFFSETS))
    else:
        X = np.empty((len(base), len(PQ_OFFSETS), base.shape[-1]))
        X[:, ~PQ_OUTER] = base
        X[:, PQ_OUTER] = _sample(curve.map, _lattice(ts, h1, PQ_OFFSETS[PQ_OUTER]))
    n, dim = len(X), X.shape[-1]
    # the tau_p window of each of the nine nodes, as views: every OUTER-th run of 9 offsets
    windows = np.lib.stride_tricks.sliding_window_view(X, len(TP_OFFSETS), axis=1)[:, ::OUTER]
    windows = np.moveaxis(windows, -1, 2).reshape(-1, len(TP_OFFSETS), dim)
    tp, vel, s2 = (a.reshape((n, len(PQ_NODES)) + a.shape[1:])
                   for a in _tension_p(sf, windows, h1, p))
    P = X[:, PQ_NODES]                      # the nine tau_p nodes; P[:, 4] is t
    n2 = sf.pair(tp, tp)
    if q == 2:
        W = tp                              # |tau_p|^(q-2) tau_p
    else:
        if q < 2 and np.any(n2 < TAU_P_FLOOR ** 2):
            low = float(np.min(n2))
            raise SingularFactorError(
                f"|tau_p| = {math.sqrt(max(low, 0)):.3e} at a q = {q} < 2 evaluation")
        W = (n2 ** ((q - 2) / 2.0))[..., None] * tp

    inner = slice(2, 7)                     # nodes j = -2..2, where dW exists
    dW = sf.tangent_project(P[:, inner], _stencil(W, h2))
    U2 = (s2[:, inner] ** ((p - 2) / 2.0))[..., None] * dW
    term2 = -sf.tangent_project(P[:, 4], _stencil(U2, h2)[:, 0])
    if p == 2:
        term3 = 0.0
    else:
        v = vel[:, inner]
        U3 = (s2[:, inner] ** ((p - 4) / 2.0) * sf.pair(dW, v))[..., None] * v
        term3 = -(p - 2) * sf.tangent_project(P[:, 4], _stencil(U3, h2)[:, 0])

    R = sf.curvature_tensor(P[:, 4], tp[:, 4], vel[:, 4], vel[:, 4])
    term1 = (-(s2[:, 4] ** ((p - 2) / 2.0)) * n2[:, 4] ** ((q - 2) / 2.0))[:, None] * R

    out = term1 + term2 + term3
    if not np.all(np.isfinite(out)):
        raise SingularFactorError("NaN in (p,q)-tension evaluation")
    return out


def tension_pq_curve(curve: CurveChart, t, params: PQParams):
    """The (p,q)-tension field of a curve at parameter t.

    Three terms: the curvature term -|g'|^(p-2)|tau_p|^(q-2) R(tau_p,g')g',
    the double covariant derivative of |tau_p|^(q-2) tau_p weighted by
    |g'|^(p-2), and the (p-2) correction along g'.  The |tau_p|^(q-2)
    factor is refused (not regularized) near zeros of tau_p when q < 2.
    """
    return _tension_pq(curve, [t], params, curve.frame_step())[0]


# -- variation fields -------------------------------------------------------

@dataclass(frozen=True)
class VariationField:
    """A tangent field along a curve, compactly supported inside its domain.

    ``fn`` acts over the last axis, like a curve map: parameters (...,)
    inside the open ``support`` go to vectors (..., dim).  ``along``, where
    given, is the same field from the curve's points: ``along(t, X)`` with
    X = curve.map(t), for callers that have sampled the curve at t already.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple
    along: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, t):
        lo, hi = self.support
        if t <= lo or t >= hi:
            return None  # identically zero outside the support
        # one point as a one-point batch, so v(t) is the row values([t]) gives
        return np.asarray(self.fn(np.array([t], dtype=float)), dtype=float)[0]

    def values(self, ts, dim, points=None):
        """The field at ``ts`` (n,), zero outside the support, by one call of
        fn: (n, dim); by one call of ``along`` instead where the curve's
        ``points`` (n, dim) at ts are given."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.support
        inside = (ts > lo) & (ts < hi)
        out = np.zeros((len(ts), dim))
        if inside.any():
            out[inside] = (self.fn(ts[inside]) if points is None or self.along is None
                           else self.along(ts[inside], points[inside]))
        return out


def bump_normal_field(curve, direction_fn, support=None, amplitude=1.0):
    """A smooth bump times a tangent direction field (over the last axis) along the curve."""
    lo, hi = support if support is not None else _default_support(curve)
    sf = curve.sf

    def along(t, X):
        bump = amplitude * numeric.smooth_bump(t, lo, hi)
        return np.asarray(bump)[..., None] \
            * sf.tangent_project(X, np.asarray(direction_fn(t), dtype=float))

    return VariationField(fn=lambda t: along(t, np.asarray(curve.map(t), dtype=float)),
                          support=(lo, hi), along=along)


def random_bump_field(curve, rng, support=None, amplitude=1.0):
    """A random ambient field of two frequencies, projected tangentially and bumped."""
    lo, hi = support if support is not None else _default_support(curve)
    dim = curve.sf.ambient_dim
    coeffs = rng.standard_normal((2, 2, dim))
    omega = 2 * math.pi / (hi - lo)
    harmonics = np.arange(1, len(coeffs) + 1)[:, None]
    cos_coeffs, sin_coeffs = coeffs[:, 0], coeffs[:, 1]

    def direction(t):
        x = omega * (np.asarray(t, dtype=float)[..., None, None] - lo) * harmonics
        # one term per harmonic, then their sum: (..., harmonic, dim) -> (..., dim)
        return np.add.reduce(cos_coeffs * np.cos(x) + sin_coeffs * np.sin(x), axis=-2)

    field = bump_normal_field(curve, direction, support=(lo, hi), amplitude=1.0)
    # normalize to the requested sup amplitude, over the probes inside the support
    w = field.values(np.linspace(lo, hi, 129), dim)
    sup = float(np.max(np.sqrt(np.maximum(curve.sf.pair(w, w), 0.0))))
    return bump_normal_field(curve, direction, support=(lo, hi),
                             amplitude=amplitude / max(sup, 1e-12))


def _default_support(curve):
    lo, hi = curve.domain
    pad = 0.15 * (hi - lo)
    return lo + pad, hi - pad


# -- first variation --------------------------------------------------------

@dataclass(frozen=True)
class VariationCheckReport:
    lhs: float                 # Richardson-extrapolated dE/dt at 0
    rhs: float                 # -int <v, tau_pq> dt
    rel_error: float
    observed_order: float
    fd_values: tuple           # central differences per step
    steps: tuple
    v_norm: float              # sup of |v| over the quadrature nodes


def varied_curve(curve, v: VariationField, t):
    """gamma_t = retract(gamma + t v); equals gamma outside the support."""
    sf = curve.sf
    lo, hi = v.support

    def mapped(s):
        base = np.asarray(curve.map(s), dtype=float)
        if t == 0.0:
            return base
        s = np.asarray(s, dtype=float)
        dim = base.shape[-1]
        w = v.values(s.ravel(), dim, base.reshape(-1, dim)).reshape(base.shape)
        inside = ((s > lo) & (s < hi))[..., None]
        return np.where(inside, sf.retract(base + t * w), base)

    return CurveChart(sf=sf, domain=curve.domain, map=mapped,
                      name=curve.name + f"(varied t={t:g})")


@np.errstate(all="ignore")      # a side that is not finite is refused
def first_variation_check(dcurve: DiscretizedCurve, v: VariationField,
                          params: PQParams,
                          steps: Sequence[float] = (1e-2, 5e-3, 2.5e-3)):
    """Numerically validate dE/dt|_0 = -int <v, tau_pq(gamma)>.

    The left side is a central finite difference of the energy of the
    retracted variation (per step, with a Richardson estimate from the two
    smallest steps); the right side is Simpson quadrature of the pairing
    against tau_pq of the base curve.  The base curve is sampled once on the
    energy lattice, and the field is taken from those samples; each varied
    curve is retract(base + t v) on them, as in :func:`varied_curve`.
    Both sides are integrals over the curve's own parameter, at any speed.
    A non-finite side is a DomainError.
    """
    curve, sf = dcurve.curve, dcurve.curve.sf
    h = curve.frame_step()
    pts = _lattice(dcurve.ts, h)
    B = _sample_base(curve, pts)
    dim = B.shape[-1]
    V = v.values(pts.ravel(), dim, B.reshape(-1, dim)).reshape(B.shape)
    lo, hi = v.support
    inside = (pts > lo) & (pts < hi)

    # steps scale inversely with the field size so the perturbation of
    # tau_p stays small compared to its base value
    nodes = inside[:, 4]                    # offset 0: the Simpson nodes themselves
    vv = V[nodes, 4]
    sup_v = float(np.max(np.sqrt(np.maximum(sf.pair(vv, vv), 0.0)), initial=0.0))
    scale = 1.0 / max(1.0, sup_v)
    steps = tuple(s * scale for s in steps)

    # the varied curves at t = +s, -s for each step equal the base outside the
    # windows that meet the support: their tau_p is one batch over those windows
    signed = np.array([x for s in steps for x in (s, -s)])
    rows = inside.any(axis=1)
    win = B[rows]
    varied = np.where(inside[rows, :, None],
                      sf.retract(win + signed[:, None, None, None] * V[rows]), win)
    tp = np.repeat(_tension_p(sf, B, h, params.p)[0][None], len(signed), axis=0)
    tp[:, rows] = _tension_p(sf, varied.reshape((-1,) + win.shape[1:]), h,
                             params.p)[0].reshape(len(signed), -1, dim)
    energies = _energy(dcurve, tp, params)
    fd = (energies[0::2] - energies[1::2]) / (2.0 * np.array(steps))
    lhs = float(numeric.richardson(fd[-2], fd[-1], order=2))
    order = numeric.observed_order(fd) if len(fd) >= 3 else float("nan")

    rhs = 0.0
    if nodes.any():
        tpq = _tension_pq(curve, dcurve.ts[nodes], params, h, base=B[nodes])
        rhs = -float(np.sum(dcurve.weights[nodes] * sf.pair(vv, tpq)))
    require_finite("first variation", {"dE/dt": lhs, "-int <v, tau_pq>": rhs})

    rel = abs(lhs - rhs) / max(abs(rhs), 1e-14)
    return VariationCheckReport(lhs=lhs, rhs=float(rhs), rel_error=float(rel),
                                observed_order=float(order),
                                fd_values=tuple(float(x) for x in fd),
                                steps=tuple(float(s) for s in steps),
                                v_norm=sup_v)
