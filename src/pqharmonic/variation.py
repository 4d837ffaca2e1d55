"""Discretized (p,q)-energy for curves and the first-variation oracle.

The energy of a curve gamma : I -> N is

    E_{p,q}(gamma) = (1/q) int_I |tau_p(gamma)|^q dmu ,

with tau_p the p-tension field of the map from (I, dt^2) and dmu = dt, the
volume of that metric, in whatever parametrization the curve comes.  So the
energy of the variations gamma_t = retract(gamma + t v) is over dt too, and
that is what the first-variation identity

    d/dt E_{p,q}(gamma_t)|_0 = - int <v, tau_{p,q}(gamma)>

is stated for.  The identity is checked by comparing a Richardson-
extrapolated ladder of steps of the energy against composite-Simpson
quadrature of the pairing: complex steps Im E(i t)/t where q/2 is an
integer, central differences (E(t) - E(-t))/(2 t) otherwise.

Every kernel calls the curve map once, on the Taylor series t + s of its
nodes (:func:`curves._series`), and d/dt is the coefficient shift; no
derivative in t is a finite difference.
* tau_p takes the series to degree 2 and gives it at degree 0
  (:func:`_series_tension_p`), and the energy is Simpson quadrature of
  |tau_p|^q / q over the nodes.
* The (p,q)-tension field needs four derivatives: tau_p, |tau_p|^(q-2)
  tau_p and their covariant derivatives follow from the degree-4 series,
  down to degree 0 (:func:`_series_tension_pq`).
* The first-variation check calls the map once at all K+1 Simpson nodes.
  The field at the nodes in its support is ``along(T, X)`` of the
  variable's series T and the curve's series X, both truncated to degree
  2.  The varied curves retract(X + z V), one per step z (i t, or +-t),
  are one batch of series with an axis of z, and they equal the base at
  every node outside the support, so E(z) is a sum over the support's
  nodes alone.  The right side takes tau_pq from the same series, and the
  field's values on the float path.

A curve map or a field that carries no series is a DomainError that says
what it must accept.  The curve's points at the nodes must lie on the
model, as in :mod:`curves`; a curve off it is a ``ModelConstraintError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numeric
from .curves import SPEED_FLOOR, CurveChart, _series
from .errors import DomainError, SingularFactorError, SingularSpeedError
from .jets import Taylor, carried
from .numeric import require_finite
from .residual import PQParams

TAU_P_FLOOR = 1e-6
# largest DiscretizedCurve.K: variation-check of the S^3 helix (3 fields) at
# this K peaks at 35 MiB (tracemalloc, report included)
MAX_K = 2 ** 14


# -- p-tension field --------------------------------------------------------

def _series_tension_p(sf, X, p):
    """tau_p = |g'|^(p-2) nabla_t g' + d/dt(|g'|^(p-2)) g' from the curve's
    series X, two degrees lower; with the velocity, |g'|^2 and |g'|^(p-2)
    (None at p = 2), which the (p,q)-tension field reuses."""
    V = X.d()
    s2 = sf.pair(V, V)
    s2c = s2.c[0].real                      # the value of a complex step is its real part
    if p < 2 and np.any(s2c < SPEED_FLOOR ** 2):
        low = float(np.min(s2c))
        raise SingularSpeedError(f"speed {math.sqrt(max(low, 0)):.3e} with p = {p} < 2")
    acc = sf.tangent_project(X, V.d())
    if p == 2:
        return acc, V, s2, None
    sp = s2 ** ((p - 2) / 2.0)
    return sp[..., None] * acc + sp.d()[..., None] * V, V, s2, sp


def _tension_p_values(sf, X, p):
    """tau_p at the nodes of the curve's series X, as a series of degree 0.
    Where the speed vanishes at p > 2 it is 0, its limit there (|tau_p| <=
    (p-1)|g'|^(p-2)|nabla_t g'|), which the series of |g'|^(p-2) does not give."""
    tp, _, s2, _ = _series_tension_p(sf, X.truncated(2), p)
    if p > 2:
        tp.c[:, s2.c[0] == 0] = 0.0
    return tp


@np.errstate(all="ignore")      # a value that is not finite is refused
def tension_p(curve: CurveChart, t, p):
    """tau_p = |g'|^(p-2) nabla_t g' + d/dt(|g'|^(p-2)) g' at parameter t."""
    tp = _tension_p_values(curve.sf, _series(curve, np.array([t], dtype=float)), p).c[0, 0]
    if not np.all(np.isfinite(tp)):
        raise SingularFactorError("NaN in p-tension evaluation")
    return tp


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


@np.errstate(all="ignore")      # a value that is not finite is refused
def energy_pq(dcurve: DiscretizedCurve, params: PQParams):
    """Composite-Simpson value of (1/q) |tau_p|^q over the parameter t."""
    sf = dcurve.curve.sf
    tp = _tension_p_values(sf, _series(dcurve.curve, dcurve.ts), params.p)
    energy = float(_energy(dcurve.weights, sf, tp, params))
    require_finite("energy", {"E_pq": energy})
    return energy


def _energy(weights, sf, tp, params):
    """Simpson sum of (1/q) |tau_p|^q with ``weights`` over the last node
    axis of tau_p, a series (..., n, dim) of degree 0: one energy per
    leading index."""
    q = float(params.q)
    return np.sum(weights * sf.pair(tp, tp).c[0] ** (q / 2.0), axis=-1) / q


# -- (p,q)-tension field ----------------------------------------------------

@np.errstate(all="ignore")      # a value that is not finite is refused
def _series_tension_pq(sf, X, params):
    """The (p,q)-tension field at the nodes from the curve's Taylor series X,
    with d/dt the coefficient shift, each series truncated to the degree its
    derivatives leave."""
    p, q = float(params.p), float(params.q)
    tp, V, s2, sp = _series_tension_p(sf, X, p)      # tau_p to degree 2
    n2 = sf.pair(tp, tp)
    if q == 2:
        W = tp                              # |tau_p|^(q-2) tau_p
    else:
        if q < 2 and np.any(n2.c[0] < TAU_P_FLOOR ** 2):
            low = float(np.min(n2.c[0]))
            raise SingularFactorError(
                f"|tau_p| = {math.sqrt(max(low, 0)):.3e} at a q = {q} < 2 evaluation")
        W = (n2 ** ((q - 2) / 2.0))[..., None] * tp
        W.c[:, ~tp.c.any(axis=(0, -1))] = 0.0     # where tau_p vanishes identically

    dW = sf.tangent_project(X, W.d())       # degree 1
    P, v = X.c[0], V.c[0]
    U2 = dW if p == 2 else sp[..., None] * dW
    term2 = -sf.tangent_project(P, U2.d().c[0])
    if p == 2:
        term3 = 0.0
    else:
        U3 = (Taylor(s2.c[:2]) ** ((p - 4) / 2.0) * sf.pair(dW, V))[..., None] * V
        term3 = -(p - 2) * sf.tangent_project(P, U3.d().c[0])

    R = sf.curvature_tensor(P, tp.c[0], v, v)
    term1 = (-(s2.c[0] ** ((p - 2) / 2.0)) * n2.c[0] ** ((q - 2) / 2.0))[:, None] * R

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
    return _series_tension_pq(curve.sf, _series(curve, np.array([t], dtype=float)), params)[0]


# -- variation fields -------------------------------------------------------

@dataclass(frozen=True)
class VariationField:
    """A tangent field along a curve, compactly supported inside its domain.

    ``fn`` acts over the last axis, like a curve map: parameters (...,)
    inside the open ``support`` go to vectors (..., dim).  ``along``, where
    given, is the same field from the curve's points: ``along(t, X)`` with
    X = curve.map(t), for callers that have sampled the curve at t already.
    Like a curve map, each takes the Taylor series of t (and of X) too, and
    gives the series of the field (:meth:`series`).
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

    def series(self, T, X):
        """The field as a Taylor series at the nodes of the variable's series
        T (n,), by one call of ``along(T, X)`` on the curve's series X there
        (of ``fn(T)`` without ``along``), with its coefficients zeroed at the
        nodes outside the support.  A field that carries no series is a
        DomainError."""
        W = carried(lambda: self.fn(T) if self.along is None else self.along(T, X), Taylor,
                    "the variation field")
        lo, hi = self.support
        outside = (T.c[0] <= lo) | (T.c[0] >= hi)
        if outside.any():
            W.c[:, outside] = 0.0
        return W


def bump_normal_field(curve, direction_fn, support=None, amplitude=1.0):
    """A smooth bump times a tangent direction field (over the last axis) along the curve."""
    lo, hi = support if support is not None else _default_support(curve)
    sf = curve.sf

    def along(t, X):
        bump = amplitude * numeric.smooth_bump(t, lo, hi)
        return bump[..., None] * sf.tangent_project(X, direction_fn(t))

    return VariationField(fn=lambda t: along(t, curve.map(t)), support=(lo, hi), along=along)


def random_bump_field(curve, rng, support=None, amplitude=1.0):
    """A random ambient field of two frequencies, projected tangentially and bumped."""
    lo, hi = support if support is not None else _default_support(curve)
    dim = curve.sf.ambient_dim
    coeffs = rng.standard_normal((2, 2, dim))
    omega = 2 * math.pi / (hi - lo)
    harmonics = np.arange(1, len(coeffs) + 1)[:, None]
    cos_coeffs, sin_coeffs = coeffs[:, 0], coeffs[:, 1]

    def direction(t):
        x = omega * (t[..., None, None] - lo) * harmonics
        # one term per harmonic, then their sum: (..., harmonic, dim) -> (..., dim)
        terms = cos_coeffs * np.cos(x) + sin_coeffs * np.sin(x)
        return terms[..., 0, :] + terms[..., 1, :]

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
    fd_values: tuple           # Im E(i t)/t or (E(t) - E(-t))/(2 t), one per step t
    steps: tuple
    v_norm: float              # sup of |v| over the quadrature nodes


def varied_curve(curve, v: VariationField, t):
    """gamma_t = retract(gamma + t v), with v zero outside its support; its
    map takes parameters, or their Taylor series (:meth:`VariationField.series`)."""
    sf = curve.sf

    def mapped(s):
        base = curve.map(s)
        if t == 0.0:
            return base
        if isinstance(s, Taylor):
            return sf.retract(base + t * v.series(s, base))
        base, s = np.asarray(base, dtype=float), np.asarray(s, dtype=float)
        dim = base.shape[-1]
        w = v.values(s.ravel(), dim, base.reshape(-1, dim)).reshape(base.shape)
        return sf.retract(base + t * w)

    return CurveChart(sf=sf, domain=curve.domain, map=mapped,
                      name=curve.name + f"(varied t={t:g})")


@np.errstate(all="ignore")      # a side that is not finite is refused
def first_variation_check(dcurve: DiscretizedCurve, v: VariationField,
                          params: PQParams,
                          steps: Sequence[float] = (1e-2, 5e-3, 2.5e-3)):
    """Numerically validate dE/dt|_0 = -int <v, tau_pq(gamma)>.

    The left side is a complex step Im E(i t)/t of the energy of the
    retracted variation where q/2 is an integer, and a central difference
    (E(t) - E(-t))/(2 t) otherwise (per step t, with a Richardson estimate
    from the two smallest steps); the right side is Simpson quadrature of
    the pairing against tau_pq of the base curve.  Both come from one call
    of the map on the series of the K+1 Simpson nodes, and each varied
    curve is retract(X + z V) on them, as in :func:`varied_curve` at
    t = z.  Both sides are integrals over the curve's own parameter,
    at any speed.  A support that holds no Simpson node, or a non-finite
    side, is a DomainError.
    """
    curve, sf, ts = dcurve.curve, dcurve.curve.sf, dcurve.ts
    X = _series(curve, ts)                  # checks every node against the model
    lo, hi = v.support
    nodes = (ts > lo) & (ts < hi)
    if not nodes.any():
        raise DomainError(f"the field's support ({lo:g}, {hi:g}) holds no Simpson node "
                          f"of K = {dcurve.K}")
    X, weights = X[nodes], dcurve.weights[nodes]
    vv = v.values(ts[nodes], sf.ambient_dim, X.c[0])

    # steps scale inversely with the field size so the perturbation of
    # tau_p stays small compared to its base value
    sup_v = float(np.max(np.sqrt(np.maximum(sf.pair(vv, vv), 0.0))))
    scale = 1.0 / max(1.0, sup_v)
    steps = tuple(s * scale for s in steps)

    # the varied curves at the steps, one batch along axis 0.  Where q/2 is
    # an integer, |tau_p|^q is a polynomial in <tau_p, tau_p>, analytic in
    # t, and the steps are complex: Im E(i s)/s = dE/dt - s^2 E'''/6 + ...
    # converges at a central difference's order without a difference of
    # energies to cancel (Squire & Trapp, SIAM Rev. 40 (1998) 110-112), so
    # an energy quadratic in t (a curve in R^3 at p = q = 2) gives the same
    # value at every step.  Otherwise |tau_p|^q is not analytic where tau_p
    # vanishes (a geodesic), and the steps are the real +-s of a central
    # difference (E(s) - E(-s))/(2 s)
    s = np.array(steps)
    complex_step = (float(params.q) / 2.0).is_integer()
    z = 1j * s if complex_step else np.concatenate([s, -s])
    base = X.truncated(2)
    V = v.series(Taylor.variable(ts[nodes]).truncated(2), base)
    tp = _tension_p_values(sf, sf.retract(base + z[:, None, None] * V), params.p)
    energy = _energy(weights, sf, tp, params)
    fd = energy.imag / s if complex_step else (energy[:len(s)] - energy[len(s):]) / (2 * s)
    lhs = float(numeric.richardson(fd[-2], fd[-1], order=2))
    order = numeric.observed_order(fd) if len(fd) >= 3 else float("nan")
    require_finite("first variation", {"dE/dt": lhs})

    rhs = -float(np.sum(weights * sf.pair(vv, _series_tension_pq(sf, X, params))))
    require_finite("first variation", {"dE/dt": lhs, "-int <v, tau_pq>": rhs})

    rel = abs(lhs - rhs) / max(abs(rhs), 1e-14)
    return VariationCheckReport(lhs=lhs, rhs=float(rhs), rel_error=float(rel),
                                observed_order=float(order),
                                fd_values=tuple(float(x) for x in fd),
                                steps=tuple(float(s) for s in steps),
                                v_norm=sup_v)
