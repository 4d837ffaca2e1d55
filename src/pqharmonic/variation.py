"""Discretized (p,q)-energy for curves and the first-variation oracle.

The energy of a curve gamma : I -> N is

    E_{p,q}(gamma) = (1/q) int_I |tau_p(gamma)|^q dmu ,

with tau_p the p-tension field of the map from (I, dt^2).  For unit-speed
curves the arc measure and the flat parameter measure coincide; variations
gamma_t = retract(gamma + t v) are always weighed with the measure of the
base curve, which is what the first-variation identity

    d/dt E_{p,q}(gamma_t)|_0 = - int <v, tau_{p,q}(gamma)>

is stated for.  The identity is checked by comparing a Richardson-
extrapolated central difference of the energy against composite-Simpson
quadrature of the pairing.

Every derivative is the 4th-order central stencil of
:func:`numeric.deriv1`, applied along the stencil lattice of
:mod:`numeric`: the curve is sampled once per distinct lattice point, as
an (N, L, dim) array for N nodes and L offsets k:

* tau_p at a node uses the offsets k = -4..4 of the step h;
* tau_{p,q} uses tau_p at the nine nodes t + 4 j h1 (j = -4..4), so the
  offsets -20..20 of h1, and stencils of step h2 = 4 h1 over those nodes;
* the first-variation check samples the base curve and the field once on
  the (K+1) x 9 energy lattice and forms every varied energy from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numeric
from .curves import CurveChart
from .errors import DomainError, SingularFactorError, SingularSpeedError
from .numeric import _lattice, _sample, _stencil
from .residual import PQParams

SPEED_FLOOR = 1e-10
TAU_P_FLOOR = 1e-6
MEASURE_SPREAD = 1e-6   # relative spread of the base speed the first-variation check allows

TP_OFFSETS = numeric.NESTED_OFFSETS     # the lattice of one tau_p, in steps h
OUTER = 4                               # h2 = OUTER * h1 for the tau_pq stencils
PQ_OFFSETS = np.arange(-20, 21)         # the lattice of one tau_pq, in steps h1
PQ_NODES = 20 + OUTER * TP_OFFSETS      # indices of its nine tau_p nodes


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


def tension_p(curve: CurveChart, t, p, step=None):
    """tau_p = |g'|^(p-2) nabla_t g' + d/dt(|g'|^(p-2)) g' at parameter t."""
    h = step if step is not None else curve.frame_step()
    X = _sample(curve.map, _lattice([t], h))
    return _tension_p(curve.sf, X, h, p)[0][0]


# -- discretized energy -----------------------------------------------------

@dataclass(frozen=True)
class DiscretizedCurve:
    """A curve with K+1 Simpson nodes over its domain (K even, >= 16)."""

    curve: CurveChart
    K: int

    def __post_init__(self):
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


def energy_pq(dcurve: DiscretizedCurve, params: PQParams, measure=None):
    """Composite-Simpson value of (1/q) |tau_p|^q against the arc measure.

    ``measure`` overrides the per-node measure factors (used by the
    variation check to freeze the base-curve measure); by default the speed
    of the discretized curve itself is used.
    """
    h = dcurve.curve.frame_step()
    X = _sample(dcurve.curve.map, _lattice(dcurve.ts, h))
    return _energy(dcurve, X, h, params, measure)


def _energy(dcurve, X, h, params, measure):
    """energy_pq from the curve sampled on the (K+1) x 9 energy lattice."""
    sf, q = dcurve.curve.sf, float(params.q)
    tp = _tension_p(sf, X, h, params.p)[0]
    mu = _measure(dcurve.curve, X, h) if measure is None \
        else np.asarray(measure, dtype=float)
    return float(np.sum(dcurve.weights * sf.pair(tp, tp) ** (q / 2.0) * mu)) / q


def _measure(curve, X, h):
    """Speed of the curve at the nodes of its energy lattice (1 if unit speed)."""
    if curve.unit_speed:
        return np.ones(len(X))
    vel = _stencil(X, h)[:, 2]
    return np.sqrt(np.maximum(curve.sf.pair(vel, vel), 0.0))


# -- (p,q)-tension field ----------------------------------------------------

def _tension_pq(curve, ts, params, h1):
    """The (p,q)-tension field at the nodes ``ts`` from one sampled lattice."""
    sf = curve.sf
    p, q = float(params.p), float(params.q)
    h2 = OUTER * h1
    X = _sample(curve.map, _lattice(ts, h1, PQ_OFFSETS))
    n, dim = len(X), X.shape[-1]
    windows = X[:, PQ_NODES[:, None] + TP_OFFSETS].reshape(-1, len(TP_OFFSETS), dim)
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


def tension_pq_curve(curve: CurveChart, t, params: PQParams, step=None):
    """The (p,q)-tension field of a curve at parameter t.

    Three terms: the curvature term -|g'|^(p-2)|tau_p|^(q-2) R(tau_p,g')g',
    the double covariant derivative of |tau_p|^(q-2) tau_p weighted by
    |g'|^(p-2), and the (p-2) correction along g'.  The |tau_p|^(q-2)
    factor is refused (not regularized) near zeros of tau_p when q < 2.
    """
    h1 = step if step is not None else curve.frame_step()
    return _tension_pq(curve, [t], params, h1)[0]


# -- variation fields -------------------------------------------------------

@dataclass(frozen=True)
class VariationField:
    """A tangent field along a curve, compactly supported inside its domain.

    ``fn`` acts over the last axis, like a curve map: parameters (...,)
    inside the open ``support`` go to vectors (..., dim).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple

    def __call__(self, t):
        lo, hi = self.support
        if t <= lo or t >= hi:
            return None  # identically zero outside the support
        return np.asarray(self.fn(t), dtype=float)

    def values(self, ts, dim):
        """The field at ``ts`` (n,), zero outside the support, by one call of fn: (n, dim)."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.support
        inside = (ts > lo) & (ts < hi)
        out = np.zeros((len(ts), dim))
        if inside.any():
            out[inside] = self.fn(ts[inside])
        return out


def bump_normal_field(curve, direction_fn, support=None, amplitude=1.0):
    """A smooth bump times a tangent direction field (over the last axis) along the curve."""
    lo, hi = support if support is not None else _default_support(curve)

    def fn(t):
        bump = amplitude * numeric.smooth_bump(t, lo, hi)
        return np.asarray(bump)[..., None] \
            * curve.sf.tangent_project(np.asarray(curve.map(t), dtype=float),
                                       np.asarray(direction_fn(t), dtype=float))
    return VariationField(fn=fn, support=(lo, hi))


def random_bump_field(curve, rng, support=None, amplitude=1.0, n_modes=2):
    """A random low-frequency ambient field, projected tangentially and bumped."""
    lo, hi = support if support is not None else _default_support(curve)
    dim = curve.sf.ambient_dim
    coeffs = rng.standard_normal((n_modes, 2, dim))
    omega = 2 * math.pi / (hi - lo)

    def direction(t):
        x = omega * (np.asarray(t, dtype=float)[..., None] - lo)
        return sum(coeffs[j, 0] * np.cos((j + 1) * x)
                   + coeffs[j, 1] * np.sin((j + 1) * x)
                   for j in range(n_modes))

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
    rhs: float                 # -int <v, tau_pq> against the base measure
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
        w = v.values(s.ravel(), base.shape[-1]).reshape(base.shape)
        inside = ((s > lo) & (s < hi))[..., None]
        return np.where(inside, sf.retract(base + t * w), base)

    return CurveChart(sf=sf, domain=curve.domain, map=mapped,
                      unit_speed=False, name=curve.name + f"(varied t={t:g})")


def first_variation_check(dcurve: DiscretizedCurve, v: VariationField,
                          params: PQParams,
                          steps: Sequence[float] = (1e-2, 5e-3, 2.5e-3)):
    """Numerically validate dE/dt|_0 = -int <v, tau_pq(gamma)>.

    The left side is a central finite difference of the energy of the
    retracted variation (per step, with a Richardson estimate from the two
    smallest steps); the right side is Simpson quadrature of the pairing
    against tau_pq of the base curve.  The base curve and the field are
    sampled once on the energy lattice; each varied curve is
    retract(base + t v) on those samples, as in :func:`varied_curve`.
    The curve must have constant speed (to MEASURE_SPREAD relative);
    otherwise DomainError is raised.
    """
    curve, sf = dcurve.curve, dcurve.curve.sf
    h = curve.frame_step()
    pts = _lattice(dcurve.ts, h)
    B = _sample(curve.map, pts)
    V = v.values(pts.ravel(), sf.ambient_dim).reshape(B.shape)
    lo, hi = v.support
    inside = (pts > lo) & (pts < hi)
    base_measure = _measure(curve, B, h)
    spread = float(np.ptp(base_measure) / np.max(base_measure))
    if spread > MEASURE_SPREAD:
        # the identity pairs v with tau_pq of the flat parameter measure, so the
        # mu' terms of a varying arc measure would be missing from the right side
        raise DomainError(
            f"first_variation_check needs a constant-speed curve; the speed of "
            f"{curve.name} varies by {spread:.2e} (relative) over the nodes: "
            f"reparametrize it with curves.reparametrize_arclength")

    def energy_at(t):
        X = B.copy()
        X[inside] = sf.retract(B[inside] + t * V[inside])
        return _energy(dcurve, X, h, params, base_measure)

    # steps scale inversely with the field size so the perturbation of
    # tau_p stays small compared to its base value
    nodes = inside[:, 4]                    # offset 0: the Simpson nodes themselves
    vv = V[nodes, 4]
    sup_v = float(np.max(np.sqrt(np.maximum(sf.pair(vv, vv), 0.0)), initial=0.0))
    scale = 1.0 / max(1.0, sup_v)
    steps = tuple(s * scale for s in steps)
    fd = np.array([(energy_at(s) - energy_at(-s)) / (2.0 * s) for s in steps])
    lhs = float(numeric.richardson(fd[-2], fd[-1], order=2))
    order = numeric.observed_order(fd) if len(fd) >= 3 else float("nan")

    rhs = 0.0
    if nodes.any():
        tpq = _tension_pq(curve, dcurve.ts[nodes], params, h)
        rhs = -float(np.sum(dcurve.weights[nodes] * base_measure[nodes] * sf.pair(vv, tpq)))

    rel = abs(lhs - rhs) / max(abs(rhs), 1e-14)
    return VariationCheckReport(lhs=lhs, rhs=float(rhs), rel_error=float(rel),
                                observed_order=float(order),
                                fd_values=tuple(float(x) for x in fd),
                                steps=tuple(float(s) for s in steps),
                                v_norm=sup_v)
