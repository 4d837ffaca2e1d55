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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numeric
from .curves import CurveChart
from .errors import SingularFactorError, SingularSpeedError
from .residual import PQParams

SPEED_FLOOR = 1e-10
TAU_P_FLOOR = 1e-6


# -- p-tension field --------------------------------------------------------

def tension_p(curve: CurveChart, t, p, step=None):
    """tau_p = |g'|^(p-2) nabla_t g' + d/dt(|g'|^(p-2)) g' at parameter t."""
    sf = curve.sf
    h = step if step is not None else curve.frame_step()
    vel = numeric.deriv1(curve.map, t, h)
    s2 = sf.pair(vel, vel)
    if s2 < SPEED_FLOOR ** 2 and p < 2:
        raise SingularSpeedError(f"speed {math.sqrt(max(s2,0)):.3e} with p = {p} < 2")
    acc = sf.covariant_derivative(curve.map, lambda w: numeric.deriv1(curve.map, w, h),
                                  t, step=h)
    if p == 2:
        return acc
    sp = s2 ** ((p - 2) / 2.0)

    def speed_pow(w):
        v = numeric.deriv1(curve.map, w, h)
        return sf.pair(v, v) ** ((p - 2) / 2.0)

    dsp = float(numeric.deriv1(speed_pow, t, h))
    return sp * acc + dsp * vel


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
    curve, q = dcurve.curve, float(params.q)
    total = 0.0
    for w, t, mu in zip(dcurve.weights, dcurve.ts,
                        _measure_factors(dcurve, measure)):
        tp = tension_p(curve, t, params.p)
        total += w * curve.sf.pair(tp, tp) ** (q / 2.0) * mu
    return total / q


def _measure_factors(dcurve, measure):
    if measure is not None:
        return np.asarray(measure, dtype=float)
    curve = dcurve.curve
    if curve.unit_speed:
        return np.ones(dcurve.K + 1)
    h = curve.frame_step()
    return np.array([math.sqrt(max(curve.sf.pair(v, v), 0.0))
                     for v in (numeric.deriv1(curve.map, t, h) for t in dcurve.ts)])


# -- (p,q)-tension field ----------------------------------------------------

def tension_pq_curve(curve: CurveChart, t, params: PQParams, step=None):
    """The (p,q)-tension field of a curve, by nested covariant stencils.

    Three terms: the curvature term -|g'|^(p-2)|tau_p|^(q-2) R(tau_p,g')g',
    the double covariant derivative of |tau_p|^(q-2) tau_p weighted by
    |g'|^(p-2), and the (p-2) correction along g'.  The |tau_p|^(q-2)
    factor is refused (not regularized) near zeros of tau_p when q < 2.
    """
    sf = curve.sf
    p, q = float(params.p), float(params.q)
    h1 = step if step is not None else curve.frame_step()
    h2 = 4.0 * h1  # outer stencils live on top of already-nested values

    def vel(w):
        return numeric.deriv1(curve.map, w, h1)

    def speed2(w):
        v = vel(w)
        return sf.pair(v, v)

    def W(w):
        """|tau_p|^(q-2) tau_p at parameter w."""
        tp = tension_p(curve, w, p, step=h1)
        n2 = sf.pair(tp, tp)
        if q == 2:
            return tp
        if n2 < TAU_P_FLOOR ** 2 and q < 2:
            raise SingularFactorError(
                f"|tau_p| = {math.sqrt(max(n2,0)):.3e} at a q = {q} < 2 evaluation")
        return n2 ** ((q - 2) / 2.0) * tp

    def dW(w):
        return sf.covariant_derivative(curve.map, W, w, step=h2)

    tp0 = tension_p(curve, t, p, step=h1)
    v0 = vel(t)
    s2 = speed2(t)

    term1 = -(s2 ** ((p - 2) / 2.0)) * (sf.pair(tp0, tp0) ** ((q - 2) / 2.0)) \
        * sf.curvature_tensor(np.asarray(curve.map(t), dtype=float), tp0, v0, v0)

    def U2(w):
        return speed2(w) ** ((p - 2) / 2.0) * dW(w)

    term2 = -sf.covariant_derivative(curve.map, U2, t, step=h2)

    if p == 2:
        term3 = 0.0
    else:
        def U3(w):
            return speed2(w) ** ((p - 4) / 2.0) * sf.pair(dW(w), vel(w)) * vel(w)
        term3 = -(p - 2) * sf.covariant_derivative(curve.map, U3, t, step=h2)

    out = term1 + term2 + term3
    if not np.all(np.isfinite(out)):
        raise SingularFactorError("NaN in (p,q)-tension evaluation")
    return out


# -- variation fields -------------------------------------------------------

@dataclass(frozen=True)
class VariationField:
    """A tangent field along a curve, compactly supported inside its domain."""

    fn: Callable[[float], np.ndarray]
    support: tuple

    def __call__(self, t):
        lo, hi = self.support
        if t <= lo or t >= hi:
            return None  # identically zero outside the support
        return np.asarray(self.fn(t), dtype=float)

    def values(self, ts, dim):
        out = np.zeros((len(ts), dim))
        for i, t in enumerate(ts):
            v = self(t)
            if v is not None:
                out[i] = v
        return out


def bump_normal_field(curve, direction_fn, support=None, amplitude=1.0):
    """A smooth bump times a tangent direction field along the curve."""
    lo, hi = support if support is not None else _default_support(curve)

    def fn(t):
        return amplitude * numeric.smooth_bump(t, lo, hi) \
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
        x = omega * (t - lo)
        return sum(coeffs[j, 0] * math.cos((j + 1) * x)
                   + coeffs[j, 1] * math.sin((j + 1) * x)
                   for j in range(n_modes))

    field = bump_normal_field(curve, direction, support=(lo, hi), amplitude=1.0)
    # normalize to the requested sup amplitude
    probe = np.linspace(lo, hi, 129)
    sup = max(math.sqrt(max(curve.sf.pair(w, w), 0.0))
              for w in (field(t) for t in probe) if w is not None)
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

    def mapped(s):
        base = np.asarray(curve.map(s), dtype=float)
        w = v(s)
        if w is None or t == 0.0:
            return base
        return sf.retract(base + t * w)

    return CurveChart(sf=sf, domain=curve.domain, map=mapped,
                      unit_speed=False, name=curve.name + f"(varied t={t:g})")


def first_variation_check(dcurve: DiscretizedCurve, v: VariationField,
                          params: PQParams,
                          steps: Sequence[float] = (1e-2, 5e-3, 2.5e-3)):
    """Numerically validate dE/dt|_0 = -int <v, tau_pq(gamma)>.

    The left side is a central finite difference of the energy of the
    retracted variation (per step, with a Richardson estimate from the two
    smallest steps); the right side is Simpson quadrature of the pairing
    against tau_pq of the base curve.
    """
    curve = dcurve.curve
    base_measure = _measure_factors(dcurve, None)

    def energy_at(t):
        return energy_pq(DiscretizedCurve(curve=varied_curve(curve, v, t), K=dcurve.K),
                         params, measure=base_measure)

    # steps scale inversely with the field size so the perturbation of
    # tau_p stays small compared to its base value
    sup_v = max((math.sqrt(max(curve.sf.pair(w, w), 0.0))
                 for w in (v(t) for t in dcurve.ts) if w is not None),
                default=0.0)
    scale = 1.0 / max(1.0, sup_v)
    steps = tuple(h * scale for h in steps)

    fd = []
    for h in steps:
        fd.append((energy_at(h) - energy_at(-h)) / (2.0 * h))
    fd = np.array(fd)
    lhs = float(numeric.richardson(fd[-2], fd[-1], order=2))
    order = numeric.observed_order(fd) if len(fd) >= 3 else float("nan")

    rhs = 0.0
    vmax = 0.0
    for w, t, mu in zip(dcurve.weights, dcurve.ts, base_measure):
        vv = v(t)
        if vv is None:
            continue
        vmax = max(vmax, math.sqrt(max(curve.sf.pair(vv, vv), 0.0)))
        tpq = tension_pq_curve(curve, t, params)
        rhs -= w * mu * curve.sf.pair(vv, tpq)

    rel = abs(lhs - rhs) / max(abs(rhs), 1e-14)
    return VariationCheckReport(lhs=lhs, rhs=float(rhs), rel_error=float(rel),
                                observed_order=float(order),
                                fd_values=tuple(float(x) for x in fd),
                                steps=tuple(float(h) for h in steps),
                                v_norm=float(vmax))
