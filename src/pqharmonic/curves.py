"""Frenet apparatus and the (p,q)-harmonic curve system in 3-D space forms.

Curves live in N^3(c) through the embedded models of :mod:`pqharmonic.spaceform`,
at any regular speed.  :func:`frenet` calls the map once per batch of
nodes t, on their Taylor series t + s of degree 4 (:class:`jets.Taylor`):
a map written in numpy ufuncs and ``np.stack``, as the catalog's curves
and chart files are, returns the series of the curve's points.  Then d/dt
is the coefficient shift, d/ds = |gamma'|^-1 d/dt, and the fields are
exact up to rounding: T to degree 3, nabla_T T, k and N to degree 2,
nabla_T N to degree 1, and k', k'', tau and tau' from the lowest
coefficients.  The binormal is needed at degree 0 only, since
tau' |gamma'| = <d(nabla_T N)/dt, B> (<nabla_T N, dB/dt> vanishes).
``np.asarray`` of a series is its (5, n) coefficients, so a counter of
map rows reads 5 rows per node.  A map that does not carry a series is
refused (:func:`jets.carried`): no derivative of a curve is taken by
finite differences.

The binormal is T x N in R^3 and, in the embedded models, minus the oriented
normal of (T, N) (:meth:`SpaceForm.complement`), which makes the torsion of
the standard sphere helices positive.  The curve system is elementwise, and
:func:`classify_curve` gives the curve verdict from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numeric
from .errors import (DomainError, FrameUndefinedError, SingularFactorError,
                     SingularSpeedError)
from .immersion import _row
from .jets import Taylor, carried
from .residual import Classification
from .spaceform import SpaceForm

K_THRESHOLD = 1e-8
SPEED_FLOOR = 1e-10                 # |gamma'| at or below this is singular
# nodes per map call of frenet, which bounds a call's memory: frenet of the
# S^3 helix at this many nodes peaks at 0.5 MiB (tracemalloc)
FRAME_POINTS = 256
_KS = np.array([1.0, 1.0, 2.0])[:, None]   # k, dk/dt and d2k/dt2 from k's coefficients
# most nodes classify_curve takes: verify-curve of the S^3 helix at this many
# peaks at 53 MiB (tracemalloc, report included)
MAX_SAMPLES = 2 ** 16


@dataclass(frozen=True)
class CurveChart:
    """A regular C^4 curve t -> N^3(c) in ambient embedding coordinates, at any speed.

    ``map`` acts over the last axis: parameters of shape (...,) go to
    coordinates (..., dim), so a float gives one point (dim,).  The engine
    calls it once per batch, on a flat (n,) array.
    """

    sf: SpaceForm
    domain: tuple
    map: Callable[[np.ndarray], np.ndarray]
    name: str = "curve"

    def __post_init__(self):
        if self.sf.n != 3:
            raise ValueError("curve module requires a 3-dimensional space form")
        numeric._check_domain([self.domain], self.name)

    @property
    def width(self):
        return self.domain[1] - self.domain[0]


@dataclass(frozen=True)
class FrenetApparatus:
    """The frame and its scalars at one node, or at n nodes stacked along axis 0."""

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    k: float
    tau: float
    k_prime: float
    k_second: float
    tau_prime: float


# -- the Frenet frame -------------------------------------------------------

def _series(curve, ts):
    """The curve as a Taylor series of degree 4 at each node of ``ts`` (n,),
    from one call of its map on the variable's series, refused unless it is
    finite and its values lie on the model (:meth:`SpaceForm.check_point`)."""
    X = carried(lambda: curve.map(Taylor.variable(ts)), Taylor, f"{curve.name}: the curve map")
    if not np.all(np.isfinite(X.c)):
        raise DomainError("non-finite map value or derivative at the nodes")
    curve.sf.check_point(X.c[0])
    return X


@np.errstate(all="ignore")      # a node with k below K_THRESHOLD gets NaN
def _frames(curve, ts):
    """Every apparatus field at the nodes ``ts`` (n,), stacked, from one call
    of the map on their series (:func:`_series`): d/dt is the coefficient
    shift and the series of 1/|gamma'| is taken once, each series truncated
    to the degree its derivatives leave; NaN at the nodes whose frame is
    undefined."""
    sf, X = curve.sf, _series(curve, ts)
    V = X.d()
    s2 = sf.pair(V, V)
    s = np.sqrt(s2.c[0])
    if np.any(s <= SPEED_FLOOR):
        raise SingularSpeedError(f"curve speed {np.min(s):.3e} at or below {SPEED_FLOOR:g} "
                                 f"near t = {ts[np.argmin(s)]:.6g}")
    inv_speed = (s2 ** -0.5)[..., None]
    T = V * inv_speed
    acc = sf.tangent_project(X, T.d()) * inv_speed
    k = np.sqrt(sf.pair(acc, acc))
    N = acc / k[..., None]
    dN = sf.tangent_project(X, N.d()) * inv_speed
    T, N, (k, k_t, k_tt), s_t = T.c[0], N.c[0], k.c * _KS, 0.5 * s2.c[1] / s
    # T x N in R^3, minus the oriented normal of (T, N) in the embedded models
    B = np.cross(T, N) if sf.c == 0 else -sf.complement(X.c[0], np.stack([T, N], -1))[0]
    # tau' s = <d(nabla_T N)/dt, B>, since <nabla_T N, dB/dt> = 0
    tau, tau_t = sf.pair(dN.c[0], B), sf.pair(dN.c[1], B)
    fields = (T, N, B, k, tau, k_t / s, (k_tt - s_t * k_t / s) / (s * s), tau_t / s)
    undefined = k < K_THRESHOLD
    if undefined.any():
        for a in fields:
            a[undefined] = np.nan
    return fields


def frenet(curve: CurveChart, t) -> FrenetApparatus:
    """Frenet frame, curvature, torsion and their arc-length derivatives.

    At any speed they are those of the curve by arc length; a speed at or
    below SPEED_FLOOR raises SingularSpeedError.  The map is called once per
    FRAME_POINTS nodes, on their Taylor series (:class:`jets.Taylor`), and
    the fields are exact up to rounding; a map that does not carry a series
    is a DomainError.  An array t (n,) gives fields stacked along axis 0, and
    an empty one empty fields.  The frame is undefined where the geodesic
    curvature drops below K_THRESHOLD: a float t there raises
    FrameUndefinedError, and a node of an array t gets NaN in every field.
    """
    flat = np.asarray(t, dtype=float).reshape(-1)
    if not len(flat):
        vector, scalar = np.empty((0, curve.sf.ambient_dim)), np.empty(0)
        return FrenetApparatus(vector, vector, vector, scalar, scalar, scalar, scalar, scalar)
    parts = [_frames(curve, flat[i:i + FRAME_POINTS]) for i in range(0, len(flat), FRAME_POINTS)]
    fr = FrenetApparatus(*(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))))
    if np.ndim(t) > 0:
        return fr
    if np.isnan(fr.k[0]):
        raise FrameUndefinedError(
            f"geodesic curvature below {K_THRESHOLD:g} at t = {float(t):.6g}: frame undefined")
    return _row(fr)


# -- the curve system -------------------------------------------------------

def curve_system_residual(fr: FrenetApparatus, params, c):
    """The three scalar equations of the (p,q)-harmonic curve system.

    The (p,q)-tension field of a unit-speed curve with frame ``fr`` in N^3(c)
    is tau_{p,q} = -(r1 T + r2 N + r3 B).  They are taken elementwise: one
    node gives three floats, stacked fields three arrays, and a node whose
    frame is undefined (NaN) gets NaN residuals.
    """
    p, q = float(params.p), float(params.q)
    k, tau = np.asarray(fr.k, dtype=float), fr.tau
    if np.any(k < K_THRESHOLD):
        raise SingularFactorError(
            f"k = {np.nanmin(k):.3e} too small for the k^(q-3) factor")
    # np.float_power is the C library's pow, inf on overflow; numpy's ** differs
    # in the last bit on some inputs, and r2 cancels to about 1e-9 of its terms.
    # The squares are products: correctly rounded, and far cheaper than pow
    with np.errstate(over="ignore", invalid="ignore"):
        km3, km2, km1, kp1 = (np.float_power(k, e) for e in (q - 3, q - 2, q - 1, q + 1))
        r1 = (1.0 - p * q) * km1 * fr.k_prime + 0.0     # + 0.0: r1 = +0 where k' = 0
        r2 = (c * km1
              + (q - 1) * (q - 2) * km3 * (fr.k_prime * fr.k_prime)
              + (q - 1) * km2 * fr.k_second
              - kp1
              - km1 * (tau * tau)
              - (p - 2) * kp1)
        r3 = (2 * (q - 1) * km2 * fr.k_prime * tau
              + km1 * fr.tau_prime)
    if not np.all(np.isfinite([r1, r2, r3]) | np.isnan(k)):
        raise SingularFactorError("overflow in curve residual powers of k")
    return r1, r2, r3


@dataclass(frozen=True)
class CurveReport:
    ts: np.ndarray
    frames: FrenetApparatus
    residuals: tuple            # (r1, r2, r3), NaN where the frame is undefined
    max_residual: float
    classification: Classification
    tol: float


def classify_curve(curve: CurveChart, params, samples=32, tol=1e-6) -> CurveReport:
    """The curve verdict at ``samples`` nodes over the domain less 5% at each
    end: Geodesic when no node has a frame, else ProperPQHarmonic when every
    residual (0 where the frame is undefined) is below ``tol``: the verdict
    of the curve by arc length, as its frames are (:func:`frenet`).  More
    than MAX_SAMPLES nodes is a ValueError."""
    if samples > MAX_SAMPLES:
        raise ValueError(f"{samples} samples exceed {MAX_SAMPLES}")
    lo, hi = curve.domain
    pad = 0.05 * (hi - lo)
    ts = np.linspace(lo + pad, hi - pad, samples)
    fr = frenet(curve, ts)
    residuals = curve_system_residual(fr, params, curve.sf.c)
    max_residual = float(np.max(np.abs(np.nan_to_num(residuals))))
    if np.isnan(fr.k).all():
        classification = Classification.GEODESIC
    elif max_residual < tol:
        classification = Classification.PROPER_PQ_HARMONIC
    else:
        classification = Classification.NOT_PQ_HARMONIC
    return CurveReport(ts=ts, frames=fr, residuals=residuals, max_residual=max_residual,
                       classification=classification, tol=tol)


def p_closed_form(k, tau, c):
    """The unique exponent p = (c - tau^2)/k^2 + 1 for constant (k, tau).

    Returns ``(p, admissible)`` where admissibility means p > 1,
    equivalently c - tau^2 > 0.
    """
    if k <= 0:
        raise ValueError("geodesic curvature must be positive")
    p = (c - tau * tau) / (k * k) + 1.0
    return float(p), bool(p > 1.0)


# -- the helix catalog ------------------------------------------------------

@dataclass(frozen=True)
class HelixResult:
    curve: CurveChart
    alpha: float
    a: float
    b: float
    k: float
    tau: float
    p: float
    admissible: bool
    rescaled: bool


def helix(alpha, a, b) -> HelixResult:
    """The standard helix in S^3 with frequencies (a, b) at latitude alpha.

    (a, b) are rescaled onto the unit-speed constraint
    a^2 cos^2(alpha) + b^2 sin^2(alpha) = 1 when violated by more than
    1e-10, and the rescue is reported through ``rescaled``.
    """
    if not (0.0 < alpha < math.pi / 2):
        raise DomainError("alpha must lie in (0, pi/2)")
    if not (a > b > 0):
        raise DomainError("need a > b > 0")
    ca, sa = math.cos(alpha), math.sin(alpha)
    constraint = a * a * ca * ca + b * b * sa * sa
    rescaled = False
    if abs(constraint - 1.0) > 1e-10:
        lam = 1.0 / math.sqrt(constraint)
        a, b = lam * a, lam * b
        rescaled = True
    if a <= 1.0:
        raise DomainError(f"a = {a:.6g} <= 1: geodesic family, k undefined")
    if b >= 1.0:
        raise DomainError(f"b = {b:.6g} >= 1: k vanishes")

    k = math.sqrt((a * a - 1.0) * (1.0 - b * b))
    tau = a * b
    p = (a * a + b * b - 2.0 * a * a * b * b) / ((a * a - 1.0) * (1.0 - b * b))
    admissible = (tau * tau < 1.0) and (p > 1.0)

    radii = np.array([ca, ca, sa, sa])

    def gamma(t):
        at, bt = a * t, b * t
        return np.stack([np.cos(at), np.sin(at), np.cos(bt), np.sin(bt)], axis=-1) * radii

    curve = CurveChart(sf=SpaceForm(3, 1.0), domain=(0.0, 2 * math.pi), map=gamma,
                       name=f"helix(alpha={alpha:.6g}, a={a:.6g}, b={b:.6g})")
    return HelixResult(curve=curve, alpha=alpha, a=a, b=b, k=k, tau=tau,
                       p=p, admissible=admissible, rescaled=rescaled)
