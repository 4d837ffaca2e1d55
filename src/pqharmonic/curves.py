"""Frenet apparatus and the (p,q)-harmonic curve system in 3-D space forms.

Curves live in N^3(c) through the embedded models of
:mod:`pqharmonic.spaceform`.  :func:`frenet` samples the curve once on the
stencil lattice t + k h, k = -8..8, of :mod:`pqharmonic.numeric` and nests
the deriv1 stencil along it: T on the offsets -6..6, then nabla_T T, k and
N on -4..4, then nabla_T N and tau on -2..2, and finally k', k'' and tau'
at the centre.  The binormal is the oriented completion of (T, N), a
polynomial in the coordinates: T x N in R^3 and a signed generalized cross
product in the embedded models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import numeric
from .errors import (DomainError, FrameUndefinedError, NonConvergenceError,
                     SingularFactorError, SingularSpeedError)
from .numeric import _lattice, _sample, _stencil, _stencil2, _weigh
from .spaceform import SpaceForm

K_THRESHOLD = 1e-8
FRENET_OFFSETS = np.arange(-8, 9)   # T, nabla_T T, nabla_T N and tau': four nested deriv1


@dataclass(frozen=True)
class CurveChart:
    """A C^4 curve t -> N^3(c) in ambient embedding coordinates.

    ``map`` acts over the last axis: parameters of shape (...,) go to
    coordinates (..., dim), so a float gives one point (dim,).  The engine
    calls it once per batch, on a flat (n,) array.
    """

    sf: SpaceForm
    domain: tuple
    map: Callable[[np.ndarray], np.ndarray]
    unit_speed: bool = False
    name: str = "curve"

    def __post_init__(self):
        if self.sf.n != 3:
            raise ValueError("curve module requires a 3-dimensional space form")

    @property
    def width(self):
        return self.domain[1] - self.domain[0]

    def frame_step(self):
        return 1e-3 * self.width


@dataclass(frozen=True)
class FrenetApparatus:
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    k: float
    tau: float
    k_prime: float
    k_second: float
    tau_prime: float


# -- the Frenet frame -------------------------------------------------------

def _binormal(sf, P, T, N):
    """Oriented completion of (T, N) in the tangent 3-space at P, over the last axis.

    In R^3 it is T x N, so det[T, N, B] > 0.  In the embedded models the
    cofactors cof_j = det[T, N, e_j, P] are Euclidean-orthogonal to T, N and
    P, so s * cof (s the pairing signs) is orthogonal to them in the model
    pairing, and det[T, N, s * cof, P] = <s * cof, s * cof> > 0.  B is the
    unit vector -s * cof, with det[T, N, B, P] < 0; this makes the torsion
    of the standard sphere helices positive.
    """
    if sf.c == 0:
        return np.cross(T, N)
    cols = np.stack([T, N, P], axis=-1)
    cof = np.stack([(-1) ** j * np.linalg.det(np.delete(cols, j, axis=-2))
                    for j in range(sf.ambient_dim)], axis=-1)
    w = -sf.pairing_signs() * cof
    return w / np.sqrt(sf.pair(w, w))[..., None]


def frenet(curve: CurveChart, t) -> FrenetApparatus:
    """Frenet frame, curvature, torsion and their arc-length derivatives.

    The curve must be (claimed) unit speed.  Its map is called once at each
    of the 17 points t + k h, k = -8..8, with h = ``curve.frame_step()``;
    the frame is undefined where the geodesic curvature on the offsets
    -4..4 drops below 1e-8.
    """
    sf, h = curve.sf, curve.frame_step()
    X = _sample(curve.map, _lattice([t], h, FRENET_OFFSETS))
    T = _stencil(X, h)                                          # offsets -6..6
    acc = sf.tangent_project(X[:, 4:-4], _stencil(T, h))        # -4..4
    k = np.sqrt(np.maximum(sf.pair(acc, acc), 0.0))
    if np.min(k) < K_THRESHOLD:
        raise FrameUndefinedError(
            f"geodesic curvature {np.min(k):.3e} below {K_THRESHOLD:g}: frame undefined")
    N = acc / k[..., None]
    dN = sf.tangent_project(X[:, 6:-6], _stencil(N, h))        # -2..2
    B = _binormal(sf, X[:, 6:-6], T[:, 4:-4], N[:, 2:-2])
    tau = sf.pair(dN, B)
    return FrenetApparatus(T=T[0, 6], N=N[0, 4], B=B[0, 2], k=float(k[0, 4]),
                           tau=float(tau[0, 2]),
                           k_prime=float(_stencil(k[:, 2:-2], h)[0, 0]),
                           k_second=float(_stencil2(k[:, 2:-2], h)[0, 0]),
                           tau_prime=float(_stencil(tau, h)[0, 0]))


# -- arc length -------------------------------------------------------------

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)
NEWTON_STEPS = 20


def _speeds(curve, ts):
    """|gamma'| at the parameters ``ts`` by the deriv1 stencil of step frame_step."""
    h = curve.frame_step()
    X = _sample(curve.map, _lattice(ts, h, numeric.D1_OFFSETS))
    V = _weigh(np.moveaxis(X, 1, -1), numeric.D1_WEIGHTS) / h
    return np.sqrt(np.maximum(curve.sf.pair(V, V), 0.0))


def _gauss(curve, a, b):
    """Gauss-Legendre lengths of the curve over the intervals [a, b], elementwise."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * GAUSS_NODES
    return half * _weigh(_speeds(curve, nodes.ravel()).reshape(nodes.shape), GAUSS_WEIGHTS)


def reparametrize_arclength(curve: CurveChart, samples=2048) -> CurveChart:
    """Unit-speed reparametrization by inverting the exact length function.

    The speed is scanned on ``samples + 1`` nodes: a vanishing speed raises
    :class:`~pqharmonic.errors.SingularSpeedError`, and verified-unit-speed
    input is returned unchanged.  Otherwise the length is accumulated by
    Gauss-Legendre quadrature over ``samples // 8`` coarse intervals.  Each
    arc length s is inverted from a linear guess (``np.interp``) by Newton
    steps on the length from the nearest coarse node, also by Gauss-Legendre.
    That length is a smooth function of t; a piecewise interpolant of it
    would carry jumps in its higher derivatives into k'' at the frame step.
    The Newton steps run on a whole batch of s at once, and each s stops
    at its own tolerance.
    """
    t0, t1 = curve.domain
    speeds = _speeds(curve, np.linspace(t0, t1, samples + 1))
    if np.min(speeds) <= 1e-10:
        raise SingularSpeedError("curve speed vanishes; cannot reparametrize")
    if np.max(np.abs(speeds - 1.0)) < 1e-10:
        return replace(curve, unit_speed=True)

    coarse = np.linspace(t0, t1, max(samples // 8, 1) + 1)
    lengths = np.concatenate([[0.0], np.cumsum(_gauss(curve, coarse[:-1], coarse[1:]))])
    # a Newton step below tol leaves an error of order tol^2 / width
    tol = 1e-9 * (t1 - t0)

    def new_map(s):
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        t = np.interp(flat, lengths, coarse)
        i = np.argmin(np.abs(coarse - t[:, None]), axis=1)
        target = flat - lengths[i]
        active = np.arange(len(t))
        for _ in range(NEWTON_STEPS):
            ta, ia = t[active], i[active]
            step = (_gauss(curve, coarse[ia], ta) - target[active]) / _speeds(curve, ta)
            t[active] = ta - step
            active = active[~(np.abs(step) <= tol)]
            if not len(active):
                return curve.map(t.reshape(s.shape))
        raise NonConvergenceError(
            f"arc length {flat[active[0]]:.6g} not inverted in {NEWTON_STEPS} steps")

    return CurveChart(sf=curve.sf, domain=(0.0, float(lengths[-1])), map=new_map,
                      unit_speed=True, name=curve.name + "(arclength)")


# -- the curve system -------------------------------------------------------

def curve_system_residual(fr: FrenetApparatus, params, c):
    """The three scalar equations of the (p,q)-harmonic curve system.

    r1 multiplies T, r2 multiplies N, r3 multiplies B in the (sign-stripped)
    tension field of a unit-speed curve with frame ``fr``.
    """
    p, q = float(params.p), float(params.q)
    k, tau = fr.k, fr.tau
    if k < K_THRESHOLD:
        raise SingularFactorError(
            f"k = {k:.3e} too small for the k^(q-3) factor")
    with np.errstate(over="raise", divide="raise"):
        r1 = (p * q - 1.0) * k ** (q - 1) * fr.k_prime
        r2 = (c * k ** (q - 1)
              + (q - 1) * (q - 2) * k ** (q - 3) * fr.k_prime ** 2
              + (q - 1) * k ** (q - 2) * fr.k_second
              - k ** (q + 1)
              - k ** (q - 1) * tau ** 2
              - (p - 2) * k ** (q + 1))
        r3 = (2 * (q - 1) * k ** (q - 2) * fr.k_prime * tau
              + k ** (q - 1) * fr.tau_prime)
    if not all(np.isfinite([r1, r2, r3])):
        raise SingularFactorError("overflow in curve residual powers of k")
    return float(r1), float(r2), float(r3)


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


def helix(alpha, a, b, periods=1.0) -> HelixResult:
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

    def gamma(t):
        at, bt = a * np.asarray(t, dtype=float), b * np.asarray(t, dtype=float)
        return np.stack([ca * np.cos(at), ca * np.sin(at),
                         sa * np.cos(bt), sa * np.sin(bt)], axis=-1)

    curve = CurveChart(sf=SpaceForm(3, 1.0), domain=(0.0, periods * 2 * math.pi),
                       map=gamma, unit_speed=True,
                       name=f"helix(alpha={alpha:.6g}, a={a:.6g}, b={b:.6g})")
    return HelixResult(curve=curve, alpha=alpha, a=a, b=b, k=k, tau=tau,
                       p=p, admissible=admissible, rescaled=rescaled)
