"""The (p,q)-harmonic hypersurface system: evaluation, classification, solving.

The engine evaluates the factor-stripped form of the system (the overall
positive factor m^(pq/2 - 1) and surplus powers of f are dropped), whose
zero set agrees with the raw normal/tangential tension components wherever
f does not vanish:

    eq1 = -(q-1) f Lap f - (q-1)(q-2) |grad f|^2 + f^2 |A|^2
          - f^2 Ric(eta, eta) + m (p-2) f^4
    eq2 = 2(q-1) A(grad f) - 2 f (Ricci eta)^T + f [m + (p-2) q] grad f

At (p, q) = (2, 2) the coefficients reduce exactly to the classical
biharmonic-hypersurface system.  :func:`residual` is its one evaluation,
in a space form (c), an Einstein space (S) or the sample's own ambient.
Its integer powers are products, f^4 = f^2 f^2: numpy's power loop on a
negative base (the umbilic spheres have f < 0) costs far more per element,
and products round a point the same in a batch of any size.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NoRootInBracketError, NonConvergenceError
from .immersion import GeometricSample, geometric_sample, sample_grid


@dataclass(frozen=True)
class PQParams:
    """Exponent pair of the (p,q)-energy; both must be finite and exceed 1."""

    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 1 and self.q > 1
                and math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError(f"need finite p > 1 and q > 1, got p={self.p}, q={self.q}")

    @property
    def pq(self):
        return self.p * self.q


def _exactify(x):
    """Keep rational inputs rational so coefficient identities are exact."""
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    return x


@dataclass(frozen=True)
class CoefficientSet:
    """The eight coefficients of the two equations.

    c1..c5 multiply (f Lap f, |grad f|^2, f^2 |A|^2, f^2 Ric(eta,eta), f^4);
    d1..d3 multiply (A(grad f), f (Ricci eta)^T, f grad f).
    """

    c1: object
    c2: object
    c3: object
    c4: object
    c5: object
    d1: object
    d2: object
    d3: object

    def as_tuple(self):
        return (self.c1, self.c2, self.c3, self.c4, self.c5,
                self.d1, self.d2, self.d3)


def coefficients(params: PQParams, m: int) -> CoefficientSet:
    """Coefficient set of the residual system for hypersurface dimension m."""
    if m < 1:
        raise ValueError("hypersurface dimension must be >= 1")
    return _coefficients(_exactify(params.p), _exactify(params.q), m)


def _coefficients(p, q, m):
    """The coefficient formula, without the guards on p, q and m."""
    return CoefficientSet(
        c1=-(q - 1),
        c2=-(q - 1) * (q - 2),
        c3=1 if isinstance(q, Fraction) else 1.0,
        c4=-1 if isinstance(q, Fraction) else -1.0,
        c5=m * (p - 2),
        d1=2 * (q - 1),
        d2=-2 if isinstance(q, Fraction) else -2.0,
        d3=m + (p - 2) * q,
    )


class Classification(enum.Enum):
    MINIMAL = "Minimal"
    PROPER_PQ_HARMONIC = "ProperPQHarmonic"
    NOT_PQ_HARMONIC = "NotPQHarmonic"
    MIXED_SIGN_F = "MixedSignF"
    GEODESIC = "Geodesic"


@dataclass(frozen=True)
class ResidualReport:
    points: np.ndarray
    f_values: np.ndarray
    eq1: np.ndarray
    eq2_norm: np.ndarray
    max_abs_eq1: float
    max_eq2_norm: float
    classification: Classification
    tol: float


# -- evaluation -------------------------------------------------------------

def _system(sample: GeometricSample, p, q, ric_eta_eta, ricci_eta_top):
    """(eq1, eq2) at one sample, or at samples stacked along axis 0.

    The only evaluation of the system: the ambient enters through the Ricci
    data alone.  p and q are not guarded, so solver iterates may leave p > 1.
    """
    c1, c2, c3, c4, c5, d1, d2, d3 = (
        float(x) for x in _coefficients(_exactify(p), _exactify(q), sample.m).as_tuple())
    f = np.asarray(sample.f, dtype=float)
    f2 = f * f
    eq1 = (c1 * f * sample.laplacian_f
           + c2 * sample.grad_f_norm2
           + c3 * f2 * sample.normA2
           + c4 * f2 * ric_eta_eta
           + c5 * (f2 * f2))
    f = f[..., None]
    eq2 = (d1 * np.asarray(sample.A_grad_f)
           + d2 * f * ricci_eta_top
           + d3 * f * sample.grad_f)
    return eq1, eq2


def _ricci(sample, c=None, S=None):
    """(Ric(eta, eta), (Ricci eta)^T): of the Einstein space of scalar
    curvature S, else of the space form of curvature c, else the sample's."""
    if S is not None:
        return S / (sample.m + 1), 0.0
    if c is not None:
        return sample.m * c, 0.0
    return sample.ric_eta_eta, sample.ricci_eta_top


def residual(sample: GeometricSample, params: PQParams, c=None, S=None):
    """(eq1, eq2) at one sample, or at samples stacked along axis 0.

    Ric(eta, eta) is S/(m+1) in an Einstein space of scalar curvature S and
    m c in the space form of curvature c, with (Ricci eta)^T = 0 in both;
    without S and c the sample's own Ricci data enter."""
    return _system(sample, params.p, params.q, *_ricci(sample, c, S))


def umbilic_f(params: PQParams, m: int, S: float):
    """Constant mean curvature of a proper totally umbilical solution.

    Returns sqrt(S / (m (m+1) (p-1))) for S > 0; ``None`` when only minimal
    solutions exist (S <= 0).
    """
    if S <= 0:
        return None
    return float(np.sqrt(S / (m * (m + 1) * (params.p - 1))))


# -- classification ---------------------------------------------------------

def classify_samples(batch: GeometricSample, params: PQParams, c=None, S=None, tol=1e-6,
                     points=None):
    """Build a :class:`ResidualReport` from one sample with stacked fields,
    in the ambient that ``c`` and ``S`` select as in :func:`residual`.  A
    non-finite max |f|, max |eq1| or max |eq2|_g is a DomainError."""
    with np.errstate(all="ignore"):
        eq1s, eq2 = residual(batch, params, c, S)
        eq2n = batch.g_norm(eq2)
        fs = batch.f
        maxf = float(np.max(np.abs(fs)))
        max1 = float(np.max(np.abs(eq1s)))
        max2 = float(np.max(eq2n))
    if not (math.isfinite(maxf) and math.isfinite(max1) and math.isfinite(max2)):
        raise DomainError(f"non-finite residual: max |f| = {maxf:g}, max |eq1| = {max1:g}, "
                          f"max |eq2|_g = {max2:g}")
    if maxf < tol:
        cls = Classification.MINIMAL
    elif np.min(np.abs(fs)) < tol:
        cls = Classification.MIXED_SIGN_F
    elif max1 < tol and max2 < tol:
        cls = Classification.PROPER_PQ_HARMONIC
    else:
        cls = Classification.NOT_PQ_HARMONIC
    pts = np.zeros((len(fs), 0)) if points is None else np.asarray(points)
    return ResidualReport(points=pts, f_values=fs, eq1=eq1s, eq2_norm=eq2n,
                          max_abs_eq1=max1, max_eq2_norm=max2,
                          classification=cls, tol=tol)


def classify(chart, params: PQParams, n_per_axis=8, tol=None,
             use_analytic=True, S=None, h_step=None):
    """Sample a chart on a uniform interior grid and classify it."""
    if tol is None:
        tol = 1e-6 if chart.analytic_path(use_analytic) else 1e-3
    pts = sample_grid(chart, n_per_axis)
    with np.errstate(all="ignore"):     # classify_samples refuses what is not finite
        samples = geometric_sample(chart, pts, h_step=h_step, use_analytic=use_analytic)
    return classify_samples(samples, params, c=chart.sf.c, S=S, tol=tol, points=pts)


# -- parameter solving ------------------------------------------------------

# the eliminated p carries ~1e-15 of rounding: a p this close to 1 is p = 1
_P_ROUNDING = 1e-12
MAX_FAMILY_SAMPLES = 100    # family evaluations solve_param_pair's root search may make
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolveResult:
    p: Optional[float]
    max_residual: float
    success: bool
    reason: str = ""


def _affine_in_p(batch, q, c):
    """((a1, s1), (a2, s2)) with eq1 = a1 + s1 p, eq2 = a2 + s2 p exactly.

    p enters the system only through c5 = m(p-2) and d3 = m + (p-2)q, so the
    slopes are dc5/dp f^4 = m f^4 and dd3/dp f grad f = q f grad f.
    """
    a1, a2 = _system(batch, 0.0, q, *_ricci(batch, c))
    dc5, dd3 = float(batch.m), float(q)
    f = np.asarray(batch.f, dtype=float)
    f2 = f * f
    return (a1, dc5 * (f2 * f2)), (a2, dd3 * f[..., None] * batch.grad_f)


def solve_p(chart, q, bracket, n_per_axis=8, tol=1e-8, use_analytic=True):
    """Find the exponent p that makes the chart (p,q)-harmonic.

    The residuals are affine in p, so the least-squares p over every eq1 and
    eq2 component of the grid is closed form.  Raises
    :class:`~pqharmonic.errors.NoRootInBracketError` when that p lies outside
    the bracket or leaves a residual of at least ``tol``.
    """
    p_lo, p_hi = bracket
    batch = geometric_sample(chart, sample_grid(chart, n_per_axis), use_analytic=use_analytic)
    if np.max(np.abs(batch.f)) < tol:
        return SolveResult(p=None, max_residual=0.0, success=False,
                           reason="chart is minimal; no proper solution in p")
    PQParams(p=min(p_lo, p_hi), q=q)  # the bracket must stay in p > 1
    (a1, s1), (a2, s2) = _affine_in_p(batch, q, chart.sf.c)
    p = float(-(np.vdot(a1, s1) + np.vdot(a2, s2)) / (np.vdot(s1, s1) + np.vdot(s2, s2)))
    eq1, eq2 = _system(batch, p, q, *_ricci(batch, chart.sf.c))
    res = float(max(np.max(np.abs(eq1)), np.max(batch.g_norm(eq2))))
    if min(p_lo, p_hi) <= p <= max(p_lo, p_hi) and res < tol:
        return SolveResult(p=p, max_residual=res, success=True)
    raise NoRootInBracketError(
        f"no p in [{p_lo}, {p_hi}] brings the residual below {tol:g} "
        f"(least squares: {res:.3e} at p={p:.6g})")


@dataclass(frozen=True)
class PairSolveResult:
    """Outcome of :func:`solve_param_pair`; ``iterations`` counts every family
    evaluation (widening included; post-verification makes none)."""

    p: float
    theta: float
    iterations: int
    converged: bool
    admissible: bool
    max_residual: float
    reason: str = ""


def solve_param_pair(family: Callable, q, theta_bracket, p_bracket,
                     n_per_axis=8, tol=1e-8, use_analytic=True):
    """Solve for (p, theta) over a one-parameter chart family.

    The grid mean of the scalar equation is affine in p and fixes p(theta).
    The root in theta of the grid mean of the signed tangential component
    (the part of eq2 along grad f) at p(theta) is found by false position
    (Illinois).  The search starts on ``theta_bracket``, which grows outward
    by half its width only while both ends have the same sign: from the end
    whose p(theta) lies nearer ``p_bracket`` (the admissible root lies on
    that side), or on a tie from the end of smaller |mean|.  A step that
    would reach or cross theta = 0 halves that end instead, so a positive
    family parameter, such as the cone slope, stays positive.
    If the mean vanishes at both ends (constant f), the midpoint is taken.
    The search stops at the newest iterate when the mean vanishes there, when
    the next step does not move theta, or when that step is within rounding
    of it: |dtheta| <= 4 eps |theta|.  MAX_FAMILY_SAMPLES caps the family
    evaluations.  A p outside ``p_bracket``, or a minimal chart on the way,
    raises :class:`~pqharmonic.errors.NoRootInBracketError`; a p <= 1 is
    returned with ``admissible=False``.  Otherwise the residual at (p, theta)
    is verified on the grid of the last sampling, which is that of theta.
    """
    if not (math.isfinite(q) and q > 1):
        raise ValueError(f"need finite q > 1, got q={q}")
    evaluations = 0
    newest = None   # (chart, batch) of the last family evaluation

    def reduced(theta):
        """(p(theta), tangential mean at p(theta))."""
        nonlocal evaluations, newest
        if evaluations >= MAX_FAMILY_SAMPLES:
            raise NonConvergenceError(
                f"no root of the tangential mean in {MAX_FAMILY_SAMPLES} evaluations")
        evaluations += 1
        chart = family(theta)
        batch = geometric_sample(chart, sample_grid(chart, n_per_axis),
                                 use_analytic=use_analytic)
        newest = chart, batch
        (a1, s1), (a2, s2) = _affine_in_p(batch, q, chart.sf.c)
        if np.mean(s1) == 0:
            # the mean of eq1 does not depend on p: f vanishes on the grid
            raise NoRootInBracketError(
                f"the family is minimal at theta={theta:.6g}; no proper solution in p")
        p = -np.mean(a1) / np.mean(s1)
        gfn = batch.g_norm(batch.grad_f)
        along = np.divide(batch.g_dot(a2 + p * s2, batch.grad_f), gfn,
                          out=np.zeros_like(gfn), where=gfn > 1e-14)
        return float(p), float(np.mean(along))

    def outside(p):   # how far p lies outside p_bracket
        return max(min(p_bracket) - p, p - max(p_bracket), 0.0)

    def widened(near, far):
        x = near + 0.5 * (near - far)
        return x if near == 0 or x * near > 0 else 0.5 * near

    x0, x1 = sorted(theta_bracket)
    (p0, g0), (p1, g1) = reduced(x0), reduced(x1)
    while g0 * g1 > 0:
        d0, d1 = outside(p0), outside(p1)
        if d0 < d1 or (d0 == d1 and abs(g0) < abs(g1)):
            x0 = widened(x0, x1)
            p0, g0 = reduced(x0)
        else:
            x1 = widened(x1, x0)
            p1, g1 = reduced(x1)
    if g0 == 0 and g1 == 0:
        th_sol = 0.5 * (x0 + x1)
        p_sol = reduced(th_sol)[0]
    else:
        # Illinois: x1 is the newest point; an x0 kept once more has its value halved
        step = g1 * (x1 - x0) / (g1 - g0)
        while True:
            th_sol = x1 - step
            p_sol, g = reduced(th_sol)
            if g == 0 or th_sol in (x0, x1):
                break
            if g * g1 < 0:
                x0, g0 = x1, g1
            else:
                g0 *= 0.5
            x1, g1 = th_sol, g
            step = g1 * (x1 - x0) / (g1 - g0)
            if abs(step) <= 4 * _EPS * abs(x1):
                break

    if not min(p_bracket) <= p_sol <= max(p_bracket):
        raise NoRootInBracketError(
            f"the solution p={p_sol:.6g} (theta={th_sol:.6g}) lies outside "
            f"[{p_bracket[0]}, {p_bracket[1]}]")
    if p_sol <= 1.0 + _P_ROUNDING:
        return PairSolveResult(p=p_sol, theta=th_sol, iterations=evaluations,
                               converged=True, admissible=False,
                               max_residual=float("nan"),
                               reason="solution has p <= 1: outside the admissible range")
    chart, batch = newest
    report = classify_samples(batch, PQParams(p=p_sol, q=q), c=chart.sf.c, tol=tol)
    res = max(report.max_abs_eq1, report.max_eq2_norm)
    if res >= tol:
        raise NonConvergenceError(
            f"post-verification failed: residual {res:.3e} >= {tol:g}")
    return PairSolveResult(p=p_sol, theta=th_sol, iterations=evaluations,
                           converged=True, admissible=True, max_residual=res)
