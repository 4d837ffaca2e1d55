"""The (p,q)-harmonic hypersurface system: evaluation, classification, solving.

The engine evaluates the factor-stripped form of the system (the overall
positive factor m^(pq/2 - 1) and surplus powers of f are dropped), whose
zero set agrees with the raw normal/tangential tension components wherever
f does not vanish:

    eq1 = -(q-1) f Lap f - (q-1)(q-2) |grad f|^2 + f^2 |A|^2
          - f^2 Ric(eta, eta) + m (p-2) f^4
    eq2 = 2(q-1) A(grad f) - 2 f (Ricci eta)^T + f [m + (p-2) q] grad f

At (p, q) = (2, 2) the coefficients reduce exactly to the classical
biharmonic-hypersurface system.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
import scipy.optimize

from .errors import NoRootInBracketError, NonConvergenceError
from .immersion import GeometricSample, geometric_sample, sample_grid, stack_samples


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
    eq1 = (c1 * f * sample.laplacian_f
           + c2 * sample.grad_f_norm2
           + c3 * f * f * sample.normA2
           + c4 * f * f * ric_eta_eta
           + c5 * f ** 4)
    f = f[..., None]
    eq2 = (d1 * np.asarray(sample.A_grad_f)
           + d2 * f * ricci_eta_top
           + d3 * f * sample.grad_f)
    return eq1, eq2


def residual(sample: GeometricSample, params: PQParams):
    """(eq1, eq2) of the general-ambient system with the sample's Ricci data."""
    return _system(sample, params.p, params.q, sample.ric_eta_eta, sample.ricci_eta_top)


def residual_spaceform(sample: GeometricSample, params: PQParams, c: float):
    """Residuals with the space-form Ricci data Ric = m c, (Ricci eta)^T = 0."""
    return _system(sample, params.p, params.q, sample.m * c, 0.0)


def residual_einstein(sample: GeometricSample, params: PQParams, S: float, m: int):
    """Residuals in an Einstein ambient of scalar curvature S."""
    return _system(sample, params.p, params.q, S / (m + 1), 0.0)


def umbilic_f(params: PQParams, m: int, S: float):
    """Constant mean curvature of a proper totally umbilical solution.

    Returns sqrt(S / (m (m+1) (p-1))) for S > 0; ``None`` when only minimal
    solutions exist (S <= 0).
    """
    if S <= 0:
        return None
    return float(np.sqrt(S / (m * (m + 1) * (params.p - 1))))


# -- classification ---------------------------------------------------------

def collect_samples(chart, grid_points, use_analytic=True, h_step=None):
    """Samples at the grid points, stacked along axis 0.

    Closed-form geometry is sampled point by point; the stencil path takes
    the whole grid in one call, on one lattice.
    """
    if use_analytic and chart.analytic_geometry is not None:
        return stack_samples(geometric_sample(chart, u) for u in grid_points)
    return geometric_sample(chart, np.asarray(grid_points, dtype=float),
                            h_step=h_step, use_analytic=False)


def classify_samples(samples, params: PQParams, c=None, S=None, tol=1e-6,
                     points=None):
    """Build a :class:`ResidualReport` from precomputed samples.

    ``samples`` is a list of samples or one sample with stacked fields.
    """
    batch = samples if isinstance(samples, GeometricSample) else stack_samples(samples)
    if S is not None:
        ricci = (S / (batch.m + 1), 0.0)
    elif c is not None:
        ricci = (batch.m * c, 0.0)
    else:
        ricci = (batch.ric_eta_eta, batch.ricci_eta_top)
    eq1s, eq2 = _system(batch, params.p, params.q, *ricci)
    eq2n = batch.g_norm(eq2)
    fs = batch.f
    max1 = float(np.max(np.abs(eq1s)))
    max2 = float(np.max(eq2n))
    if np.max(np.abs(fs)) < tol:
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
        tol = 1e-6 if (use_analytic and chart.analytic_geometry is not None) else 1e-3
    pts = sample_grid(chart, n_per_axis)
    samples = collect_samples(chart, pts, use_analytic=use_analytic, h_step=h_step)
    c = chart.sf.c if S is None else None
    return classify_samples(samples, params, c=c, S=S, tol=tol, points=pts)


# -- parameter solving ------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    p: Optional[float]
    max_residual: float
    success: bool
    reason: str = ""


def _residual_arrays(batch, p, q, c):
    """Solver objective: eq1 and |eq2|_g over a stacked space-form batch."""
    eq1, eq2 = _system(batch, p, q, batch.m * c, 0.0)
    return eq1, batch.g_norm(eq2)


def solve_p(chart, q, bracket, n_per_axis=8, tol=1e-8, use_analytic=True):
    """Find the exponent p that makes the chart (p,q)-harmonic.

    Bisection on the grid-mean of the scalar equation when the tangential
    equation vanishes identically over the bracket, golden-section descent
    on the max residual otherwise.  Raises
    :class:`~pqharmonic.errors.NoRootInBracketError` when neither route
    lands below tolerance.
    """
    p_lo, p_hi = bracket
    pts = sample_grid(chart, n_per_axis)
    batch = collect_samples(chart, pts, use_analytic=use_analytic)
    c = chart.sf.c
    if np.max(np.abs(batch.f)) < tol:
        return SolveResult(p=None, max_residual=0.0, success=False,
                           reason="chart is minimal; no proper solution in p")
    PQParams(p=min(p_lo, p_hi), q=q)  # the bracket must stay in p > 1

    def max_res(p):
        eq1, eq2 = _residual_arrays(batch, p, q, c)
        return max(np.max(np.abs(eq1)), np.max(eq2))

    def mean_eq1(p):
        return float(np.mean(_residual_arrays(batch, p, q, c)[0]))

    eq2_probe = max(np.max(_residual_arrays(batch, pp, q, c)[1])
                    for pp in np.linspace(p_lo, p_hi, 5))
    if eq2_probe < tol:
        a, b = mean_eq1(p_lo), mean_eq1(p_hi)
        if a * b <= 0:
            root = scipy.optimize.brentq(mean_eq1, p_lo, p_hi, xtol=1e-14)
            res = max_res(root)
            if res < tol:
                return SolveResult(p=float(root), max_residual=res, success=True)
    opt = scipy.optimize.minimize_scalar(max_res, bounds=(p_lo, p_hi),
                                         method="bounded",
                                         options={"xatol": 1e-12})
    if opt.fun < tol:
        return SolveResult(p=float(opt.x), max_residual=float(opt.fun), success=True)
    raise NoRootInBracketError(
        f"no p in [{p_lo}, {p_hi}] brings the residual below {tol:g} "
        f"(best {opt.fun:.3e} at p={opt.x:.6g})")


@dataclass(frozen=True)
class PairSolveResult:
    p: float
    theta: float
    iterations: int
    converged: bool
    admissible: bool
    max_residual: float
    reason: str = ""


def solve_param_pair(family: Callable, q, theta_bracket, p_bracket,
                     n_per_axis=8, tol=1e-8, max_iter=100, use_analytic=True):
    """2-D Newton solve for (p, theta) over a one-parameter chart family.

    The two residual functions are the grid mean of the scalar equation and
    the grid mean of the signed tangential component (the part of eq2 along
    grad f).  When the tangential equation is identically zero over the
    family the solve degenerates to the 1-D problem at the bracket-midpoint
    theta.  Solutions with p <= 1 are returned with ``admissible=False``.
    """
    th0 = 0.5 * (theta_bracket[0] + theta_bracket[1])
    p0 = 0.5 * (p_bracket[0] + p_bracket[1])

    def system(x):
        p, theta = x
        chart = family(theta)
        batch = collect_samples(chart, sample_grid(chart, n_per_axis),
                                use_analytic=use_analytic)
        eq1, eq2 = _system(batch, p, q, batch.m * chart.sf.c, 0.0)
        gfn = batch.g_norm(batch.grad_f)
        along = np.divide(batch.g_dot(eq2, batch.grad_f), gfn,
                          out=np.zeros_like(gfn), where=gfn > 1e-14)
        return np.array([np.mean(eq1), np.mean(along)])

    x = np.array([p0, th0], dtype=float)
    # detect a degenerate tangential equation (e.g. constant-f families)
    probe = [abs(system(np.array([pp, tt]))[1])
             for pp in (p_bracket[0] + 0.1, p_bracket[1] - 0.1)
             for tt in (theta_bracket[0] + 1e-3, th0)]
    degenerate = max(probe) < 1e-13

    iterations = 0
    if degenerate:
        def g1_of_p(p):
            return system(np.array([p, th0]))[0]
        p_root = scipy.optimize.brentq(g1_of_p, p_bracket[0], p_bracket[1],
                                       xtol=1e-14)
        x = np.array([p_root, th0])
    else:
        for iterations in range(1, max_iter + 1):
            F = system(x)
            if np.max(np.abs(F)) < 1e-13 and iterations > 1:
                break
            J = np.zeros((2, 2))
            for j in range(2):
                dh = 1e-6 * (1.0 + abs(x[j]))
                xp = x.copy(); xp[j] += dh
                xm = x.copy(); xm[j] -= dh
                J[:, j] = (system(xp) - system(xm)) / (2 * dh)
            try:
                step = np.linalg.solve(J, F)
            except np.linalg.LinAlgError as exc:
                raise NonConvergenceError(f"singular Jacobian at {x}") from exc
            x = x - step
            if np.max(np.abs(step)) < 1e-13:
                break
        else:
            raise NonConvergenceError(
                f"Newton did not converge in {max_iter} iterations (at {x})")

    p_sol, th_sol = float(x[0]), float(x[1])
    if p_sol <= 1.0:
        return PairSolveResult(p=p_sol, theta=th_sol, iterations=iterations,
                               converged=True, admissible=False,
                               max_residual=float("nan"),
                               reason="solution has p <= 1: outside the admissible range")
    report = classify(family(th_sol), PQParams(p=p_sol, q=q), n_per_axis=n_per_axis,
                      tol=tol, use_analytic=use_analytic)
    res = max(report.max_abs_eq1, report.max_eq2_norm)
    if res >= tol:
        raise NonConvergenceError(
            f"post-verification failed: residual {res:.3e} >= {tol:g}")
    return PairSolveResult(p=p_sol, theta=th_sol, iterations=iterations,
                           converged=True, admissible=True, max_residual=res)
