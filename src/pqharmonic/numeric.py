"""Finite-difference stencils, Richardson extrapolation and quadrature helpers.

All derivative routines use 4th-order central stencils so that two nested
differentiation levels still leave enough accuracy for 1e-4 level checks.
Functions may be scalar- or vector-valued; stencil arithmetic is done with
numpy broadcasting.

A composition of central stencils is one weight vector on the integer
lattice t + k h (Fornberg, Math. Comp. 51 (1988) 699-706).  So a curve is
sampled once per lattice point, in one call of its map on all N x L
points, as an (N, L, dim) array for N nodes and L offsets k
(:func:`_lattice`, :func:`_sample`), and the stencils :func:`_stencil` and
:func:`_stencil2` act along the lattice axis.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# deriv1 and deriv2 as weight vectors, for kernels that apply them to
# sampled arrays: sum_k W[k] F(x + OFFSETS[k] h) / h (or / h^2)
D1_OFFSETS = np.array([-2, -1, 1, 2])
D1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
D2_OFFSETS = np.array([-2, -1, 0, 1, 2])
D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
# the lattice of two nested deriv1 stencils, e.g. one acceleration
NESTED_OFFSETS = np.arange(-4, 5)


def deriv1(fn, x, h):
    """4th-order central first derivative of ``fn`` at scalar ``x``."""
    fp1 = np.asarray(fn(x + h), dtype=float)
    fm1 = np.asarray(fn(x - h), dtype=float)
    fp2 = np.asarray(fn(x + 2 * h), dtype=float)
    fm2 = np.asarray(fn(x - 2 * h), dtype=float)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def deriv1_richardson(fn, x, h):
    """One Richardson level on top of the 4th-order first derivative."""
    d_h = deriv1(fn, x, h)
    d_h2 = deriv1(fn, x, h / 2.0)
    return (16.0 * d_h2 - d_h) / 15.0


def deriv2(fn, x, h):
    """4th-order central second derivative of ``fn`` at scalar ``x``."""
    f0 = np.asarray(fn(x), dtype=float)
    fp1 = np.asarray(fn(x + h), dtype=float)
    fm1 = np.asarray(fn(x - h), dtype=float)
    fp2 = np.asarray(fn(x + 2 * h), dtype=float)
    fm2 = np.asarray(fn(x - 2 * h), dtype=float)
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)


def _lattice(ts, h, offsets=NESTED_OFFSETS):
    """The points t + k h, one row per node t."""
    return np.asarray(ts, dtype=float)[:, None] + offsets[None, :] * h


def _sample(fn, pts):
    """The curve map ``fn`` on the flat lattice, in one call: an (N, L, dim) array."""
    vals = np.asarray(fn(pts.ravel()), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("non-finite map value on the stencil lattice")
    return vals.reshape(pts.shape + (-1,))


def _weigh(F, weights):
    """sum_k F[..., k] weights[..., k], term by term, so a point gets the
    same bits in a batch of any size (a BLAS contraction does not)."""
    out = F[..., 0] * weights[..., 0]
    for k in range(1, F.shape[-1]):
        out = out + F[..., k] * weights[..., k]
    return out


def _stencil(F, h):
    """The deriv1 stencil of step h along axis 1, at the entries 2..L-3 of F."""
    fm2, fm1, fp1, fp2 = F[:, :-4], F[:, 1:-3], F[:, 3:-1], F[:, 4:]
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def _stencil2(F, h):
    """The deriv2 stencil of step h along axis 1, at the entries 2..L-3 of F."""
    fm2, fm1, f0, fp1, fp2 = F[:, :-4], F[:, 1:-3], F[:, 2:-2], F[:, 3:-1], F[:, 4:]
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)


def _shifted(u, a, delta):
    w = np.array(u, dtype=float)
    w[a] += delta
    return w


def partial1(fn, u, a, h, richardson=False):
    """First partial derivative of ``fn(u)`` in coordinate ``a``."""
    g = lambda s: fn(_shifted(u, a, s))
    if richardson:
        return deriv1_richardson(g, 0.0, h)
    return deriv1(g, 0.0, h)


def partial2(fn, u, a, b, h):
    """Second partial derivative in coordinates ``a`` and ``b`` (nested FD)."""
    if a == b:
        return deriv2(lambda s: fn(_shifted(u, a, s)), 0.0, h)
    return deriv1(lambda s: partial1(fn, _shifted(u, a, s), b, h), 0.0, h)


def richardson(d_h, d_h2, order=2):
    """Extrapolate two approximations with leading error term h^order."""
    w = 2.0 ** order
    return (w * np.asarray(d_h2) - np.asarray(d_h)) / (w - 1.0)


def observed_order(values):
    """Estimated convergence order from approximations at steps h, h/2, h/4."""
    v = [np.asarray(x, dtype=float) for x in values]
    num = np.abs(v[0] - v[1])
    den = np.abs(v[1] - v[2])
    if np.all(den < 1e-300):
        return float("nan")
    return float(np.log2(num / den))


def simpson_weights(K, dt):
    """Composite Simpson weights on K+1 uniform nodes (K even)."""
    if K % 2 != 0 or K < 2:
        raise ValueError("composite Simpson needs an even number of intervals")
    w = np.ones(K + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * dt / 3.0


def smooth_bump(t, lo, hi):
    """Bump supported on (lo, hi), peaking at 1 in the middle.

    (1 - x^2)^6 on the rescaled interval: C^5 across the edges, with far
    tamer high derivatives than the classical exp(-1/(1-x^2)) bump, which
    keeps Simpson quadrature of bump-weighted integrands accurate.
    """
    scalar = np.ndim(t) == 0
    x = 2.0 * (np.atleast_1d(t).astype(float) - lo) / (hi - lo) - 1.0
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = (1.0 - x[inside] ** 2) ** 6
    return float(out[0]) if scalar else out
