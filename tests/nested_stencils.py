"""Nested per-point finite-difference stencils: the independent reference.

Each function evaluates ``fn`` at its own shifted points, one call per
point, and nests the 4th-order central stencils by closures.  The engine
applies the same stencils as weight vectors on one sampled lattice
(:mod:`pqharmonic.numeric`); the tests compare the two.
"""

import numpy as np


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


def _shifted(u, a, delta):
    w = np.array(u, dtype=float)
    w[a] += delta
    return w


def partial1(fn, u, a, h):
    """First partial derivative of ``fn(u)`` in coordinate ``a``."""
    return deriv1(lambda s: fn(_shifted(u, a, s)), 0.0, h)


def partial2(fn, u, a, b, h):
    """Second partial derivative in coordinates ``a`` and ``b`` (nested FD)."""
    if a == b:
        return deriv2(lambda s: fn(_shifted(u, a, s)), 0.0, h)
    return deriv1(lambda s: partial1(fn, _shifted(u, a, s), b, h), 0.0, h)
