"""Finite-difference stencil weights, Richardson extrapolation, quadrature,
small-matrix kernels and the refusal of non-finite values.

The hypersurface stencil path takes the derivatives of f by the 4th-order
central stencils D1 and D2 (:mod:`immersion`), and of no map: chart maps
carry jets, and curve maps Taylor series (:mod:`jets`).  Richardson extrapolation
and the observed order serve the first-variation step ladder, and
composite Simpson weights its quadrature.

The small matrices of the pointwise geometry (a 2x2 to 5x5 metric, the
tangent columns of a normal) come one per sampled point, a thousand at a
time.  A LAPACK factorisation per matrix costs far more in call overhead
than its arithmetic, so determinants, adjugates and the cofactors of a
normal are Laplace expansions over the whole batch (:func:`_cofactors`,
:func:`_adjugate`): elementwise products and sums in a fixed order, which
also give a matrix the same bits in a batch of any size.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError
from .jets import Taylor

# D1 and D2, the first and second derivative stencils, as weight vectors for
# sampled arrays: sum_k W[k] F(x + OFFSETS[k] h) / h (or / h^2)
D1_OFFSETS = np.array([-2, -1, 1, 2])
D1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
D2_OFFSETS = np.array([-2, -1, 0, 1, 2])
D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _finite(vals, what="map"):
    """A chart callback's values as a float array, refused unless all are finite."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"non-finite {what} value at the points the chart is sampled at")
    return vals


def require_finite(what, values):
    """Raise DomainError ``non-finite <what>: <name> = <value>, ...`` unless
    every value of the dict ``values`` is finite."""
    if not all(map(math.isfinite, values.values())):
        raise DomainError(f"non-finite {what}: "
                          + ", ".join(f"{k} = {x:g}" for k, x in values.items()))


def _check_domain(intervals, name):
    """Refuse a chart's domain unless each interval (lo, hi) has lo < hi and
    a finite width."""
    for lo, hi in intervals:
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"{name}: domain interval ({lo:g}, {hi:g}) needs finite lo < hi")


def _weigh(F, weights):
    """sum_k F[..., k] weights[..., k], term by term, so a point gets the
    same bits in a batch of any size (a BLAS contraction does not)."""
    out = F[..., 0] * weights[..., 0]
    for k in range(1, F.shape[-1]):
        out = out + F[..., k] * weights[..., k]
    return out


@functools.lru_cache(maxsize=None)
def _laplace_tables(d):
    """Per column c < d - 1 of a (d, d-1) matrix, the Laplace expansion that
    takes the minors on its first c columns to those on its first c + 1.

    The minors on c columns are indexed by the c-row subsets in
    ``itertools.combinations`` order.  Term t of the expansion of subset S
    along column c is (-1)^(t+c) M[S_t, c] times the minor of S minus S_t;
    the table of column c holds, per t, the rows S_t and the indices of
    those smaller minors, both over all (c+1)-row subsets.
    """
    tables = []
    for c in range(d - 1):
        index = {S: i for i, S in enumerate(itertools.combinations(range(d), c))}
        grown = list(itertools.combinations(range(d), c + 1))
        terms = []
        for t in range(c + 1):
            rows = np.array([S[t] for S in grown])
            sub = np.array([index[S[:t] + S[t + 1:]] for S in grown])
            rows.flags.writeable = sub.flags.writeable = False
            terms.append((rows, sub))
        tables.append(tuple(terms))
    return tuple(tables)


def _cofactors(M):
    """The d cofactors det[M, e_j], j = 0..d-1, of a (..., d, d-1) matrix M.

    The minors of M grow column by column (:func:`_laplace_tables`), so each
    sub-minor is computed once and shared by the larger ones; the last
    level holds the d maximal minors, det[M, e_j] = (-1)^(j+d-1) times the
    one without row j.  det[M, v] = sum_j v_j det[M, e_j] for any column v.
    """
    d = M.shape[-2]
    D = np.ones(M.shape[:-2] + (1,))
    for c, terms in enumerate(_laplace_tables(d)):
        for t, (rows, sub) in enumerate(terms):
            term = M[..., rows, c] * D[..., sub]
            grown = term if t == 0 else (grown - term if t % 2 else grown + term)
        D = -grown if c % 2 else grown
    # the maximal minors come in the order that omits row d-1 first
    return D[..., ::-1] * (-1.0) ** (np.arange(d) + d - 1)


def _adjugate(A):
    """det A and the adjugate of a square (..., m, m) matrix A.

    Row i of adj A is (-1)^(m-1-i) times the cofactors of A without column
    i; det A expands along the last column.  A^-1 = adj A / det A.
    """
    m = A.shape[-1]
    adj = np.stack([(-1.0) ** (m - 1 - i) * _cofactors(A[..., np.arange(m) != i])
                    for i in range(m)], axis=-2)
    det = _weigh(A[..., :, -1], adj[..., -1, :])
    return det, adj


def richardson(d_h, d_h2, order=2):
    """Extrapolate two approximations with leading error term h^order."""
    w = 2.0 ** order
    return (w * np.asarray(d_h2) - np.asarray(d_h)) / (w - 1.0)


def observed_order(values):
    """Estimated convergence order from values at steps h, h/2, h/4; NaN on a tie."""
    v = [np.asarray(x, dtype=float) for x in values]
    num = np.abs(v[0] - v[1])
    den = np.abs(v[1] - v[2])
    if np.all(den < 1e-300) or np.all(num < 1e-300):
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
    keeps Simpson quadrature of bump-weighted integrands accurate.  Of a
    Taylor series t, whose nodes must lie strictly inside (lo, hi), it is
    the series of the same products, with no clip.
    """
    if isinstance(t, Taylor):
        x = 2.0 * (t - lo) / (hi - lo) - 1.0
        return (1.0 - x ** 2) ** 6
    t = np.asarray(t, dtype=float)
    # on a flat array even for one point: power on a numpy scalar differs
    # from the array loop in the last bit; |x| clipped to 1 gives 0 outside
    x = np.fmin(np.abs(2.0 * (t.reshape(-1) - lo) / (hi - lo) - 1.0), 1.0)
    out = (1.0 - x ** 2) ** 6
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)
