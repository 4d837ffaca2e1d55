"""Finite-difference stencil weights, the stencil lattice, Richardson
extrapolation, quadrature and the refusal of non-finite values.

Every derivative is a 4th-order central stencil, so that two nested
differentiation levels still leave enough accuracy for 1e-4 level checks.
A composition of central stencils is one weight vector on the integer
lattice t + k h (Fornberg, Math. Comp. 51 (1988) 699-706).  So a curve is
sampled once per lattice point, in one call of its map on all N x L
points, as an (N, L, dim) array for N nodes and L offsets k
(:func:`_lattice`, :func:`_sample`), and the stencils :func:`_stencil` and
:func:`_stencil2` act along the lattice axis.

The small matrices of the pointwise geometry (a 2x2 to 5x5 metric, the
tangent columns of a normal) come one per lattice point, a thousand at a
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

# D1 and D2, the first and second derivative stencils, as weight vectors for
# sampled arrays: sum_k W[k] F(x + OFFSETS[k] h) / h (or / h^2)
D1_OFFSETS = np.array([-2, -1, 1, 2])
D1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
D2_OFFSETS = np.array([-2, -1, 0, 1, 2])
D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
# the lattice of two nested first-derivative stencils, e.g. one acceleration
NESTED_OFFSETS = np.arange(-4, 5)


def _lattice(ts, h, offsets=NESTED_OFFSETS):
    """The points t + k h, one row per node t."""
    return np.asarray(ts, dtype=float)[:, None] + offsets[None, :] * h


def _finite(vals, what="map"):
    """A callback's values as a float array, refused unless all are finite."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"non-finite {what} value on the stencil lattice")
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


def _sample(fn, pts):
    """The curve map ``fn`` on the flat lattice, in one call: an (N, L, dim) array."""
    return _finite(fn(pts.ravel())).reshape(pts.shape + (-1,))


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


def _stencil(F, h):
    """The D1 stencil of step h along axis 1, at the entries 2..L-3 of F."""
    fm2, fm1, fp1, fp2 = F[:, :-4], F[:, 1:-3], F[:, 3:-1], F[:, 4:]
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def _stencil2(F, h):
    """The D2 stencil of step h along axis 1, at the entries 2..L-3 of F."""
    fm2, fm1, f0, fp1, fp2 = F[:, :-4], F[:, 1:-3], F[:, 2:-2], F[:, 3:-1], F[:, 4:]
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)


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
    t = np.asarray(t, dtype=float)
    # on a flat array even for one point: power on a numpy scalar differs
    # from the array loop in the last bit; |x| clipped to 1 gives 0 outside
    x = np.fmin(np.abs(2.0 * (t.reshape(-1) - lo) / (hi - lo) - 1.0), 1.0)
    out = (1.0 - x ** 2) ** 6
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)
