"""Built-in example charts and curves with their closed-form geometry.

Each hypersurface entry carries exact jacobian/hessian callbacks and an
``analytic_geometry`` sampler, so the same object exercises both the
closed-form path (residuals at machine precision) and the stencil path
of the engine, where the exact jets feed finite-difference stencils of f
over the f-lattice.  The maps also run on jets (:class:`jets.Jet`), but
the callbacks stay: the map's jets cost a stencil ``classify`` 18-30% more
(the cone and the m = 2 sphere at grid 8, the m = 3 sphere at grid 4).
No entry carries a reference normal: each is oriented, like every chart,
by the ambient volume form times its ``orientation`` sign.  Every callback
acts over the last axis (see :class:`ImmersionChart` and
:class:`CurveChart`), so the engine evaluates a whole batch in one call.

Entries:

* ``sphere_in_sphere(m, a2)`` -- the small sphere S^m(a) inside S^(m+1),
  proper (p,q)-harmonic exactly at p = 1/b^2 with b^2 = 1 - a^2;
* ``great_sphere(m)`` -- the equatorial S^m(1), minimal;
* ``cone(r)`` -- the rotation cone (r u cos v, r u sin v, u) in R^3,
  proper at p = 2(1 - 1/q), r = 1/sqrt(q(q-1)) for q > 2;
* ``plane()`` -- a flat patch in R^3, minimal;
* ``circle(rho)`` -- the unit-speed round circle in R^3;
* the helix family lives in :func:`pqharmonic.curves.helix`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import CurveChart, helix
from .errors import DomainError
from .immersion import GeometricSample, ImmersionChart
from .spaceform import SpaceForm


# -- callbacks over the last axis ---------------------------------------------

# derivative k of the factors (sin, cos, 1), as columns of (s, c, 1, -s, 0, -c)
_FACTOR_DERIVATIVES = np.array([[0, 1, 2], [1, 3, 4], [3, 5, 4]])


@functools.lru_cache(maxsize=None)
def _omega_columns(m, order):
    """For each partial derivative of the given order (in ``itertools.product``
    order), each component j and each factor i, the column of (s, c, 1, -s,
    0, -c) that holds that factor's derivative: an (m+1, m^order, m) table.

    Factor i of component j is sin(u_i) for i < j, cos(u_i) for i = j and 1
    for i > j; a partial differentiates factor i once per occurrence of i.
    """
    kind = 1 - np.sign(np.arange(m + 1)[:, None] - np.arange(m))            # (m+1, m)
    counts = np.array([[axes.count(i) for i in range(m)]
                       for axes in itertools.product(range(m), repeat=order)]).reshape(-1, m)
    table = _FACTOR_DERIVATIVES[counts[None], kind[:, None]]                  # (m+1, P, m)
    table.flags.writeable = False
    return table


def _omega(u, order=0):
    """The unit-sphere map omega : (0,pi)^(m-1) x (0,2pi) -> S^m and its derivatives.

    omega_j = sin(u_0)...sin(u_{j-1}) cos(u_j) for j < m and omega_m =
    sin(u_0)...sin(u_{m-1}) are products of univariate factors.  At u
    (..., m), order 0 gives omega (..., m+1), a running product of the
    factors joined by ``np.stack``, so it also runs on a jet of the points
    (:class:`jets.Jet`).  Orders 1 and 2 give its Jacobian (..., m+1, m)
    and Hessian (..., m+1, m, m): each partial derivative is the product
    of the factors' own derivatives, gathered one factor at a time from the
    stacked derivative columns (:func:`_omega_columns`), which halves the
    peak memory of an m = 3 Hessian against gathering all m at once.
    """
    m = u.shape[-1]
    s, c = np.sin(u), np.cos(u)
    if order == 0:
        parts, prod = [], 1.0
        for j in range(m):
            parts.append(prod * c[..., j])
            prod = prod * s[..., j]
        return np.stack(parts + [prod], axis=-1)
    # the columns up to 0 for order 1, and up to -c for order 2
    columns = (s, c, np.ones(u.shape), -s, np.zeros(u.shape), -c)[:4 + order]
    F, table = np.stack(columns, axis=-1), _omega_columns(m, order)
    out = F[..., 0, table[..., 0]]
    for i in range(1, m):
        out *= F[..., i, table[..., i]]
    return out.reshape(u.shape[:-1] + (m + 1,) + (m,) * order)


def _append(X, value, axis=-1):
    """X with one more entry, the constant ``value``, along ``axis``: of an
    array, or of a jet (:class:`jets.Jet`) along its last axis."""
    shape = list(X.shape)
    shape[axis] = 1
    return np.concatenate([X, np.full(shape, value)], axis=axis)


def _constant(value, u):
    """``value`` at every point of u (..., m)."""
    value = np.asarray(value, dtype=float)
    return np.broadcast_to(value, np.shape(u)[:-1] + value.shape).copy()


def _constant_geometry(m, f, normA2, ric, g=None):
    """Closed-form samples of a hypersurface with constant f and |A|^2."""
    def analytic(u):
        shape = np.shape(u)[:-1]
        return GeometricSample(
            m=m, f=np.full(shape, f), grad_f=np.zeros(shape + (m,)),
            grad_f_norm2=np.zeros(shape), laplacian_f=np.zeros(shape),
            normA2=np.full(shape, normA2), A_grad_f=np.zeros(shape + (m,)),
            ric_eta_eta=np.full(shape, ric), ricci_eta_top=np.zeros(shape + (m,)),
            g=None if g is None else _constant(g, u))
    return analytic


def _sphere(m, a2, name):
    """X(u) = (a omega(u), b) with a^2 = a2 and b^2 = 1 - a2, in the unit S^(m+1).

    The unit normal eta = (b omega, -a) gives the constant mean curvature
    f = -b/a and |A|^2 = m b^2/a^2.  The volume form's normal of this polar
    chart is (-1)^m (b omega, -a), hence the orientation (-1)^m.
    """
    a, b = math.sqrt(a2), math.sqrt(1.0 - a2)
    # polar angles clear of the coordinate singularities, azimuth almost full
    domain = tuple([(0.45, 2.65)] * (m - 1) + [(0.0, 2.0 * math.pi)])
    return ImmersionChart(
        sf=SpaceForm(m + 1, 1.0), m=m, domain=domain,
        map=lambda u: _append(a * _omega(u), b),
        jacobian=lambda u: _append(a * _omega(u, 1), 0.0, axis=-2),
        hessian=lambda u: _append(a * _omega(u, 2), 0.0, axis=-3),
        # f = +0 on the great sphere (b = 0), where -b/a would print as -0
        analytic_geometry=_constant_geometry(m, f=-b / a if b else 0.0,
                                             normA2=m * (1.0 - a2) / a2, ric=float(m)),
        name=name, orientation=(-1) ** m)


# -- catalog entries --------------------------------------------------------

def sphere_in_sphere(m=2, a2=0.5):
    """The small hypersphere S^m(a) inside the unit sphere S^(m+1).

    Embedded as X(u) = (a omega(u), b) with a^2 + b^2 = 1 and the unit
    normal eta = (b omega, -a), under which the mean curvature is the
    constant f = -b/a.
    """
    if not 0.0 < a2 < 1.0:
        raise DomainError(f"need 0 < a2 < 1, got {a2}")
    if m < 1:
        raise DomainError("hypersurface dimension must be >= 1")
    return _sphere(m, a2, f"sphere-in-sphere(m={m}, a2={a2:g})")


def great_sphere(m=2):
    """The equatorial great sphere S^m(1) in S^(m+1): totally geodesic."""
    return _sphere(m, 1.0, f"great-sphere(m={m})")


def cone(r):
    """The rotation cone X(u,v) = (r u cos v, r u sin v, u) in R^3, u in (1/2, 2).

    With the volume form's unit normal (-cos v, -sin v, r)/sqrt(1+r^2) the
    mean curvature is f = 1/(2 r u sqrt(1+r^2)); the only nonzero principal
    curvature sits on the circular direction, so A(grad f) = 0.
    """
    if r <= 0:
        raise DomainError(f"cone slope parameter must be positive, got {r}")
    sf = SpaceForm(3, 0.0)
    s2 = 1.0 + r * r
    s = math.sqrt(s2)
    f1 = 1.0 / (2.0 * r * s)

    def split(w):
        return w[..., 0], np.cos(w[..., 1]), np.sin(w[..., 1])

    def chart_map(w):
        u, cv, sv = split(w)
        return np.stack([r * u * cv, r * u * sv, u], axis=-1)

    def jac(w):
        u, cv, sv = split(w)
        return np.stack([np.stack([r * cv, -r * u * sv], axis=-1),
                         np.stack([r * sv, r * u * cv], axis=-1),
                         _constant([1.0, 0.0], w)], axis=-2)

    def hess(w):
        u, cv, sv = split(w)
        H = np.zeros(u.shape + (3, 2, 2))
        H[..., 0, 0, 1] = H[..., 0, 1, 0] = -r * sv
        H[..., 1, 0, 1] = H[..., 1, 1, 0] = r * cv
        H[..., 0, 1, 1] = -r * u * cv
        H[..., 1, 1, 1] = -r * u * sv
        return H

    def analytic(w):
        u = np.asarray(w, dtype=float)[..., 0]
        u2 = u * u
        g = np.zeros(u.shape + (2, 2))
        g[..., 0, 0], g[..., 1, 1] = s2, r * r * u * u
        return GeometricSample(
            m=2, f=f1 / u,
            grad_f=np.stack([-f1 / (u2 * s2), np.zeros(u.shape)], axis=-1),
            grad_f_norm2=f1 * f1 / (u2 * u2 * s2),
            laplacian_f=f1 / (s2 * (u2 * u)),
            normA2=1.0 / (r * r * u * u * s2),
            A_grad_f=np.zeros(u.shape + (2,)), ric_eta_eta=np.zeros(u.shape),
            ricci_eta_top=np.zeros(u.shape + (2,)), g=g)

    return ImmersionChart(sf=sf, m=2,
                          domain=((0.5, 2.0), (0.0, 2.0 * math.pi)),
                          map=chart_map, jacobian=jac, hessian=hess,
                          analytic_geometry=analytic,
                          name=f"cone(r={r:g})")


def plane():
    """A flat coordinate patch in R^3; minimal with vanishing residuals."""
    return ImmersionChart(
        sf=SpaceForm(3, 0.0), m=2, domain=((0.0, 1.0), (0.0, 1.0)),
        map=lambda w: _append(w, 0.0),
        jacobian=lambda w: _constant([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], w),
        hessian=lambda w: _constant(np.zeros((3, 2, 2)), w),
        analytic_geometry=_constant_geometry(2, f=0.0, normA2=0.0, ric=0.0, g=np.eye(2)),
        name="plane")


def circle(rho=1.0):
    """The unit-speed round circle of radius rho in R^3 (k = 1/rho, tau = 0)."""
    if rho <= 0:
        raise DomainError(f"radius must be positive, got {rho}")

    def gamma(t):
        x = t / rho
        return rho * np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=-1)

    return CurveChart(sf=SpaceForm(3, 0.0), domain=(0.0, 2.0 * math.pi * rho), map=gamma,
                      name=f"circle(rho={rho:g})")


# -- listing ----------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A builtin chart or curve: ``build(**values)`` takes one value per
    parameter, and ``parameters`` maps each name to its command-line
    default, an int for the dimension m and an expression text otherwise."""
    name: str
    kind: str          # "hypersurface" or "curve"
    parameters: dict
    expectation: str
    build: Callable

    @property
    def sweepable(self):
        """The parameters a sweep can vary: the real ones, not the dimension."""
        return {name for name, default in self.parameters.items() if isinstance(default, str)}


# each builder looks its constructor up when called, so a rebound name is the one that runs
CATALOG = (
    CatalogEntry("sphere-in-sphere", "hypersurface", {"m": 2, "a2": "0.5"},
                 "proper exactly at p = 1/b^2 with b^2 = 1 - a2, for every q",
                 lambda m, a2: sphere_in_sphere(m=m, a2=a2)),
    CatalogEntry("great-sphere", "hypersurface", {"m": 2},
                 "Minimal for every (p, q)",
                 lambda m: great_sphere(m=m)),
    CatalogEntry("cone", "hypersurface", {"r": "0.5"},
                 "proper at p = 2(1 - 1/q), r = 1/sqrt(q(q-1)); needs q > 2",
                 lambda r: cone(r=r)),
    CatalogEntry("plane", "hypersurface", {},
                 "Minimal for every (p, q)",
                 lambda: plane()),
    CatalogEntry("helix", "curve",
                 {"alpha": "0.785398163397448", "a": "1.32287565553230", "b": "0.5"},
                 "k = sqrt((a^2-1)(1-b^2)), tau = ab; proper at "
                 "p = (a^2+b^2-2a^2b^2)/((a^2-1)(1-b^2)) when admissible",
                 lambda alpha, a, b: helix(alpha, a, b).curve),
    CatalogEntry("circle", "curve", {"rho": "1"},
                 "k = 1/rho, tau = 0; no admissible p in flat space",
                 lambda rho: circle(rho=rho)),
)
