"""Ambient space forms N^n(c) and their exact Levi-Civita connections.

The three models are carried in embedding coordinates:

* ``c = 0``  -- Euclidean R^n, points are plain coordinate arrays of length n;
* ``c > 0``  -- the radius 1/sqrt(c) hypersphere inside flat R^(n+1);
* ``c < 0``  -- the upper hyperboloid <<P,P>> = 1/c in Minkowski R^(n,1),
  where <<.,.>> is the pairing with signature (+...+,-) on the last
  coordinate.

For the embedded models the Levi-Civita connection is ordinary coordinate
differentiation followed by the (pseudo-)orthogonal projection onto the
tangent space, :meth:`SpaceForm.tangent_project`: the covariant derivative
of a field V along a curve is ``tangent_project(P, dV/dt)``.  The pairing,
the projection, the oriented unit normal of tangent vectors (``complement``),
the curvature tensor, the model checks and the retraction act over the last
axis, so they take one point or a whole batch of points at once; the
pairing, the projection and the retraction also take Taylor series
(:class:`jets.Taylor`) and give the series of the result.
The pairing and the model check's |P|^2 are summed term by term over the
coordinates (:func:`numeric._weigh`), so a point gets the same bits in a
batch of any size.
The normal's cofactors are one elementwise Laplace expansion over the
batch that shares its sub-minors (:func:`numeric._cofactors`): a LAPACK
determinant per cofactor and point cost far more in call overhead than in
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import DomainError, ModelConstraintError, TangencyError
from .jets import Taylor
from .numeric import _cofactors, _weigh

MODEL_TOL = 1e-12
TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected model space of dimension ``n`` and curvature ``c``."""

    n: int
    c: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension must be >= 2")
        # the pairing signs of the hyperboloid model, taken once; None where
        # every sign is +1 and the pairing is the plain dot product
        object.__setattr__(self, "_signs", self.pairing_signs() if self.c < 0 else None)

    @property
    def model(self):
        if self.c > 0:
            return "SphereEmbedded"
        if self.c < 0:
            return "Hyperboloid"
        return "Euclidean"

    @property
    def ambient_dim(self):
        """Length of the coordinate arrays carrying points and vectors."""
        return self.n if self.c == 0 else self.n + 1

    def pairing_signs(self):
        s = np.ones(self.ambient_dim)
        if self.c < 0:
            s[-1] = -1.0
        return s

    def pair(self, X, Y):
        """Raw coordinate pairing (Euclidean dot or Minkowski product) over the
        last axis; of two Taylor series, the series of the pairing (:func:`jets.pair`)."""
        if isinstance(X, Taylor) or isinstance(Y, Taylor):
            return jets.pair(X, Y, self._signs)
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        return _weigh(X, Y if self._signs is None else self._signs * Y)

    # -- model membership ---------------------------------------------------

    def constraint_defect(self, P):
        if self.c == 0:
            return 0.0
        return abs(self.pair(P, P) - 1.0 / self.c)

    def check_point(self, P, tol=MODEL_TOL):
        """P (..., dim), refused unless each point's defect |<P,P> - 1/c| is
        within ``tol`` of its Euclidean |P|^2 (a large hyperboloid radius
        cancels in <P,P>) and, on the hyperboloid, it lies on the upper sheet."""
        P = np.asarray(P, dtype=float)
        if P.shape[-1:] != (self.ambient_dim,):
            raise ModelConstraintError(
                f"expected coordinate arrays of length {self.ambient_dim}, "
                f"got shape {P.shape}")
        if self.c != 0:
            size = _weigh(P, P)             # |P|^2, which is <P,P> on the sphere
            defect = abs((size if self._signs is None else self.pair(P, P)) - 1.0 / self.c)
            off = defect > tol * size
            if np.any(off):
                i = np.unravel_index(np.argmax(off), off.shape)
                raise ModelConstraintError(
                    f"point {P[i]} off the {self.model} model: <P,P> = "
                    f"{self.pair(P[i], P[i]):.6g}, not 1/c = {1 / self.c:.6g}")
        if self.c < 0 and np.any(P[..., -1] <= 0):
            raise ModelConstraintError("hyperboloid points need positive last coordinate")
        return P

    def check_tangent(self, P, V, tol=TANGENT_TOL):
        V = np.asarray(V, dtype=float)
        if self.c == 0:
            return V
        worst = np.max(np.abs(self.pair(P, V)))
        if worst > tol:
            raise TangencyError(f"vector not tangent at P: |<P,V>| = {worst:.3e}")
        return V

    def tangent_project(self, P, V):
        """(Pseudo-)orthogonal projection of V onto the tangent space at P;
        of Taylor series, the series of the projection."""
        V = V if isinstance(V, Taylor) else np.asarray(V, dtype=float)
        if self.c == 0:
            return V
        P = P if isinstance(P, Taylor) else np.asarray(P, dtype=float)
        # <P,P> = 1/c on the model, so the normal component is c<P,V> P
        return V - self.c * self.pair(P, V)[..., None] * P

    def complement(self, P, V):
        """Oriented unit normal of the k tangent columns V (..., dim, k) at P, and its square.

        w = s * cof, s the pairing signs and cof_j = det[V, e_j(, P)] (P only
        in the embedded models), is pairing-orthogonal to V and P with
        det[V, w(, P)] = <w, w>.  Returns (w / sqrt(<w, w>), <w, w>); the
        first is nan where <w, w> <= 0, and in R^3 it is V_1 x V_2 normalised.
        The cofactors are one elementwise Laplace expansion over the batch
        (:func:`numeric._cofactors`), with det[V, e_j, P] = -det[V, P, e_j].
        """
        V = np.asarray(V, dtype=float)
        if self.c == 0:
            cof = _cofactors(V)
        else:
            cof = -_cofactors(np.concatenate([V, np.asarray(P, dtype=float)[..., None]], axis=-1))
        w = cof if self._signs is None else self._signs * cof
        nrm2 = self.pair(w, w)
        with np.errstate(invalid="ignore", divide="ignore"):
            return w / np.sqrt(nrm2)[..., None], nrm2

    # -- metric and curvature ----------------------------------------------

    def curvature_tensor(self, P, X, Y, Z):
        """R(X,Y)Z = c [h(Y,Z) X - h(X,Z) Y] for constant curvature c."""
        P = self.check_point(P)
        X = self.check_tangent(P, X)
        Y = self.check_tangent(P, Y)
        Z = self.check_tangent(P, Z)
        return self.c * (self.pair(Y, Z)[..., None] * X - self.pair(X, Z)[..., None] * Y)

    def ricci_data(self, eta):
        """(Ric(eta,eta), (Ricci eta)^T) for a unit normal of a hypersurface.

        For constant curvature these are (m c, 0) with m = n - 1.
        """
        m = self.n - 1
        return m * self.c, np.zeros(self.ambient_dim)

    # -- retraction ---------------------------------------------------------

    def retract(self, coords):
        """Nearest-point normalization of raw coordinates onto the model.

        Identity for Euclidean; radial (Minkowski) normalization for the
        embedded models.  At on-model points the differential restricted to
        tangent vectors is the identity.  Of a Taylor series, the series of
        the retraction, refused as its values are.
        """
        P = coords if isinstance(coords, Taylor) else np.asarray(coords, dtype=float)
        if self.c == 0:
            return P
        nrm2 = self.pair(P, P)
        # the value's real part: a complex step carries its perturbation in the imaginary part
        n0, last = ((nrm2.c[0].real, P.c[0][..., -1].real) if isinstance(P, Taylor)
                    else (nrm2, P[..., -1]))
        if self.c > 0 and np.any(n0 <= 0):
            raise DomainError("cannot retract the origin onto the sphere")
        if self.c < 0 and np.any((n0 >= 0) | (last <= 0)):
            raise DomainError("hyperboloid retraction needs a timelike, future-pointing input")
        # c * nrm2 > 0 in both embedded cases; the target norm is 1/c
        return P / np.sqrt(self.c * nrm2)[..., None]
