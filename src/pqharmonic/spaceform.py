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
the projection, the curvature tensor, the model checks and the retraction
act over the last axis, so they take one point or a whole stencil lattice
of points at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelConstraintError, TangencyError

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
        """Raw coordinate pairing (Euclidean dot or Minkowski product) over the last axis."""
        return np.sum(np.asarray(X) * self.pairing_signs() * Y, axis=-1)

    # -- model membership ---------------------------------------------------

    def constraint_defect(self, P):
        if self.c == 0:
            return 0.0
        return abs(self.pair(P, P) - 1.0 / self.c)

    def check_point(self, P, tol=MODEL_TOL):
        P = np.asarray(P, dtype=float)
        if P.shape[-1:] != (self.ambient_dim,):
            raise ModelConstraintError(
                f"expected coordinate arrays of length {self.ambient_dim}, "
                f"got shape {P.shape}")
        defect = np.max(self.constraint_defect(P))
        if defect > tol:
            raise ModelConstraintError(f"point off the {self.model} model by {defect:.3e}")
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
        """(Pseudo-)orthogonal projection of V onto the tangent space at P."""
        V = np.asarray(V, dtype=float)
        if self.c == 0:
            return V
        P = np.asarray(P, dtype=float)
        # <P,P> = 1/c on the model, so the normal component is c<P,V> P
        return V - self.c * self.pair(P, V)[..., None] * P

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
        tangent vectors is the identity.
        """
        P = np.asarray(coords, dtype=float)
        if self.c == 0:
            return P
        nrm2 = self.pair(P, P)
        if self.c > 0 and np.any(nrm2 <= 0):
            raise DomainError("cannot retract the origin onto the sphere")
        if self.c < 0 and np.any((nrm2 >= 0) | (P[..., -1] <= 0)):
            raise DomainError("hyperboloid retraction needs a timelike, future-pointing input")
        # c * nrm2 > 0 in both embedded cases; the target norm is 1/c
        return P / np.sqrt(self.c * nrm2)[..., None]
