"""Closed-form references for every benchmark job, independent of pqharmonic.

Nothing here imports the package under test: each expected verdict,
exponent, curvature and tension value comes from the closed forms of the
catalog geometry.

* cone X(u,v) = (r u cos v, r u sin v, u) in R^3: proper exactly at
  p = 2(1 - 1/q), r = 1/sqrt(q(q-1)), for q > 2;
* small sphere S^m(a) in S^(m+1), b^2 = 1 - a^2: constant f^2 = b^2/a^2 and
  eq1 = m f^2 ((p-1) b^2/a^2 - 1), proper exactly at p = 1/b^2;
* geodesic sphere of radius rho in H^3: f = coth(rho), |A|^2 = 2 f^2 and
  eq1 = 2 f^2 ((p-1) f^2 + 1) > 0, so never (p,q)-harmonic;
* great sphere and plane: f = 0, minimal;
* unit-speed curve with constant curvature k and torsion tau in N^3(c):
  tau_{p,q} = k^(q-1) ((p-1) k^2 + tau^2 - c) N, zero exactly at
  p = (c - tau^2)/k^2 + 1;
* helix in S^3 with frequencies (a, b): k = sqrt((a^2-1)(1-b^2)), tau = ab;
* circle of geodesic radius rho in H^3: k = coth(rho), tau = 0.
"""

from __future__ import annotations

import math

PROPER = "ProperPQHarmonic"
NOT_PQ = "NotPQHarmonic"
MINIMAL = "Minimal"


def cone_proper(q):
    """(p, r) of the proper cone for exponent q > 2."""
    return 2.0 * (1.0 - 1.0 / q), 1.0 / math.sqrt(q * (q - 1.0))


def sphere_proper_p(a2):
    return 1.0 / (1.0 - a2)


def sphere_eq1(m, a2, p):
    b2 = 1.0 - a2
    f2 = b2 / a2
    return m * f2 * ((p - 1.0) * b2 / a2 - 1.0)


def h3_sphere_eq1(rho, p):
    f2 = 1.0 / math.tanh(rho) ** 2
    return 2.0 * f2 * ((p - 1.0) * f2 + 1.0)


def helix_kt(a, b):
    """(k, tau, p) of the unit-speed helix with normalized frequencies."""
    k = math.sqrt((a * a - 1.0) * (1.0 - b * b))
    tau = a * b
    p = (a * a + b * b - 2.0 * a * a * b * b) / ((a * a - 1.0) * (1.0 - b * b))
    return k, tau, p


def curve_tension_coefficient(k, tau, c, p, q):
    """Scalar s with tau_{p,q} = s N for a constant (k, tau) unit-speed curve."""
    return k ** (q - 1.0) * ((p - 1.0) * k * k + tau * tau - c)


def curve_verdict(k, tau, c, p, q, tol=1e-6):
    """Verdict of the curve system; r1 = r3 = 0 for constant (k, tau)."""
    r2 = curve_tension_coefficient(k, tau, c, p, q)
    return PROPER if abs(r2) < tol else NOT_PQ


def circle_normal(rho):
    """Principal normal of t -> rho (cos(t/rho), sin(t/rho), 0)."""
    return lambda t: (-math.cos(t / rho), -math.sin(t / rho), 0.0)


def helix_normal(alpha, a, b, k):
    """Principal normal nabla_T T / k = (gamma'' + gamma) / k of the S^3 helix."""
    ca, sa = math.cos(alpha), math.sin(alpha)

    def normal(t):
        return (ca * (1.0 - a * a) * math.cos(a * t) / k,
                ca * (1.0 - a * a) * math.sin(a * t) / k,
                sa * (1.0 - b * b) * math.cos(b * t) / k,
                sa * (1.0 - b * b) * math.sin(b * t) / k)
    return normal


def simpson_weights(K, width):
    dt = width / K
    return [dt / 3.0 * (1.0 if i in (0, K) else (4.0 if i % 2 else 2.0))
            for i in range(K + 1)]


def first_variation_rhs(field_values, ts, weights, normal, coefficient):
    """-int <v, tau_pq> by Simpson quadrature on the base curve's nodes."""
    total = 0.0
    for v, t, w in zip(field_values, ts, weights):
        if v is None:
            continue
        n = normal(t)
        total -= w * coefficient * sum(vi * ni for vi, ni in zip(v, n))
    return total


def pairing_balance(field_values, ts, weights, normal):
    """|int <v, N>| / int |<v, N>|: near 0 the pairing cancels out."""
    signed = absolute = 0.0
    for v, t, w in zip(field_values, ts, weights):
        if v is None:
            continue
        x = w * sum(vi * ni for vi, ni in zip(v, normal(t)))
        signed += x
        absolute += abs(x)
    return abs(signed) / absolute


def observed_order(fd):
    den = abs(fd[1] - fd[2])
    if den < 1e-300:
        return float("nan")
    return math.log2(abs(fd[0] - fd[1]) / den)
