"""The m = 1 bridge between the two residual systems, analytic slice.

The small circle of radius a = sqrt(a2) in the unit S^2, with b^2 = 1 - a2,
is both ``sphere_in_sphere(1, a2)`` and the unit-speed curve
(a cos(t/a), a sin(t/a), b, 0) in S^3 with k = b/a and tau = 0.  Both
systems then have their proper exponent at p = 1/b^2.
"""

import math

import numpy as np
import pytest

from pqharmonic import PQParams, classify, p_closed_form, sphere_in_sphere
from pqharmonic.curves import CurveChart, classify_curve
from pqharmonic.spaceform import SpaceForm

A2 = [0.3, 0.5, 0.8]
Q = [2.0, 2.5, 3.0]


def _small_circle(a2):
    a, b = math.sqrt(a2), math.sqrt(1.0 - a2)
    return CurveChart(sf=SpaceForm(3, 1.0), domain=(0.0, 2.0 * math.pi * a),
                      map=lambda t: np.stack([a * np.cos(t / a), a * np.sin(t / a),
                                              b + 0.0 * t, 0.0 * t], axis=-1),
                      name=f"small-circle(a2={a2:g})")


@pytest.mark.parametrize("q", Q)
@pytest.mark.parametrize("a2", A2)
def test_small_circle_hypersurface_is_proper_at_the_curve_exponent(a2, q):
    p_star = 1.0 / (1.0 - a2)
    p, admissible = p_closed_form(math.sqrt(1.0 - a2) / math.sqrt(a2), 0.0, 1.0)
    assert admissible and p == p_star
    for use_analytic in (True, False):
        report = classify(sphere_in_sphere(1, a2), PQParams(p_star, q), use_analytic=use_analytic)
        assert report.classification.value == "ProperPQHarmonic", (use_analytic, report.max_abs_eq1)


@pytest.mark.parametrize("q", Q)
@pytest.mark.parametrize("a2", [0.3, 0.5, 0.8])
def test_small_circle_curve_is_proper_exactly_at_the_hypersurface_exponent(a2, q):
    curve = _small_circle(a2)
    p_star = 1.0 / (1.0 - a2)
    off = classify_curve(curve, PQParams(1.1 * p_star, q))
    assert off.classification.value == "NotPQHarmonic", off.max_residual
    at = classify_curve(curve, PQParams(p_star, q))
    assert at.classification.value == "ProperPQHarmonic", at.max_residual
