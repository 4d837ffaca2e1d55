"""Numerical verification of (p,q)-harmonic hypersurfaces and curves.

The package evaluates the residual system characterizing proper
(p,q)-harmonic hypersurfaces of Riemannian space forms, the Frenet-frame
system for curves in 3-dimensional space forms, and checks the first
variation of the (p,q)-energy directly against the (p,q)-tension field.
"""

from .catalog import (CATALOG, CatalogEntry, circle, cone, great_sphere,
                      plane, sphere_in_sphere)
from .curves import (CurveChart, CurveReport, FrenetApparatus, HelixResult,
                     classify_curve, curve_system_residual, frenet, helix,
                     p_closed_form)
from .errors import (BoundaryProximityError, DegenerateImmersionError,
                     DomainError, FrameUndefinedError, GeometryError,
                     ModelConstraintError, NoRootInBracketError,
                     NonConvergenceError, SingularFactorError,
                     SingularSpeedError, TangencyError)
from .immersion import (GeometricSample, ImmersionChart, first_fundamental,
                        geometric_sample, sample_grid, shape_packet,
                        unit_normal)
from .residual import (Classification, CoefficientSet, PQParams,
                       ResidualReport, classify, coefficients, residual,
                       solve_p, solve_param_pair, umbilic_f)
from .spaceform import SpaceForm
from .variation import (DiscretizedCurve, VariationField, bump_normal_field,
                        energy_pq, first_variation_check, random_bump_field,
                        tension_p, tension_pq_curve)

__version__ = "0.1.0"

__all__ = [
    "CATALOG", "CatalogEntry", "Classification", "CoefficientSet",
    "CurveChart", "CurveReport", "DiscretizedCurve", "FrenetApparatus",
    "GeometricSample", "HelixResult", "ImmersionChart", "PQParams",
    "ResidualReport", "SpaceForm", "VariationField",
    "BoundaryProximityError", "DegenerateImmersionError", "DomainError",
    "FrameUndefinedError", "GeometryError", "ModelConstraintError",
    "NoRootInBracketError", "NonConvergenceError", "SingularFactorError",
    "SingularSpeedError", "TangencyError",
    "bump_normal_field", "circle", "classify", "classify_curve", "coefficients",
    "cone", "curve_system_residual", "energy_pq", "first_fundamental",
    "first_variation_check", "frenet", "geometric_sample", "great_sphere",
    "helix", "p_closed_form", "plane", "random_bump_field", "residual",
    "sample_grid", "shape_packet",
    "solve_p", "solve_param_pair", "sphere_in_sphere", "tension_p",
    "tension_pq_curve", "umbilic_f", "unit_normal",
]
