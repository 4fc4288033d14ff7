"""Stratification of nilpotent Lie brackets and curvature of solvable
metric Lie algebras.

The package splits into a bracket layer (exact or float skew bilinear
tensors with the GL_n actions), an exact quadratic-programming layer (the
minimum-norm point of a set of weight vectors), stratum certificates, the
normalized moment-map flow, and the curvature stack for solvable metric
Lie algebras, including rank-one Einstein extensions and the three-term
standardness audit.
"""

from .bracket import (BracketTensor, act, derivations, direct_sum, inner,
                      is_nilpotent, is_solvable, jacobi_residual,
                      lower_central_series, norm_sq, permutation_act, rep)
from .flow import (FlowResult, MomentValue, StratumDetection, flow_to_critical,
                   ricci_moment, stratum_detect)
from .minnorm import MinNormResult, PointSet, canonical_form, min_norm_point
from .solvable import (AuditReport, CurvatureReport, EinsteinCheck,
                       MetricSolvableAlgebra, StandardCheck, curvature_report,
                       einstein_check, is_standard, killing_form,
                       mean_curvature, r_operator, rank_one_extension,
                       ricci_operator, standardness_audit,
                       trace_identity_check)
from .strata import (DiagonalWeight, StratumCertificate, beta_of,
                     certify_candidate, delta_check, derivation_certificates,
                     eigenvalue_type, in_W, in_Y, in_Z, m_degree,
                     parabolic_membership, positivity_check, project_Z,
                     sort_to_weyl_chamber, weights)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
