"""Stratification of nilpotent Lie brackets and curvature of solvable
metric Lie algebras.

The package splits into a bracket layer (exact or float skew bilinear
tensors with the GL_n actions), an exact quadratic-programming layer (the
minimum-norm point of a set of weight vectors), stratum certificates, the
normalized moment-map flow, and the curvature stack for solvable metric
Lie algebras, including rank-one Einstein extensions and the three-term
standardness audit.
"""

from .bracket import (BracketTensor, act, derivations, inner, is_solvable,
                      jacobi_residual, lower_central_series, norm_sq,
                      permutation_act, rep)
from .flow import FlowResult, MomentValue, flow_to_critical, ricci_moment
from .minnorm import MinNormResult, PointSet, min_norm_point
from .solvable import (AuditReport, CurvatureReport, EinsteinCheck,
                       MetricSolvableAlgebra, StandardCheck, curvature_report,
                       einstein_check, is_standard, rank_one_extension,
                       standardness_audit)
from .strata import (DiagonalWeight, StratumCertificate, StratumLabel, beta_of,
                     certify_candidate, derivation_certificates, in_W, m_degree,
                     project_Z, sort_to_weyl_chamber, stratum_label, weights)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
