"""Support-constrained Gabidulin generator matrices over Q(zeta_p).

Builds generator matrices with prescribed zero entries over prime-conductor
cyclotomic fields, entirely in exact integer arithmetic in Z[zeta_p],
certifies the results (support, invertibility, point independence, Hamming
distance), and cross-validates the combinatorial feasibility condition
against a polynomial determinant oracle.
"""

from .cyclotomic import CycloElement, GaloisContext
from .linalg import ExactMatrix, bordered_minor_row
from .supports import (CompletionError, SupportSpec, check_condition, complete_sets,
                       required_dimension)
from .construction import (ConstructionResult, RetriesExhausted, construct, is_independent,
                           moore_matrix, required_sample_size, sample_points)
from .gmmds import OracleReport, det_is_nonzero, oracle_report, sweep_agreement
from .certify import (Certificate, SubcodeResult, build_subcode, certify_mrd,
                      hamming_distance, verify_support)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CompletionError",
    "ConstructionResult",
    "CycloElement",
    "ExactMatrix",
    "GaloisContext",
    "OracleReport",
    "RetriesExhausted",
    "SubcodeResult",
    "SupportSpec",
    "bordered_minor_row",
    "build_subcode",
    "certify_mrd",
    "check_condition",
    "complete_sets",
    "construct",
    "det_is_nonzero",
    "hamming_distance",
    "is_independent",
    "moore_matrix",
    "oracle_report",
    "required_dimension",
    "required_sample_size",
    "sample_points",
    "sweep_agreement",
    "verify_support",
]
