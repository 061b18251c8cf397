"""Mahler measures and Fuglede-Kadison determinants over group rings.

The package computes Mahler measures of Laurent polynomials (exact roots
in one variable, Jensen's formula fibrewise over a torus grid in several,
with torus quadrature on request), Fuglede-Kadison determinants of group
ring matrices over Z^d and over finite groups, runs exhaustive searches
for the generalized Lehmer constants, and tests determinant approximation
along chains of finite quotients.  The ``fkdet`` command line tool fronts the same operations.
"""

__version__ = "0.1.0"

from .approx import (
    DetSequence,
    QuotientChain,
    TraceCheck,
    chain_range,
    det_sequence,
    det_sequence_to_csv,
    norm_bound,
    reduce_mod,
    trace_element,
    trace_match_check,
)
from .fk_finite import (
    FiniteGroup,
    FiniteGroupRingElement,
    FiniteGroupRingMatrix,
    cyclic_norm,
    direct_product,
    fk_det_finite,
    fk_det_kernel_finite,
    format_element,
    induce,
    make_cyclic,
    make_cyclic_product,
    norm_element,
    parse_element,
    quotient_norm,
    regular_rep,
    restrict,
    vn_dim_kernel_finite,
)
from .fk_zd import (
    PipelineTrace,
    fk_det_zd,
    vn_dim_kernel_zd,
)
from .intpoly import squarefree_decomposition
from .laurent import (
    GroupRingMatrix,
    LaurentPolynomial,
    format_polynomial,
    matrix_from_json,
    matrix_to_json,
    parse_polynomial,
)
from .lehmer_scan import (
    VARIANTS,
    ScanReport,
    SearchSpace,
    constants_to_json,
    exact_constants,
    scan,
    survey_to_csv,
    torsion_bound_check,
    witness_value,
)
from .mahler import log_mahler_quadrature, mahler_jensen, roots_one_var
from .values import FKValue, MahlerValue, Radical

__all__ = [
    "DetSequence",
    "FKValue",
    "FiniteGroup",
    "FiniteGroupRingElement",
    "FiniteGroupRingMatrix",
    "GroupRingMatrix",
    "LaurentPolynomial",
    "MahlerValue",
    "PipelineTrace",
    "QuotientChain",
    "Radical",
    "ScanReport",
    "SearchSpace",
    "TraceCheck",
    "VARIANTS",
    "chain_range",
    "constants_to_json",
    "cyclic_norm",
    "det_sequence",
    "det_sequence_to_csv",
    "direct_product",
    "exact_constants",
    "fk_det_finite",
    "fk_det_kernel_finite",
    "fk_det_zd",
    "format_element",
    "format_polynomial",
    "induce",
    "log_mahler_quadrature",
    "mahler_jensen",
    "make_cyclic",
    "make_cyclic_product",
    "matrix_from_json",
    "matrix_to_json",
    "norm_bound",
    "norm_element",
    "parse_element",
    "parse_polynomial",
    "quotient_norm",
    "reduce_mod",
    "regular_rep",
    "restrict",
    "roots_one_var",
    "scan",
    "squarefree_decomposition",
    "survey_to_csv",
    "torsion_bound_check",
    "trace_element",
    "trace_match_check",
    "vn_dim_kernel_finite",
    "vn_dim_kernel_zd",
    "witness_value",
]
