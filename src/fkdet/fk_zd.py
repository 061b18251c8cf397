"""Fuglede-Kadison determinants of matrices over Q[Z^d] by kernel reduction.

A rectangular matrix A acts on row vectors by right multiplication.  With B
a basis of the left kernel over the fraction field (q = rows - rank), the
square matrices D1 = B*B + AA* and D2 = BB* both have nonzero commutative
determinants, and

    det(A) = sqrt( M(det D1) / M(det D2) )

where M is the Mahler measure of a Laurent polynomial.  One variable uses
exact roots and Jensen's formula.  More variables use Jensen's formula
fibrewise over a torus grid by default, or torus quadrature or the iterated
one-variable specialization limit when the call asks for them.  Injective A
has an empty kernel and the D2 factor degenerates to the empty determinant 1.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .laurent import (
    GroupRingMatrix,
    LaurentPolynomial,
    format_polynomial,
    matrix_to_json,
)
from .mahler import MahlerValue, mahler_measure, resolve_method
from .values import FKValue


class PipelineError(RuntimeError):
    """An internal quantity violated an invariant the reduction guarantees.

    Carries the partial computation in ``details`` for audit; seeing this
    means an arithmetic bug, not a bad input.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


@dataclass(frozen=True)
class PipelineTrace:
    """Every intermediate of one kernel-reduction determinant computation."""

    matrix: GroupRingMatrix
    q: int
    B: GroupRingMatrix
    D1: GroupRingMatrix
    D2: GroupRingMatrix
    detD1: LaurentPolynomial
    detD2: LaurentPolynomial
    detD1_measure: MahlerValue
    detD2_measure: MahlerValue
    value: FKValue

    def as_json(self) -> dict:
        return {
            "matrix": matrix_to_json(self.matrix),
            "q": self.q,
            "B": matrix_to_json(self.B),
            "D1": matrix_to_json(self.D1),
            "D2": matrix_to_json(self.D2),
            "detD1": format_polynomial(self.detD1),
            "detD2": format_polynomial(self.detD2),
            "detD1_measure": self.detD1_measure.as_json(),
            "detD2_measure": self.detD2_measure.as_json(),
            "value": self.value.as_json(),
        }


def vn_dim_kernel_zd(a: GroupRingMatrix) -> int:
    """Kernel dimension of right multiplication: rows - rank over the
    fraction field.  Over Z^d this integer is the von Neumann dimension."""
    q, _ = a.kernel_basis()
    return q


def fk_det_zd(
    a: GroupRingMatrix,
    measure_method: str = "auto",
    *,
    grid_size: int = 256,
    kernel_variant: str = "canonical",
) -> PipelineTrace:
    """Determinant of right multiplication by a matrix over Q[Z^d].

    Returns the full trace; the number itself is ``trace.value``.  The zero
    matrix gives 1 (its kernel basis is the identity, so D1 = D2).
    ``grid_size`` feeds quadrature.  One variable always takes exact roots;
    the method only selects among the multivariate schemes.
    """
    method = resolve_method(measure_method)
    if a.rank == 1:
        method = "jensen"
    q, b = a.kernel_basis(kernel_variant)
    d1 = b.adjoint() @ b + a @ a.adjoint()
    d2 = b @ b.adjoint()
    det_d1 = d1.det()
    det_d2 = d2.det()
    if det_d1.is_zero() or det_d2.is_zero():
        which = "D1" if det_d1.is_zero() else "D2"
        raise PipelineError(
            f"det {which} vanished after a successful kernel computation",
            {
                "matrix": matrix_to_json(a),
                "q": q,
                "B": matrix_to_json(b),
                "D1": matrix_to_json(d1),
                "D2": matrix_to_json(d2),
                "detD1": format_polynomial(det_d1),
                "detD2": format_polynomial(det_d2),
            },
        )
    m1 = mahler_measure(det_d1, method, grid_size=grid_size)
    if q == 0:
        # empty determinant: M(det of the 0x0 matrix) is exactly 1
        m2 = MahlerValue(1.0, 0.0, m1.method, 0.0)
    else:
        m2 = mahler_measure(det_d2, method, grid_size=grid_size)
    value = math.sqrt(m1.value / m2.value)
    error = 0.5 * value * (
        m1.error_estimate / m1.value + m2.error_estimate / m2.value
    )
    return PipelineTrace(
        matrix=a,
        q=q,
        B=b,
        D1=d1,
        D2=d2,
        detD1=det_d1,
        detD2=det_d2,
        detD1_measure=m1,
        detD2_measure=m2,
        value=FKValue(value, m1.method, error),
    )
