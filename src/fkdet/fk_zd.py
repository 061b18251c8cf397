"""Fuglede-Kadison determinants over Q[Z^d], reduced on the short side.

A rectangular matrix A acts on row vectors by right multiplication, and
det(A) = det(A*).  The reduction works on S, whichever of A and A* has no
more rows than columns, and stops at the first nonzero commutative
determinant:

    square S:  det(A) = M(det S)
    wide S:    det(A) = sqrt( M(det S S*) )

where M is the Mahler measure of a Laurent polynomial.  Only when that
determinant vanishes (A rank-deficient) is a basis B of the left kernel of
S built over the fraction field; then D1 = B*B + SS* and D2 = BB* both have
nonzero determinants, and

    det(A) = sqrt( M(det D1) / M(det D2) ).

One variable uses exact roots and Jensen's formula.  More variables use
Jensen's formula fibrewise over a torus grid by default, or torus
quadrature or the iterated one-variable specialization limit when the call
asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .exact_linalg import eliminate
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
    """Every intermediate of one determinant computation.

    ``side`` says which matrix S was reduced: "matrix" (A itself) or
    "adjoint" (A*, when A has more rows than columns).  ``route`` says
    where the reduction stopped: "det" (D1 = S), "gram" (D1 = SS*) or
    "kernel" (D1 = B*B + SS*, D2 = BB*).  Outside the kernel route B has no
    rows and D2 is the empty matrix.  ``q`` is the kernel dimension of A,
    not of S.
    """

    matrix: GroupRingMatrix
    side: str
    route: str
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
            "side": self.side,
            "route": self.route,
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
    fraction field, from one elimination that builds no basis.  Over Z^d
    this integer is the von Neumann dimension."""
    rank, _ = eliminate([list(row) for row in a.entries])
    return a.rows - rank


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
    ``grid_size`` feeds quadrature and ``kernel_variant`` the kernel route.
    One variable always takes exact roots; the method only selects among
    the multivariate schemes.
    """
    method = resolve_method(measure_method)
    if a.rank == 1:
        method = "jensen"
    side = "matrix" if a.rows <= a.cols else "adjoint"
    s = a if side == "matrix" else a.adjoint()
    # S has full row rank unless the kernel route runs; the rows A has over
    # S are then exactly A's kernel
    q = a.rows - s.rows
    # B and D2 of the kernel route; on the others B has no rows and
    # D2 is the empty matrix, whose determinant is 1
    b = GroupRingMatrix.zero(0, s.rows, a.rank)
    d2 = GroupRingMatrix.zero(0, 0, a.rank)
    det_d2 = LaurentPolynomial.one(a.rank)
    if s.rows == s.cols:
        route, d1 = "det", s
    else:
        route, d1 = "gram", s @ s.adjoint()
    det_d1 = d1.det()
    if det_d1.is_zero():
        route = "kernel"
        q_s, b = s.kernel_basis(kernel_variant)
        q += q_s
        d1 = b.adjoint() @ b + s @ s.adjoint()
        d2 = b @ b.adjoint()
        det_d1 = d1.det()
        det_d2 = d2.det()
        if det_d1.is_zero() or det_d2.is_zero():
            which = "D1" if det_d1.is_zero() else "D2"
            raise PipelineError(
                f"det {which} vanished after a successful kernel computation",
                {
                    "matrix": matrix_to_json(a),
                    "side": side,
                    "q": q,
                    "B": matrix_to_json(b),
                    "D1": matrix_to_json(d1),
                    "D2": matrix_to_json(d2),
                    "detD1": format_polynomial(det_d1),
                    "detD2": format_polynomial(det_d2),
                },
            )
    m1 = mahler_measure(det_d1, method, grid_size=grid_size)
    if route == "kernel":
        m2 = mahler_measure(det_d2, method, grid_size=grid_size)
    else:
        # empty determinant: M(det of the 0x0 matrix) is exactly 1
        m2 = MahlerValue(1.0, 0.0, m1.method, 0.0)
    if route == "det":
        value, error = m1.value, m1.error_estimate
    else:
        value = math.sqrt(m1.value / m2.value)
        error = 0.5 * value * (
            m1.error_estimate / m1.value + m2.error_estimate / m2.value
        )
    return PipelineTrace(
        matrix=a,
        side=side,
        route=route,
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
