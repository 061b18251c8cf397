"""Fuglede-Kadison determinants over Q[Z^d], reduced on the short side.

A rectangular matrix A acts on row vectors by right multiplication, and
det(A) = det(A*).  The reduction works on S, whichever of A and A* has no
more rows than columns, and stops at the first nonzero commutative
determinant:

    square S:  det(A) = M(det S)
    wide S:    det(A) = sqrt( M(det S S*) )

where M is the Mahler measure of a Laurent polynomial.  When that
determinant vanishes, A has rank k below the row count of S, and the
reduction measures the product of the nonzero eigenvalues of SS* instead,
e_k(SS*), the lowest nonzero coefficient c_low of its characteristic
polynomial (Lück 2002, ch. 3):

    rank-deficient A:  det(A) = sqrt( M(c_low) )

Berkowitz's division-free scheme computes that polynomial over the
Laurent ring, as fk_finite does over the integers, and the index of
c_low is the kernel dimension of S.

M is ``mahler.mahler_measure``, which picks the route from the method
name: exact roots in one variable, and in several Jensen's formula
fibrewise over a torus grid, or torus quadrature when the call asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .exact_linalg import charpoly_berkowitz, eliminate
from .laurent import (
    GroupRingMatrix,
    LaurentPolynomial,
    format_polynomial,
    matrix_to_json,
)
from .mahler import MahlerValue, mahler_measure
from .values import FKValue


@dataclass(frozen=True)
class PipelineTrace:
    """Every intermediate of one determinant computation.

    ``side`` says which matrix S was reduced: "matrix" (A itself) or
    "adjoint" (A*, when A has more rows than columns).  ``route`` says
    where the reduction stopped: "det" (D1 = S), "gram" (D1 = SS*) or
    "charpoly" (D1 = SS*, singular).  ``detD1`` is det D1, or on the
    charpoly route the lowest nonzero coefficient of D1's characteristic
    polynomial.  ``q`` is the kernel dimension of A, not of S.
    """

    matrix: GroupRingMatrix
    side: str
    route: str
    q: int
    D1: GroupRingMatrix
    detD1: LaurentPolynomial
    detD1_measure: MahlerValue
    value: FKValue

    def as_json(self) -> dict:
        return {
            "matrix": matrix_to_json(self.matrix),
            "side": self.side,
            "route": self.route,
            "q": self.q,
            "D1": matrix_to_json(self.D1),
            "detD1": format_polynomial(self.detD1),
            "detD1_measure": self.detD1_measure.as_json(),
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
) -> PipelineTrace:
    """Determinant of right multiplication by a matrix over Q[Z^d].

    Returns the full trace; the number itself is ``trace.value``.  The zero
    matrix gives 1 (every characteristic coefficient of SS* = 0 below the
    leading 1 vanishes).  ``measure_method`` and ``grid_size`` go to
    mahler_measure.
    """
    side = "matrix" if a.rows <= a.cols else "adjoint"
    s = a if side == "matrix" else a.adjoint()
    # the rows A has over S lie in A's kernel
    q = a.rows - s.rows
    if s.rows == s.cols:
        route, d1 = "det", s
    else:
        route, d1 = "gram", s @ s.adjoint()
    det_d1 = d1.det()
    if det_d1.is_zero():
        # S of rank k over the fraction field: the product of the nonzero
        # eigenvalues of SS* is e_k(SS*), up to sign the coefficient of
        # t^(rows - k) in its characteristic polynomial, the lowest nonzero
        if route == "det":
            d1 = s @ s.adjoint()
        route = "charpoly"
        coeffs = charpoly_berkowitz(d1.entries)
        low = next(i for i, c in enumerate(coeffs) if c)
        q += low
        # the leading coefficient is the int 1
        det_d1 = coeffs[low] if low < d1.rows else LaurentPolynomial.one(a.rank)
    m1 = mahler_measure(det_d1, measure_method, grid_size=grid_size)
    if route == "det":
        value, error = m1.value, m1.error_estimate
    else:
        value = math.sqrt(m1.value)
        error = 0.5 * value * (m1.error_estimate / m1.value)
    return PipelineTrace(
        matrix=a,
        side=side,
        route=route,
        q=q,
        D1=d1,
        detD1=det_d1,
        detD1_measure=m1,
        value=FKValue(value, m1.method, error),
    )
