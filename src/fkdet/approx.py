"""Determinant approximation along finite quotients Z^d -> Z/n_1 x ... x Z/n_d.

The harness reduces a matrix over Q[Z^d] modulo a chain of moduli tuples,
computes the Fuglede-Kadison determinant of every reduction exactly, and
compares the stages against the Z^d determinant.  The sub-approximation
inequality says the Z^d value dominates the limsup of the stage values; the
stronger convergence statement is open, so the harness only ever reports
convergence as evidence.

Two proof ingredients are exposed directly: trace matching (the trace of
p(A) agrees with the trace of p(A mod n) once the moduli outrun the support
of the powers of A) and a uniform operator-norm bound that covers the Z^d
operator and every finite reduction at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .fk_finite import (
    FiniteGroupRingElement,
    FiniteGroupRingMatrix,
    cyclic_stages,
    fk_det_finite,
    make_cyclic_product,
    takes_cyclic_norm,
)
from .fk_zd import fk_det_zd
from .laurent import GroupRingMatrix, LaurentPolynomial, matrix_to_json
from .values import FKValue

@dataclass(frozen=True)
class QuotientChain:
    """A schedule of moduli tuples, one Z/n_1 x ... x Z/n_d quotient each.

    Any positive moduli make a chain: the sub-approximation inequality needs
    no divisibility.  ``nested`` reports whether every tuple divides the next
    componentwise, which realizes an inverse system of subgroups with
    trivial intersection; the moduli decide it, not the caller.
    """

    rank: int
    moduli: tuple

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("chain rank must be at least 1")
        mods = tuple(tuple(int(n) for n in t) for t in self.moduli)
        object.__setattr__(self, "moduli", mods)
        for t in mods:
            if len(t) != self.rank:
                raise ValueError(f"moduli tuple {t} does not have rank {self.rank}")
            if any(n < 1 for n in t):
                raise ValueError(f"moduli must be positive: {t}")

    @property
    def nested(self) -> bool:
        return not any(
            c % p
            for prev, cur in zip(self.moduli, self.moduli[1:])
            for p, c in zip(prev, cur)
        )

    def orders(self) -> tuple:
        return tuple(math.prod(t) for t in self.moduli)

    def as_json(self) -> dict:
        return {
            "rank": self.rank,
            "moduli": [list(t) for t in self.moduli],
            "nested": self.nested,
        }


def chain_range(rank: int, lo: int, hi: int) -> QuotientChain:
    """Uniform moduli lo, lo+1, ..., hi."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    return QuotientChain(rank, tuple((n,) * rank for n in range(lo, hi + 1)))


def _mixed_radix_index(exps, moduli) -> int:
    idx = 0
    for e, n in zip(exps, moduli):
        idx = idx * n + (e % n)
    return idx


def _reduce_poly(p: LaurentPolynomial, group, moduli) -> FiniteGroupRingElement:
    coeffs = [0] * group.order
    for exps, c in p.terms.items():
        if c.denominator == 1:
            c = c.numerator
        coeffs[_mixed_radix_index(exps, moduli)] += c
    return FiniteGroupRingElement(group, coeffs)


def reduce_mod(a, moduli):
    """Reduce exponents componentwise mod the tuple; collapsing monomials sum.

    A polynomial reduces to a group ring element, a matrix to a matrix, both
    over the product cyclic group of the moduli.
    """
    moduli = tuple(int(n) for n in moduli)
    if not moduli:
        raise ValueError("need at least one modulus")
    if any(n < 1 for n in moduli):
        raise ValueError(f"moduli must be positive: {moduli}")
    if isinstance(a, LaurentPolynomial):
        if a.rank != len(moduli):
            raise ValueError(f"rank {a.rank} input with {len(moduli)} moduli")
        return _reduce_poly(a, make_cyclic_product(moduli), moduli)
    if not isinstance(a, GroupRingMatrix):
        raise ValueError("expected a LaurentPolynomial or GroupRingMatrix")
    if a.rank != len(moduli):
        raise ValueError(f"rank {a.rank} matrix with {len(moduli)} moduli")
    group = make_cyclic_product(moduli)
    rows = [[_reduce_poly(p, group, moduli) for p in row] for row in a.entries]
    if not rows:
        return FiniteGroupRingMatrix.zero(group, 0, a.cols)
    return FiniteGroupRingMatrix(group, rows)


def trace_element(x) -> Fraction:
    """The von Neumann trace: the coefficient of the identity element."""
    if isinstance(x, FiniteGroupRingElement):
        return Fraction(x.identity_coefficient())
    if isinstance(x, LaurentPolynomial):
        return x.constant_coefficient()
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise ValueError("expected a group ring element, polynomial, or rational")


def _trace_matrix(m) -> Fraction:
    diag = (m.entries[i][i] for i in range(m.rows))
    return sum((trace_element(x) for x in diag), Fraction(0))


def _matrix_powers(a, degree: int) -> list:
    powers = [a]
    for _ in range(degree - 1):
        powers.append(powers[-1] @ a)
    return powers


@dataclass(frozen=True)
class TraceCheck:
    """Trace comparison of the powers A^m, m <= degree, against a quotient."""

    moduli: tuple
    degree: int
    ok: bool
    traces_zd: tuple
    traces_quotient: tuple
    sufficient: tuple
    least_multiple: tuple

    def as_json(self) -> dict:
        return {
            "moduli": list(self.moduli),
            "degree": self.degree,
            "ok": self.ok,
            "traces_zd": [str(t) for t in self.traces_zd],
            "traces_quotient": [str(t) for t in self.traces_quotient],
            "sufficient": list(self.sufficient),
            "least_multiple": list(self.least_multiple),
        }


def trace_match_check(a: GroupRingMatrix, degree: int, moduli) -> TraceCheck:
    """Compare traces of A^m (m <= degree) over Z^d and over a quotient.

    The boolean answers the given moduli tuple.  The details carry both
    trace lists, the per-axis sufficient tuple 2*spread + 1 (spread = the
    largest exponent magnitude over the computed powers; past it no nonzero
    exponent can collapse to the identity), and the least integer multiple
    of the given tuple at which every power matches.
    """
    if a.rows != a.cols:
        raise ValueError("trace comparison needs a square matrix")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    moduli = tuple(int(n) for n in moduli)
    if len(moduli) != a.rank or any(n < 1 for n in moduli):
        raise ValueError(f"bad moduli {moduli} for a rank {a.rank} matrix")

    powers = _matrix_powers(a, degree)
    traces_zd = tuple(_trace_matrix(p) for p in powers)

    def quotient_traces(mods: tuple) -> tuple:
        b = reduce_mod(a, mods)
        return tuple(_trace_matrix(p) for p in _matrix_powers(b, degree))

    traces_quotient = quotient_traces(moduli)
    ok = traces_quotient == traces_zd

    spread = [0] * a.rank
    for p in powers:
        for row in p.entries:
            for entry in row:
                for axis in range(a.rank):
                    bound = entry.support_bound(axis + 1)
                    if bound > spread[axis]:
                        spread[axis] = bound
    sufficient = tuple(2 * s + 1 for s in spread)

    least = None
    k_max = max(-(-s // n) for s, n in zip(sufficient, moduli))
    for k in range(1, k_max + 1):
        mods_k = tuple(k * n for n in moduli)
        if quotient_traces(mods_k) == traces_zd:
            least = mods_k
            break
    if least is None:
        raise AssertionError("no matching multiple below the sufficient bound")
    return TraceCheck(
        moduli=moduli,
        degree=degree,
        ok=ok,
        traces_zd=traces_zd,
        traces_quotient=traces_quotient,
        sufficient=sufficient,
        least_multiple=least,
    )


def _one_norm(entry) -> Fraction:
    if isinstance(entry, LaurentPolynomial):
        return entry.one_norm()
    return sum((abs(c) for c in entry.coeffs), Fraction(0))


def norm_bound(a) -> float:
    """A certified upper bound for the operator norm of right multiplication.

    sqrt((2r-1)*r) times the largest entry 1-norm, r = max(rows, cols); the
    same number bounds every finite reduction of a Z^d matrix, since
    reduction can only merge coefficients and 1-norms never grow.
    """
    if not isinstance(a, (GroupRingMatrix, FiniteGroupRingMatrix)):
        raise ValueError("expected a matrix over Z^d or over a finite group")
    if a.rows == 0 or a.cols == 0:
        return 0.0
    r = max(a.rows, a.cols)
    biggest = max(_one_norm(entry) for row in a.entries for entry in row)
    return math.sqrt((2 * r - 1) * r) * float(biggest)


@dataclass(frozen=True)
class DetSequence:
    """Stage determinants along a chain next to the Z^d reference value.

    ``limsup_ok`` is the reported inequality check: the largest computed
    stage value is at most the reference plus the combined tolerance.  Stage
    sequences that approach the reference from above (cyclotomic one-variable
    inputs do) fail it at every finite stage even though the limsup statement
    itself holds; ``approaching`` separately records the convergence
    evidence, which is never a proof.
    """

    chain: QuotientChain
    matrix: GroupRingMatrix
    values: tuple
    limit_reference: FKValue
    tolerance: float
    limsup_ok: bool
    approaching: bool

    def as_json(self) -> dict:
        return {
            "chain": self.chain.as_json(),
            "matrix": matrix_to_json(self.matrix),
            "stages": [
                {"moduli": list(mods), "order": order, "value": v.as_json()}
                for mods, order, v in zip(
                    self.chain.moduli, self.chain.orders(), self.values
                )
            ],
            "limit_reference": self.limit_reference.as_json(),
            "tolerance": self.tolerance,
            "limsup_ok": self.limsup_ok,
            "convergence": {
                "label": "evidence",
                "approaching": self.approaching,
                "final_gap": abs(self.values[-1].value - self.limit_reference.value),
            },
        }


def det_sequence(
    a: GroupRingMatrix,
    chain: QuotientChain,
    *,
    tolerance: float = 1e-6,
    measure_method: str = "auto",
    max_stage_order: int = 20000,
) -> DetSequence:
    """Determinants of the reductions of ``a`` along a chain of quotients.

    Every stage is exact (finite groups); the reference is the Z^d value.
    A matrix with one row or one column is measured at every rank by
    cyclic_stages straight from its Laurent entries, as exact integer norms
    over the characters of each quotient (quotient_norm), with no
    reduction, no group table and no regular representation; the stages
    share one cyclic_norm pass at rank 1 and the class products above it.
    Any other shape takes regular_rep.
    Stages exceeding ``max_stage_order`` group elements, or whose regular
    representation is over REP_MAX_DIM (see takes_cyclic_norm), are
    refused before any stage runs rather than silently taking hours.  A
    ``tolerance`` that is negative or not finite is refused too.
    """
    if a.rank != chain.rank:
        raise ValueError(f"rank {a.rank} matrix with a rank {chain.rank} chain")
    if not chain.moduli:
        raise ValueError("empty quotient chain")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    shape = (a.rows, a.cols)
    for mods, order in zip(chain.moduli, chain.orders()):
        if order > max_stage_order:
            raise ValueError(
                f"stage {mods} has group order {order}, over the budget "
                f"{max_stage_order}"
            )
        # every stage is a product of cyclic groups, whose characters the
        # norm engine knows
        norms = takes_cyclic_norm(shape, order, lambda: True)

    # the reference first: a Z^d measure over its budget refuses at once
    reference = fk_det_zd(a, measure_method).value
    if norms:
        # one row or column: the stages are norms of one element
        entries = [p.terms for row in a.entries for p in row]
        values = tuple(v for v, _ in cyclic_stages(entries, a.rows, chain.moduli))
    else:
        values = tuple(fk_det_finite(reduce_mod(a, mods)) for mods in chain.moduli)

    combined = tolerance + reference.error_estimate + max(
        v.error_estimate for v in values
    )
    top = max(v.value for v in values)
    limsup_ok = top <= reference.value + combined
    gaps = [abs(v.value - reference.value) for v in values]
    approaching = gaps[-1] <= gaps[0] + combined
    return DetSequence(
        chain=chain,
        matrix=a,
        values=values,
        limit_reference=reference,
        tolerance=tolerance,
        limsup_ok=limsup_ok,
        approaching=approaching,
    )


def det_sequence_to_csv(seq: DetSequence) -> str:
    """Two columns: stage group order, stage determinant value."""
    lines = ["n,value"]
    for order, v in zip(seq.chain.orders(), seq.values):
        lines.append(f"{order},{v.value!r}")
    return "\n".join(lines) + "\n"
