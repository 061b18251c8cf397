"""Shared builders for the test modules."""

from fractions import Fraction
import functools
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np

import fkdet.fk_finite as fk_finite
from fkdet.exact_linalg import charpoly_berkowitz, det_exact
from fkdet.fk_finite import FiniteGroup
from fkdet.intpoly import (
    cyclotomic,
    div_exact,
    primitive,
    pseudo_rem,
    squarefree_decomposition,
    totient,
    trim,
)
from fkdet.laurent import GroupRingMatrix, LaurentPolynomial, parse_polynomial
from fkdet.mahler import (
    SMYTH_THETA0,
    UNIT_BAND,
    _strip_monomial,
    face_lines,
    line_bounds,
    mahler_measure,
    pad_lines,
    screen_lines,
)


def load_tracing():
    """bench/tracing.py as a module: the tables of the names it patches."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mat(texts, rank=1):
    """A matrix over Q[Z^rank] from rows of polynomial texts."""
    return GroupRingMatrix(
        [[parse_polynomial(t, rank=rank) for t in row] for row in texts], rank=rank
    )


def rand_poly(rng, rank=1, bound=2, max_exp=3):
    """One to three terms with exponents in 0..max_exp and coefficients in
    -bound..bound: the generator of acceptance criterion 8."""
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in range(rank))
        terms[e] = terms.get(e, 0) + rng.randrange(-bound, bound + 1)
    return LaurentPolynomial(rank, terms)


def oracle_sum(p, q, sign=1):
    """p + sign * q, term by term through the validating constructor."""
    terms = dict(p.terms)
    for e, c in q.terms.items():
        tot = terms.get(e, 0) + sign * c
        if tot:
            terms[e] = tot
        else:
            terms.pop(e, None)
    return LaurentPolynomial(p.rank, terms)


def oracle_product(p, q):
    """The convolution p * q through the validating constructor."""
    terms = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            tot = terms.get(e, 0) + ca * cb
            if tot:
                terms[e] = tot
            else:
                terms.pop(e, None)
    return LaurentPolynomial(p.rank, terms)


def oracle_matmul(a, b):
    """a @ b as one polynomial per partial sum: acc = acc + a_ik * b_kj."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = LaurentPolynomial.zero(a.rank)
            for k in range(a.cols):
                acc = oracle_sum(acc, oracle_product(a[i, k], b[k, j]))
            row.append(acc)
        out.append(row)
    return GroupRingMatrix(out, rank=a.rank)


def oracle_det(rows, rank):
    """Determinant of a square list of rows by expansion along the first
    row, any size, with oracle_sum and oracle_product."""
    if len(rows) == 1:
        return rows[0][0]
    acc = LaurentPolynomial.zero(rank)
    for j, p in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        acc = oracle_sum(acc, oracle_product(p, oracle_det(minor, rank)), (-1) ** j)
    return acc


def symmetric_group_3() -> FiniteGroup:
    """S3 on the permutations of 0, 1, 2 in lexicographic order; (a*b)(i)
    is a(b(i)), and the group is not abelian."""
    perms = list(itertools.permutations(range(3)))
    table = [
        [perms.index(tuple(a[b[i]] for i in range(3))) for b in perms]
        for a in perms
    ]
    return FiniteGroup(table, 0)


def check_gram_route_against_berkowitz(monkeypatch) -> list:
    """Make every Gram route of fk_finite assert that its pivot-minor
    product equals, up to sign, the lowest nonzero coefficient of the Gram
    matrix's characteristic polynomial (Berkowitz); returns the list of
    the products it checked."""
    product = fk_finite._nonzero_eigen_product
    seen = []

    def checked(gram):
        q = product(gram)
        assert abs(q) == abs(next(c for c in charpoly_berkowitz(gram) if c))
        seen.append(q)
        return q

    monkeypatch.setattr(fk_finite, "_nonzero_eigen_product", checked)
    return seen


def kernel_reduction_on_a(a, variant="canonical"):
    """(value, error estimate) of Lück's kernel reduction on A itself:
    sqrt(M(det D1) / M(det D2)) with D1 = B*B + AA* and D2 = BB*, where
    the rows of B are a basis of the left kernel of A."""
    q, b = a.kernel_basis(variant)
    m1 = mahler_measure((b.adjoint() @ b + a @ a.adjoint()).det())
    m2 = mahler_measure((b @ b.adjoint()).det())
    value = math.sqrt(m1.value / m2.value)
    rel = m1.error_estimate / m1.value + m2.error_estimate / m2.value
    return value, 0.5 * value * rel


def np_roots_reference(factor):
    """(roots, residual) of a square-free integer polynomial, ascending with
    a nonzero constant term, by np.roots and three Newton steps through
    np.polyval and np.polyder: one polynomial at a time, independently of
    the stacked companion kernel."""
    desc = np.array([float(x) for x in factor[::-1]], dtype=np.complex128)
    roots = np.roots(desc)
    dd = np.polyder(desc)
    for _ in range(3):
        vals, dvals = np.polyval(desc, roots), np.polyval(dd, roots)
        dvals = np.where(dvals == 0, 1e-300, dvals)
        step = vals / dvals
        roots = roots - step
    return roots, float(np.max(np.abs(step)))


def np_jensen_reference(coeffs):
    """(value, log value, error estimate) of the Mahler measure of a nonzero
    integer polynomial, ascending coefficients: the exact square-free split,
    np_roots_reference on each factor, and the Jensen sum over the roots in
    factor order; exactly |c| when no root lies outside the circle."""
    c = list(coeffs)
    while c[-1] == 0:
        c.pop()
    while c[0] == 0:
        c.pop(0)
    roots, residual = [], 0.0
    for factor, mult in squarefree_decomposition(c):
        found, res = np_roots_reference(factor)
        residual = max(residual, res)
        for r in found:
            roots.extend([complex(r)] * mult)
    log_m = math.log(abs(float(c[-1])))
    outside = [abs(a) for a in roots if abs(a) > 1.0 + UNIT_BAND]
    for m in outside:
        log_m += math.log(m)
    value = math.exp(log_m) if outside else abs(float(c[-1]))
    return value, log_m, value * (residual * max(1, len(roots)) + 1e-15)


@functools.cache
def cyclotomic_reference(d):
    """Phi_d, ascending: t^d - 1 divided by Phi_e for every proper divisor
    e, by schoolbook long division by monic polynomials."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e:
            continue
        phi = cyclotomic_reference(e)
        q = [0] * (len(p) - len(phi) + 1)
        for k in range(len(q) - 1, -1, -1):
            q[k] = p[k + len(phi) - 1]
            for i, c in enumerate(phi):
                p[k + i] -= q[k] * c
        assert not any(p)
        p = q
    return tuple(p)


def _is_reciprocal(c: list) -> bool:
    """c_i = e * c_(deg - i) for one sign e."""
    rev = c[::-1]
    return c == rev or c == [-x for x in rev]


def screen_row(coeffs) -> tuple:
    """(exact_one, bound) of mahler.screen_lines on the one row of a nonzero
    integer polynomial, z**k dropped: whether it is +-z**k times a product
    of cyclotomic polynomials, and a lower bound for its Mahler measure."""
    c = _strip_monomial(coeffs)
    if not c:
        return False, 0.0
    exact_one, bound = screen_lines(pad_lines([c], len(c)))
    return bool(exact_one[0]), float(bound[0])


def face_bound(terms: dict) -> float:
    """The largest mahler.line_bounds of the face_lines of a nonzero integer
    Laurent polynomial, given as {exponents: coeff}: a lower bound for its
    Mahler measure."""
    lines = face_lines(terms)
    return float(line_bounds(pad_lines(lines, max(map(len, lines))))[0].max())


def measure_bound_reference(coeffs) -> float:
    """The screen_row bound in scalar arithmetic: max(|lead|, |p(0)|)
    once z**k is dropped, raised to SMYTH_THETA0 off the polynomials that
    are reciprocal up to sign."""
    c = _strip_monomial(coeffs)
    bound = max(abs(c[0]), abs(c[-1]))
    if not _is_reciprocal(c):
        bound = max(bound, SMYTH_THETA0)
    return float(bound)


@functools.cache
def cyclotomic_orders(degree: int) -> tuple:
    """Every n with phi(n) <= degree, by the definition: phi(n) >= sqrt(n/2)
    bounds the search by 2 degree^2 + 2."""
    return tuple(n for n in range(1, 2 * degree * degree + 3) if totient(n) <= degree)


def cyclotomic_product_oracle(coeffs) -> bool:
    """Whether the integer polynomial is +-z**k times a product of
    cyclotomic polynomials, by trial division by every Phi_n with
    phi(n) <= degree: the reference for the exact_one of screen_row."""
    c = _strip_monomial(coeffs)
    if not c or abs(c[0]) != 1 or abs(c[-1]) != 1 or not _is_reciprocal(c):
        return False
    for n in cyclotomic_orders(len(c) - 1):
        phi = cyclotomic(n)
        while len(phi) <= len(c):
            try:
                c = div_exact(c, phi)
            except ValueError:
                break
    return len(c) == 1


def primitive_prs_gcd(a, b):
    """The primitive gcd of two integer polynomials, leading coefficient
    positive, by the primitive remainder sequence: each pseudo-remainder
    is divided by its content.  The reference for intpoly.gcd, which takes
    the subresultant sequence instead."""
    a = primitive(trim(list(a)))
    b = primitive(trim(list(b)))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = primitive(trim(pseudo_rem(a, 1, b)[0]))
        a, b = b, r
    return a


@functools.cache
@functools.cache
def sylvester_resultant(a, b):
    """Res(a, b) of two integer polynomials, ascending tuples with nonzero
    leading coefficients, not both constant: the determinant of their
    Sylvester matrix.  Cached, since class_product_norm takes the same
    class products for every order a divisor d divides."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + list(a[::-1]) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(b[::-1]) + [0] * (m - 1 - i) for i in range(m)]
    return det_exact(rows)


def class_product_norm(coeffs, n):
    """(|prod p(zeta)| over the n-th roots of unity with p(zeta) != 0, and
    the number with p(zeta) = 0) for p given as {exponent: rational}: the
    product over d | n of the class products Res(Phi_d, p), one for the
    roots of order d, where a zero class holds phi(d) zero roots.  A
    reference for cyclic_norm that shares none of its code."""
    terms = {e: Fraction(c) for e, c in coeffs.items() if c}
    if not terms:
        return 1, n
    low = min(terms)
    scale = math.lcm(*(c.denominator for c in terms.values()))
    p = [0] * (max(terms) - low + 1)
    for e, c in terms.items():
        p[e - low] = int(c * scale)
    norm, zeros = 1, 0
    for d in range(1, n + 1):
        if n % d == 0:
            phi = cyclotomic_reference(d)
            value = sylvester_resultant(phi, tuple(p))
            if value:
                norm *= abs(value)
            else:
                zeros += len(phi) - 1
    norm = Fraction(norm, scale ** (n - zeros))
    return (norm.numerator if norm.denominator == 1 else norm), zeros


def _root_floor(n: int, k: int) -> int:
    """The largest x with x**k <= n, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def perfect_power_reference(n: int) -> tuple:
    """n >= 1 as m**k with k maximal: every k from the bit length of n down
    is tried by an exact bisection root.  A reference for
    values.perfect_power that shares none of its code."""
    for k in range(n.bit_length(), 1, -1):
        m = _root_floor(n, k)
        if m**k == n:
            return m, k
    return n, 1


def radical_reference(base: int, exponent) -> tuple:
    """(base, exponent) of the canonical Radical of base**exponent, by
    Fraction arithmetic on perfect_power_reference: a whole exponent goes
    into the base, else the base is not a proper power."""
    e = Fraction(exponent)
    if base == 1 or e == 0:
        return 1, Fraction(1)
    m, k = perfect_power_reference(base)
    e *= k
    if e.denominator == 1:
        return m**e.numerator, Fraction(1)
    return m, e


def orbit_greatest_reference(rows, images=(), box=None) -> np.ndarray:
    """Which rows A of an int array the scan's orbit filter keeps, one row
    at a time in Python tuples: the first nonzero entry of A is positive,
    and -A <= T <= A lexicographically for the row T of every image (an
    array shaped like ``rows``, row for row).  Given the exponent box of a
    space over Z^d, A must also be shifted down: its support reaches
    exponent 0 on every axis."""
    if box is not None:
        exps = list(itertools.product(*(range(b + 1) for b in box)))
    keep = []
    for r, row in enumerate(rows.tolist()):
        a = tuple(row)
        neg = tuple(-x for x in a)
        kept = next((x > 0 for x in a if x), False) and all(
            neg <= tuple(image[r].tolist()) <= a for image in images
        )
        if kept and box is not None:
            support = [exps[i % len(exps)] for i, x in enumerate(a) if x]
            kept = all(min(e[k] for e in support) == 0 for k in range(len(box)))
        keep.append(kept)
    return np.array(keep)
