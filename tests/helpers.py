"""Shared builders for the test modules."""

import itertools
import math

import fkdet.fk_finite as fk_finite
from fkdet.exact_linalg import charpoly_berkowitz
from fkdet.fk_finite import FiniteGroup
from fkdet.laurent import GroupRingMatrix, LaurentPolynomial, parse_polynomial
from fkdet.mahler import mahler_measure


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
