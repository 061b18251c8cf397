"""The exact integer-polynomial kernel: one subresultant sequence for the
gcd and the resultant, against the primitive remainder sequence and the
Sylvester determinant."""

import random

import pytest

from fkdet.intpoly import (
    divisors,
    gcd,
    is_prime,
    poly_mul,
    primes_below,
    resultant,
    trim,
    word_prime,
)

from helpers import primitive_prs_gcd, sylvester_resultant


def _rand(rng, degree, bound=3):
    """A random integer polynomial of the given degree, its lead any
    nonzero value in -bound..bound, so most are not monic."""
    lead = rng.choice([c for c in range(-bound, bound + 1) if c])
    return [rng.randint(-bound, bound) for _ in range(degree)] + [lead]


def _pairs(rng, count):
    """Pairs (a, b) sharing a random factor of degree 0 to 4, with
    cofactors of degree 0 to 7 drawn apart, so degree gaps of 2 or more are
    common; about one pair in 20 has a zero side and one in 20 a constant
    side."""
    out = []
    for _ in range(count):
        shared = _rand(rng, rng.randint(0, 4))
        a = poly_mul(shared, _rand(rng, rng.randint(0, 7)))
        b = poly_mul(shared, _rand(rng, rng.randint(0, 3)))
        kind = rng.randrange(20)
        if kind == 0:
            a = []
        elif kind == 1:
            b = [rng.choice([-4, -2, 1, 3])]
        if rng.random() < 0.5:
            a, b = b, a
        out.append((trim(a), trim(b)))
    return out


def test_gcd_and_resultant_match_the_references():
    pairs = _pairs(random.Random(26), 2400)
    kinds = {"zero": 0, "constant": 0, "non-monic": 0, "gap": 0, "shared": 0}
    for a, b in pairs:
        g = gcd(a, b)
        assert g == primitive_prs_gcd(a, b), (a, b)
        assert gcd(b, a) == g
        if not a or not b:
            kinds["zero"] += 1
            assert resultant(a, b) == 0
            continue
        kinds["constant"] += min(len(a), len(b)) == 1
        kinds["non-monic"] += abs(a[-1]) != 1 and abs(b[-1]) != 1
        kinds["gap"] += abs(len(a) - len(b)) >= 2
        kinds["shared"] += len(g) > 1
        if len(a) == len(b) == 1:
            assert resultant(a, b) == 1
            continue
        want = abs(sylvester_resultant(tuple(a), tuple(b)))
        assert resultant(a, b) == resultant(b, a) == want, (a, b)
        # Res(a, b) is 0 exactly when a and b have a common root
        assert (want == 0) == (len(g) > 1)
    assert min(kinds.values()) >= 100, kinds


def test_gcd_edge_cases():
    assert gcd([], []) == []
    assert gcd([], [0, -2, 4]) == [0, -1, 2]
    assert gcd([4, 0, 0], []) == [1]
    assert gcd([6], [0, 0, 3]) == [1]
    # (2z + 1)(z - 3) and (2z + 1)(z^2 + 1), signs and content dropped
    assert gcd([-6, -10, 4], [-2, -4, -2, -4]) == [1, 2]


@pytest.mark.parametrize("n", [1, 2, 12, 36, 97, 360])
def test_divisors_are_sorted_and_complete(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_primes():
    assert primes_below(64) == tuple(q for q in range(64) if is_prime(q))
    assert word_prime(0) == 2**31 - 1
    assert word_prime(1) == 2**31 - 19
    assert all(is_prime(word_prime(i)) for i in range(4))
