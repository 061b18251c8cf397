"""The exact integer-polynomial kernel: one subresultant sequence for the
gcd and the resultant, against the primitive remainder sequence and the
Sylvester determinant; the resultants of cyclotomic polynomials in closed
form against that sequence; and the power sums of the roots against
np.roots."""

import random

import numpy as np
import pytest

from fkdet.intpoly import (
    cyclotomic,
    cyclotomic_resultant,
    divisors,
    gcd,
    is_prime,
    poly_mul,
    primes_below,
    resultant,
    scaled_power_sums,
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


def test_cyclotomic_resultant_is_the_resultant_of_the_cyclotomic_polynomials():
    # Apostol's closed form against the subresultant sequence, every pair
    # e != d up to 150
    for d in range(2, 151):
        phi = list(cyclotomic(d))
        for e in range(1, d):
            want = resultant(list(cyclotomic(e)), phi)
            assert cyclotomic_resultant(e, d) == cyclotomic_resultant(d, e) == want, (e, d)


@pytest.mark.parametrize(
    "coeffs, sums",
    [
        # z^2 - z - 1: the Lucas numbers
        ([-1, -1, 1], [2, 1, 3, 4, 7, 11, 18, 29, 47]),
        # (2z - 1)(z - 1): the roots 1/2 and 1, scaled by 2 to 1 and 2
        ([1, -3, 2], [2, 3, 5, 9, 17, 33, 65, 129, 257]),
        # 3z + 2: the root -2/3, scaled to -2
        ([2, 3], [1, -2, 4, -8, 16, -32, 64, -128, 256]),
        # z^3 - 2: the powers of the roots cancel unless 3 | j
        ([-2, 0, 0, 1], [3, 0, 0, 6, 0, 0, 12, 0, 0]),
    ],
)
def test_scaled_power_sums_goldens(coeffs, sums):
    assert scaled_power_sums(coeffs, 8) == sums


def test_scaled_power_sums_match_the_roots():
    rng = random.Random(32)
    for _ in range(200):
        coeffs = _rand(rng, rng.randint(1, 8))
        while not coeffs[0]:
            coeffs[0] = rng.randint(-3, 3)
        roots = coeffs[-1] * np.roots(coeffs[::-1])
        sums = scaled_power_sums(coeffs, 30)
        assert len(sums) == 31
        for j, s in enumerate(sums):
            powers = roots**j
            assert abs(s - powers.sum()) <= 1e-9 * max(1.0, np.abs(powers).sum()), (coeffs, j)
