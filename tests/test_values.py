"""Canonical radical forms and the shared value containers."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fkdet import fk_finite
from fkdet.values import (
    FKValue,
    MahlerValue,
    Radical,
    fk_exact,
    integer_nth_root,
    perfect_power,
)

from helpers import perfect_power_reference, radical_reference


def test_integer_nth_root_small():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(1, 7) == 1
    assert integer_nth_root(8, 3) == 2
    assert integer_nth_root(7, 3) == 1
    assert integer_nth_root(10 ** 30, 1) == 10 ** 30


def test_integer_nth_root_randomized():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(0, 1 << rng.randrange(1, 200))
        k = rng.randrange(1, 9)
        r = integer_nth_root(n, k)
        assert r ** k <= n < (r + 1) ** k


def test_integer_nth_root_rejects_bad_input():
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)
    with pytest.raises(ValueError):
        integer_nth_root(4, 0)


def test_perfect_power_cases():
    assert perfect_power(1) == (1, 1)
    assert perfect_power(2) == (2, 1)
    assert perfect_power(4) == (2, 2)
    assert perfect_power(8) == (2, 3)
    assert perfect_power(64) == (2, 6)
    assert perfect_power(36) == (6, 2)
    assert perfect_power(12) == (12, 1)
    assert perfect_power(3 ** 7) == (3, 7)


def test_perfect_power_randomized_maximality():
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randrange(2, 50)
        k = rng.randrange(1, 7)
        n = m ** k
        base, found = perfect_power(n)
        assert base ** found == n
        assert found >= k
        assert perfect_power(base) == (base, 1)


def test_perfect_power_agrees_with_a_brute_force_reference():
    # every n below 10^5; powers hidden behind a prime above 1000, which no
    # prime below 1000 sees; powers with no prime factor below 1000, whose
    # exponent is bounded by bit_length // 9; and mixes where the gcd of the
    # small primes' exponents decides
    rng = random.Random(27)
    planted = []
    for _ in range(300):
        m, k = rng.randrange(2, 10**4), rng.randrange(2, 9)
        big = rng.choice([1009, 7919, 104729, 2**31 - 1])
        planted += [m**k * big, (m * big) ** k, m**k * big**k * 2]
    unseen = [1009**k for k in range(1, 25)] + [1009**64, 1013**5, (1009 * 1013) ** 6]
    mixed = [
        2**6 * 1009**3,
        2**6 * 3**9 * 1009**3,
        2**4 * 1009**6,
        2**6 * 1009**4,
        3**10 * 5**15 * 1009**5,
        2**7 * 1009**14,
        2**2 * 3**4 * 1009**3,
        2**6 * 1013,
        2**12 * 7**18 * 1009**6,
        2**30 * (1009 * 1013) ** 6,
    ]
    for n in itertools.chain(range(1, 10**5), planted, unseen, mixed):
        assert perfect_power(n) == perfect_power_reference(n), n
    # the bound met with equality: 1009^7 and 1013^7 have 70 bits, 70 // 9 = 7
    for n in (1009**7, 1013**7):
        assert n.bit_length() // 9 == 7
        assert perfect_power(n) == (round(n ** (1 / 7)), 7)


def test_radical_matches_the_fraction_reference():
    rng = random.Random(34)
    cases = [
        (1, Fraction(3, 4)),
        (1, 0),
        (7, 0),
        (1, 5),
        (2**6, Fraction(1, 4)),
        (3**4, Fraction(5, 6)),
        (6**12, Fraction(7, 18)),
        (1009**6, Fraction(1, 4)),
        (2**6, 3),
    ]
    for _ in range(500):
        m = rng.choice([rng.randrange(2, 40), 1009, 3 * 1013, 2**61 - 1])
        k = rng.randrange(1, 13)
        den = rng.randrange(1, 25)
        num = rng.randrange(0, 3 * den)
        cases += [(m**k, Fraction(num, den)), (m**k, num)]
    reduced = 0
    for base, exponent in cases:
        r = Radical(base, exponent)
        assert (r.base, r.exponent) == radical_reference(base, exponent)
        assert type(r.exponent) is Fraction
        if r.exponent == 1:
            assert float(r) == (float(r.base) if r.base.bit_length() <= 1024 else math.inf)
        else:
            log = float(r.exponent) * math.log(r.base)
            want = math.exp(log) if log <= 709.0 else math.inf
            assert float(r).hex() == want.hex()
        k = perfect_power_reference(base)[1]
        reduced += math.gcd(k, Fraction(exponent).denominator) > 1
    assert reduced > 100


def test_radical_value_of_ints_fractions_and_non_integers():
    cases = [
        (12, 4),
        (-12, 4),
        (1, 7),
        (-1, 3),
        (2**64, 8),
        (-(3**10), 15),
        (Fraction(-36, 1), 4),
        (Fraction(81), 6),
        (Fraction(3, 4), 5),
        (Fraction(-3, 4), 5),
    ]
    for q, root in cases:
        got = fk_finite._radical_value(q, root, "m")
        assert got.method == "m"
        f = Fraction(q)
        if f.denominator == 1:
            base, exponent = radical_reference(abs(f.numerator), Fraction(1, root))
            assert (got.exact.base, got.exact.exponent) == (base, exponent)
            assert got.value == float(got.exact)
            assert got.error_estimate == 0.0
        else:
            value = math.exp((math.log(abs(f.numerator)) - math.log(f.denominator)) / root)
            assert got.exact is None
            assert got.value == value
            assert got.error_estimate == 1e-14 * value


def test_radical_canonical_equalities():
    assert Radical(4, Fraction(1, 4)) == Radical(2, Fraction(1, 2))
    assert Radical(9, Fraction(1, 4)) == Radical(3, Fraction(1, 2))
    assert Radical(8, Fraction(2, 3)) == Radical(4)
    assert Radical(49, Fraction(1, 10)) == Radical(7, Fraction(1, 5))
    assert Radical(1, Fraction(3, 4)) == Radical(1)
    assert Radical(5, 0) == Radical(1)
    assert Radical(2, 3) == Radical(8)


def test_radical_rejects_bad_input():
    with pytest.raises(ValueError):
        Radical(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        Radical(2, Fraction(-1, 2))
    with pytest.raises(AttributeError):
        Radical(2).base = 3


def test_radical_float_and_log():
    assert math.isclose(float(Radical(2, Fraction(1, 2))), math.sqrt(2))
    for n in (3, 4, 5):
        golden = Radical((n - 1) ** 2, Fraction(1, 2 * n))
        assert golden == Radical(n - 1, Fraction(1, n))
        assert math.isclose(float(golden), (n - 1) ** (1.0 / n))
    huge = Radical((1 << 400) - 1, Fraction(1, 40))
    assert math.isclose(huge.log(), 10 * math.log(2), rel_tol=1e-12)
    assert float(Radical(2, 10000)) == math.inf


def test_integer_radicals_float_as_the_integer():
    # exp(log 8) is 7.999999999999998; an exponent-1 radical is its base
    for n in range(1, 2000):
        assert float(Radical(n)) == float(n)
    assert float(Radical(10**300 + 7)) == float(10**300 + 7)
    assert float(Radical(10**400)) == math.inf


def test_radical_products_and_powers():
    half = Fraction(1, 2)
    assert Radical(2, half) * Radical(2, half) == Radical(2)
    assert Radical(2, half) * Radical(3, half) == Radical(6, half)
    assert Radical(2, half) ** 2 == Radical(2)
    assert Radical(4).root(2) == Radical(2)
    assert Radical(2).root(2) == Radical(2, half)
    assert Radical(2, Fraction(1, 3)) * Radical(2, Fraction(1, 6)) == Radical(
        2, half
    )


def test_radical_strings():
    assert str(Radical(2)) == "2"
    assert str(Radical(3, Fraction(1, 2))) == "3^(1/2)"
    assert str(Radical(8, Fraction(1, 5))) == "2^(3/5)"
    assert Radical(3, Fraction(1, 2)).as_json() == {
        "base": 3,
        "exponent": "1/2",
    }


def test_radical_hash_consistent():
    a = Radical(4, Fraction(1, 4))
    b = Radical(2, Fraction(1, 2))
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fk_value_wrapping():
    r = Radical(3, Fraction(1, 2))
    fk = fk_exact(r, "regular_rep")
    assert fk.exact == r
    assert math.isclose(fk.value, math.sqrt(3))
    assert fk.error_estimate == 0.0
    blob = fk.as_json()
    assert blob["exact"] == {"base": 3, "exponent": "1/2"}
    plain = FKValue(2.0, "pipeline", 1e-9)
    assert "exact" not in plain.as_json()


def test_mahler_value_consistency():
    mv = MahlerValue(2.0, math.log(2.0), "jensen", 0.0)
    assert math.isclose(mv.value, math.exp(mv.log_value))
    blob = mv.as_json()
    assert blob["method"] == "jensen"
    assert blob["value"] == 2.0
