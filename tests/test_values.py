"""Canonical radical forms and the shared value containers."""

import math
import random
from fractions import Fraction

import pytest

from fkdet import values
from fkdet.values import (
    FKValue,
    MahlerValue,
    Radical,
    fk_exact,
    integer_nth_root,
    perfect_power,
)


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


def test_perfect_power_prefilter_agrees_with_the_prime_loop(monkeypatch):
    # the small-prime test in front of the loop decides only what the loop
    # would: every n below 10^5, and powers hidden behind a prime above 1000,
    # which no prime below 1000 sees
    with_filter = [perfect_power(n) for n in range(1, 10**5)]
    rng = random.Random(27)
    planted = []
    for _ in range(300):
        m, k = rng.randrange(2, 10**4), rng.randrange(2, 9)
        big = rng.choice([1009, 7919, 104729, 2**31 - 1])
        planted += [m**k * big, (m * big) ** k, m**k * big**k * 2]
    planted_with_filter = [perfect_power(n) for n in planted]
    monkeypatch.setattr(values, "_SMALL_PRIMORIAL", 1)
    assert with_filter == [perfect_power(n) for n in range(1, 10**5)]
    assert planted_with_filter == [perfect_power(n) for n in planted]
    for n, (base, k) in zip(planted, planted_with_filter):
        assert base**k == n


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
