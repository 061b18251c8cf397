"""Exact and floating value containers for determinant computations.

Determinants over finite groups come out as radicals n**(p/q) with an
integer base.  Keeping them exact makes golden-value comparisons
meaningful: 4**(1/4) and 2**(1/2) are the same real number, so Radical
reduces every input to a canonical pair where the base is not a proper
perfect power and whole exponents are absorbed into the base.  Floating
results carry a method tag and an error estimate instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .intpoly import primes_below, residue_moduli

# the product of the primes below 1000, for perfect_power's first test
_SMALL_PRIMORIAL = math.prod(primes_below(1000))

# the exponent of every Radical whose value is an integer
_ONE = Fraction(1)


def integer_nth_root(n: int, k: int) -> int:
    """Largest x with x**k <= n, for n >= 0 and k >= 1."""
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root index must be positive")
    if k == 1 or n < 2:
        return n
    # integer Newton iteration, seeded just above the true root so the
    # sequence descends monotonically and stops at the floor; a float seed
    # saves the ~k*ln(2) slow steps down from a power of two
    bits = n.bit_length()
    if bits <= 1000 * k:
        x = int(2.0 ** (math.log2(n) / k) * (1 + 1e-6)) + 1
    else:
        x = 1 << -(-bits // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _valuation(n: int, q: int) -> tuple[int, int]:
    """(v, n / q**v), v the exponent of the prime q in n >= 1.  The
    exponent of q**2 in n / q is read first, so v takes O(log v)
    divisions, not v: a stage norm such as 8**n carries v = 3n."""
    if n % q:
        return 0, n
    v, n = _valuation(n // q, q * q)
    if n % q:
        return 2 * v + 1, n
    return 2 * v + 2, n // q


def perfect_power(n: int) -> tuple[int, int]:
    """Write n >= 1 as m**k with k maximal; (n, 1) when n is not a power.

    n = m**k is a j-th power exactly when j divides k, so taking prime
    roots one at a time reaches k, and only a prime that can divide k is
    tried.  g, the product of the primes below 1000 that divide n, bounds
    the primes:

    - g = 1: no prime below 1000 divides m, so m >= 1009 > 2^9 and
      2^bits > n >= 1009^k > 2^(9k), bits the bit length of n; hence
      k <= bits // 9.  A p-th root keeps this true of the root, so the
      bound is read afresh on it.
    - g > 1: k divides the exponent of every prime q in n, so it divides
      e, the gcd of the exponents of the primes q dividing g, and only the
      prime factors of e are tried; e = 1 means n is no power.  If one of
      those q divides n only once, g does not divide n / g, and that is
      seen before g is factored.  g is factored by trial division, which
      stops once g is used up.

    A p-th power is a p-th power residue mod every prime q = 1 mod p,
    which rules out almost every p before any root is taken.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = math.gcd(n, _SMALL_PRIMORIAL)
    if math.gcd(n // g, g) != g:
        return n, 1
    e = 0
    for q in primes_below(1000):
        if g == 1:
            break
        if g % q == 0:
            g //= q
            e = math.gcd(e, _valuation(n, q)[0])
            if e == 1:
                return n, 1
    k = 1
    for p in primes_below(1 << (e or n.bit_length() // 9).bit_length()):
        while (e % p == 0 if e else 9 * p <= n.bit_length()) and all(
            n % q == 0 or pow(n % q, (q - 1) // p, q) == 1 for q in residue_moduli(p)
        ):
            m = integer_nth_root(n, p)
            if m ** p != n:
                break
            n, k, e = m, k * p, e // p
        if p >= (e or n.bit_length() // 9):
            break
    return n, k


class Radical:
    """The positive real base**exponent in canonical form.

    base is a positive integer, exponent a nonnegative Fraction.  The
    constructor reduces: whole exponents are collapsed into the base
    (exponent becomes 1), otherwise the base is replaced by its primitive
    root so it is not a proper perfect power.  Two canonical Radicals then
    denote the same real number iff they compare equal, which is what the
    exact golden-value tests rely on.
    """

    __slots__ = ("base", "exponent")

    base: int
    exponent: Fraction

    def __init__(self, base: int, exponent: Fraction | int = 1) -> None:
        if not isinstance(base, int) or base < 1:
            raise ValueError("base must be a positive integer")
        e = exponent if isinstance(exponent, (int, Fraction)) else Fraction(exponent)
        num, den = e.numerator, e.denominator
        if num < 0:
            raise ValueError("exponent must be nonnegative")
        if base == 1 or num == 0:
            base, e = 1, _ONE
        else:
            # (num/den) k in lowest terms is (num k/g)/(den/g), g = gcd(k, den)
            m, k = perfect_power(base)
            g = math.gcd(k, den)
            num, den = num * (k // g), den // g
            if den == 1:
                base, e = m ** num, _ONE
            else:
                base, e = m, (e if k == 1 else Fraction(num, den))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", e)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Radical is immutable")

    def log(self) -> float:
        # math.log accepts arbitrary-size ints, so huge bases never need
        # to pass through a float
        return float(self.exponent) * math.log(self.base)

    def __float__(self) -> float:
        # an integer is rounded once, where exp(log) can land an ulp off
        if self.exponent == 1:
            try:
                return float(self.base)
            except OverflowError:
                return math.inf
        lg = self.log()
        if lg > 709.0:
            return math.inf
        return math.exp(lg)

    def __mul__(self, other: "Radical") -> "Radical":
        if not isinstance(other, Radical):
            return NotImplemented
        a, b = self.exponent.denominator, other.exponent.denominator
        common = a * b // math.gcd(a, b)
        lhs = self.base ** int(self.exponent * common)
        rhs = other.base ** int(other.exponent * common)
        return Radical(lhs * rhs, Fraction(1, common))

    def __pow__(self, k: Fraction | int) -> "Radical":
        return Radical(self.base, self.exponent * Fraction(k))

    def root(self, k: int) -> "Radical":
        """The positive k-th root."""
        if k < 1:
            raise ValueError("root index must be positive")
        return Radical(self.base, self.exponent / k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Radical):
            return NotImplemented
        return self.base == other.base and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.base, self.exponent))

    def __str__(self) -> str:
        if self.exponent == 1:
            return str(self.base)
        return "%d^(%s)" % (self.base, self.exponent)

    def __repr__(self) -> str:
        return "Radical(%d, %r)" % (self.base, self.exponent)

    def as_json(self) -> dict:
        return {"base": self.base, "exponent": str(self.exponent)}


@dataclass(frozen=True)
class FKValue:
    """A determinant value: float, method tag, error bound, optional exact form."""

    value: float
    method: str
    error_estimate: float = 0.0
    exact: Radical | None = None

    def as_json(self) -> dict:
        out: dict = {
            "value": self.value,
            "method": self.method,
            "error_estimate": self.error_estimate,
        }
        if self.exact is not None:
            out["exact"] = self.exact.as_json()
        return out


def fk_exact(radical: Radical, method: str) -> FKValue:
    """Wrap an exact radical as an FKValue with zero error."""
    return FKValue(float(radical), method, 0.0, radical)


@dataclass(frozen=True)
class MahlerValue:
    """A Mahler measure: value, its log, method tag, empirical error estimate."""

    value: float
    log_value: float
    method: str
    error_estimate: float

    def as_json(self) -> dict:
        return {
            "value": self.value,
            "log_value": self.log_value,
            "method": self.method,
            "error_estimate": self.error_estimate,
        }
