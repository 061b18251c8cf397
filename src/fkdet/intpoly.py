"""Exact dense integer polynomials, and the primes that prove facts about
them modulo p.

A polynomial is a list of ints, ascending by degree; [] is zero.  One
remainder sequence over Z, the subresultant sequence, gives both ``gcd``
and ``resultant``; Yun's ``squarefree_decomposition`` takes its gcds, and
``proven_squarefree`` proves a whole stack of rows square-free modulo one
word prime first.  ``scaled_power_sums`` tabulates the integer power sums of
the roots, and ``cyclotomic_resultant`` gives Res(Phi_e, Phi_d) in closed
form.  The module imports nothing from the rest of the package.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np


def trim(coeffs: list) -> list:
    """Drop trailing zeros, in place."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def derivative(coeffs: list) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:]


def primitive(coeffs: list) -> list:
    """Divide by the integer content and normalize the leading sign."""
    g = math.gcd(*coeffs)
    if g == 0:
        return []
    out = [c // g for c in coeffs]
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pseudo_rem(num: list, den: int, mod: list) -> tuple:
    """num/den modulo mod, as a numerator list and a denominator, not
    reduced.

    Pseudo-division: where a division by the leading coefficient lc of mod
    would be due, the rest of the numerator and the denominator are
    multiplied by lc instead, so only integers occur and the cost hardly
    depends on lc."""
    dm = len(mod) - 1
    lc = mod[-1]
    r = list(num)
    for k in range(len(r) - 1, dm - 1, -1):
        c = r.pop()
        if not c:
            continue
        if lc in (1, -1):
            c *= lc
        else:
            r = [x * lc for x in r]
            den *= lc
        for i in range(dm):
            r[k - dm + i] -= c * mod[i]
    return r, den


def reduced_rem(num: list, den: int, mod: list) -> tuple:
    """num/den modulo mod (pseudo_rem), as a numerator list and a positive
    denominator in lowest terms."""
    r, den = pseudo_rem(num, den, mod)
    g = math.gcd(den, *r)
    if den < 0:
        g = -g
    return [x // g for x in r], den // g


def div_exact(a: list, b: list) -> list:
    """Exact quotient a / b of integer polynomials; ValueError unless b
    divides a over the integers."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim(list(a))
    if not r:
        return []
    db = len(b) - 1
    lb = b[-1]
    width = len(r) - db
    if width <= 0:
        raise ValueError("quotient would be zero, division not exact")
    q = [0] * width
    for k in range(width - 1, -1, -1):
        c, rem = divmod(r[db + k], lb)
        if rem:
            raise ValueError("polynomial division not exact over the integers")
        q[k] = c
        if c:
            for i in range(db + 1):
                r[k + i] -= c * b[i]
    if any(r):
        raise ValueError("polynomial division not exact")
    return q


def _subresultants(a: list, b: list) -> tuple:
    """(last nonzero remainder, |Res(a, b)|) of two nonzero integer
    polynomials with nonzero leading coefficients.

    The subresultant remainder sequence (Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 3.3.7): each pseudo-remainder
    lc(b)^(delta+1) a mod b, from pseudo_rem, is divided exactly by
    g h^delta, which keeps the coefficients at the size of minors of the
    Sylvester matrix, in O(deg a * deg b) integer operations.  Over Q the
    remainders are Euclid's up to scalars, so the last nonzero one is
    gcd(a, b) up to a scalar, and the resultant is 0 unless that is a
    constant.
    """
    if len(a) < len(b):
        a, b = b, a
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        r, den = pseudo_rem(a, 1, b)
        scale = b[-1] ** (delta + 1) // den
        if scale != 1:
            r = [x * scale for x in r]
        r = trim(r)
        if not r:
            return b, 0
        div = g * h**delta
        a, b = b, [x // div for x in r]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    degree = len(a) - 1
    return b, (abs(b[0] ** degree // h ** (degree - 1)) if degree else 1)


def gcd(a: list, b: list) -> list:
    """The primitive gcd of two integer polynomials, leading coefficient
    positive: the primitive part of the last nonzero subresultant
    remainder; gcd([], b) is primitive(b)."""
    a, b = trim(list(a)), trim(list(b))
    if not a or not b:
        return primitive(a or b)
    return primitive(_subresultants(a, b)[0])


def resultant(a: list, b: list) -> int:
    """|Res(a, b)| of two integer polynomials, ascending with nonzero
    leading coefficients ([] is the zero polynomial), by the subresultant
    sequence."""
    return _subresultants(a, b)[1] if a and b else 0


def squarefree_decomposition(coeffs: list) -> list:
    """Yun decomposition of a primitive integer polynomial.

    Returns [(factor, multiplicity)] with each factor primitive and
    square-free, such that the product of factor**multiplicity equals the
    input up to sign.
    """
    p = primitive(trim(list(coeffs)))
    if len(p) <= 1:
        return []
    d = derivative(p)
    g = gcd(p, d)
    if len(g) == 1:
        return [(p, 1)]
    w = div_exact(p, g)
    y = div_exact(d, g)
    dw = derivative(w)
    z = trim([a - b for a, b in zip(y + [0] * len(dw), dw + [0] * len(y))])
    out = []
    i = 1
    while len(w) > 1:
        if i > len(coeffs):
            raise AssertionError("square-free decomposition failed to terminate")
        h = gcd(w, z)
        if len(h) > 1:
            out.append((h, i))
            w = div_exact(w, h)
            z = div_exact(z, h)
        dw = derivative(w)
        z = trim([zc - wc for zc, wc in zip(z + [0] * len(dw), dw + [0] * len(z))])
        i += 1
    return out


def t_power_mod(n: int, mod: list) -> tuple:
    """t**n modulo mod as (numerator list, denominator), by repeated
    squaring started at t**(n >> shift), the least shift that puts the
    power below deg(mod), where it is its own residue."""
    shift = 0
    while n >> shift >= max(len(mod) - 1, 1):
        shift += 1
    num, den = [0] * (n >> shift) + [1], 1
    for i in reversed(range(shift)):
        num, den = poly_mul(num, num), den * den
        if n >> i & 1:
            num = [0] + num
        num, den = reduced_rem(num, den, mod)
    return num, den


@functools.cache
def cyclotomic(n: int) -> tuple:
    """Phi_n, built by dividing z**n - 1 by Phi_d for every proper divisor d."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = div_exact(p, cyclotomic(d))
    return tuple(p)


def scaled_power_sums(coeffs: list, count: int) -> list:
    """[S_0, ..., S_count], S_j the sum of (a alpha)^j over the roots alpha
    of an integer polynomial of degree m >= 1 with leading coefficient a.

    The a alpha are the roots of the monic integer polynomial
    a^(m-1) coeffs(x/a) = x^m + c_(m-1) x^(m-1) + ... + c_0,
    c_j = coeffs[j] a^(m-1-j), so every S_j is an integer: Newton's
    identities give S_1 ... S_m, and S_j = -(c_0 S_(j-m) + ... +
    c_(m-1) S_(j-1)) the rest.
    """
    m = len(coeffs) - 1
    a = coeffs[-1]
    low = [c * a ** (m - 1 - j) for j, c in enumerate(coeffs[:-1])]
    sums = [m]
    for j in range(1, min(m, count) + 1):
        sums.append(-(j * low[m - j] + sum(map(operator.mul, low[m - j + 1 :], sums[1:j]))))
    for j in range(m + 1, count + 1):
        sums.append(-sum(map(operator.mul, low, sums[j - m : j])))
    return sums


def cyclotomic_resultant(e: int, d: int) -> int:
    """|Res(Phi_e, Phi_d)| for e != d, in closed form (Apostol, Resultants
    of cyclotomic polynomials, Proc. AMS 24, 1970): q^phi(min(e, d)) when
    max(e, d) / min(e, d) is a power of a prime q, and 1 otherwise."""
    lo, hi = sorted((e, d))
    if hi % lo:
        return 1
    ratio = hi // lo
    q = next(f for f in range(2, ratio + 1) if ratio % f == 0)
    while ratio % q == 0:
        ratio //= q
    return q ** totient(lo) if ratio == 1 else 1


def totient(n: int) -> int:
    out, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            out -= out // f
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out -= out // m
    return out


def divisors(n: int) -> list:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def is_prime(q: int) -> bool:
    return q > 1 and all(q % f for f in range(2, math.isqrt(q) + 1))


@functools.cache
def residue_moduli(p: int) -> tuple:
    """Two primes q = 1 mod p."""
    out, q = [], 1
    while len(out) < 2:
        q += 2 * p
        if is_prime(q):
            out.append(q)
    return tuple(out)


@functools.cache
def primes_below(size: int) -> tuple:
    """The primes below ``size``, by a sieve of Eratosthenes; callers ask
    for powers of two, so a few sieves serve every bit length."""
    sieve = bytearray([1]) * size
    sieve[: min(size, 2)] = bytes(min(size, 2))
    for f in range(2, math.isqrt(size - 1) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, size, f)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


@functools.cache
def word_prime(i: int) -> int:
    """The i-th prime below 2**31 in descending order, 2**31 - 1 at i = 0:
    the product of two residues modulo any of them fits in int64."""
    q = 2**31 - 1 if i == 0 else word_prime(i - 1) - 2
    while not is_prime(q):
        q -= 2
    return q


# the point w of the factors z - w that fill a remainder's dropped degrees;
# not 0, where the f' of every even f and its remainders vanish
_FILL_POINT = 65537


def proven_squarefree(rows: np.ndarray) -> np.ndarray:
    """Which rows of ``rows`` are proven square-free over Q: integer
    polynomials of one degree n >= 1 as ascending coefficients, each of
    absolute value below p = word_prime(0), as int64.

    One fraction-free remainder sequence of f and f' runs modulo p over the
    whole stack.  Each step takes (a, b), deg a = deg b + 1 = k + 1, to
    (b, r): r = lb (lb a - la z b) - c b, with la, lb the leads and c the
    coefficient of z^k in lb a - la z b, is a remainder of a by b times the
    unit lb^2 of F_p, so gcd(b, r) = gcd(a, b).  Where the sequence drops a
    degree, r has degree d < k - 1; each row tracks that, and the step goes
    on with (b, (z - w)^(k - 1 - d) r), w = _FILL_POINT, whose lead fills
    the slot of degree k - 1.  A common factor of b and r divides b and
    (z - w)^j r, so the gcd of the new pair is a multiple of the old one.
    A row is proven when the leads of f and f' are nonzero mod p and its
    sequence ends in a nonzero constant.  Then gcd(f mod p, f' mod p) = 1
    and Res(f mod p, f' mod p) is nonzero.  Since p divides neither lead(f)
    nor n lead(f), the Sylvester matrix of f mod p and f' mod p is that of f
    and f' reduced mod p, so Res(f, f') is not 0 mod p, hence not 0: f and
    f' are coprime over Q, and f is square-free.  A row whose remainder is
    0 mod p, or whose leads vanish mod p, is left to the Yun decomposition;
    so is a row where some b vanishes at w mod p, by chance.  It may still
    be square-free.
    """
    p = word_prime(0)
    n = rows.shape[1] - 1
    a = rows % p
    b = rows[:, 1:] * np.arange(1, n + 1) % p
    proven = (a[:, -1] != 0) & (b[:, -1] != 0)
    zero = np.zeros_like(a[:, :1])
    for k in range(n - 1, 0, -1):
        # a - (la / lb) z b and then that minus its z^k term over lb times
        # b, both scaled by lb: residues below 2^31 keep products in int64
        la, lb = a[:, -1:], b[:, -1:]
        a = (a[:, :-1] * lb - np.concatenate([zero, b[:, :-1]], axis=1) * la) % p
        a, b = b, (a[:, :-1] * lb - a[:, -1:] * b[:, :-1]) % p
        dropped = proven & (b[:, -1] == 0)
        if dropped.any():
            r = b[dropped]
            nonzero = r != 0
            # the dropped degrees; a zero remainder keeps its zero lead
            drop = np.where(nonzero.any(axis=1), nonzero[:, ::-1].argmax(axis=1), 0)
            for j in range(drop.max()):
                fill = drop > j
                # times z - w: up one slot, less w times itself
                up = np.concatenate([np.zeros_like(r[fill, :1]), r[fill, :-1]], axis=1)
                r[fill] = (up - _FILL_POINT * r[fill]) % p
            b[dropped] = r
            proven &= b[:, -1] != 0
    return proven
