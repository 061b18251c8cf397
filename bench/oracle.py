"""Independent references for the benchmark's correctness checks.

Nothing here calls the program.  Fuglede-Kadison determinants are computed
from singular values: the product of the nonzero singular values of A(z),
by Cauchy-Binet ``sqrt(sum over r x r minors |m(z)|^2)`` with r the generic
rank, averaged in log over the torus (over Z^d) or over the characters (over
a finite abelian quotient).  Rank-1 inputs get exact minor coefficients by
FFT interpolation and the measure from numpy roots; rank-2 inputs use a
midpoint torus grid; quotient stages use the character sum, which is exact
up to rounding.  Constants come from closed forms (Smyth 1981) and from
40-digit decimal evaluation.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np

getcontext().prec = 40

# log M(1 + z1 + z2) = (3 sqrt 3 / 4 pi) L(chi_-3, 2) and
# log M(1 + z1 + z2 + z3) = 7 zeta(3) / (2 pi^2), both from Smyth (1981)
LOG_M_1XY = Decimal("0.3230659472194505140936365107238063940722")
LOG_M_1XYZ = Decimal("0.4262783988175057909235214265961668730580")

# relative accuracy of each kind of reference: an error below it is
# rounding in the reference, not in the program, and reads as this value
EXACT_FLOOR = 2.0**-50
ORACLE_FLOOR = 1e-12

# singular values below this (relative to 1) count as zero characters
ZERO_SV = 1e-8


def lehmer_number() -> Decimal:
    """Largest real root of Lehmer's polynomial, by Newton's method."""
    coeffs = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]  # descending
    x = Decimal("1.1762808")
    for _ in range(60):
        p = Decimal(0)
        dp = Decimal(0)
        for c in coeffs:
            dp = dp * x + p
            p = p * x + c
        step = p / dp
        x -= step
        if abs(step) < Decimal(10) ** -38:
            break
    return x


def cube_root_two() -> Decimal:
    return Decimal(2) ** (Decimal(1) / Decimal(3))


def rel_err(value: float, ref: Decimal) -> float:
    return float(abs(Decimal(value) - ref) / abs(ref))


# ---------------------------------------------------------------------------
# evaluation


def _eval_poly(terms: dict, points: list) -> np.ndarray:
    """Values at points given per axis as broadcastable complex arrays."""
    out = np.zeros(np.broadcast(*points).shape, dtype=np.complex128)
    for exps, c in terms.items():
        mono = np.ones_like(out)
        for z, e in zip(points, exps):
            if e:
                mono = mono * z**e
        out = out + c * mono
    return out


def _axes(size: int, rank: int, offsets: tuple) -> list:
    """Per-axis sample points exp(2 pi i (k + offset) / size), shaped to
    broadcast into a rank-dimensional grid."""
    out = []
    for a in range(rank):
        shape = [1] * rank
        shape[a] = size
        out.append(np.exp(2j * np.pi * (np.arange(size) + offsets[a]) / size).reshape(shape))
    return out


def _entry_values(entries: list, points: list) -> list:
    return [[_eval_poly(p, points) for p in row] for row in entries]


def _minors(vals: list, r: int) -> list:
    """All r x r minors (r is 1 or 2) as arrays over the sample points."""
    rows, cols = len(vals), len(vals[0])
    if r == 1:
        return [vals[i][j] for i in range(rows) for j in range(cols)]
    if r == 2:
        return [
            vals[i][k] * vals[j][l] - vals[i][l] * vals[j][k]
            for i, j in itertools.combinations(range(rows), 2)
            for k, l in itertools.combinations(range(cols), 2)
        ]
    raise ValueError("the oracle handles generic rank 1 or 2")


def generic_rank(entries: list, rank: int) -> int:
    """Rank over the fraction field, read at a few generic torus points."""
    rng = np.random.default_rng(7)
    best = 0
    for _ in range(3):
        pts = [np.exp(1j * rng.uniform(0, 2 * np.pi, 1)) for _ in range(rank)]
        a = np.array([[v[0] for v in row] for row in _entry_values(entries, pts)])
        if a.size:
            best = max(best, int(np.linalg.matrix_rank(a, tol=1e-9 * max(1.0, np.abs(a).max()))))
    return best


# ---------------------------------------------------------------------------
# determinants over Z^d


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c: list) -> list:
    """Integer multiple of a rational polynomial with content 1 and a
    positive leading coefficient (ascending coefficients)."""
    c = _trim([Fraction(x) for x in c])
    if not c:
        return []
    den = math.lcm(*(x.denominator for x in c))
    ints = [int(x * den) for x in c]
    g = math.gcd(*ints)
    return [x // g if ints[-1] > 0 else -x // g for x in ints]


def _rem(a: list, b: list) -> list:
    r = [Fraction(x) for x in a]
    while len(r) >= len(b) and r:
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, x in enumerate(b):
            r[shift + i] -= f * x
        _trim(r)
    return r


def _gcd(a: list, b: list) -> list:
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_rem(a, b))
    return a


def _quo(a: list, b: list) -> list:
    """Exact quotient a / b of polynomials with b dividing a."""
    r = [Fraction(x) for x in a]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] / b[-1]
        for i, x in enumerate(b):
            r[k + i] -= q[k] * x
    return q


def _log_mahler_coeffs(coeffs) -> float:
    """log M of a one-variable integer polynomial (ascending coefficients).

    Repeated roots are split off first (square-free decomposition in exact
    arithmetic), so numpy only ever sees simple roots."""
    c = _trim([int(x) for x in coeffs])
    if not c:
        raise ValueError("zero polynomial")
    log_m = math.log(abs(c[-1]))
    p = _primitive(c)
    if len(p) == 1:
        return log_m
    # p = prod a_i^i: a_i = w / gcd(w, g), then g /= gcd(w, g), w = gcd(w, g)
    g = _gcd(p, [i * x for i, x in enumerate(p)][1:])
    w = _primitive(_quo(p, g))
    multiplicity = 1
    while len(w) > 1:
        y = _gcd(w, g)
        factor = _quo(w, y)
        if len(factor) > 1:
            roots = np.roots(np.array([float(x) for x in factor[::-1]]))
            log_m += multiplicity * float(np.sum(np.log(np.maximum(1.0, np.abs(roots)))))
        g = _primitive(_quo(g, y))
        w = y
        multiplicity += 1
    return log_m


def fk_det_rank1(entries: list) -> float:
    """Determinant over Z: exact minor coefficients by FFT, then roots.

    With h the gcd of the r x r minors m and q = m / h, the value is
    M(h) M(sum |q|^2)^(1/2); the sum has no zero on the circle, so its
    roots stay simple there.
    """
    r = generic_rank(entries, 1)
    if r == 0:
        return 1.0
    degree = max(max(e[0] for e in p) for row in entries for p in row if p)
    n = 1 << max(4, (2 * r * degree + 2).bit_length())
    z = np.exp(2j * np.pi * np.arange(n) / n)
    minors = [
        [int(x) for x in np.rint(np.fft.fft(m).real / n)]
        for m in _minors(_entry_values(entries, [z]), r)
    ]
    minors = [_trim(m) for m in minors if any(m)]
    h = minors[0]
    for m in minors[1:]:
        h = _gcd(h, m)
    h = _primitive(h)
    quotients = [[int(x) for x in _quo(m, h)] for m in minors]
    width = max(len(q) for q in quotients)
    padded = [np.array(q + [0] * (width - len(q)), dtype=np.int64) for q in quotients]
    rest = sum(np.correlate(q, q, "full") for q in padded)
    return math.exp(_log_mahler_coeffs(h) + 0.5 * _log_mahler_coeffs(rest))


def fk_det_torus(entries: list, rank: int, n: int = 1024) -> tuple:
    """Determinant over Z^2 from a midpoint torus grid; returns (value, gap)
    where gap is the relative difference to the grid of half the size."""

    def log_det(size: int) -> float:
        axes = _axes(size, rank, (0.5, 1 / 3, 0.25))
        g = sum(np.abs(m) ** 2 for m in _minors(_entry_values(entries, axes), r))
        g = np.broadcast_to(g, (size,) * rank)
        good = g > 1e-300
        return 0.5 * float(np.sum(np.log(g[good]))) / g.size

    r = generic_rank(entries, rank)
    if r == 0:
        return 1.0, 0.0
    fine = log_det(n)
    coarse = log_det(n // 2)
    return math.exp(fine), abs(math.expm1(fine - coarse))


# ---------------------------------------------------------------------------
# determinants over finite quotients


def stage_log_det(entries: list, rank: int, n: int) -> float:
    """log det over Z/n x ... x Z/n (rank factors): the character sum of the
    log product of nonzero singular values, divided by the group order."""
    axes = _axes(n, rank, (0.0, 0.0))
    vals = _entry_values(entries, axes)
    a = np.stack(
        [np.stack([np.broadcast_to(v, (n,) * rank).ravel() for v in row], -1) for row in vals], -2
    )
    sv = np.linalg.svd(a, compute_uv=False)
    keep = sv > ZERO_SV
    return float(np.sum(np.log(sv[keep]))) / n**rank
