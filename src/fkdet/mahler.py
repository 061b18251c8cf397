"""Mahler measures: Jensen's formula from roots, torus quadrature, and the
iterated one-variable specialization limit as a reference.

The one-variable path is the accurate one.  Polynomials are made
square-free exactly (Yun decomposition over the integers, after a batched
proof modulo a word prime that most need none) before any
floating-point root finding, so repeated roots cost no precision; the
roots of each square-free factor are then polished with Newton steps
against the exact coefficients.  The exact arithmetic, Yun's split and the
word-prime proof included, is ``intpoly``'s; this module keeps the batched
split it builds on them.  The exact screens of the Z scans divide nothing:
one root-squaring step (Graeffe) gives both the lower bounds of
``graeffe_bounds`` and the cyclotomic test of ``screen_lines``, which
decides "measure one" by Kronecker's theorem for a block of rows at once.

One companion routine, ``_companion_roots``, finds every root: it stacks
the companion matrices of polynomials of one degree and takes their
eigenvalues in one call.  It serves ``roots_one_var`` (a batch of one),
``mahler_jensen_batch``, which the Z scans use to measure their survivors
straight from integer coefficients, and the fibres below, which keep their
own trim and unit band.

In several variables Jensen's formula runs fibrewise (Boyd 1981; Smyth
1981): log M(p) is the integral over the outer torus of the one-variable
log measure of p(x, .) in one inner variable, taken on a midpoint grid with
one stacked companion eigenvalue call per fibre degree.  The torus grid is
the other route, and the specialization ramp a reference no method
selects.  All three are empirical and their error estimates are observed
differences, not proved bounds.

One table names the methods and ``mahler_measure`` alone picks a route.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intpoly import (
    gcd,
    primitive,
    proven_squarefree,
    squarefree_decomposition,
    trim,
    word_prime,
)
from .laurent import LaurentPolynomial
from .values import MahlerValue

# roots with modulus in (1 - UNIT_BAND, 1 + UNIT_BAND] count as lying on
# the unit circle and contribute factor 1 to the Jensen product
UNIT_BAND = 1e-12

# grid samples with |p| below this are treated as exact zeros and excluded
ZERO_FLOOR = 1e-300

# largest degree one-variable Jensen root-finds: a polynomial of degree d
# takes a dense d x d companion matrix, and degree 1024 already takes about
# 6 s on a 2-core Xeon (degree 2000 32 s, degree 100 000 asks for 149 GiB),
# so roots_one_var refuses above it before the square-free split, and the
# Boyd-Lawton ramp refuses a schedule that specializes above it before any
# root finding
JENSEN_MAX_DEGREE = 1024

# most points of one quadrature grid; a chunk of it is then at most 128 MB
QUADRATURE_MAX_POINTS = 1 << 24

# fibrewise Jensen, by the number of outer axes: midpoint grid points per
# axis, and the largest inner degree it root-finds (each budget keeps one
# measure to a few seconds; it refuses above it)
FIBRE_GRID = {1: 1024, 2: 128, 3: 32}
FIBRE_MAX_DEGREE = {1: 64, 2: 24, 3: 12}

# fibre coefficients below this fraction of the fibre's largest are zeros
FIBRE_TRIM = 1e-12

# fibre roots with modulus in (1, 1 + FIBRE_UNIT_BAND] count as lying on the
# unit circle: a double root there comes out up to about 1e-6 off it
FIBRE_UNIT_BAND = 1e-5

# fibres are stacked so that one chunk holds about this many matrix entries
FIBRE_CHUNK = 1 << 16

MEASURE_METHODS = ("auto", "quadrature")


class JensenRefusal(ValueError):
    """Fibrewise Jensen declines an input outside the budgets of its grid.

    The message names the budget only; a front end that offers another
    measure method adds the advice to pick it.
    """


# Smyth's constant: the real root of z**3 - z - 1, the least Mahler measure
# of a non-reciprocal integer polynomial with p(0) != 0
SMYTH_THETA0 = 1.324717957244746


# ---------------------------------------------------------------------------
# exact screens and square-free splits of integer polynomials (dense
# ascending coefficient lists, on the kernel of intpoly)


def _strip_monomial(coeffs: list) -> list:
    """Drop the z**k factor and trailing zeros of an ascending list."""
    c = trim(list(coeffs))
    k = 0
    while k < len(c) and c[k] == 0:
        k += 1
    return c[k:]


def line_bounds(lines: np.ndarray) -> tuple:
    """A lower bound for the Mahler measure of each row of ``lines``, the
    ascending coefficients of a one-variable integer polynomial with a
    nonzero constant term, zero-padded to one width; and each row's degree.

    M(p) >= |lead| and M(p) >= |p(0)|; by Smyth (1971) M(p) >= SMYTH_THETA0
    when p is not reciprocal up to sign.  The constant is a float, so the
    bound holds up to one rounding.
    """
    count, width = lines.shape
    top = width - 1 - (lines[:, ::-1] != 0).argmax(axis=1)
    # rev[r]: row r reversed up to its degree; reciprocal up to sign is
    # rev = +-row
    at = top[:, None] - np.arange(width)
    inside = at >= 0
    np.maximum(at, 0, out=at)
    rev = np.take_along_axis(lines, at, axis=1)
    del at
    rev[~inside] = 0
    reciprocal = (rev == lines).all(axis=1) | (rev == -lines).all(axis=1)
    lead = np.abs(lines[np.arange(count), top])
    bound = np.maximum(np.abs(lines[:, 0]), lead).astype(float)
    bound[~reciprocal] = np.maximum(bound[~reciprocal], SMYTH_THETA0)
    return bound, top


# the most root-squaring steps graeffe_bounds takes; a row with ||p||_1 >= 2
# stays exact in int64 for at most 5, and a monomial gains nothing
GRAEFFE_MAX_STEPS = 5

# LIMITS[k]: the largest ||p||_1 with ||p||_1^(2^k) < 2^63, by iterated floor
# square roots of 2^63 - 1
_GRAEFFE_LIMITS = [2**63 - 1]
while len(_GRAEFFE_LIMITS) <= GRAEFFE_MAX_STEPS:
    _GRAEFFE_LIMITS.append(math.isqrt(_GRAEFFE_LIMITS[-1]))

# a coefficient past the float range is read as the largest float, which can
# only lower the bound
_FLOAT_MAX = int(np.finfo(float).max)


def _float_sizes(rows: np.ndarray) -> np.ndarray:
    """|entry| of an int64 or Python-int array as floats; an entry past the
    float range reads as the largest float."""
    if rows.dtype != object:
        return np.abs(rows).astype(float)
    return np.array(
        [[float(min(abs(x), _FLOAT_MAX)) for x in row] for row in rows.tolist()]
    ).reshape(rows.shape)


@functools.lru_cache(maxsize=8)
def _binomials(width: int) -> np.ndarray:
    """table[m, j] = C(m, j) for j <= m < width, and 0 for j > m, as floats
    clipped as _float_sizes clips; rounding and clipping are monotone, so a
    size above its entry is a coefficient above its binomial."""
    table = np.zeros((width, width))
    for m in range(width):
        table[m, : m + 1] = [min(math.comb(m, j), _FLOAT_MAX) for j in range(m + 1)]
    # the cache hands this to every caller
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _inverse_binomials(width: int) -> np.ndarray:
    """table[m, j] = 1 / C(m, j) for j <= m < width, and 0 for j > m; an
    entry that underflows reads 0, which can only lower a bound."""
    table = np.zeros((width, width))
    for m in range(width):
        table[m, : m + 1] = [1 / math.comb(m, j) for j in range(m + 1)]
    # the cache hands this to every caller
    table.flags.writeable = False
    return table


def _graeffe_step(rows: np.ndarray) -> np.ndarray:
    """One root-squaring step of each row (ascending int64 or Python-int
    coefficients): with p(x) = E(x^2) + x O(x^2),
    p(x) p(-x) = E(x^2)^2 - x^2 O(x^2)^2, so
    the row E(y)^2 - y O(y)^2 has the squares of p's roots for its roots and
    p's degree; E has at most (width + 1) // 2 terms and O width // 2, so
    neither square runs past the width."""
    out = np.zeros_like(rows)
    even, odd = rows[:, 0::2], rows[:, 1::2]
    e, o = even.shape[1], odd.shape[1]
    # a column that is zero in every row adds nothing
    for j in np.flatnonzero((rows != 0).any(axis=0)).tolist():
        i = j // 2
        if j % 2:
            out[:, i + 1 : i + 1 + o] -= odd[:, i : i + 1] * odd
        else:
            out[:, i : i + e] += even[:, i : i + 1] * even
    return out


def _graeffe_steps(lines: np.ndarray) -> np.ndarray:
    """The root-squaring steps graeffe_bounds takes on each row: the most k
    up to GRAEFFE_MAX_STEPS with ||p||_1^(2^k) < 2^63; none for object
    rows."""
    if lines.dtype == object:
        return np.zeros(len(lines), dtype=np.int64)
    # clipped past the one-step limit, the sum cannot overflow and is exact
    # wherever it decides a step
    norm = np.minimum(np.abs(lines), _GRAEFFE_LIMITS[1] + 1).sum(axis=1)
    return sum((norm <= limit).astype(np.int64) for limit in _GRAEFFE_LIMITS[1:])


def graeffe_bounds(lines: np.ndarray) -> np.ndarray:
    """A lower bound for the Mahler measure of each row of ``lines``, the
    ascending coefficients of a nonzero integer polynomial zero-padded to
    one width, as pad_lines gives them; no root is found.

    Root squaring (Graeffe) takes p to p_k with the 2^k-th powers of p's
    roots for roots and |lead|^(2^k) for leading coefficient, so
    M(p_k) = M(p)^(2^k).  Every coefficient of a polynomial q of degree m
    has |c_j| <= C(m, j) M(q) (Mahler 1962), so
    M(p) >= (max_j |c_j(p_k)| / C(m, j))^(1/2^k), with m the row's degree,
    which root squaring keeps.  A row z^i q still obeys it with m its own
    degree: its coefficients are q's shifted by i, and
    C(m - i, j - i) <= C(m, j).

    Each row takes the most steps, up to GRAEFFE_MAX_STEPS, that keep int64
    exact.  A step's coefficient, and each partial sum of it, is a sum of
    products |a_i a_j| over coefficients of the previous row, so at most
    its ||.||_1^2, and ||p_(i+1)||_1 <= ||p_i||_1^2; so ||p||_1^(2^k) < 2^63
    bounds everything k steps add up.  Rows past that take fewer steps,
    down to none, and object rows take none: with k = 0 the bound is
    Mahler's inequality on p itself.  The result is a float, exact up to a
    few roundings.
    """
    count, width = lines.shape
    top = width - 1 - (lines[:, ::-1] != 0).argmax(axis=1)
    steps = _graeffe_steps(lines)
    coeffs = lines.copy()
    for k in range(1, int(steps.max(initial=0)) + 1):
        active = steps >= k
        coeffs[active] = _graeffe_step(coeffs[active])
    largest = (_float_sizes(coeffs) * _inverse_binomials(width)[top]).max(axis=1)
    return largest ** (1.0 / 2.0**steps)


def _cyclotomic_rows(lines: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Whether each row of ``lines`` (ascending integer coefficients with
    |lead| = |p(0)| = 1, zero-padded to one width) is +-1 times a product of
    cyclotomic polynomials; ``top`` holds the rows' degrees.

    Root squaring decides it (Bradford and Davenport 1989).  Let m be a
    row's degree, K = m.bit_length() and p_k its k-th root square
    (_graeffe_step), whose roots are the 2^k-th powers of p's and whose lead
    and constant term are +-1.
    - A root of unity of order 2^e u, u odd, is a root of Phi_n with
      2^(e - 1) <= phi(n) <= m, so e <= K.  After K squarings every root
      has odd order; squaring permutes the primitive u-th roots, so step
      K + 1 returns +-p_K.
    - Conversely, if step K + 1 returns +-p_K, the roots of p_K are closed
      under squaring, so none has modulus above 1.  Their product has
      modulus 1, so all lie on the unit circle.  By Kronecker they are
      roots of unity, and then so are the roots of p.
    Both hold for any count of steps from K on, so a block takes the count
    of its highest degree.  On the way a row with a coefficient
    |c_j| > C(m, j) is dropped, since Mahler's inequality then gives
    M(p) > 1; the drop only prunes, and the last comparison decides.

    Each step takes a row in int64 when its ||p_k||_1 <= _GRAEFFE_LIMITS[1],
    which bounds every partial sum of the step, and in Python ints
    otherwise.  The drop keeps ||p_k||_1 <= 2^m, so a row of degree up to
    31 squares in int64 throughout.
    """
    count, width = lines.shape
    out = np.zeros(count, dtype=bool)
    if not count:
        return out
    binom = _binomials(width)[top]
    # the scans pass int8 blocks, whose squares need int64
    rows = lines if lines.dtype == object else lines.astype(np.int64)
    groups = [(np.arange(count), rows)]
    steps = int(top.max(initial=0)).bit_length()
    limit = _GRAEFFE_LIMITS[1]
    for k in range(steps + 1):
        routed = []
        for ids, p in groups:
            size = _float_sizes(p)
            keep = (size <= binom[ids]).all(axis=1)
            # clipped past the limit, as in _graeffe_steps, the sum is exact
            fits = np.minimum(size, limit + 1).sum(axis=1) <= limit
            for part, dtype in ((keep & fits, np.int64), (keep & ~fits, object)):
                if part.any():
                    routed.append((ids[part], p[part].astype(dtype, copy=False)))
        groups = []
        for ids, p in routed:
            q = _graeffe_step(p)
            if k == steps:
                out[ids] = (q == p).all(axis=1) | (q == -p).all(axis=1)
            groups.append((ids, q))
    return out


def screen_lines(lines: np.ndarray) -> tuple:
    """(exact_one, bound) for each row of ``lines``, as in line_bounds.

    ``bound`` is line_bounds of the row.  ``exact_one`` says whether the
    Mahler measure is 1: by Kronecker's theorem exactly when the row is +-1
    times a product of cyclotomic polynomials.  That needs bound 1, so
    |lead| = |p(0)| = 1, and root squaring (_cyclotomic_rows) decides the
    rest.
    """
    lines = np.asarray(lines)
    bound, top = line_bounds(lines)
    exact_one = bound == 1.0
    exact_one[exact_one] = _cyclotomic_rows(lines[exact_one], top[exact_one])
    return exact_one, bound


def pad_lines(lines: list, width: int) -> np.ndarray:
    """Ascending integer coefficient lists as the rows of one array,
    zero-padded to ``width``: int64 when every coefficient fits, else
    Python ints."""
    fits = all(-(2**63) < x < 2**63 for c in lines for x in c)
    padded = [c + [0] * (width - len(c)) for c in lines]
    return np.array(padded, dtype=np.int64 if fits else object).reshape(
        len(lines), width
    )


def line_coeffs(terms: dict) -> list | None:
    """Ascending coefficients of a one-variable polynomial with the same
    measure, if the support is collinear; the substitution z -> z^v along a
    primitive direction and a monomial shift both leave the Mahler measure
    unchanged.  The least support point becomes the constant term, so the
    constant term is nonzero."""
    pts = sorted(terms)
    base = pts[0]
    if len(pts) == 1:
        return [terms[base]]
    diffs = [tuple(x - y for x, y in zip(e, base)) for e in pts[1:]]
    v = diffs[0]
    g = math.gcd(*v)
    v = tuple(x // g for x in v)
    j0 = next(i for i, x in enumerate(v) if x)
    ts = [0]
    for d in diffs:
        t = d[j0] // v[j0]
        if tuple(t * x for x in v) != d:
            return None
        ts.append(t)
    out = [0] * (ts[-1] + 1)
    for t, e in zip(ts, pts):
        out[t] = terms[e]
    return out


def face_lines(terms: dict) -> list:
    """Lines (line_coeffs) whose measures bound the Mahler measure of a
    nonzero integer Laurent polynomial in any number of variables, given as
    {exponents: coeff}, from below.

    By Jensen's formula along one axis, M(p) >= M(c) for c the coefficient
    of the highest or of the lowest power of that axis, itself a polynomial
    in the other axes.  Faces are taken recursively until the support is
    collinear; a collinear polynomial is its own line.
    """
    line = line_coeffs(terms)
    if line is not None:
        return [line]
    out = []
    for a in range(len(next(iter(terms)))):
        levels = {e[a] for e in terms}
        if len(levels) > 1:
            for level in (min(levels), max(levels)):
                out += face_lines({e: c for e, c in terms.items() if e[a] == level})
    return out


def _squarefree_splits(polys: list) -> list:
    """squarefree_decomposition of each integer polynomial, given as an
    ascending coefficient list with a nonzero lead.

    The polynomials of one degree whose coefficients lie below
    word_prime(0) in absolute value go through proven_squarefree
    together, and a proven one's split is [(primitive(f), 1)], Yun's own
    answer for a square-free f; every other one takes Yun.  So does a
    degree with a single polynomial, such as a call of roots_one_var: on one
    row of degree 10 the stacked sequence takes about 160 us, Yun 66 us,
    and they break even at two to three rows (2-core Xeon)."""
    p = word_prime(0)
    by_degree: dict = {}
    for i, c in enumerate(polys):
        if len(c) > 1 and all(-p < x < p for x in c):
            by_degree.setdefault(len(c) - 1, []).append(i)
    splits: list = [None] * len(polys)
    for idx in by_degree.values():
        if len(idx) > 1:
            proven = proven_squarefree(np.array([polys[i] for i in idx], dtype=np.int64))
            for i in np.array(idx)[proven].tolist():
                splits[i] = [(primitive(list(polys[i])), 1)]
    return [
        split if split is not None else squarefree_decomposition(c)
        for c, split in zip(polys, splits)
    ]


# ---------------------------------------------------------------------------
# floating root finding


def _companion_roots(desc: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices of a stack of polynomials of
    one degree d >= 1, given as rows of descending complex coefficients:
    row 0 of each matrix is -desc[1:] / desc[0], its subdiagonal ones.  For
    a row with a nonzero constant term these are np.roots' values bit for
    bit, since that is its matrix and LAPACK solves a stack matrix by
    matrix."""
    b, d = desc.shape[0], desc.shape[1] - 1
    comp = np.zeros((b, d, d), dtype=desc.dtype)
    comp[:, 0, :] = -desc[:, 1:] / desc[:, :1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return np.linalg.eigvals(comp)


def _horner(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of descending coefficients at its row of points, in
    np.polyval's order of operations."""
    y = np.zeros_like(x)
    for j in range(desc.shape[1]):
        y = y * x + desc[:, j : j + 1]
    return y


def _roots_squarefree(factors: list) -> list:
    """(roots, residual) of each square-free integer polynomial, given as
    ascending coefficient lists of degree >= 1 with nonzero constant terms.

    The factors of one degree share one _companion_roots call and three
    Newton steps against their exact coefficients; the residual is a
    factor's largest final step.  A factor's roots do not depend on the
    other factors in the batch.

    Each step evaluates p and p' in one _horner call, on the rows
    [desc; 0 ‖ ddesc] at [roots; roots].  The padded 0 leaves a
    derivative row at 0 * x + 0 = +0 after the first step, the value
    _horner starts from (a -0 from 0 * x sums with +0 to +0), so its
    later steps are those of p' alone, bit for bit."""
    out: list = [None] * len(factors)
    by_degree: dict = {}
    for i, f in enumerate(factors):
        by_degree.setdefault(len(f) - 1, []).append(i)
    for d, idx in by_degree.items():
        b = len(idx)
        stack = np.zeros((2 * b, d + 1), dtype=np.complex128)
        stack[:b] = [[float(x) for x in factors[i][::-1]] for i in idx]
        desc = stack[:b]
        roots = _companion_roots(desc)
        # square-free input keeps the derivative well away from zero at the
        # roots
        stack[b:, 1:] = desc[:, :-1] * np.arange(d, 0, -1)
        for _ in range(3):
            both = _horner(stack, np.concatenate([roots, roots]))
            vals, dvals = both[:b], both[b:]
            dvals = np.where(dvals == 0, 1e-300, dvals)
            step = vals / dvals
            roots = roots - step
        residual = np.abs(step).max(axis=1)
        for k, i in enumerate(idx):
            out[i] = (roots[k], float(residual[k]))
    return out


def _split_roots(polys: list) -> list:
    """(roots with multiplicity, residual) of each integer polynomial, given
    as an ascending coefficient list with a nonzero constant term.  Each is
    made square-free exactly (_squarefree_splits), and the square-free
    factors of the whole batch go to _roots_squarefree together; roots are
    listed factor by factor in the order of squarefree_decomposition."""
    splits = _squarefree_splits(polys)
    found = iter(_roots_squarefree([f for split in splits for f, _ in split]))
    out = []
    for c, split in zip(polys, splits):
        roots: list = []
        residual = 0.0
        total = 0
        for factor, mult in split:
            values, res = next(found)
            residual = max(residual, res)
            for r in values:
                roots.extend([complex(r)] * mult)
            total += (len(factor) - 1) * mult
        if total != len(c) - 1:
            raise AssertionError("root count does not match degree")
        out.append((tuple(roots), residual))
    return out


@dataclass(frozen=True)
class RootList:
    """Factorization data of a one-variable Laurent polynomial.

    p(z) = c * z**stripped_exponent * prod(z - root); lead_abs is |c|,
    roots are listed with multiplicity, residual is the root-finder's
    largest final correction step.
    """

    lead_abs: float
    roots: tuple
    stripped_exponent: int
    residual: float


def roots_one_var(p: LaurentPolynomial) -> RootList:
    """Roots with multiplicity of a nonzero rank-1 Laurent polynomial, of
    degree at most JENSEN_MAX_DEGREE (ValueError above it)."""
    if p.rank != 1:
        raise ValueError("need a rank-1 polynomial")
    if p.is_zero():
        raise ValueError("zero polynomial has no root data")
    degree = _span(p, 0)
    if degree > JENSEN_MAX_DEGREE:
        raise ValueError(
            f"one-variable jensen has degree {degree}, over the budget "
            f"JENSEN_MAX_DEGREE = {JENSEN_MAX_DEGREE}"
        )
    low, coeffs = p.dense_coefficients()
    lead_abs = abs(float(coeffs[-1]))
    if len(coeffs) == 1:
        return RootList(lead_abs, (), low, 0.0)
    # clear denominators: scaling by a positive rational moves |c| but not
    # the roots, so factor the primitive integer polynomial
    den = math.lcm(*(c.denominator for c in coeffs if isinstance(c, Fraction)))
    ints = [int(c * den) for c in coeffs]
    [(roots, residual)] = _split_roots([ints])
    return RootList(lead_abs, roots, low, residual)


# ---------------------------------------------------------------------------
# measures


def _jensen(lead_abs: float, roots: tuple, residual: float) -> MahlerValue:
    """The Jensen product |c| * prod max(1, |root|), summed in root order;
    exactly |c| when no root lies outside the circle."""
    log_m = math.log(lead_abs)
    outside = False
    for a in roots:
        m = abs(a)
        if m > 1.0 + UNIT_BAND:
            log_m += math.log(m)
            outside = True
    value = math.exp(log_m) if outside else lead_abs
    error = value * (residual * max(1, len(roots)) + 1e-15)
    return MahlerValue(value, log_m, "jensen", error)


def mahler_jensen(p: LaurentPolynomial) -> MahlerValue:
    """Mahler measure of a rank-1 polynomial via the Jensen product
    |c| * prod max(1, |root|)."""
    data = roots_one_var(p)
    return _jensen(data.lead_abs, data.roots, data.residual)


def mahler_jensen_batch(polys: list) -> list:
    """mahler_jensen of many nonzero integer polynomials at once, each given
    as its ascending coefficient list; no LaurentPolynomial is built.

    The square-free factors of one degree across the batch share one
    stacked companion solve, and each value is mahler_jensen's bit for bit.
    """
    lines = [_strip_monomial(c) for c in polys]
    return [
        _jensen(abs(float(c[-1])), roots, residual)
        for c, (roots, residual) in zip(lines, _split_roots(lines))
    ]


def _span(p: LaurentPolynomial, axis: int) -> int:
    return p.max_exponents()[axis] - p.min_exponents()[axis]


def _refuse_aliasing(
    p: LaurentPolynomial, axes, n: int, budget: int, what: str, refusal
) -> None:
    # z**(k + m) = +-z**k at every point of a uniform or midpoint grid of m
    # points, so that grid cannot tell apart exponents m apart; the callers'
    # budgets keep the coarse grid of m = n/2 points clear of it
    reach = max(_span(p, axis) for axis in axes)
    if reach > budget:
        raise refusal(
            f"{what} exponents span {reach}, over the budget {budget} "
            f"of its {n}-point grid"
        )


def _one_variable(coeffs: list) -> LaurentPolynomial:
    return LaurentPolynomial(1, {(i,): c for i, c in enumerate(coeffs) if c})


def _axis_content(p: LaurentPolynomial, axis: int) -> list:
    """Primitive integer gcd, z**k factor dropped, of the coefficients of p
    as polynomials in ``axis`` over the other axes: the factor of p that
    depends on ``axis`` alone."""
    low = p.min_exponents()[axis]
    groups: dict = {}
    for e, c in p.terms.items():
        groups.setdefault(e[:axis] + e[axis + 1 :], {})[e[axis] - low] = c
    g: list = []
    for coeffs in groups.values():
        dense = [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]
        den = math.lcm(*(Fraction(c).denominator for c in dense))
        g = _strip_monomial(gcd(g, [int(c * den) for c in dense]))
        if len(g) == 1:
            break
    return g


def _fibre_log_mean(p: LaurentPolynomial, inner: int, outer: list, n: int) -> tuple:
    """Mean of log M(p(x, .)) in the inner variable over the midpoint grid
    of n points per outer axis, and the mean of what FIBRE_UNIT_BAND left
    out of it plus the fibre roots' Newton steps.

    Each fibre contributes log|lead(x)| + sum log max(1, |root|), the roots
    from stacked companion matrices; leading coefficients that vanish at a
    sample are trimmed.  A multiple root on the unit circle comes out of
    the eigenvalue solver up to about 1e-6 off it, so roots within
    FIBRE_UNIT_BAND above the circle count as on it.  Real coefficients
    give the fibres at x and at conj(x) conjugate roots, and the midpoint
    grid is closed under conjugation, so only the half with the first outer
    angle below pi is computed.
    """
    lo = p.min_exponents()[inner]
    degree = _span(p, inner)
    items = sorted(p.terms.items())
    # row j of place collects the coefficients of the terms at inner^(lo + j)
    place = np.zeros((degree + 1, len(items)))
    exps = np.zeros((len(items), len(outer)))
    for t, (e, c) in enumerate(items):
        place[e[inner] - lo, t] = float(c)
        exps[t] = [e[a] for a in outer]
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    shape = (n // 2,) + (n,) * (len(outer) - 1)
    count = n ** len(outer) // 2
    chunk = max(1, FIBRE_CHUNK // max(degree * degree, len(items)))
    band = math.log1p(FIBRE_UNIT_BAND)
    total, slack = [], []
    for start in range(0, count, chunk):
        digits = np.unravel_index(np.arange(start, min(start + chunk, count)), shape)
        angles = exps @ theta[np.stack(digits)]
        coeffs = (place @ np.exp(1j * angles)).T
        mags = np.abs(coeffs)
        scale = mags.max(axis=1)
        # a fibre that vanishes identically is a zero sample: excluded
        live = scale >= ZERO_FLOOR
        kept = mags > FIBRE_TRIM * scale[:, None]
        degs = degree - np.argmax(kept[:, ::-1], axis=1)
        for d in np.unique(degs[live]):
            c = coeffs[live & (degs == d), : d + 1]
            lead = c[:, d]
            total.append(float(np.sum(np.log(np.abs(lead)))))
            if d == 0:
                continue
            roots = _companion_roots(c[:, ::-1])
            # a Newton step against the fibre's coefficients is about the
            # error of a simple root and about a cluster's spread over its
            # size, so the steps' sum is what the roots may be off
            f = np.zeros_like(roots)
            df = np.zeros_like(roots)
            for j in range(d, -1, -1):
                df = df * roots + f
                f = f * roots + c[:, j : j + 1]
            steps = np.abs(f) / np.maximum(np.abs(df), ZERO_FLOOR)
            mods = np.abs(roots)
            logs = np.log(mods[mods > 1.0])
            total.append(float(np.sum(logs[logs > band])))
            slack.append(float(np.sum(logs[logs <= band])) + float(np.sum(steps)))
    return math.fsum(total) / count, math.fsum(slack) / count


def mahler_fibrewise(p: LaurentPolynomial) -> MahlerValue:
    """Mahler measure of a polynomial of any rank by Jensen's formula.

    Rank 1 is mahler_jensen.  Exact shortcuts: a monomial measures |c|; a
    polynomial with collinear support, such as one that depends on a single
    axis, is a monomial times a one-variable polynomial in a monomial and
    goes to mahler_jensen; a factor that depends on one axis alone splits
    off as an exact gcd and goes the same way.  Otherwise the inner
    variable is the live axis (of nonzero span) of least span and the outer
    integral a midpoint grid of FIBRE_GRID points per axis.  The error
    estimate is the gap to the grid of half as many points per axis, plus
    what the unit band left out and the roots' Newton steps, plus the
    rounding floor.  An inner degree over FIBRE_MAX_DEGREE, or an outer span
    over a quarter of the grid, is refused (JensenRefusal) before any root
    finding.
    """
    if p.rank == 1:
        return mahler_jensen(p)
    if p.is_zero():
        raise ValueError("zero polynomial")
    line = line_coeffs(p.terms)
    if line is not None:
        if len(line) == 1:
            c = float(abs(line[0]))
            return MahlerValue(c, math.log(c), "jensen", 1e-15 * c)
        return mahler_jensen(_one_variable(line))
    live = [axis for axis in range(p.rank) if _span(p, axis) > 0]
    for axis in live:
        g = _axis_content(p, axis)
        if len(g) > 1:
            one = _one_variable(g)
            head = mahler_jensen(one)
            rest = mahler_fibrewise(p.divide_exact(one.embed(p.rank, axis + 1)))
            return MahlerValue(
                head.value * rest.value,
                head.log_value + rest.log_value,
                "jensen",
                head.error_estimate * rest.value + rest.error_estimate * head.value,
            )
    inner = min(live, key=lambda axis: _span(p, axis))
    outer = [axis for axis in live if axis != inner]
    if len(outer) not in FIBRE_GRID:
        raise JensenRefusal(
            f"jensen integrates over at most {max(FIBRE_GRID)} outer variables, "
            f"got {len(outer)}"
        )
    degree = _span(p, inner)
    budget = FIBRE_MAX_DEGREE[len(outer)]
    if degree > budget:
        raise JensenRefusal(
            f"jensen fibres have inner degree {degree}, over the budget {budget}"
        )
    n = FIBRE_GRID[len(outer)]
    _refuse_aliasing(p, outer, n, n // 4, "jensen outer", JensenRefusal)
    log_m, slack = _fibre_log_mean(p, inner, outer, n)
    log_coarse, _ = _fibre_log_mean(p, inner, outer, n // 2)
    value = math.exp(log_m)
    error = abs(value - math.exp(log_coarse)) + value * (math.expm1(slack) + 1e-15)
    return MahlerValue(value, log_m, "jensen", error)


def _grid_log_mean(p: LaurentPolynomial, n: int) -> float:
    """Mean of ln|p| over the uniform n**d torus grid, zero samples excluded."""
    d = p.rank
    terms = sorted((exps, float(c)) for exps, c in p.terms.items())
    theta = 2.0 * np.pi * np.arange(n) / n
    axis_pows: list = []
    for axis in range(d):
        cache: dict = {}
        for exps, _ in terms:
            e = exps[axis]
            if e not in cache:
                cache[e] = np.exp(1j * e * theta)
        axis_pows.append(cache)

    tail = n ** (d - 1)
    rows_per_chunk = max(1, (1 << 20) // max(1, tail))
    chunks = [(lo, min(lo + rows_per_chunk, n)) for lo in range(0, n, rows_per_chunk)]

    def eval_chunk(bounds: tuple) -> float:
        lo, hi = bounds
        shape = (hi - lo,) + (n,) * (d - 1)
        acc = np.zeros(shape, dtype=np.complex128)
        for exps, c in terms:
            prod = axis_pows[0][exps[0]][lo:hi].reshape((hi - lo,) + (1,) * (d - 1))
            for axis in range(1, d):
                vec = axis_pows[axis][exps[axis]]
                prod = prod * vec.reshape((1,) * axis + (n,) + (1,) * (d - 1 - axis))
            acc = acc + c * prod
        mags = np.abs(acc).ravel()
        good = mags >= ZERO_FLOOR
        return float(np.sum(np.log(mags[good])))

    # numpy releases the interpreter lock on these arrays, so chunks overlap
    # on several cores; fixed chunking and the ordered fsum keep the result
    # independent of the worker count
    workers = min(os.cpu_count() or 1, len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(eval_chunk, chunks))
    else:
        partials = [eval_chunk(ch) for ch in chunks]
    return math.fsum(partials) / float(n) ** d


def log_mahler_quadrature(p: LaurentPolynomial, n: int) -> MahlerValue:
    """Mahler measure from the grid average of ln|p| on the torus.

    The error estimate is the gap to the n/2 grid plus the same rounding
    floor as the Jensen route.  A grid over QUADRATURE_MAX_POINTS points,
    or an axis span over n/8, is refused.  The n/2 grid is a subset of the
    n grid, so the budget is tighter than fibrewise Jensen's n/4: at a span
    of n/4, z**(n/4) takes only +-1 on the n/2 grid and +-1, +-i on the n
    grid, both grids can miss alike and the estimate collapses
    (1 + z2 + z1^64 at n = 256 reads 2.4 % off with an estimate of 1.6e-15;
    at span 32 it is 0.37 % off with an estimate of 2 %).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if n < 2:
        raise ValueError("grid size must be at least 2")
    if n**p.rank > QUADRATURE_MAX_POINTS:
        raise ValueError(
            f"quadrature grid of {n}^{p.rank} points, over the budget "
            f"{QUADRATURE_MAX_POINTS}"
        )
    _refuse_aliasing(p, range(p.rank), n, n // 8, "quadrature", ValueError)
    log_m = _grid_log_mean(p, n)
    coarse = max(2, n // 2)
    log_coarse = _grid_log_mean(p, coarse) if coarse < n else log_m
    value = math.exp(log_m)
    error = abs(value - math.exp(log_coarse)) + 1e-15 * value
    return MahlerValue(value, log_m, "quadrature", error)


def default_bl_schedule(p: LaurentPolynomial, steps: int = 4, base: int = 25) -> list:
    """Certified geometric specialization ramp for a rank d >= 2 polynomial.

    Specialization sends z_i to powers of a single variable.  Writing b_i
    for the largest exponent magnitude of p on axis i and
    c_i = 2*(b_1 + ... + b_i), any exponent tuple (k_2, ..., k_d) with
    k_2 > c_1, k_3 > c_2*k_2, ... keeps the specialization nonzero and
    commutes with products, so the one-variable measures converge to the
    multivariate one.  Here k_2 doubles from max(base, c_1 + 1) and each
    deeper k_{i+1} = c_i*k_i + 1 rides the chain.
    """
    if p.rank < 2:
        raise ValueError("schedule needs rank at least 2")
    bounds = [p.support_bound(i) for i in range(1, p.rank + 1)]
    c = [2 * sum(bounds[:i]) for i in range(1, p.rank)]
    start = max(base, c[0] + 1)
    tuples = []
    for j in range(steps):
        ks = [start * 2 ** j]
        for i in range(1, p.rank - 1):
            ks.append(c[i] * ks[-1] + 1)
        tuples.append(tuple(ks))
    return tuples


def mahler_boyd_lawton(
    p: LaurentPolynomial, schedule: list | None = None
) -> MahlerValue:
    """Mahler measure as the limit of one-variable specializations, the
    reference that tests check the measure methods against (Lawton 1983).

    The value is the Jensen measure at the last schedule tuple; the error
    estimate is the spread over the final three tuples plus the same
    rounding floor as the Jensen route.  A schedule whose
    specializations exceed degree JENSEN_MAX_DEGREE is refused before any
    root finding.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.rank < 2:
        raise ValueError("need rank at least 2; use mahler_jensen instead")
    if schedule is None:
        schedule = default_bl_schedule(p)
    if not schedule:
        raise ValueError("empty specialization schedule")
    specs = [p.specialize(ks) for ks in schedule]
    degree = max(q.max_exponents()[0] - q.min_exponents()[0] for q in specs)
    if degree > JENSEN_MAX_DEGREE:
        raise ValueError(
            f"boyd_lawton specialization reaches degree {degree}, over the "
            f"budget {JENSEN_MAX_DEGREE}"
        )
    values = []
    for ks, q in zip(schedule, specs):
        if q.is_zero():
            raise ValueError("specialization collapsed to zero at %r" % (tuple(ks),))
        values.append(mahler_jensen(q).value)
    tail = values[-3:]
    spread = max(tail) - min(tail)
    value = values[-1]
    return MahlerValue(value, math.log(value), "boyd_lawton", spread + 1e-15 * value)


def mahler_measure(
    p: LaurentPolynomial,
    method: str = "auto",
    *,
    grid_size: int = 256,
) -> MahlerValue:
    """Mahler measure by a method from MEASURE_METHODS: exact roots in one
    variable whatever the method; in several, the torus grid of
    ``grid_size`` points per axis for "quadrature", else fibrewise Jensen."""
    if method not in MEASURE_METHODS:
        raise ValueError(
            f"unknown measure method {method!r}; pick one of {MEASURE_METHODS}"
        )
    if method == "quadrature" and p.rank > 1:
        return log_mahler_quadrature(p, grid_size)
    return mahler_fibrewise(p)
