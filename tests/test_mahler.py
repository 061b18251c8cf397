"""Root finding, Jensen measures, torus quadrature, specialization limits."""

import cmath
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import fkdet.mahler
from fkdet.intpoly import (
    cyclotomic,
    primitive,
    proven_squarefree,
    squarefree_decomposition,
    totient,
    word_prime,
)
from fkdet.laurent import LaurentPolynomial, parse_polynomial
from fkdet.mahler import (
    FIBRE_GRID,
    FIBRE_MAX_DEGREE,
    JENSEN_MAX_DEGREE,
    QUADRATURE_MAX_POINTS,
    SMYTH_THETA0,
    _GRAEFFE_LIMITS,
    _graeffe_step,
    _graeffe_steps,
    _squarefree_splits,
    default_bl_schedule,
    graeffe_bounds,
    line_coeffs,
    log_mahler_quadrature,
    mahler_boyd_lawton,
    mahler_jensen,
    mahler_jensen_batch,
    mahler_measure,
    pad_lines,
    roots_one_var,
    screen_lines,
)

from helpers import (
    cyclotomic_product_oracle,
    face_bound,
    measure_bound_reference,
    np_jensen_reference,
    np_roots_reference,
    rand_poly,
    screen_row,
    sylvester_resultant,
)

LEHMER = "z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1"
LEHMER_MEASURE = 1.176280818259917
TWO_VAR_LOG = 0.3230659472194505  # log M(1 + z1 + z2), Smyth
THREE_VAR_LOG = 7 * 1.2020569031595943 / (2 * math.pi**2)  # 7 zeta(3) / (2 pi^2)


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rand_poly_1var(rng, max_deg=8, bound=5, integer=True):
    while True:
        deg = rng.randrange(0, max_deg + 1)
        coeffs = [rng.randrange(-bound, bound + 1) for _ in range(deg + 1)]
        if any(coeffs):
            break
    terms = {}
    shift = rng.randrange(-3, 4)
    for e, c in enumerate(coeffs):
        if c:
            terms[(e + shift,)] = c
    return LaurentPolynomial(1, terms)


# ---------------------------------------------------------------------------
# square-free decomposition


def test_squarefree_plain():
    # z^2 - 1 is already square-free
    assert squarefree_decomposition([-1, 0, 1]) == [([-1, 0, 1], 1)]


def test_squarefree_with_multiplicities():
    p = _conv(_conv([-1, 1], [-1, 1]), _conv(_conv([2, 1], [2, 1]), [2, 1]))
    assert squarefree_decomposition(p) == [([-1, 1], 2), ([2, 1], 3)]


def test_squarefree_with_leading_coefficients_other_than_one():
    # every pseudo-division in the gcds scales by a leading coefficient
    p = _conv(_conv([1, 2], [1, 2]), _conv(_conv([5, -1, 3], [5, -1, 3]), [5, -1, 3]))
    assert squarefree_decomposition(p) == [([1, 2], 2), ([5, -1, 3], 3)]
    # M(2z + 1) = 2 and M(3z^2 - z + 5) = 3 * 5/3, both roots being outside
    got = mahler_jensen(LaurentPolynomial(1, {(i,): c for i, c in enumerate(p)}))
    assert got.value == pytest.approx(2**2 * 5**3, rel=1e-12)


def test_squarefree_pure_power():
    assert squarefree_decomposition([0, 0, 0, 1]) == [([0, 1], 3)]


def test_squarefree_reassembles():
    rng = random.Random(7)
    for _ in range(60):
        factors = []
        for _ in range(rng.randrange(1, 3)):
            deg = rng.randrange(1, 4)
            f = [rng.randrange(-3, 4) for _ in range(deg)] + [rng.choice([1, -1, 2])]
            factors.append((f, rng.randrange(1, 4)))
        p = [1]
        for f, m in factors:
            for _ in range(m):
                p = _conv(p, f)
        got = squarefree_decomposition(p)
        rebuilt = [1]
        for f, m in got:
            for _ in range(m):
                rebuilt = _conv(rebuilt, f)
        # the decomposition is primitive with positive leading signs, so
        # compare up to a rational scalar
        lead = p[-1]
        lead_r = rebuilt[-1]
        assert [x * lead for x in rebuilt] == [x * lead_r for x in p]


# the prime the batched square-free proof works modulo
P = word_prime(0)


def _squarefree_cases(rng):
    """Square-free and repeated-factor polynomials with nonzero constant
    terms: random ones with planted repeated factors, squares of cyclotomic
    polynomials and of their products, and random square-free ones."""
    out = []
    for _ in range(300):
        part = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        part[-1] = part[-1] or 1
        rest = [rng.choice([-1, 1, 3])] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
        rest[-1] = rest[-1] or -2
        out.append(_conv(_power(part, rng.randint(2, 3)), rest))
    for n in range(1, 40):
        phi = list(cyclotomic(n))
        out += [_power(phi, 2), _conv(_power(phi, 2), list(cyclotomic(n % 7 + 1)))]
    for _ in range(300):
        c = [rng.choice([-2, -1, 1])] + [rng.randint(-2, 2) for _ in range(rng.randint(1, 14))]
        c[-1] = c[-1] or 1
        out.append(c)
    return out


def _check_squarefree_proof(polys):
    """_squarefree_splits of ``polys`` is Yun's, and every row
    proven_squarefree claims, stacked by degree, has Res(f, f') nonzero mod
    P and a split of one factor of multiplicity 1; returns how many rows of
    each kind (square-free by Yun, proven) there were."""
    want = [squarefree_decomposition(c) for c in polys]
    assert _squarefree_splits(polys) == want
    by_degree = {}
    for c, split in zip(polys, want):
        if all(abs(x) < P for x in c):
            by_degree.setdefault(len(c) - 1, []).append((c, split))
    squarefree = sum(split == [(primitive(c), 1)] for c, split in zip(polys, want))
    proven = 0
    for group in by_degree.values():
        claims = proven_squarefree(np.array([c for c, _ in group], dtype=np.int64))
        for (c, split), claimed in zip(group, claims.tolist()):
            if claimed:
                proven += 1
                assert split == [(primitive(c), 1)], c
                assert sylvester_resultant(tuple(c), tuple(_deriv(c))) % P, c
    return squarefree, proven


def _deriv(c):
    return [i * x for i, x in enumerate(c)][1:]


def test_squarefree_proof_never_claims_a_split_row():
    squarefree, proven = _check_squarefree_proof(_squarefree_cases(random.Random(25)))
    # the planted squares are never proven; most square-free rows are
    assert 250 < proven <= squarefree < 400


def _even_and_reciprocal_cases(rng):
    """Even, reciprocal and anti-reciprocal integer polynomials, a quarter
    of them times the square of a small cyclotomic factor: rows whose
    remainder sequences over Q often drop degrees."""
    out = []
    for _ in range(400):
        half = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]
        half[-1] = half[-1] or 1
        kind = rng.randrange(3)
        if kind == 0:
            # g(z^2)
            c = [x for h in half for x in (h, 0)][:-1]
        elif kind == 1:
            c = half + half[-2::-1]
        else:
            c = half + [-x for x in reversed(half)]
        if rng.randrange(4) == 0:
            c = _conv(c, _power(rng.choice([[1, 1], [1, 0, 1], [1, 1, 1], [-1, 1]]), 2))
        out.append(c)
    return out


def test_squarefree_proof_follows_sequences_that_drop_degrees():
    # square-free rows whose remainder sequence over Q drops a degree: an
    # even polynomial's f' is odd, so the first remainder is even too.  The
    # proof fills each dropped degree with a factor z - w, so their
    # sequences still end in a nonzero constant mod P
    abnormal = [[1, 0, 0, 0, 1], [1, 0, 1, 0, 0, 0, 1], [1, 0, -1, 0, 0, 0, 0, 0, 1]]
    assert proven_squarefree(np.array(abnormal[:1] * 2)).all()
    squarefree, proven = _check_squarefree_proof(abnormal + [[1, 2, 0, 1, 1]] * 2)
    assert squarefree == proven == 5
    # every square-free row of the random ones is proven, and no other
    squarefree, proven = _check_squarefree_proof(
        _even_and_reciprocal_cases(random.Random(29))
    )
    assert 200 < proven == squarefree < 400


def test_squarefree_proof_needs_leads_prime_to_p():
    # a lead divisible by P, alone or after a smaller term: f mod P has a
    # lower degree, and the proof claims nothing about f
    rows = np.array([[1, 1, P], [1, 1, 2 * P], [3, 0, -P], [1, 2, 1]], dtype=np.int64)
    assert proven_squarefree(rows).tolist() == [False, False, False, False]
    # (z + 1)^2 + P z^3 is square-free; (z - 2)^2 (P z + 1) is not
    for c in ([1, 2, 1, P], _conv(_conv([-2, 1], [-2, 1]), [1, P])):
        assert not proven_squarefree(np.array([c, c], dtype=np.int64)).any()
    # a degree whose lead times the degree is divisible by P would need a
    # degree of at least P, past any root finder; a lead of P - 1 is fine
    assert proven_squarefree(np.array([[1, P - 1]] * 2, dtype=np.int64)).all()
    _check_squarefree_proof([[1, P - 1], [-1, 1 - P], [1, 1, P - 1], [2, 1, 1 - P]])


def test_squarefree_proof_sends_big_coefficients_to_yun(monkeypatch):
    # rows with a coefficient of 2^31 or more take Yun, whatever their
    # degree group holds
    seen = []
    prove = fkdet.mahler.proven_squarefree

    def spy(rows):
        seen.extend(map(tuple, rows.tolist()))
        return prove(rows)

    monkeypatch.setattr(fkdet.mahler, "proven_squarefree", spy)
    big = [
        _conv(_conv([2**40, 1], [2**40, 1]), [1, 1]),
        [3, -(2**31), 1, 5],
        [P, 1, 0, 1],
        [1, 1, 0, -P],
        [7, 2**64, 1, 2**63],
    ]
    small = [[1, 1, 0, 1], [1, 0, 1, 1], _conv([1, 1], [1, 1]) + [1]]
    squarefree, proven = _check_squarefree_proof(big + small)
    assert squarefree == 7 and proven == 3
    assert {tuple(c) for c in small} <= set(seen)
    assert not {tuple(c) for c in big} & set(seen)


def test_squarefree_proof_keeps_one_row_degrees_on_yun(monkeypatch):
    # a degree group of one row, as every roots_one_var call is, takes Yun
    calls = []
    monkeypatch.setattr(fkdet.mahler, "proven_squarefree", calls.append)
    assert _squarefree_splits([LEHMER_COEFFS, [1, 1, 1]]) == [
        [(LEHMER_COEFFS, 1)],
        [([1, 1, 1], 1)],
    ]
    roots_one_var(parse_polynomial(LEHMER))
    assert calls == []


# ---------------------------------------------------------------------------
# roots


def test_roots_quadratic():
    data = roots_one_var(parse_polynomial("z^2 - 1"))
    assert data.lead_abs == 1.0
    assert data.stripped_exponent == 0
    assert sorted(r.real for r in data.roots) == pytest.approx([-1.0, 1.0])


def test_roots_linear_with_content():
    data = roots_one_var(parse_polynomial("2*z - 4"))
    assert data.lead_abs == 2.0
    assert list(data.roots) == pytest.approx([2.0 + 0.0j])


def test_roots_lehmer_salem_structure():
    data = roots_one_var(parse_polynomial(LEHMER))
    assert len(data.roots) == 10
    outside = [r for r in data.roots if abs(r) > 1 + 1e-12]
    inside = [r for r in data.roots if abs(r) < 1 - 1e-12]
    assert len(outside) == 1
    assert len(inside) == 1
    assert abs(outside[0]) == pytest.approx(LEHMER_MEASURE, abs=1e-9)


def test_roots_multiplicity_and_strip():
    p = parse_polynomial("z^5 - 2*z^4 + z^3")  # z^3 (z - 1)^2
    data = roots_one_var(p)
    assert data.stripped_exponent == 3
    assert len(data.roots) == 2
    assert all(abs(r - 1) < 1e-9 for r in data.roots)


def test_roots_negative_laurent_exponent():
    p = LaurentPolynomial(1, {(-2,): 1, (-1,): -3})  # z^-2 (1 - 3 z)
    data = roots_one_var(p)
    assert data.stripped_exponent == -2
    assert list(data.roots) == pytest.approx([1 / 3])
    assert data.lead_abs == 3.0


def test_roots_constant_and_errors():
    data = roots_one_var(parse_polynomial("7"))
    assert data.roots == ()
    assert data.lead_abs == 7.0
    with pytest.raises(ValueError):
        roots_one_var(LaurentPolynomial.zero(1))
    with pytest.raises(ValueError):
        roots_one_var(parse_polynomial("z1 + z2"))


def test_roots_product_reconstruction():
    rng = random.Random(17)
    for _ in range(30):
        p = rand_poly_1var(rng)
        data = roots_one_var(p)
        for _ in range(3):
            angle = rng.uniform(0, 2 * math.pi)
            z = cmath.exp(1j * angle)
            direct = abs(
                sum(c * z ** e for (e,), c in p.terms.items())
            )
            recon = data.lead_abs
            for r in data.roots:
                recon *= abs(z - r)
            assert math.isclose(direct, recon, rel_tol=1e-8, abs_tol=1e-8)


def test_roots_high_degree_exact_values():
    p = LaurentPolynomial(1, {(0,): -1, (40,): 1})  # z^40 - 1
    data = roots_one_var(p)
    assert len(data.roots) == 40
    assert all(abs(abs(r) - 1) < 1e-10 for r in data.roots)
    assert mahler_jensen(p).value == pytest.approx(1.0, abs=1e-9)
    # high-degree companion roots give integer measures to rounding
    phi37 = LaurentPolynomial(1, {(i,): 1 for i in range(37)})
    for poly, exact in (
        (parse_polynomial("z^64 - 2"), 2.0),
        (parse_polynomial("z - 3") * phi37, 3.0),
    ):
        got = mahler_jensen(poly)
        assert got.value == pytest.approx(exact, rel=1e-13)
        assert abs(got.value - exact) <= got.error_estimate


def _batch_inputs(rng, count):
    """Integer polynomials of degree 1 to 40 with leading coefficients of
    either size, some with a repeated factor, some with a z^k factor or
    trailing zeros."""
    out = []
    while len(out) < count:
        degree = rng.randint(1, 40)
        if rng.random() < 0.4 and degree >= 3:
            mult = rng.randint(2, 3)
            inner = rng.randint(1, degree // mult)
            part = [rng.choice([-2, -1, 1, 3])] + [rng.randint(-2, 2) for _ in range(inner)]
            part[-1] = part[-1] or 1
            c = [1]
            for _ in range(mult):
                c = _conv(c, part)
            rest = degree - mult * inner
            if rest:
                c = _conv(c, [rng.choice([-1, 1, 2])] + [rng.randint(-3, 3) for _ in range(rest)])
        else:
            c = [rng.choice([-3, -1, 1, 2])] + [rng.randint(-4, 4) for _ in range(degree)]
        if c[-1] == 0:
            c[-1] = rng.choice([-5, -2, 1, 4])
        if rng.random() < 0.2:
            c = [0] * rng.randint(1, 3) + c + [0] * rng.randint(0, 2)
        out.append(c)
    return out


def test_stacked_roots_match_np_roots_bit_for_bit():
    # one stacked companion solve per degree against np.roots and np.polyval
    # Newton steps, one polynomial at a time: the same roots, residuals and
    # Jensen values, bit for bit.  The batch proves 143 of its rows
    # square-free modulo a word prime and sends the others to Yun; the
    # single route sends every row to Yun
    polys = _batch_inputs(random.Random(19), 200)
    lines = [list(c) for c in polys]
    for c in lines:
        while c[0] == 0:
            c.pop(0)
        while c[-1] == 0:
            c.pop()
    factors = [f for c in lines for f, _ in squarefree_decomposition(c)]
    assert len({len(f) for f in factors}) > 20
    assert sum(mult > 1 for c in lines for _, mult in squarefree_decomposition(c)) > 20
    for factor, (roots, residual) in zip(factors, fkdet.mahler._roots_squarefree(factors)):
        want, want_residual = np_roots_reference(factor)
        assert np.array_equal(roots, want) and residual == want_residual, factor
    batch = mahler_jensen_batch(polys)
    for c, got in zip(polys, batch):
        assert (got.value, got.log_value, got.error_estimate) == np_jensen_reference(c), c
        # the single route, through a LaurentPolynomial
        single = mahler_jensen(LaurentPolynomial(1, {(i,): x for i, x in enumerate(c) if x}))
        assert single == got, c
    # a batch of one gives the same value as the whole batch
    assert mahler_jensen_batch(polys[:1]) == batch[:1]


def test_stacked_horner_edge_cases_match_np_roots_bit_for_bit():
    # one _horner call per Newton step on [p; 0 || p'] at [roots; roots]:
    # degree-1 factors, whose derivative row is the padded 0 and a
    # constant, real negative roots, and one batch of many degrees, each
    # factor against np.roots and np.polyval one at a time
    linear = [[1, 1], [3, 2], [-5, 4], [2, 7], [1, -3]]
    negative = [
        [6, 11, 6, 1],  # (z + 1)(z + 2)(z + 3)
        [4, 9, 2],  # (2z + 1)(z + 4)
        [105, 176, 86, 16, 1],  # (z + 1)(z + 3)(z + 5)(z + 7)
        [-6, 1, 1],  # (z + 3)(z - 2)
        [1, 0, 0, 0, 0, 1],  # z^5 + 1, a root at -1
    ]
    rng = random.Random(27)
    mixed = []
    for degree in range(1, 13):
        while True:
            f = [rng.choice([-2, -1, 1, 3])] + [rng.randint(-3, 3) for _ in range(degree)]
            f[-1] = f[-1] or 1
            if squarefree_decomposition(f) == [(f, 1)]:
                mixed.append(f)
                break
    rng.shuffle(mixed)
    for batch in (linear, negative, mixed, linear + negative + mixed):
        for factor, (roots, residual) in zip(batch, fkdet.mahler._roots_squarefree(batch)):
            want, want_residual = np_roots_reference(factor)
            assert np.array_equal(roots, want) and residual == want_residual, factor


def test_fibre_values_match_np_roots_per_fibre(monkeypatch):
    # the fibres take the same companion kernel: each fibre solved alone by
    # np.roots gives the same measure, bit for bit, on the generator of
    # acceptance criterion 8
    rng = random.Random(18)
    polys = []
    for max_exp in (1, 2, 3):
        while len(polys) < 12 * max_exp:
            p = rand_poly(rng, 2, max_exp=max_exp)
            if not p.is_zero() and line_coeffs(p.terms) is None:
                polys.append(p)
    fibres = []
    kernel = fkdet.mahler._companion_roots

    def counted(desc):
        fibres.append(len(desc))
        return kernel(desc)

    monkeypatch.setattr(fkdet.mahler, "_companion_roots", counted)
    stacked = [mahler_measure(p) for p in polys]
    assert sum(fibres) > 10 * len(polys)
    monkeypatch.setattr(
        fkdet.mahler,
        "_companion_roots",
        lambda desc: np.array([np.roots(row) for row in desc]),
    )
    assert [mahler_measure(p) for p in polys] == stacked


# ---------------------------------------------------------------------------
# exact cyclotomic test and measure lower bound


def _cyclotomic_from_roots(n):
    # independent of the code under test: expand prod (z - zeta) over the
    # primitive n-th roots of unity and round
    zetas = [cmath.exp(2j * math.pi * k / n) for k in range(1, n + 1) if math.gcd(k, n) == 1]
    desc = [1]
    for w in zetas:
        desc = [a - w * b for a, b in zip(desc + [0], [0] + desc)]
    return [round(c.real) for c in reversed(desc)]


def _products_up_to(factors, max_degree):
    # every product of the factors (with repetition) of degree <= max_degree
    out = [[1]]
    frontier = [([1], 0)]
    while frontier:
        nxt = []
        for poly, start in frontier:
            for i in range(start, len(factors)):
                if len(poly) + len(factors[i]) - 2 <= max_degree:
                    q = _conv(poly, factors[i])
                    out.append(q)
                    nxt.append((q, i))
        frontier = nxt
    return out


def test_cyclotomic_products_are_recognized():
    factors = [_cyclotomic_from_roots(n) for n in range(1, 43)]
    factors = [f for f in factors if len(f) - 1 <= 12]
    assert len(factors) == 26
    products = _products_up_to(factors, 12)
    assert len(products) > 1000
    for p in products:
        assert screen_row(p)[0], p
        assert screen_row([-c for c in p])[0], p
        assert screen_row([0, 0] + p)[0], p
    assert screen_row([1, -1, -1, 1])[0]  # (z - 1)^2 (z + 1)
    assert screen_row([1, -1])[0]  # -Phi_1


def test_non_cyclotomic_polynomials_are_rejected():
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    for p in (lehmer, [-1, -1, 0, 1], [-2, 0, 1], [2, 2, 2], [2, 0, 1, 0, 1], [2], [0]):
        assert not screen_row(p)[0], p


def _cyclotomic_block_agrees(lines):
    """exact_one of screen_lines on ``lines`` (zero-padded to one width,
    1 024 rows a block), checked row by row against the trial-division
    oracle; returns exact_one as a list."""
    width = max(len(c) for c in lines)
    out = []
    for start in range(0, len(lines), 1024):
        chunk = lines[start : start + 1024]
        block = np.array([c + [0] * (width - len(c)) for c in chunk])
        exact_one = screen_lines(block)[0].tolist()
        assert exact_one == [cyclotomic_product_oracle(c) for c in chunk]
        out += exact_one
    return out


def _power(p, k):
    out = [1]
    for _ in range(k):
        out = _conv(out, p)
    return out


def _spread(c, k):
    # c(z^k)
    out = [0] * (k * (len(c) - 1) + 1)
    out[::k] = c
    return out


LEHMER_COEFFS = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def _products_to_16():
    factors = [list(cyclotomic(n)) for n in range(1, 61) if totient(n) <= 16]
    assert len(factors) == 32
    return _products_up_to(factors, 16)


def test_cyclotomic_block_test_on_every_product_up_to_degree_16():
    products = _products_to_16()
    assert len(products) == 20581
    assert all(_cyclotomic_block_agrees(products))
    # (z - 1)^12 and (z + 1)^3 Phi_3^2: multiplicities above 1
    named = [_power([-1, 1], 12), _conv(_power([1, 1], 3), _power([1, 1, 1], 2))]
    rng = random.Random(16)
    for p in named + rng.sample(products, 200):
        sign = rng.choice([1, -1])
        shifted = [0] * rng.randrange(4) + [sign * c for c in p]
        assert screen_row(shifted)[0]
        assert cyclotomic_product_oracle(shifted)


def test_cyclotomic_block_test_rejects_near_misses():
    # reciprocal rows with |lead| = |const| = 1, the only rows the count of
    # multiplicities decides: Lehmer's polynomial times cyclotomic
    # products, and cyclotomic products with one symmetric pair of
    # coefficients moved by one, which stay cyclotomic only by accident
    products = _products_to_16()
    lehmer = [_conv(LEHMER_COEFFS, p) for p in products if len(p) <= 7]
    moved = []
    rng = random.Random(61)
    for p in rng.sample(products, 3000):
        d = len(p) - 1
        sign = 1 if p == p[::-1] else -1
        i = rng.randrange(d + 1)
        if d < 2 or i in (0, d) or (2 * i == d and sign == -1):
            continue
        q = list(p)
        step = rng.choice([1, -1])
        q[i] += step
        if 2 * i != d:
            q[d - i] += sign * step
        moved.append(q)
    assert not any(_cyclotomic_block_agrees(lehmer))
    exact_one = _cyclotomic_block_agrees(moved)
    assert len(moved) > 2000
    assert 0 < sum(exact_one) < len(moved) // 4


def _norm(c):
    return sum(map(abs, c))


def test_cyclotomic_block_test_takes_python_ints_past_int64():
    # degree 40 with multiplicities up to 40: a row squares in Python ints
    # from the first step whose ||p_k||_1 passes _GRAEFFE_LIMITS[1], at the
    # start for (z - 1)^40 and after one step for (z^2 - 1)^20, whose square
    # is (y - 1)^40
    top = math.comb(40, 20)
    lines = [
        _power([-1, 1], 40),  # (z - 1)^40
        _spread(_power([-1, 1], 20), 2),  # (z^2 - 1)^20
        _conv(_power([-1, 1], 30), LEHMER_COEFFS),
        _conv(_power([1, 1], 36), _power([1, 1, 1], 2)),
        _conv(_power([-1, 1], 39), [1, 1]),
    ]
    moved = _power([-1, 1], 40)
    moved[20] += 1
    lines.append(moved)
    assert max(abs(c) for line in lines for c in line) == top + 1
    assert _norm(lines[0]) > _GRAEFFE_LIMITS[1]
    assert _norm(lines[1]) <= _GRAEFFE_LIMITS[1] < _norm(_graeffe_reference(lines[1], 1))
    assert _cyclotomic_block_agrees(lines) == [True, True, False, True, True, False]


def _alone(lines):
    # exact_one of each row screened as a block of one, at its own width
    return [screen_lines(pad_lines([c], len(c)))[0][0] for c in lines]


def test_cyclotomic_block_test_decides_each_row_as_alone():
    # a block squares every row as often as its highest degree asks, and
    # routes each row to int64 or Python ints by its own norm; each row
    # decides in the block as it does alone
    rng = random.Random(18)
    products = rng.sample(_products_to_16(), 300)
    lehmer = [_conv(LEHMER_COEFFS, p) for p in products if len(p) <= 7][:100]
    lines = [p + [0] * (17 - len(p)) for p in products + lehmer]
    whole = screen_lines(np.array(lines))[0].tolist()
    assert 0 < sum(whole) < len(lines)
    assert whole == _alone(products + lehmer)


def test_cyclotomic_block_mixes_int64_and_python_int_rows():
    # a row squares in Python ints only at the steps where its own
    # ||p_k||_1 is past the int64 limit: 1 - z^64 from the fifth (six take
    # it to (1 - y)^64, ||.||_1 = 2^64), (z + 1)^30 Phi_3 at the first only
    wide = [
        [1] + [0] * 63 + [-1],  # 1 - z^64
        _conv(_spread([1, 1], 32), _power([-1, 1], 20)),  # (z^32 + 1)(z - 1)^20
        _spread(LEHMER_COEFFS, 6),
        _conv(_power([1, 1], 30), [1, 1, 1]),  # (z + 1)^30 Phi_3
    ]
    small = [[1, 1], [1, -1, 1], LEHMER_COEFFS, [1, 1, 1, 1], [1, 0, 1, 1]]
    assert _graeffe_reference(wide[0], 6) == _power([1, -1], 64)
    norms = [_norm(_graeffe_reference(wide[0], k)) for k in (4, 5)]
    assert norms[0] <= _GRAEFFE_LIMITS[1] < norms[1]
    norms = [_norm(_graeffe_reference(wide[3], k)) for k in (1, 0)]
    assert norms[0] <= _GRAEFFE_LIMITS[1] < norms[1]
    lines = wide + small
    expect = [True, True, False, True, True, True, False, True, False]
    assert _cyclotomic_block_agrees(lines) == expect
    assert _alone(lines) == expect
    # a Python-int block, as pad_lines gives one past int64: the large row
    # is dropped and every other decides as before
    big = pad_lines(lines + [[1, 2**64, 1]], 65)
    assert big.dtype == object
    assert screen_lines(big)[0].tolist() == expect + [False]


def test_cyclotomic_test_reads_coefficients_past_the_float_range():
    # |c_j| past 1e308 reads as the largest float, above every binomial of
    # these degrees: decided False, with no error
    for p in ([1, 10**400, 1], [1, 0, -(10**400), 0, 1], [-1, 10**309, 10**309, -1]):
        assert not screen_row(p)[0], p
        assert not cyclotomic_product_oracle(p)
    lines = pad_lines([[1, 10**400, 1], [1, 1, 1], [-1, 1]], 3)
    assert screen_lines(lines)[0].tolist() == [False, True, True]


def _boundary_rows():
    # z^(2^j) + 1 = Phi_(2^(j + 1)), whose roots have order 2^(j + 1), and its
    # products with factors of lower degree, all of degree m < 2^(j + 1):
    # K = m.bit_length() = j + 1, so the roots reach odd order only at step K
    rows = []
    for j in range(8):
        phi = _spread([1, 1], 2**j)
        rows.append(phi)
        if j:
            rows += [_conv(phi, [-1, 1]), _conv(phi, _power([1, 1, 1], (2**j - 1) // 2))]
        for c in rows[-3:]:
            assert 2**j <= len(c) - 1 < 2 ** (j + 1)
    return rows


def test_cyclotomic_test_takes_every_squaring_at_the_boundary():
    rows = _boundary_rows()
    for c in rows:
        if len(c) > 64:
            continue
        k = (len(c) - 1).bit_length()
        # K squarings close the roots under squaring, K - 1 do not
        after, before = _graeffe_reference(c, k + 1), _graeffe_reference(c, k)
        assert after in (before, [-x for x in before]), c
        last = _graeffe_reference(c, k - 1)
        assert before not in (last, [-x for x in last]), c
    assert all(_alone(rows))
    width = max(map(len, rows))
    assert screen_lines(pad_lines(rows, width))[0].all()
    # one symmetric pair moved by one: cyclotomic only by accident, as
    # (z + 1)(z^3 + 1) from z^4 + 1
    moved = [
        c[:1] + [c[1] + 1] + c[2:-2] + [c[-2] + 1] + c[-1:] for c in rows if 3 < len(c) <= 64
    ]
    assert 0 < sum(_cyclotomic_block_agrees(moved)) < len(moved) // 2


def test_cyclotomic_test_of_odd_degree_and_signed_rows():
    # a row of odd degree m squares to a lead of (-1)^m, so p_1 flips the
    # sign of a positive lead; -1 at degree 0 squares to +1 = -p_0, the one
    # place the sign of the last comparison shows
    rows = [
        [1, -1],  # -Phi_1
        [-1, 1],
        [1, 1],
        [-1, 3, -3, 1],  # (z - 1)^3
        [1, 2, 2, 1],  # Phi_2 Phi_3
        [1, -2, 2, -1],  # -Phi_1 Phi_6
        [1, 0, 0, 0, 0, -1],  # -(z^5 - 1)
        [1] + [0] * 6 + [1],  # z^7 + 1
        [1, -3, -3, 1],  # (z + 1)(z^2 - 4z + 1)
        [1, 1, 0, 0, 0, 0, 1, 1],  # Phi_2 (z^6 + 1)
        _conv(LEHMER_COEFFS, [1, 1]),
        [1],
        [-1],
    ]
    rows += [[-x for x in c] for c in rows]
    want = [cyclotomic_product_oracle(c) for c in rows]
    assert want.count(False) == 4
    assert _alone(rows) == want
    assert [screen_row(c)[0] for c in rows] == want


def test_cyclotomic_test_of_a_wide_sparse_row_stays_small():
    # a support-capped row of degree 200 squares only the columns that are
    # nonzero in some row, and each step is the Python-int one
    lehmer = dict(zip(range(0, 201, 20), LEHMER_COEFFS))
    cases = [
        ({0: 1, 200: -1}, True),  # z^200 - 1
        ({0: 1, 100: 2, 200: 1}, True),  # (z^100 + 1)^2
        ({0: 1, 100: 3, 200: 1}, False),
        ({0: 1, 70: 1, 130: 1, 200: 1}, True),  # (z^70 + 1)(z^130 + 1)
        ({0: 1, 99: -1, 101: -1, 200: 1}, True),  # (z^99 - 1)(z^101 - 1)
        (dict(zip(range(0, 201, 20), _power([-1, 1], 10))), True),  # (z^20 - 1)^10
        (lehmer, False),  # Lehmer's polynomial at z^20
    ]
    rows = [[terms.get(k, 0) for k in range(201)] for terms, _ in cases]
    for coeffs, (terms, want) in zip(rows, cases):
        assert screen_row(coeffs)[0] == want, terms
    stepped = _graeffe_step(np.array(rows)).tolist()
    assert stepped == [_graeffe_reference(c, 1) for c in rows]


def test_measure_lower_bound():
    assert screen_row([-1, -1, 0, 1])[1] == SMYTH_THETA0  # z^3 - z - 1
    assert screen_row([0, 0, 1, 1, 0])[1] == 1.0  # z^2 (1 + z)
    assert screen_row([1, 0, 0, 3])[1] == 3.0
    assert screen_row([2, 1, 2])[1] == 2.0
    # coefficients past int64 are read as Python ints, not floats
    assert screen_row([1, 2**64 - 1, 1])[1] == 1.0
    assert screen_row([1, 2**64 - 1, 2**64 - 1])[1] == float(2**64 - 1)
    assert not screen_row([1, 2**64 - 1, 1])[0]
    rng = random.Random(7)
    for _ in range(300):
        p = [rng.randint(-3, 3) for _ in range(rng.randint(1, 9))]
        if any(p):
            assert screen_row(p)[1] == measure_bound_reference(p), p
    # Smyth's constant is the measure of z^3 - z - 1 to the last digit
    theta = mahler_jensen(parse_polynomial("z^3 - z - 1")).value
    assert theta == pytest.approx(SMYTH_THETA0, rel=1e-15)


@pytest.mark.parametrize(
    "text, bound",
    [
        ("1 + z1 + z2", 1.0),
        ("2 + z1 + z2", 2.0),  # the face 2 + z2 at the lowest power of z1
        ("z2^3 - z2 - 1 + z1", SMYTH_THETA0),
        # the face 5 + z1 + z2 at the top power of z3 is not collinear
        ("1 + z1 + z1*z2 + 5*z3 + z1*z3 + z2*z3", 5.0),
    ],
)
def test_face_lower_bound(text, bound):
    p = parse_polynomial(text, rank=3)
    assert face_bound({e: int(c) for e, c in p.terms.items()}) == bound
    value = mahler_measure(p)
    assert value.value + value.error_estimate >= bound


def test_exact_screen_agrees_with_jensen():
    # Kronecker against the float route, and the bound below every measure
    rng = random.Random(37)
    for _ in range(400):
        deg = rng.randrange(0, 9)
        coeffs = [rng.randrange(-2, 3) for _ in range(deg)] + [rng.choice([-2, -1, 1, 2])]
        coeffs[0] = coeffs[0] or 1
        value = mahler_jensen(
            LaurentPolynomial(1, {(e,): c for e, c in enumerate(coeffs) if c})
        ).value
        assert screen_row(coeffs)[0] == (value < 1 + 1e-9), coeffs
        assert value >= screen_row(coeffs)[1] * (1 - 1e-12), coeffs


# ---------------------------------------------------------------------------
# Graeffe bounds


def _graeffe_reference(coeffs, k):
    """k root-squaring steps in Python ints: p_(i+1)(x^2) = p_i(x) p_i(-x)
    up to sign, its even coefficients."""
    p = list(coeffs)
    for _ in range(k):
        q = [0] * (2 * len(p) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(p):
                q[i + j] += a * b * (-1) ** j
        p = q[::2]
    return p


def _graeffe_bound_reference(coeffs, k):
    """(max_j |c_j| / C(m, j))^(1/2^k) over the k-th root square, with
    exact ratios."""
    m = max(i for i, c in enumerate(coeffs) if c)
    c = _graeffe_reference(coeffs, k)
    largest = max(Fraction(abs(c[j]), math.comb(m, j)) for j in range(m + 1))
    return float(largest) ** (1 / 2**k)


def _graeffe_agrees(lines):
    """graeffe_bounds of ``lines`` (nonzero ascending lists) padded to one
    width: never above the measure, never below |lead| and |p(0)|, and
    equal to the reference at the steps the row takes."""
    width = max(map(len, lines))
    padded = pad_lines(lines, width)
    bounds = graeffe_bounds(padded).tolist()
    steps = _graeffe_steps(padded).tolist()
    for c, b, k, v in zip(lines, bounds, steps, mahler_jensen_batch(lines)):
        assert b <= v.value * (1 + 1e-12), c
        lead = [x for x in c if x][-1]
        assert b >= max(abs(c[0]), abs(lead)) * (1 - 1e-12), c
        assert b == pytest.approx(_graeffe_bound_reference(c, k), rel=1e-12), c
    return bounds, steps


def test_graeffe_bound_is_below_the_measure_on_random_rows():
    rng = random.Random(41)
    lines = []
    while len(lines) < 600:
        c = [rng.randint(-3, 3) for _ in range(rng.randint(2, 31))]
        if any(c):
            lines.append(c)
    _, steps = _graeffe_agrees(lines)
    # ||p||_1 runs up to 93 here: 3 steps for most rows, 4 for the sparse ones
    assert set(steps) >= {3, 4}


def test_graeffe_bound_on_cyclotomic_reciprocal_and_shifted_rows():
    rng = random.Random(42)
    products = rng.sample(_products_to_16(), 200)
    bounds, _ = _graeffe_agrees(products)
    # a cyclotomic product measures 1, and its bound is at most that
    assert max(bounds) <= 1 + 1e-12
    # (z + 1)^m attains Mahler's inequality at every step
    assert _graeffe_agrees([_power([1, 1], 12)])[0] == [pytest.approx(1.0, rel=1e-15)]
    reciprocal = []
    for _ in range(200):
        half = [rng.randint(-2, 2) for _ in range(rng.randint(1, 8))]
        half[0] = half[0] or 1
        reciprocal.append(half + half[-2::-1])
    _graeffe_agrees(reciprocal)
    _graeffe_agrees([[0] * rng.randint(1, 5) + c for c in reciprocal[:100]])
    _graeffe_agrees([LEHMER_COEFFS, [0, 0, 0] + LEHMER_COEFFS, [-1, -1, 0, 1]])


def test_graeffe_steps_follow_the_int64_limit():
    # ||p||_1^(2^k) < 2^63 allows k steps; the largest norms that allow
    # 5, 4, 3, 2 and 1 of them are 3, 15, 234, 55108 and 3037000499
    limits = [3, 15, 234, 55108, 3037000499]
    lines = []
    for k, limit in zip(range(5, 0, -1), limits):
        assert limit ** (2**k) < 2**63 <= (limit + 1) ** (2**k)
        # two rows at the limit, one with the norm spread over coefficients
        # of one sign, which the squares make largest; and one past it
        third = limit // 3
        lines += [[limit - 1, 1], [third, third, limit - 2 * third], [limit, 1]]
    lines += [[1], [-1, 0, 0, 1], [2**62, 1], [2**63 - 1]]
    _, steps = _graeffe_agrees(lines)
    assert steps == [5, 5, 4, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 5, 5, 0, 0]
    # every step taken in int64 is the Python-int one
    for c, k in zip(lines, steps):
        rows = pad_lines([c], len(c))
        for _ in range(k):
            rows = fkdet.mahler._graeffe_step(rows)
        assert rows.dtype == np.int64
        assert rows[0].tolist() == _graeffe_reference(c, k), c


def test_graeffe_bound_reads_object_rows_without_steps():
    lines = [[1, 2**64, 1], [2**70, 1], [3, 2**65 - 1, 0, 5], [1, -(2**63), 1]]
    padded = pad_lines(lines, 4)
    assert padded.dtype == object
    bounds, steps = _graeffe_agrees(lines)
    assert steps == [0, 0, 0, 0]
    assert bounds[0] == float(2**63)  # 2^64 / C(2, 1)
    # a coefficient past the float range reads as the largest float
    huge = graeffe_bounds(pad_lines([[1, 10**400]], 2))
    assert huge.tolist() == [np.finfo(float).max]


def test_graeffe_bound_needs_four_steps_at_box_10():
    # a reciprocal box-10 row whose bound clears Lehmer's measure only at
    # the fourth step; every box-10 row with coefficients in -1..1 has
    # ||p||_1 <= 11 <= 15 and takes four
    row = [1, 1, 1, 0, -1, 0, -1, 0, 1, 1, 1]
    assert _graeffe_bound_reference(row, 3) < LEHMER_MEASURE
    (bound,), (steps,) = _graeffe_agrees([row])
    assert steps == 4
    assert bound > LEHMER_MEASURE
    assert _graeffe_steps(pad_lines([[1] * 11], 11)).tolist() == [4]


# ---------------------------------------------------------------------------
# Jensen


def test_jensen_known_values():
    assert mahler_jensen(parse_polynomial("z - 2")).value == pytest.approx(2.0)
    assert mahler_jensen(parse_polynomial("z^2 + z + 1")).value == pytest.approx(
        1.0, abs=1e-12
    )
    got = mahler_jensen(parse_polynomial(LEHMER))
    assert got.value == pytest.approx(LEHMER_MEASURE, abs=1e-11)
    assert got.method == "jensen"
    assert math.isclose(got.value, math.exp(got.log_value))


@pytest.mark.parametrize(
    "coeffs, c", [([3, 0, 3], 3.0), ([5], 5.0), ([-7, 7], 7.0), ([2, 2, 2], 2.0)]
)
def test_jensen_is_exactly_the_lead_with_no_root_outside(coeffs, c):
    # exp(log 3) is 3.0000000000000004; with no root outside the circle
    # the measure is |c| itself, alone and in a batch
    text = " + ".join("%d*z^%d" % (a, k) for k, a in enumerate(coeffs))
    assert mahler_jensen(parse_polynomial(text)).value == c
    assert mahler_jensen_batch([coeffs, [1, -2]])[0].value == c
    assert mahler_jensen_batch([coeffs])[0] == mahler_jensen(parse_polynomial(text))


def test_jensen_monomial_and_unit_invariance():
    rng = random.Random(19)
    for _ in range(40):
        p = rand_poly_1var(rng)
        base = mahler_jensen(p).value
        shifted = mahler_jensen(p.shifted((rng.randrange(-4, 5),))).value
        assert math.isclose(base, shifted, rel_tol=1e-10)
        u = rng.choice([-3, -2, -1, 1, 2, 3])
        scaled = mahler_jensen(p * LaurentPolynomial.constant(u, 1)).value
        assert math.isclose(scaled, abs(u) * base, rel_tol=1e-10)


def test_jensen_multiplicative():
    rng = random.Random(23)
    for _ in range(40):
        p = rand_poly_1var(rng, max_deg=6)
        q = rand_poly_1var(rng, max_deg=6)
        lhs = mahler_jensen(p * q)
        rhs = mahler_jensen(p).value * mahler_jensen(q).value
        assert math.isclose(lhs.value, rhs, rel_tol=1e-8)


def test_jensen_adjoint_invariance():
    rng = random.Random(29)
    for _ in range(40):
        p = rand_poly_1var(rng)
        assert math.isclose(
            mahler_jensen(p).value, mahler_jensen(p.adjoint()).value, rel_tol=1e-10
        )


def test_jensen_integer_lower_bound():
    rng = random.Random(31)
    for _ in range(200):
        p = rand_poly_1var(rng, max_deg=10, bound=6)
        got = mahler_jensen(p)
        assert got.value >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_constant():
    for n in (2, 7, 64):
        got = log_mahler_quadrature(parse_polynomial("2"), n)
        assert got.value == pytest.approx(2.0, rel=1e-12)
        assert got.method == "quadrature"


def test_quadrature_matches_jensen_rank1():
    got = log_mahler_quadrature(parse_polynomial("z - 2"), 1024)
    assert got.value == pytest.approx(2.0, abs=1e-3)


def test_quadrature_two_vars_self_convergence():
    p = parse_polynomial("1 + z1 + z2")
    got = log_mahler_quadrature(p, 512)
    assert got.value == pytest.approx(1.3813564445, abs=5e-3)
    assert got.error_estimate < 5e-3


def test_quadrature_handles_vanishing_samples():
    # z - 1 vanishes at the grid point theta = 0; the sample is excluded
    # and the remaining product identity gives exactly exp(ln(n)/n)
    got = log_mahler_quadrature(parse_polynomial("z - 1"), 256)
    assert got.value == pytest.approx(math.exp(math.log(256) / 256), rel=1e-9)
    assert got.value == pytest.approx(1.0, abs=3e-2)


def test_quadrature_thread_count_invariant(monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(fkdet.mahler, "ThreadPoolExecutor", RecordingPool)
    # n = 128 in three variables splits into two chunks
    p = parse_polynomial("1 + z1 + z2 + z3")
    means = {}
    for cores in (1, 4):
        monkeypatch.setattr(fkdet.mahler.os, "cpu_count", lambda: cores)
        means[cores] = fkdet.mahler._grid_log_mean(p, 128)
    assert means[1] == means[4]
    assert pools == [2]
    # a single chunk starts no pool
    fkdet.mahler._grid_log_mean(parse_polynomial("1 + z1 + z2"), 256)
    assert pools == [2]


@pytest.mark.parametrize(
    "text, log_m, sizes",
    [
        ("1 + z1 + z2", TWO_VAR_LOG, (16, 32, 64, 128, 256, 512)),
        ("3 + z1 + z2", math.log(3), (16, 32, 64, 128, 256, 512)),
        ("1 + z1 + z2 + z3", THREE_VAR_LOG, (16, 32, 64, 128)),
    ],
)
def test_quadrature_error_estimate_covers_closed_forms(text, log_m, sizes):
    p = parse_polynomial(text)
    for n in sizes:
        got = log_mahler_quadrature(p, n)
        assert got.error_estimate >= abs(got.value - math.exp(log_m)), n


@pytest.mark.parametrize("text, log_m", [("1 + z1 + z2", TWO_VAR_LOG), ("3 + z1 + z2", math.log(3))])
def test_boyd_lawton_error_estimate_covers_closed_forms(text, log_m):
    got = mahler_boyd_lawton(parse_polynomial(text))
    assert got.error_estimate >= abs(got.value - math.exp(log_m))
    assert got.error_estimate >= 1e-15 * got.value


def test_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        log_mahler_quadrature(LaurentPolynomial.zero(2), 64)
    with pytest.raises(ValueError):
        log_mahler_quadrature(parse_polynomial("z - 2"), 1)


def test_quadrature_refuses_what_its_grid_cannot_resolve():
    start = time.perf_counter()
    # z1^2048 is 1 at every point of the 256 and 128 grids, so
    # 2 + z2 + z1^2048 would read as 3 + z2
    message = "quadrature exponents span 2048, over the budget 32 of its 256-point grid"
    with pytest.raises(ValueError, match=message):
        log_mahler_quadrature(parse_polynomial("2 + z2 + z1^2048"), 256)
    with pytest.raises(ValueError, match="span 9, over the budget 8"):
        log_mahler_quadrature(parse_polynomial("1 + z2 + z1^9"), 64)
    # at a span of n/4, z1^64 is +-1 on the 128 grid and +-1, +-i on the
    # 256 grid: both means agree 2.4 % off the measure of 1 + z1 + z2, so
    # the estimate would read 1.6e-15
    with pytest.raises(ValueError, match="span 64, over the budget 32 of its 256-point grid"):
        log_mahler_quadrature(parse_polynomial("1 + z2 + z1^64"), 256)
    # a 256^5 grid would hold 1.1e12 samples
    message = r"grid of 256\^5 points, over the budget %d" % QUADRATURE_MAX_POINTS
    with pytest.raises(ValueError, match=message):
        log_mahler_quadrature(parse_polynomial("1 + z1 + z2 + z3 + z4 + z5"), 256)
    assert time.perf_counter() - start < 0.5
    # a span of n/8 is measured, and its estimate covers its error
    got = log_mahler_quadrature(parse_polynomial("1 + z2 + z1^32"), 256)
    assert got.method == "quadrature"
    assert got.error_estimate >= abs(got.value - math.exp(TWO_VAR_LOG))


# ---------------------------------------------------------------------------
# fibrewise Jensen


@pytest.mark.parametrize(
    "text, log_m",
    [
        ("1 + z1 + z2", TWO_VAR_LOG),
        ("3 + z1 + z2", math.log(3)),
        ("1 + z1 + z2 + z3", THREE_VAR_LOG),
    ],
)
def test_fibrewise_error_estimate_covers_closed_forms(text, log_m):
    p = parse_polynomial(text)
    start = time.perf_counter()
    got = mahler_measure(p)
    elapsed = time.perf_counter() - start
    assert got.method == "jensen"
    assert got.error_estimate >= abs(got.value - math.exp(log_m))
    assert got.error_estimate >= 1e-15 * got.value
    assert elapsed < 0.2


def _grid_min(p, n):
    """Least |p| over the uniform n x n torus grid that quadrature samples."""
    z = np.exp(2j * np.pi * np.arange(n) / n)
    values = sum(float(c) * np.outer(z ** e[0], z ** e[1]) for e, c in p.terms.items())
    return float(np.abs(values).min())


def test_fibrewise_agrees_with_quadrature_and_boyd_lawton():
    # inputs of the criterion-8 generator that take the grid route; a
    # collinear support is measured exactly in one variable (pinned below).
    # A torus zero on a quadrature grid point, such as that of
    # z1 + z1*z2 - 2 at (1, 1), lies on the n/2 grid as well, so the
    # quadrature estimate misses it: those inputs meet Boyd-Lawton only
    rng = random.Random(8)
    done = against_quadrature = 0
    while done < 30:
        p = rand_poly(rng, 2, max_exp=1)
        if p.is_zero() or line_coeffs(p.terms) is not None:
            continue
        done += 1
        got = mahler_measure(p, "auto")
        refs = [mahler_boyd_lawton(p)]
        if _grid_min(p, 512) > 1e-6:
            refs.append(log_mahler_quadrature(p, 512))
            against_quadrature += 1
        for ref in refs:
            gap = abs(got.value - ref.value)
            assert gap <= got.error_estimate + ref.error_estimate, (str(p), ref.method)
    assert against_quadrature >= done // 2
def test_fibrewise_exact_routes():
    # inner degree 0 along z2: the grid would be 6.8e-4 off here
    assert mahler_measure(parse_polynomial("z1 - z1*z2")).value == 1.0
    one = mahler_jensen(parse_polynomial("2*z - 1"))
    for lead, const in (((1, 0), (0, 0)), ((0, 1), (0, 0)), ((4, 3), (3, 3))):
        p = LaurentPolynomial(2, {lead: 2, const: -1})
        assert mahler_measure(p) == one
    got = mahler_measure(LaurentPolynomial(3, {(3, -2, 1): Fraction(-5, 3)}))
    assert got.value == 5 / 3
    assert got.method == "jensen"
    # a factor in one variable splits off: M(3 + z1) = 3
    p = parse_polynomial("3 + z1", rank=2) * parse_polynomial("1 + z1 + z2")
    got = mahler_measure(p)
    alone = mahler_measure(parse_polynomial("1 + z1 + z2"))
    assert got.value == pytest.approx(3 * alone.value, rel=1e-14)
    assert abs(got.value - 3 * math.exp(TWO_VAR_LOG)) <= got.error_estimate
    # with three live axes as well: M(3 + z3) = 3
    p = parse_polynomial("3 + z3", rank=3) * parse_polynomial("1 + z1 + z2 + z3")
    got = mahler_measure(p)
    assert abs(got.value - 3 * math.exp(THREE_VAR_LOG)) <= got.error_estimate


def test_fibrewise_trims_a_vanishing_leading_coefficient():
    # the inner variable is z3, whose lead z1^2 + z2^2 vanishes wherever
    # the outer angles differ by a quarter turn: at grid midpoints a
    # quarter of the grid apart.  |z1^2 + z2^2| <= 2 < 3 gives M = 3
    p = LaurentPolynomial(3, {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 0): 3})
    got = mahler_measure(p)
    ref = log_mahler_quadrature(p, 64)
    assert math.isfinite(got.value)
    assert abs(got.value - 3) <= got.error_estimate
    assert abs(got.value - ref.value) <= got.error_estimate + ref.error_estimate


def test_fibrewise_rational_coefficients():
    half, third, fifth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    scaled = LaurentPolynomial(2, {(0, 0): half, (1, 0): third, (0, 1): fifth})
    whole = LaurentPolynomial(2, {(0, 0): 15, (1, 0): 10, (0, 1): 6})
    got = 30 * mahler_measure(scaled).value
    assert got == pytest.approx(mahler_measure(whole).value, rel=1e-13)


def test_fibrewise_refuses_over_its_budgets():
    budget = FIBRE_MAX_DEGREE[1]
    p = parse_polynomial("1 + z1^%d + z2^%d" % (budget + 1, budget + 1))
    start = time.perf_counter()
    message = "inner degree %d, over the budget %d" % (budget + 1, budget)
    with pytest.raises(ValueError, match=message):
        mahler_measure(p)
    with pytest.raises(ValueError, match="at most 3 outer variables"):
        mahler_measure(parse_polynomial("1 + z1 + z2 + z3 + z4 + z5"))
    # z1^2048 is 1 at every midpoint of the 1024 and 512 grids, and z3^256
    # at every midpoint of the 128 and 64 grids: the fibres would all read
    # as those of 3 + z2, 5 + z1 + z2 and 2 + z1 + z2
    budget = FIBRE_GRID[1] // 4
    for text in ("2 + z2 + z1^2048", "4 + z1 + 2*z1^2048 + z2", "1 + z1 + z2 + z3^256"):
        with pytest.raises(ValueError, match="outer exponents span"):
            mahler_measure(parse_polynomial(text))
    with pytest.raises(ValueError, match="span %d, over the budget %d" % (budget + 1, budget)):
        mahler_measure(parse_polynomial("1 + z2 + z1^%d" % (budget + 1)))
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# specialization limit


def test_boyd_lawton_monomial():
    p = parse_polynomial("z1*z2")
    for got in (mahler_boyd_lawton(p, [(3,), (7,), (11,)]), mahler_boyd_lawton(p)):
        assert got.value == pytest.approx(1.0, abs=1e-12)
        assert got.method == "boyd_lawton"
        # the spread is zero here; the rounding floor keeps the estimate positive
        assert got.error_estimate >= 1e-15 * got.value
    # a constant bounds no exponent, so its schedule starts at the base
    one = LaurentPolynomial.one(2)
    assert default_bl_schedule(one) == [(25,), (50,), (100,), (200,)]
    assert default_bl_schedule(one, steps=4, base=1) == [(1,), (2,), (4,), (8,)]
    assert mahler_boyd_lawton(one).value == 1.0


def test_boyd_lawton_missing_variable():
    p = parse_polynomial("z1 - 2")
    assert parse_polynomial("z1 - 2").rank == 1
    q = LaurentPolynomial(2, {(1, 0): 1, (0, 0): -2})
    got = mahler_boyd_lawton(q, [(5,), (9,)])
    assert got.value == pytest.approx(2.0, rel=1e-12)
    assert p.rank == 1
    got = mahler_boyd_lawton(q)
    assert got.value == pytest.approx(2.0, rel=1e-9)
    assert got.error_estimate < 1e-9


def test_boyd_lawton_default_schedule_matches_quadrature():
    p = parse_polynomial("1 + z1 + z2")
    sched = default_bl_schedule(p)
    assert [k[0] for k in sched] == [25, 50, 100, 200]
    got = mahler_boyd_lawton(p, sched)
    ref = log_mahler_quadrature(p, 512)
    assert got.value == pytest.approx(ref.value, abs=1e-2)
    assert got.error_estimate < 1e-2


def test_boyd_lawton_default_schedule_is_certified():
    # b_1 = 20 puts c_1 = 40 above the base 25, so k_2 starts at 41
    p = parse_polynomial("z1^20 + z2 + 1")
    sched = default_bl_schedule(p)
    assert sched == [(41,), (82,), (164,), (328,)]
    for ks in sched:
        assert len(p.specialize(ks).terms) == len(p.terms)


def test_boyd_lawton_refuses_over_the_degree_budget():
    p = parse_polynomial("1 + z1 + z2")
    with pytest.raises(ValueError, match="degree %d, over the budget %d" % (
        JENSEN_MAX_DEGREE + 1, JENSEN_MAX_DEGREE
    )):
        mahler_boyd_lawton(p, [(25,), (JENSEN_MAX_DEGREE + 1,)])
    # the Gram determinant pp* + 1 of the column [p; 1], p = 1 + z1 + z2 + z3,
    # reaches degree 1602 on its default schedule
    p = parse_polynomial("1 + z1 + z2 + z3")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degree 1602, over the budget 1024"):
        mahler_boyd_lawton(p * p.adjoint() + LaurentPolynomial.one(3))
    assert time.perf_counter() - start < 1.0


def test_boyd_lawton_rank3_schedule_chain():
    p = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
    sched = default_bl_schedule(p, steps=3, base=5)
    bounds = [p.support_bound(i) for i in range(1, 4)]
    c2 = 2 * (bounds[0] + bounds[1])
    for ks in sched:
        assert len(ks) == 2
        assert ks[1] > c2 * ks[0]


def test_boyd_lawton_collapse_reported():
    p = LaurentPolynomial(2, {(1, 0): 1, (0, 1): -1})  # z1 - z2
    with pytest.raises(ValueError, match="collapsed"):
        mahler_boyd_lawton(p, [(1,)])


def test_boyd_lawton_rejects_bad_input():
    with pytest.raises(ValueError):
        mahler_boyd_lawton(parse_polynomial("z - 2"), [(3,)])
    with pytest.raises(ValueError):
        mahler_boyd_lawton(parse_polynomial("1 + z1 + z2"), [])
    with pytest.raises(ValueError):
        mahler_boyd_lawton(LaurentPolynomial.zero(2), [(3,)])
