"""The cyclic norm route against regular_rep, the exact oracle."""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import fkdet.fk_finite as fk_finite
from fkdet.approx import chain_range, det_sequence, reduce_mod
from fkdet.cli import main
from fkdet.exact_linalg import (
    charpoly_berkowitz,
    det_exact,
    mat_mul_exact,
    mat_transpose,
    rank_exact,
)
from fkdet.fk_finite import (
    FiniteGroup,
    FiniteGroupRingElement,
    FiniteGroupRingMatrix,
    cyclic_norm,
    direct_product,
    fk_det_finite,
    fk_det_kernel_finite,
    make_cyclic,
    make_cyclic_product,
    regular_rep,
    vn_dim_kernel_finite,
)
from fkdet.values import Radical

from helpers import mat

LEHMER = "z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1"
# ascending coefficients of Phi_1 .. Phi_4
PHI = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1]}


def oracle(m):
    """(value, exact radical, kernel dimension) from regular_rep alone:
    det_exact for an invertible square matrix, else the lowest nonzero
    characteristic coefficient of the Gram matrix."""
    if isinstance(m, FiniteGroupRingElement):
        m = FiniteGroupRingMatrix.from_element(m)
    n = m.group.order
    rep = regular_rep(m)
    kernel = Fraction(m.rows * n - rank_exact(rep), n)
    q, root = 0, n
    if m.rows == m.cols:
        q = det_exact(rep)
    if not q:
        if m.rows <= m.cols:
            gram = mat_mul_exact(rep, mat_transpose(rep))
        else:
            gram = mat_mul_exact(mat_transpose(rep), rep)
        q, root = next(c for c in charpoly_berkowitz(gram) if c), 2 * n
    q = Fraction(q)
    if q.denominator == 1:
        exact = Radical(abs(q.numerator), Fraction(1, root))
        return float(exact), exact, kernel
    log = math.log(abs(q.numerator)) - math.log(q.denominator)
    return math.exp(log / root), None, kernel


def assert_matches_oracle(m):
    value, kernel = fk_det_kernel_finite(m)
    assert value.method == "cyclic_norm"
    want_value, want_exact, want_kernel = oracle(m)
    assert value.exact == want_exact
    assert value.value == want_value
    assert kernel == want_kernel
    assert vn_dim_kernel_finite(m) == kernel
    assert fk_det_finite(m) == value


def element(n, coeffs):
    """sum c_k t^k over Z/n, exponents read mod n."""
    out = [0] * n
    for k, c in enumerate(coeffs):
        out[k % n] += c
    return FiniteGroupRingElement(make_cyclic(n), out)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def vector(n, rows, cols, rng, bound=2):
    return FiniteGroupRingMatrix(
        make_cyclic(n),
        [
            [element(n, [rng.randrange(-bound, bound + 1) for _ in range(4)]) for _ in range(cols)]
            for _ in range(rows)
        ],
    )


# ---------------------------------------------------------------------------
# differential: cyclic_norm route against regular_rep


def test_random_integer_polynomials():
    rng = random.Random(7)
    for n in range(1, 25):
        for _ in range(4):
            deg = rng.randrange(0, 9)
            coeffs = [rng.randrange(-3, 4) for _ in range(deg + 1)]
            assert_matches_oracle(element(n, coeffs))


def test_cyclotomic_factors_some_repeated():
    rng = random.Random(11)
    for n in range(1, 25):
        for _ in range(3):
            p = [rng.choice((-2, -1, 1, 2, 3))] + [rng.randrange(-2, 3) for _ in range(2)]
            for d in rng.sample(sorted(PHI), rng.randrange(1, 4)):
                for _ in range(rng.choice((1, 1, 2))):
                    p = poly_mul(p, PHI[d])
            assert_matches_oracle(element(n, p))


def test_t_to_the_n_minus_one_at_stage_n():
    for n in range(1, 25):
        x = element(n, [-1] + [0] * (n - 1) + [1])
        assert x.is_zero()
        assert_matches_oracle(x)
        # and before reduction: every character is a zero
        assert cyclic_norm({n: 1, 0: -1}, n) == (1, n)


def test_constants_and_monomials():
    for n in range(1, 25):
        for c in (0, 1, -1, 2, -3, Fraction(1, 2)):
            assert_matches_oracle(element(n, [c]))
            assert_matches_oracle(element(n, [0] * (n // 2) + [c]))


def test_rational_coefficients():
    rng = random.Random(13)
    for n in range(1, 25):
        coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(4)]
        assert_matches_oracle(element(n, coeffs))
        if n <= 12:
            # a rational multiple of a cyclotomic factor: the Gram route
            singular = [Fraction(c, 3) for c in poly_mul(coeffs, PHI[1])]
            assert_matches_oracle(element(n, singular))
    # (t - 1)(4t^2 - t - 3/4) over Z/8: the 16th root of the squared norm
    # and the 8th root of the norm differ in the last bit of the float
    assert_matches_oracle(element(8, [Fraction(3, 4), Fraction(1, 4), -5, 4]))


def test_vectors_1x2_and_2x1():
    rng = random.Random(17)
    for n in range(1, 13):
        for shape in ((1, 2), (2, 1)):
            assert_matches_oracle(vector(n, *shape, rng))
    # a vector vanishing at every character of order 2
    n = 6
    x = element(n, poly_mul([1, 1], [2, -1]))
    y = element(n, poly_mul([1, 1], [1, 0, 3]))
    for entries in ([[x, y]], [[x], [y]]):
        m = FiniteGroupRingMatrix(make_cyclic(n), entries)
        assert_matches_oracle(m)
        assert fk_det_kernel_finite(m)[1] == len(entries) - 1 + Fraction(1, 6)


def test_approx_chain_inputs_stage_for_stage():
    p_one = "2 - z - z^3 + z^5 - z^7"  # p(1) = 0: every stage is singular
    cases = [
        mat([[LEHMER]]),
        mat([[p_one]]),
        mat([["2 + z - z^2"], ["1 - 2*z + z^3"]]),
        mat([["z^-2 + 3 - z", "1 + z^4"]]),
    ]
    chain = chain_range(1, 2, 16)
    for a in cases:
        seq = det_sequence(a, chain)
        for (n,), got in zip(chain.moduli, seq.values):
            stage = reduce_mod(a, (n,))
            want_value, want_exact, _ = oracle(stage)
            assert got.method == "cyclic_norm"
            assert (got.exact, got.value) == (want_exact, want_value)
            assert fk_det_finite(stage) == got


# ---------------------------------------------------------------------------
# what stays on regular_rep


def klein_four() -> FiniteGroup:
    z2 = make_cyclic(2)
    g = direct_product(z2, z2)
    return FiniteGroup(g.table, g.identity, g.names, kind="cyclic")


def test_klein_four_labelled_cyclic_takes_regular_rep():
    g = klein_four()
    assert g.kind == "cyclic"
    x = FiniteGroupRingElement(g, (3, 1, -1, 2))
    value, kernel = fk_det_kernel_finite(x)
    assert value.method == "regular_rep"
    want_value, want_exact, want_kernel = oracle(x)
    assert (value.exact, value.value, kernel) == (want_exact, want_value, want_kernel)
    # the four characters give 3 + t - s + 2st at s, t = +-1: 5, -1, 3, 5
    assert value.exact == Radical(75, Fraction(1, 4))


def test_products_and_square_matrices_keep_regular_rep():
    rng = random.Random(19)
    prod = make_cyclic_product((2, 3))
    x = FiniteGroupRingElement(prod, [rng.randrange(-2, 3) for _ in range(6)])
    assert fk_det_finite(x).method == "regular_rep"
    assert fk_det_finite(vector(3, 2, 2, rng)).method == "regular_rep"
    two_var = det_sequence(mat([["3 + z1 - z1*z2"]], rank=2), chain_range(2, 2, 3))
    assert {v.method for v in two_var.values} == {"regular_rep"}
    square = det_sequence(mat([["2", "z"], ["1", "3"]]), chain_range(1, 2, 3))
    assert {v.method for v in square.values} == {"regular_rep"}


def test_one_computation_per_route(monkeypatch):
    # the regular_rep route lays out its rows once (rep_getters) and
    # eliminates once
    calls = {"cyclic_norm": 0, "rep_getters": 0, "rank_det_exact": 0}

    def counting(name):
        orig = getattr(fk_finite, name)

        def wrapper(*args):
            calls[name] += 1
            return orig(*args)

        monkeypatch.setattr(fk_finite, name, wrapper)

    for name in calls:
        counting(name)
    x = element(300, [-1, -1, 0, 1])
    value, kernel = fk_det_kernel_finite(x)
    assert calls == {"cyclic_norm": 1, "rep_getters": 0, "rank_det_exact": 0}
    assert kernel == 0 and value.method == "cyclic_norm"
    calls.update(dict.fromkeys(calls, 0))
    fk_det_kernel_finite(vector(3, 2, 2, random.Random(23)))
    assert calls == {"cyclic_norm": 0, "rep_getters": 1, "rank_det_exact": 1}


# ---------------------------------------------------------------------------
# cyclic_norm itself


def test_cyclic_norm_small_goldens():
    # prod over cube roots of (zeta - 2) is -(2^3 - 1)
    assert cyclic_norm({1: 1, 0: -2}, 3) == (7, 0)
    assert cyclic_norm({1: 2, 0: -1}, 3) == (7, 0)
    # 1 + t over Z/4 vanishes at -1; the other roots give 2 * |1 + i|^2
    assert cyclic_norm({0: 1, 1: 1}, 4) == (4, 1)
    assert cyclic_norm({0: Fraction(1, 2)}, 3) == (Fraction(1, 8), 0)
    assert cyclic_norm({}, 5) == (1, 5)
    # exponents of any sign; the widest gap keeps the degree low
    assert cyclic_norm({-1: 1, 0: 3, 1: 1}, 20000) == cyclic_norm({0: 1, 1: 3, 2: 1}, 20000)
    with pytest.raises(ValueError):
        cyclic_norm({0: 1}, 0)


def test_stage_budget_lehmer_at_default_order(tmp_path):
    out = tmp_path / "chain.json"
    start = time.perf_counter()
    code = main(["approx-chain", "--poly", LEHMER, "--chain", "20000", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 2.0
    (stage,) = json.loads(out.read_text())["result"]["stages"]
    assert stage["value"]["method"] == "cyclic_norm"
    exact = stage["value"]["exact"]
    log_exact = Fraction(exact["exponent"]) * math.log(exact["base"])
    zeta = np.exp(2j * np.pi * np.arange(20000) / 20000)
    coeffs = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    log_mean = np.mean(np.log(np.abs(np.polyval(coeffs[::-1], zeta))))
    assert abs(float(log_exact) - log_mean) < 1e-9
