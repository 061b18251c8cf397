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
    cyclic_stages,
    direct_product,
    fk_det_finite,
    fk_det_kernel_finite,
    make_cyclic,
    make_cyclic_product,
    regular_rep,
    vn_dim_kernel_finite,
)
from fkdet.laurent import GroupRingMatrix
from fkdet.values import Radical

from helpers import (
    check_gram_route_against_berkowitz,
    class_product_norm,
    cyclotomic_reference,
    mat,
    rand_poly,
)


@pytest.fixture(autouse=True)
def gram_checked(monkeypatch):
    """Every singular case in this module takes the Gram route by pivot
    minors, checked against Berkowitz."""
    return check_gram_route_against_berkowitz(monkeypatch)


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
        assert cyclic_norm({n: 1, 0: -1}, [n]) == [(1, n)]


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
    two_var = det_sequence(
        mat([["3 + z1", "z2"], ["1", "2 - z1*z2"]], rank=2), chain_range(2, 2, 3)
    )
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
    assert cyclic_norm({1: 1, 0: -2}, [3]) == [(7, 0)]
    assert cyclic_norm({1: 2, 0: -1}, [3]) == [(7, 0)]
    # 1 + t over Z/4 vanishes at -1; the other roots give 2 * |1 + i|^2
    assert cyclic_norm({0: 1, 1: 1}, [4]) == [(4, 1)]
    assert cyclic_norm({0: Fraction(1, 2)}, [3]) == [(Fraction(1, 8), 0)]
    assert cyclic_norm({}, [5]) == [(1, 5)]
    assert cyclic_norm({0: 1}, []) == []
    # exponents of any sign; the widest gap keeps the degree low
    assert cyclic_norm({-1: 1, 0: 3, 1: 1}, [20000]) == cyclic_norm({0: 1, 1: 3, 2: 1}, [20000])
    with pytest.raises(ValueError):
        cyclic_norm({0: 1}, [3, 0])


def _gram(*vectors):
    """f = sum x_i x_i* of {exponent: coefficient} maps."""
    f = {}
    for x in vectors:
        for e1, c1 in x.items():
            for e2, c2 in x.items():
                f[e1 - e2] = f.get(e1 - e2, 0) + c1 * c2
    return f


def _ascending(coeffs):
    return {e: c for e, c in enumerate(coeffs) if c}


# Phi_1^2 Phi_3 (2 + t - t^2): a repeated cyclotomic factor
_REPEATED = poly_mul(poly_mul(poly_mul(PHI[1], PHI[1]), PHI[3]), [2, 1, -1])

LEHMER_P = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]

CHAIN_INPUTS = {
    "lehmer": _ascending(LEHMER_P),
    "lead 2": _ascending([1, -2, 0, 1, 2, -1, 0, 0, 1, -1, 2]),
    "lead -2": _ascending([-1, 0, 2, 1, -2, 0, 1, 1, 0, 2, -2]),
    "p(1) = 0": _ascending([2, -1, 0, 1, -2, 0, 0, 1, 0, -1]),
    "repeated cyclotomic": _ascending(_REPEATED),
    "gram": _gram(
        {-1: Fraction(1, 2), 0: 3, 2: -1}, {0: Fraction(2, 3), 1: 1, -3: Fraction(-1, 4)}
    ),
    "monomial": {3: -2},
    "zero": {},
}

CHAINS = {
    "consecutive": list(range(1, 31)),
    "sparse": [2, 7, 30, 31, 60],
    "doubling": [2, 4, 8, 16, 32],
    "decreasing": [32, 16, 3],
    "repeated": [5, 5, 6, 6, 5],
    # every order below the exponent span of the degree-10 inputs
    "below the span": [1, 2, 3, 4, 6],
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("name", sorted(CHAIN_INPUTS))
def test_chain_pass_matches_one_call_per_order_and_class_products(name, chain):
    f, orders = CHAIN_INPUTS[name], CHAINS[chain]
    got = cyclic_norm(f, orders)
    assert got == [cyclic_norm(f, [n])[0] for n in orders]
    assert got == [class_product_norm(f, n) for n in orders]


def test_chain_pass_on_a_huge_exponent_searches_only_the_chain_divisors():
    # read mod lcm(2..6) = 60, 1 + t^100000 is 1 + t^40, and each order
    # reads its own binomial; the cyclotomic search runs over the divisors
    # of the orders, not every Phi_d of degree up to 100 000
    start = time.perf_counter()
    got = cyclic_norm({0: 1, 100000: 1}, range(2, 7))
    assert time.perf_counter() - start < 0.5
    for n, stage in zip(range(2, 7), got):
        reduced = [1] + [0] * (n - 1)
        reduced[100000 % n] += 1
        assert stage == class_product_norm(_ascending(reduced), n)


@pytest.mark.parametrize("mod", [[1, 1], [-1, 0, 2], [3, 1, 0, -2, 1], [1, 1, 1, 1, 1, 1, 1, 1, -3]])
def test_t_power_mod_is_the_reduced_monomial(mod):
    # the squaring starts from the first power of n's chain below deg(mod)
    for n in [0, 1, 2, 3, 5, 7, 8, 9, 16, 31, 100, 1025]:
        assert fk_finite.t_power_mod(n, mod) == fk_finite.reduced_rem([0] * n + [1], 1, mod)


def _times(*factors):
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return out


PHI_6 = [1, -1, 1]

# the differential test of the two routes: |lc| 2 and 3 at either end,
# rational coefficients, negative exponents, cyclotomic factors, and the
# Gram elements sum x_i x_i* of a 2x1 and a 1x3 vector
ROUTE_INPUTS = {
    "lehmer": CHAIN_INPUTS["lehmer"],
    "lead 2": CHAIN_INPUTS["lead 2"],
    "lead -3": _ascending([1, 0, -1, 2, 1, -3]),
    "constant 2": _ascending([2, 1, -1, 0, 1, 1]),
    "constant -3": _ascending([-3, 1, 0, 2, -1, 1, 1]),
    "fractions": {-1: Fraction(1, 2), 0: 3, 2: Fraction(-2, 3), 3: 1},
    "negative exponents": {-3: 1, -1: -2, 0: 1, 2: 1},
    "phi1^2 phi2 phi6 r": _ascending(_times(PHI[1], PHI[1], PHI[2], PHI_6, [2, 1, 0, -1])),
    "cyclotomic product": _ascending(_times(PHI[1], PHI[3], PHI[4], PHI[4], PHI_6)),
    "constant": {0: 3},
    "zero": {},
    "gram 2x1": _gram({0: 1, 1: 2, 3: -1}, {-1: 1, 2: 1}),
    "gram 1x3": _gram({0: 2, 1: -1}, {1: 1, 2: 1, 4: 1}, {0: Fraction(1, 2), 3: 1}),
}

ROUTE_CHAINS = {
    "from 1": list(range(1, 101)),
    "falling": list(range(100, 0, -1)),
    "duplicated": [n for n in range(1, 101) for _ in (0, 1)],
}


@pytest.mark.parametrize("chain", sorted(ROUTE_CHAINS))
@pytest.mark.parametrize("name", sorted(ROUTE_INPUTS))
def test_power_sum_route_matches_the_resultant_route_and_class_products(
    monkeypatch, name, chain
):
    f, orders = ROUTE_INPUTS[name], ROUTE_CHAINS[chain]
    runs = {}
    for table in (True, False):
        monkeypatch.setattr(fk_finite, "takes_power_sums", lambda r, orders, t=table: t)
        runs[table] = cyclic_norm(f, orders)
    assert runs[True] == runs[False]
    assert runs[True] == [class_product_norm(f, n) for n in orders]


def _dense(rng, degree, lead):
    """Ascending coefficients of degree ``degree``, none zero, lc ``lead``."""
    return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(degree)] + [lead]


_MERGED_RNG = random.Random(34)
_PHI_5_7 = _times(cyclotomic_reference(5), cyclotomic_reference(7))

# inputs whose lower orders join the table pass of the orders that read the
# same p, each with its chain: dense of degree 2 to 40 with |lc| 1 to 3,
# rational coefficients, shifted exponents, and Phi_5 Phi_7, whose orders
# divide only the lower orders 5, 7 and 10 of the chain
MERGED_INPUTS = {
    "degree 2, lc 3": (_ascending([1, -1, 3]), range(2, 41)),
    "degree 10, lc -2": (_ascending(_dense(_MERGED_RNG, 10, -2)), range(2, 61)),
    "degree 25, lc 3": (_ascending(_dense(_MERGED_RNG, 25, 3)), range(2, 81)),
    "degree 40, lc 2": (_ascending(_dense(_MERGED_RNG, 40, 2)), range(2, 96)),
    "degree 40, lc -1": (_ascending(_dense(_MERGED_RNG, 40, -1)), range(2, 96)),
    "fractions": (
        {e: Fraction(c, 1 + e % 3) for e, c in enumerate(_dense(_MERGED_RNG, 12, 1))},
        range(2, 61),
    ),
    "shifted exponents": (
        {e - 17: c for e, c in enumerate(_dense(_MERGED_RNG, 15, -3))},
        range(2, 61),
    ),
    "phi5 phi7 below": (
        _ascending(_times([2, 1, 1], _PHI_5_7)),
        [5, 7, 10] + [n for n in range(14, 81) if math.gcd(n, 35) == 1],
    ),
}


@pytest.mark.parametrize("falling", [False, True])
@pytest.mark.parametrize("name", sorted(MERGED_INPUTS))
def test_lower_orders_on_the_table_pass_match_one_call_per_order(monkeypatch, name, falling):
    f, orders = MERGED_INPUTS[name]
    orders = sorted(orders, reverse=falling)
    passes = []
    measure = fk_finite._cyclic_pass

    def counted(terms, group, low=()):
        passes.append(list(group) + list(low))
        return measure(terms, group, low)

    monkeypatch.setattr(fk_finite, "_cyclic_pass", counted)
    got = cyclic_norm(f, orders)
    # one pass: the lower orders joined the table
    assert len(passes) == 1
    monkeypatch.undo()
    single = [cyclic_norm(f, [n])[0] for n in orders]
    assert got == single
    assert [type(norm) for norm, _ in got] == [type(norm) for norm, _ in single]
    assert got == [class_product_norm(f, n) for n in orders]


def _routes(monkeypatch):
    """Record the route of every pass, (name, orders, degree of r), and
    count resultant calls."""
    taken, counts = [], {"resultant": 0}
    for name in ("_power_sum_resultants", "_carried_resultants"):
        route = getattr(fk_finite, name)

        def recorded(r, orders, route=route, name=name):
            taken.append((name, list(orders), len(r) - 1))
            return route(r, orders)

        monkeypatch.setattr(fk_finite, name, recorded)
    res = fk_finite.resultant

    def counted(a, b):
        counts["resultant"] += 1
        return res(a, b)

    monkeypatch.setattr(fk_finite, "resultant", counted)
    return taken, counts


def test_chain_pass_route(monkeypatch):
    taken, counts = _routes(monkeypatch)
    # a dense chain takes the table and no resultant per stage
    got = fk_finite._cyclic_pass(LEHMER_P, list(range(2, 61)))
    assert taken == [("_power_sum_resultants", list(range(2, 61)), 10)]
    assert counts["resultant"] == 0
    # each cyclotomic factor, here Phi_1 and Phi_2, takes one resultant for
    # the whole pass, its cut
    taken.clear()
    p = CHAIN_INPUTS["p(1) = 0"]
    fk_finite._cyclic_pass([p.get(e, 0) for e in range(10)], list(range(12, 61)))
    assert taken == [("_power_sum_resultants", list(range(12, 61)), 7)]
    assert counts["resultant"] == 2
    # a single order takes the resultant route, one resultant
    taken.clear()
    counts["resultant"] = 0
    assert fk_finite._cyclic_pass(LEHMER_P, [60]) == {60: got[60]}
    assert taken == [("_carried_resultants", [60], 10)]
    assert counts["resultant"] == 1
    # through cyclic_norm: Lehmer's widest gap is 2, so 12..60 read the same
    # p and take the table; 2..11 join that pass, a Newton step each and no
    # resultant
    taken.clear()
    counts["resultant"] = 0
    cyclic_norm(CHAIN_INPUTS["lehmer"], range(2, 61))
    assert taken == [("_power_sum_resultants", list(range(12, 61)) + list(range(2, 12)), 10)]
    assert counts["resultant"] == 0
    # on the resultant route the lower orders keep passes of their own
    taken.clear()
    cyclic_norm(CHAIN_INPUTS["lehmer"], [8, 9, 60])
    assert [(name, orders) for name, orders, _ in taken] == [
        ("_carried_resultants", [60]),
        ("_carried_resultants", [8]),
        ("_carried_resultants", [9]),
    ]


@pytest.mark.parametrize(
    "r, orders, table",
    [
        (LEHMER_P, range(2, 61), True),
        (LEHMER_P, range(12, 161), True),
        (LEHMER_P, [60], False),
        (LEHMER_P, [60, 60], False),
        (LEHMER_P, range(2, 200, 8), False),
        ([2, 1, 1], range(4, 100, 6), True),
        ([1] * 40 + [2], range(42, 102), True),
        ([1] * 40 + [2], range(42, 342, 5), False),
        # over the table's bits
        ([1, 2, 2], range(3, 10001), False),
        ([1, 2, 2], range(3, 4001), True),
        ([10**6, 1], range(2, 4001), False),
        ([-2, 1], range(2, 4001), True),
        ([1] * 100 + [2], range(101, 301), False),
        ([1] * 500 + [2], range(600, 631), False),
    ],
)
def test_takes_power_sums_on_dense_chains(r, orders, table):
    assert fk_finite.takes_power_sums(r, list(orders)) is table


@pytest.mark.parametrize(
    "coeffs, orders",
    [
        ({0: 1, 1000: 1}, range(2, 161)),
        ({0: 2, 100000: 1}, range(2, 61)),
        # Lehmer's p(t^50): span 500, widest gap 100, so 600 is the first
        # order to read the same p
        ({50 * e: c for e, c in CHAIN_INPUTS["lehmer"].items()}, range(590, 631)),
        (CHAIN_INPUTS["lehmer"], range(2, 61)),
        (CHAIN_INPUTS["gram"], [30, 2, 9, 31]),
        ({0: 1, 100000: 2}, range(2, 61)),
        ({0: 1, 1: 1, 100: 1}, range(2, 401)),
        # dense, degree 40, lc 2: 2..40 join the table pass of 41..120
        (_ascending([(-1) ** e * (1 + e % 3) for e in range(40)] + [2]), range(2, 121)),
    ],
)
def test_chain_pass_keeps_each_stage_at_its_own_degree(monkeypatch, coeffs, orders):
    # a span wider than the orders is not carried into their stages: every
    # order is measured on its own reading of p mod n, or on the shared p
    # inside a pass that takes the table of power sums, whose length the
    # lower orders do not change; a pass of high degree keeps the
    # resultant route
    taken, _ = _routes(monkeypatch)
    passes = []
    measure = fk_finite._cyclic_pass

    def recorded(terms, group, low=()):
        out = measure(terms, group, low)
        passes.append((terms, list(out)))
        return out

    monkeypatch.setattr(fk_finite, "_cyclic_pass", recorded)
    start = time.perf_counter()
    got = cyclic_norm(coeffs, orders)
    assert time.perf_counter() - start < 2
    degrees = {}
    for terms, group in passes:
        for n in group:
            degrees[n] = len(terms) - 1
    assert sorted(degrees) == sorted(set(orders))
    table = {n for name, group, _ in taken if name == "_power_sum_resultants" for n in group}
    for n in orders:
        assert degrees[n] == len(fk_finite._cyclic_poly(coeffs, n)[0]) - 1 or n in table
    assert all(name == "_carried_resultants" for name, _, m in taken if m > 100)
    monkeypatch.undo()
    assert got == [cyclic_norm(coeffs, [n])[0] for n in orders]


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


# ---------------------------------------------------------------------------
# quotients Z/n1 x Z/n2: class products against regular_rep

# every stage (n1, n2) with n1 * n2 <= 100
PAIRS = [(n1, n2) for n1 in range(1, 101) for n2 in range(1, 101) if n1 * n2 <= 100]
# a 31-bit prime for the modular oracle
PRIME = 2147483629


def _echelon_mod(m, p):
    """Gaussian elimination of an int64 matrix mod p: the rank, the pivot
    columns, and the determinant when the matrix is square of full rank."""
    m = m % p
    rows, cols = m.shape
    rank, det, pivots = 0, 1, []
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(m[rank:, c])
        if not len(nz):
            continue
        i = rank + nz[0]
        if i != rank:
            m[[rank, i]] = m[[i, rank]]
            det = -det
        piv = int(m[rank, c])
        det = det * piv % p
        top = m[rank, c:] * pow(piv, -1, p) % p
        below = m[rank + 1 :, c:]
        below -= below[:, :1] * top
        below %= p
        pivots.append(c)
        rank += 1
    return rank, pivots, det


def _difference_index(mods):
    """idx[u, v] = the mixed-radix index of u - v over Z/n1 x ... x Z/nd,
    so coeffs[idx] lays out regular_rep of one element (block[u][v] is the
    coefficient of inv(v)*u)."""
    coords = np.indices(mods).reshape(len(mods), -1)
    idx = np.zeros((coords.shape[1],) * 2, dtype=np.int64)
    for axis, n in enumerate(mods):
        c = coords[axis]
        idx = idx * n + (c[:, None] - c[None, :]) % n
    return idx


def _rep(a, mods):
    """regular_rep of the reduction of ``a`` mod ``mods``, as an int64
    array: entry (i, j) reduced to mixed-radix coefficients as reduce_mod
    does, laid out by _difference_index."""
    idx = _difference_index(mods)
    blocks = []
    for row in a.entries:
        line = []
        for p in row:
            coeffs = np.zeros(math.prod(mods), dtype=np.int64)
            for exps, c in p.terms.items():
                coeffs[np.ravel_multi_index([e % n for e, n in zip(exps, mods)], mods)] += c
            line.append(coeffs[idx])
        blocks.append(line)
    return np.block(blocks)


def rep_oracle_mod(rep, n, p=PRIME):
    """(q mod p, root, rank) of a regular representation over a group of
    order n: q = |det| with root n for an invertible square representation,
    else the product of the nonzero eigenvalues of the smaller Gram matrix
    with root 2n.  With I the pivot columns of the Gram matrix G,
    G = G[:, I] G[I, I]^-1 G[I, :], so that product is
    det(G[I, :] G[:, I]) / det(G[I, I])."""
    if rep.shape[0] == rep.shape[1]:
        rank, _, det = _echelon_mod(rep, p)
        if rank == rep.shape[0]:
            return det, n, rank
    gram = rep @ rep.T if rep.shape[0] <= rep.shape[1] else rep.T @ rep
    rank, piv, _ = _echelon_mod(gram, p)
    _, _, top = _echelon_mod(gram[piv, :] @ gram[:, piv], p)
    _, _, sub = _echelon_mod(gram[np.ix_(piv, piv)], p)
    return top * pow(sub, -1, p) % p, 2 * n, rank


def assert_stages_match_regular_rep(a, pairs):
    """cyclic_stages against the modular regular_rep oracle at every stage,
    and against fk_det_kernel_finite on reduce_mod exactly on the small
    ones."""
    entries = [p.terms for row in a.entries for p in row]
    stages = cyclic_stages(entries, a.rows, pairs)
    for mods, (value, kernel) in zip(pairs, stages):
        assert value.method == "cyclic_norm"
        n = math.prod(mods)
        q, root, rank = rep_oracle_mod(_rep(a, mods), n)
        assert kernel == Fraction(a.rows * n - rank, n), mods
        power = value.exact**root
        assert power.exponent == 1, mods
        assert power.base % PRIME in (q, -q % PRIME), mods
        assert value.value == float(value.exact)
        if max(a.rows, a.cols) * n <= 24:
            want, want_kernel = fk_det_kernel_finite(reduce_mod(a, mods))
            assert (value.exact, value.value, kernel) == (want.exact, want.value, want_kernel)


def test_difference_index_is_the_regular_rep_layout():
    a = mat([["1 + 2*z1 - z2^2", "3 - z1*z2"]], rank=2)
    for mods in ((2, 3), (4, 2), (3, 3)):
        assert _rep(a, mods).tolist() == regular_rep(reduce_mod(a, mods))


@pytest.mark.parametrize(
    "texts",
    [
        [["3 + z1 + z2"]],
        # zero only on the orbit of (omega, omega^2), in the class (3, 3)
        [["1 + z1 + z2"]],
        # zero at (-1, -1)
        [["2 + z1 + z2"]],
        # zero at every diagonal character
        [["z1 - z2"]],
        [["1 + 2*z1 + 2*z2 + z1^2 + 2*z1*z2 + z2^2"]],
        [["1 + z1 - z2", "2 - z1*z2"]],
        [["1 + z1 + z2^-1"], ["z1 - 2*z2 + 1"]],
    ],
)
def test_quotient_stages_match_regular_rep(texts):
    assert_stages_match_regular_rep(mat(texts, rank=2), PAIRS)


def test_quotient_stages_of_random_elements_match_regular_rep():
    # ten criterion-8 elements, over every stage of order at most 36
    rng = random.Random(29)
    pairs = [(n1, n2) for n1, n2 in PAIRS if n1 * n2 <= 36]
    for _ in range(10):
        p = rand_poly(rng, rank=2)
        while p.is_zero():
            p = rand_poly(rng, rank=2)
        assert_stages_match_regular_rep(GroupRingMatrix([[p]]), pairs)


def test_quotient_stages_at_rank_3_match_regular_rep():
    a = mat([["1 + z1 + z2 + z3"]], rank=3)
    pairs = [(2, 2, 2), (1, 2, 3), (2, 3, 2), (3, 3, 1), (2, 2, 4)]
    assert_stages_match_regular_rep(a, pairs)
    b = mat([["z1 - z2", "1 + z3"]], rank=3)
    assert_stages_match_regular_rep(b, pairs)


def test_class_products_and_orbits():
    # prod over the primitive cube roots omega of 1 + omega + t is t^2 + t + 1
    f = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    assert fk_finite._eliminate_first(f, 3) in ({(0,): 1, (1,): 1, (2,): 1},
                                                {(0,): -1, (1,): -1, (2,): -1})
    cache = {}
    # the class (3, 3) holds a zero: its product is 0 and its two orbits are
    # (omega, omega), where 1 + 2 omega has norm 3, and (omega, omega^2)
    assert fk_finite._class_product(f, (3, 3), cache) == 0
    assert set(cache) == {(3,), (3, 3)}
    assert fk_finite._orbit_norms(f, (3, 3)) == (3, 2)
    assert fk_finite._class_product(f, (1, 3), {}) == 3  # (2 + w)(2 + w^2)
    assert fk_finite.resultant([1, 1, 1], [2, 1]) == 3
    assert fk_finite.resultant([-2, 0, 1], [0, 1]) == 2
    assert fk_finite.resultant([3], [1, 0, 1]) == 9
    assert fk_finite.resultant([], [1, 1]) == 0


def test_quotient_norm_shares_class_products_across_stages(monkeypatch):
    calls = []
    orig = fk_finite._eliminate_first

    def counting(f, d):
        calls.append(d)
        return orig(f, d)

    monkeypatch.setattr(fk_finite, "_eliminate_first", counting)
    f = {(0, 0): 3, (1, 0): 1, (0, 1): 1}
    cache = {}
    fk_finite.quotient_norm(f, (4, 4), cache)
    first = len(calls)
    # (2, 2) has only classes that (4, 4) has computed already
    fk_finite.quotient_norm(f, (2, 2), cache)
    assert len(calls) == first
    # one cyclic modulus: cyclic_norm, no class products
    assert fk_finite.quotient_norm(f, (1, 5), cache) == cyclic_norm({0: 4, 1: 1}, [5])[0]
    assert len(calls) == first
