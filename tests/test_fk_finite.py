"""Finite groups, regular representations, exact determinants."""

import math
import random
from fractions import Fraction

import pytest

from fkdet.approx import reduce_mod
from fkdet.exact_linalg import det_exact, rank_exact
from fkdet.fk_finite import (
    FiniteGroup,
    FiniteGroupRingElement,
    FiniteGroupRingMatrix,
    direct_product,
    fk_det_finite,
    fk_det_kernel_finite,
    fk_det_kernel_flat,
    format_element,
    induce,
    make_cyclic,
    make_cyclic_product,
    norm_element,
    parse_element,
    regular_rep,
    rep_getters,
    restrict,
    vn_dim_kernel_finite,
)
from fkdet.laurent import parse_polynomial
from fkdet.values import Radical

from helpers import check_gram_route_against_berkowitz, symmetric_group_3


@pytest.fixture(autouse=True)
def gram_checked(monkeypatch):
    """Every singular case in this module takes the Gram route by pivot
    minors, checked against Berkowitz."""
    return check_gram_route_against_berkowitz(monkeypatch)


# a Latin square with two-sided identity 0 that is not a group
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def scalar_matrix(group, rows):
    return FiniteGroupRingMatrix(
        group,
        [
            [
                FiniteGroupRingElement.unit(group, coeff=c)
                for c in row
            ]
            for row in rows
        ],
    )


def rand_element(rng, group, bound=2):
    return FiniteGroupRingElement(
        group,
        tuple(rng.randrange(-bound, bound + 1) for _ in range(group.order)),
    )


def rand_matrix(rng, group, r, s, bound=2):
    return FiniteGroupRingMatrix(
        group, [[rand_element(rng, group, bound) for _ in range(s)] for _ in range(r)]
    )


# ---------------------------------------------------------------------------
# groups


def test_make_cyclic_tables():
    assert make_cyclic(1).order == 1
    z2 = make_cyclic(2)
    assert z2.table == ((0, 1), (1, 0))
    z3 = make_cyclic(3)
    assert z3.table[1][1] == 2
    assert z3.table[2][1] == 0
    assert z3.inv(1) == 2
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_group_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 0], [1, 1]], 0)
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 0]], 1)
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 2]], 0)
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(NON_ASSOCIATIVE_LOOP, 0)


def test_direct_product_klein_four():
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    assert v4.order == 4
    for g in range(4):
        assert v4.table[g][g] == v4.identity
    assert v4.names[3] == "(t,t)"


def _cyclic_reference(n):
    """Z/n from its table of sums, filled entry by entry."""
    names = ("e",) if n == 1 else ("e", "t") + tuple("t^%d" % k for k in range(2, n))
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, 0, names, kind="cyclic")


@pytest.mark.parametrize(
    "moduli", [(1,), (6,), (2, 3), (3, 2), (1, 4), (2, 2, 2), (4, 5, 1), (10, 10), (3, 2, 4, 2)]
)
def test_cyclic_product_matches_the_folded_direct_product(moduli):
    # the one-step table against the group that direct_product builds
    # factor by factor
    folded = _cyclic_reference(moduli[0])
    for n in moduli[1:]:
        folded = direct_product(folded, _cyclic_reference(n))
    g = make_cyclic_product(moduli)
    assert (g.table, g.names, g.kind, g.identity) == (
        folded.table, folded.names, folded.kind, folded.identity
    )
    assert g.inverses == folded.inverses
    if len(moduli) == 1:
        assert make_cyclic(moduli[0]).as_json() == g.as_json()


def test_cyclic_product_refuses_an_order_below_1():
    with pytest.raises(ValueError, match="positive"):
        make_cyclic_product((2, 0))
    with pytest.raises(ValueError, match="positive"):
        make_cyclic(0)
    with pytest.raises(ValueError, match="at least one modulus"):
        make_cyclic_product(())


def test_cyclic_product_matches_modular_arithmetic():
    g = make_cyclic_product([2, 3])
    # index (a, b) -> 3a + b
    for a1 in range(2):
        for b1 in range(3):
            for a2 in range(2):
                for b2 in range(3):
                    lhs = g.table[a1 * 3 + b1][a2 * 3 + b2]
                    rhs = ((a1 + a2) % 2) * 3 + (b1 + b2) % 3
                    assert lhs == rhs


def test_group_json_round_trip():
    g = make_cyclic(4)
    blob = g.as_json()
    back = FiniteGroup.from_json(blob)
    assert back.table == g.table
    assert back.identity == g.identity
    assert (back.names, back.kind) == (g.names, "cyclic")
    with pytest.raises(ValueError):
        FiniteGroup.from_json({"order": 2, "identity": 0, "table": [[0, 1]]})
    with pytest.raises(ValueError):
        FiniteGroup.from_json({"table": [[0]]})
    # order, names and kind are optional
    back = FiniteGroup.from_json({"identity": 0, "table": [[0, 1], [1, 0]]})
    assert back == make_cyclic(2)
    assert (back.names, back.kind) == (("g0", "g1"), "table")
    with pytest.raises(ValueError, match="names"):
        FiniteGroup.from_json({"identity": 0, "table": [[0]], "names": 5})
    for table in (5, [5, 6], ["01", "10"], [[0, 1], [1, 0.0]]):
        with pytest.raises(ValueError, match="integer rows"):
            FiniteGroup.from_json({"identity": 0, "table": table})


# ---------------------------------------------------------------------------
# elements


def test_parse_and_format_element():
    z2 = make_cyclic(2)
    x = parse_element(z2, "t + 2")
    assert x.coeffs == (2, 1)
    assert format_element(x) == "t + 2"
    y = parse_element(make_cyclic(3), "t^5")
    assert y.coeffs == (0, 0, 1)
    neg = parse_element(make_cyclic(3), "t^-1")
    assert neg.coeffs == (0, 0, 1)
    merged = parse_element(make_cyclic(2), "t^2 + 1")
    assert merged.coeffs == (2, 0)
    assert format_element(FiniteGroupRingElement.zero(z2)) == "0"
    assert format_element(parse_element(z2, "-t")) == "-t"
    assert format_element(parse_element(make_cyclic(3), "t^2 - t")) == "t^2 - t"


@pytest.mark.parametrize(
    "names", [None, ["e", "a", "b", "c"]], ids=["default-names", "own-names"]
)
def test_format_element_reads_back_over_a_cyclic_table(names):
    # a Z/4 table from --group-file, whose names are not powers of t: the
    # text is written in t, so parse_element reads back the same element
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    blob = {"identity": 0, "table": table}
    if names is not None:
        blob["names"] = names
    z4 = FiniteGroup.from_json(blob)
    rng = random.Random(4)
    for _ in range(50):
        x = FiniteGroupRingElement(z4, [rng.randint(-3, 3) for _ in range(4)])
        text = format_element(x)
        assert parse_element(z4, text) == x, text
    x = FiniteGroupRingElement(z4, [1, 1, 1, 0])
    assert format_element(x) == "t^2 + t + 1"


def test_parse_element_needs_cyclic_group():
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    with pytest.raises(ValueError):
        parse_element(v4, "t + 1")


def test_element_arithmetic():
    z2 = make_cyclic(2)
    t = FiniteGroupRingElement.unit(z2, 1)
    e = FiniteGroupRingElement.unit(z2)
    x = t + e
    assert (x * x).coeffs == (2, 2)
    assert (x - x).is_zero()
    assert x.scale(3).coeffs == (3, 3)
    assert x.identity_coefficient() == 1


def test_element_adjoint():
    z3 = make_cyclic(3)
    x = parse_element(z3, "1 + 2*t")
    assert x.adjoint().coeffs == (1, 0, 2)
    rng = random.Random(3)
    for _ in range(50):
        a = rand_element(rng, z3)
        b = rand_element(rng, z3)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()
        assert a.adjoint().adjoint() == a


def test_element_ring_axioms():
    rng = random.Random(5)
    groups = [make_cyclic(4), direct_product(make_cyclic(2), make_cyclic(2))]
    for g in groups:
        for _ in range(40):
            a, b, c = (rand_element(rng, g) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_norm_element():
    assert norm_element(make_cyclic(1)).coeffs == (1,)
    assert norm_element(make_cyclic(3)).coeffs == (1, 1, 1)


# ---------------------------------------------------------------------------
# regular representation


def test_regular_rep_golden():
    z2 = make_cyclic(2)
    assert regular_rep(parse_element(z2, "t + 1")) == [[1, 1], [1, 1]]
    z4 = make_cyclic(4)
    e = FiniteGroupRingElement.unit(z4)
    rep = regular_rep(e)
    assert rep == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_regular_rep_generator_is_shift():
    z3 = make_cyclic(3)
    t = FiniteGroupRingElement.unit(z3, 1)
    rep = regular_rep(t)
    # column g holds t*g: entry [t*g, g] = 1
    for g in range(3):
        assert rep[(g + 1) % 3][g] == 1
    assert sum(sum(row) for row in rep) == 3


def test_regular_rep_multiplicative():
    rng = random.Random(7)
    z3 = make_cyclic(3)
    for _ in range(40):
        a = rand_element(rng, z3)
        b = rand_element(rng, z3)
        ra = regular_rep(a)
        rb = regular_rep(b)
        rab = regular_rep(a * b)
        prod = [
            [sum(ra[i][k] * rb[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert prod == rab


def test_regular_rep_adjoint_is_transpose():
    rng = random.Random(11)
    z4 = make_cyclic(4)
    for _ in range(30):
        a = rand_element(rng, z4)
        rep = regular_rep(a)
        rep_star = regular_rep(a.adjoint())
        assert rep_star == [list(col) for col in zip(*rep)]


def test_regular_rep_matrix_blocks():
    z2 = make_cyclic(2)
    a = FiniteGroupRingMatrix(
        z2, [[parse_element(z2, "t + 1"), FiniteGroupRingElement.unit(z2)]]
    )
    rep = regular_rep(a)
    assert len(rep) == 2 and len(rep[0]) == 4
    assert rep == [[1, 1, 1, 0], [1, 1, 0, 1]]


def regular_rep_by_definition(mat):
    """regular_rep written out from its definition: block [u][v] of entry
    (i, j) is the coefficient of inv(v)*u."""
    g, n = mat.group, mat.group.order
    return [
        [
            mat.entries[i][j].coeffs[g.table[g.inv(v)][u]]
            for j in range(mat.cols)
            for v in range(n)
        ]
        for i in range(mat.rows)
        for u in range(n)
    ]


def rand_coeff(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return rng.randrange(-2, 3)


@pytest.mark.parametrize(
    "group",
    [make_cyclic(4), direct_product(make_cyclic(2), make_cyclic(2)), symmetric_group_3()],
    ids=["Z4", "klein", "S3"],
)
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2)], ids=["1x1", "2x3", "3x2"])
def test_regular_rep_layout_matches_definition(group, shape):
    rng = random.Random("%d:%s" % (group.order, shape))
    rows, cols = shape
    getters = rep_getters(group, rows, cols)
    for _ in range(8):
        mat = FiniteGroupRingMatrix(
            group,
            [
                [
                    FiniteGroupRingElement(
                        group, [rand_coeff(rng) for _ in range(group.order)]
                    )
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ],
        )
        want = regular_rep_by_definition(mat)
        assert regular_rep(mat) == want
        assert all(type(row) is list for row in regular_rep(mat))
        vec = tuple(c for row in mat.entries for x in row for c in x.coeffs)
        assert [list(get(vec)) for get in getters] == want
        # the flat entry point is the route of fk_det_kernel_finite, which
        # builds its own getters
        assert fk_det_kernel_flat(vec, group, shape, getters) == (
            fk_det_kernel_finite(mat)
        )
        assert fk_det_kernel_flat(vec, group, shape, getters, False) == (
            fk_det_kernel_finite(mat, singular_det=False)
        )


def test_radical_memo_keeps_values():
    # a memo shared across matrices hands back the value built for the
    # first determinant of each size, identical to a fresh one
    group = make_cyclic_product((2, 2))
    rng = random.Random(5)
    radicals = {}
    for _ in range(40):
        mat = rand_matrix(rng, group, 2, 2, bound=1)
        vec = tuple(c for row in mat.entries for x in row for c in x.coeffs)
        got = fk_det_kernel_flat(vec, group, (2, 2), None, True, radicals)
        assert got == fk_det_kernel_finite(mat)
    assert radicals


# ---------------------------------------------------------------------------
# determinants: golden values


def test_det_trivial_group_degenerate_matrix():
    triv = make_cyclic(1)
    a = scalar_matrix(triv, [[1, 1], [0, 0]])
    got = fk_det_finite(a)
    assert got.exact == Radical(2, Fraction(1, 2))
    assert math.isclose(got.value, math.sqrt(2))


def test_det_t_plus_1_mod_2():
    got = fk_det_finite(parse_element(make_cyclic(2), "t + 1"))
    assert got.exact == Radical(2, Fraction(1, 2))


def test_det_t_plus_2_mod_2():
    got = fk_det_finite(parse_element(make_cyclic(2), "t + 2"))
    assert got.exact == Radical(3, Fraction(1, 2))


def test_det_t_plus_1_odd_orders():
    for n in (3, 5, 7, 9):
        got = fk_det_finite(parse_element(make_cyclic(n), "t + 1"))
        assert got.exact == Radical(2, Fraction(1, n))


def test_det_norm_minus_identity():
    for n in (3, 4, 5):
        g = make_cyclic(n)
        x = norm_element(g) - FiniteGroupRingElement.unit(g)
        got = fk_det_finite(x)
        assert got.exact == Radical(n - 1, Fraction(1, n))


def test_det_zero_operator_convention():
    z3 = make_cyclic(3)
    got = fk_det_finite(FiniteGroupRingElement.zero(z3))
    assert got.exact == Radical(1)
    assert got.value == 1.0
    wide = FiniteGroupRingMatrix.zero(z3, 2, 3)
    assert fk_det_finite(wide).exact == Radical(1)


def test_det_rectangular_gram_route():
    z2 = make_cyclic(2)
    a = FiniteGroupRingMatrix(
        z2, [[parse_element(z2, "t + 1"), FiniteGroupRingElement.unit(z2)]]
    )
    got = fk_det_finite(a)
    assert got.exact == Radical(5, Fraction(1, 4))


def test_gram_route_by_pivot_minors(gram_checked):
    # z1 - z2 over Z/6 x Z/6 and Z/8 x Z/8: singular 36x36 and 64x64
    # representations; the fixture checks each Gram product against Berkowitz
    z1_z2 = parse_polynomial("z1 - z2", rank=2)
    assert fk_det_finite(reduce_mod(z1_z2, (6, 6))).exact == Radical(6, Fraction(1, 6))
    assert fk_det_finite(reduce_mod(z1_z2, (8, 8))).exact == Radical(2, Fraction(3, 8))
    # rational entries: (1 + a)/3 over the Klein four-group, a of order 2,
    # has Gram eigenvalues 4/9, 4/9, 0 and 0
    klein = direct_product(make_cyclic(2), make_cyclic(2))
    third = FiniteGroupRingElement(klein, (Fraction(1, 3), 0, Fraction(1, 3), 0))
    assert fk_det_finite(third).value == pytest.approx((16 / 81) ** 0.125, rel=1e-14)
    assert gram_checked == [6**12, 2**48, Fraction(16, 81)]


def test_det_squares_to_gram_determinant():
    rng = random.Random(13)
    z3 = make_cyclic(3)
    for _ in range(25):
        r = rng.randrange(1, 3)
        s = rng.randrange(1, 3)
        a = rand_matrix(rng, z3, r, s)
        lhs = fk_det_finite(a)
        rhs = fk_det_finite(a @ a.adjoint())
        if lhs.exact is not None and rhs.exact is not None:
            assert lhs.exact ** 2 == rhs.exact
        else:
            assert math.isclose(lhs.value ** 2, rhs.value, rel_tol=1e-9)


def test_det_rational_coefficients_float_path():
    triv = make_cyclic(1)
    half = FiniteGroupRingElement(triv, (Fraction(1, 2),))
    got = fk_det_finite(half)
    assert got.exact is None
    assert math.isclose(got.value, 0.5)


def test_det_adjoint_symmetry():
    rng = random.Random(17)
    z4 = make_cyclic(4)
    for _ in range(30):
        a = rand_matrix(rng, z4, 2, 2)
        assert fk_det_finite(a).exact == fk_det_finite(a.adjoint()).exact


def test_det_multiplicative_on_invertibles():
    rng = random.Random(19)
    z3 = make_cyclic(3)
    done = 0
    while done < 20:
        a = rand_matrix(rng, z3, 2, 2)
        b = rand_matrix(rng, z3, 2, 2)
        da = det_exact(regular_rep(a))
        db = det_exact(regular_rep(b))
        if da == 0 or db == 0:
            continue
        assert fk_det_finite(a @ b).exact == fk_det_finite(a).exact * fk_det_finite(b).exact
        done += 1


def test_det_block_triangular():
    rng = random.Random(23)
    z2 = make_cyclic(2)
    done = 0
    while done < 20:
        a = rand_matrix(rng, z2, 2, 2)
        b = rand_matrix(rng, z2, 2, 2)
        if det_exact(regular_rep(a)) == 0 or det_exact(regular_rep(b)) == 0:
            continue
        c = rand_matrix(rng, z2, 2, 2)
        z = FiniteGroupRingElement.zero(z2)
        block = FiniteGroupRingMatrix(
            z2,
            [
                list(a.entries[0]) + list(c.entries[0]),
                list(a.entries[1]) + list(c.entries[1]),
                [z, z] + list(b.entries[0]),
                [z, z] + list(b.entries[1]),
            ],
        )
        assert (
            fk_det_finite(block).exact
            == fk_det_finite(a).exact * fk_det_finite(b).exact
        )
        done += 1


def test_det_conjecture_lower_bound_samples():
    rng = random.Random(29)
    for _ in range(60):
        g = make_cyclic(rng.randrange(1, 6))
        a = rand_matrix(rng, g, rng.randrange(1, 3), rng.randrange(1, 3))
        if not a.is_integral():
            continue
        assert fk_det_finite(a).value >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# trivial-group 2x2 closed form


def trivial_2x2(rows):
    """|det|, else sqrt(tr(A A*)), else 1: the determinant over the trivial group."""
    ((a, b), (c, d)) = rows
    det = a * d - b * c
    if det:
        return abs(det)
    return math.sqrt(a * a + b * b + c * c + d * d) if any((a, b, c, d)) else 1


def test_2x2_trivial_three_cases():
    triv = make_cyclic(1)
    got = fk_det_finite(scalar_matrix(triv, [[1, 1], [0, 0]]))
    assert got.exact == Radical(2, Fraction(1, 2))
    assert fk_det_finite(scalar_matrix(triv, [[2, 0], [0, 3]])).exact == Radical(6)
    assert fk_det_finite(scalar_matrix(triv, [[0, 0], [0, 0]])).exact == Radical(1)
    frac = fk_det_finite(scalar_matrix(triv, [[Fraction(1, 2), 0], [0, 1]]))
    assert frac.exact is None
    assert math.isclose(frac.value, 0.5)


def test_2x2_trivial_matches_regular_rep():
    rng = random.Random(31)
    triv = make_cyclic(1)
    for _ in range(80):
        rows = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)]
        got = fk_det_finite(scalar_matrix(triv, rows))
        assert got.method == "regular_rep"
        assert math.isclose(got.value, trivial_2x2(rows), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# dimensions


def test_vn_dim_examples():
    z3 = make_cyclic(3)
    assert vn_dim_kernel_finite(FiniteGroupRingElement.zero(z3)) == 1
    assert vn_dim_kernel_finite(FiniteGroupRingElement.unit(z3)) == 0
    z2 = make_cyclic(2)
    assert vn_dim_kernel_finite(norm_element(z2)) == Fraction(1, 2)


def test_vn_dim_denominator_divides_order():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randrange(1, 6)
        g = make_cyclic(n)
        a = rand_matrix(rng, g, rng.randrange(1, 3), rng.randrange(1, 3))
        dim = vn_dim_kernel_finite(a)
        assert n % dim.denominator == 0
        assert 0 <= dim <= a.rows


# ---------------------------------------------------------------------------
# induction and restriction


def test_induce_identity_embedding():
    z2 = make_cyclic(2)
    x = parse_element(z2, "t + 1")
    same = induce(x, z2, [0, 1])
    assert same.entries[0][0] == x


def test_induce_preserves_determinant():
    z2 = make_cyclic(2)
    z4 = make_cyclic(4)
    x = parse_element(z2, "t + 1")
    pushed = induce(x, z4, [0, 2])
    assert pushed.entries[0][0].coeffs == (1, 0, 1, 0)
    assert fk_det_finite(pushed).exact == fk_det_finite(x).exact
    triv = make_cyclic(1)
    a = scalar_matrix(triv, [[1, 1], [0, 0]])
    lifted = induce(a, z2, [0])
    assert fk_det_finite(lifted).exact == Radical(2, Fraction(1, 2))


def test_induce_validates_embedding():
    z2 = make_cyclic(2)
    z4 = make_cyclic(4)
    x = parse_element(z2, "t + 1")
    with pytest.raises(ValueError, match="injective"):
        induce(x, z4, [0, 0])
    with pytest.raises(ValueError, match="homomorphism"):
        induce(x, z4, [0, 1])


def test_restrict_to_trivial_subgroup_is_regular_rep():
    rng = random.Random(41)
    triv = make_cyclic(1)
    for n in (2, 3, 4):
        g = make_cyclic(n)
        a = rand_matrix(rng, g, 2, 1)
        res = restrict(a, triv, [g.identity])
        rep = regular_rep(a)
        assert res.rows == 2 * n and res.cols == n
        for i in range(res.rows):
            for j in range(res.cols):
                assert res.entries[i][j].coeffs == (rep[i][j],)


def test_restrict_index_two_chain():
    z4 = make_cyclic(4)
    z2 = make_cyclic(2)
    x = parse_element(z4, "t + 1")
    res = restrict(x, z2, [0, 2])
    got = fk_det_finite(res)
    top = fk_det_finite(x)
    assert got.exact == top.exact ** 2
    assert got.exact == Radical(2)


def test_restrict_determinant_power_randomized():
    rng = random.Random(43)
    z4 = make_cyclic(4)
    z2 = make_cyclic(2)
    triv = make_cyclic(1)
    for _ in range(15):
        a = rand_matrix(rng, z4, 2, 2, bound=1)
        top = fk_det_finite(a)
        mid = fk_det_finite(restrict(a, z2, [0, 2]))
        bot = fk_det_finite(restrict(a, triv, [0]))
        assert mid.exact == top.exact ** 2
        assert bot.exact == top.exact ** 4


def test_restrict_preserves_kernel_dimension_scaling():
    z2 = make_cyclic(2)
    triv = make_cyclic(1)
    x = norm_element(z2)
    assert vn_dim_kernel_finite(x) == Fraction(1, 2)
    res = restrict(x, triv, [0])
    assert vn_dim_kernel_finite(res) == 1


# ---------------------------------------------------------------------------
# arithmetic of the representation integers


def test_integrality_mod_2_spot_checks():
    z2 = make_cyclic(2)
    rng = random.Random(47)
    for _ in range(60):
        a = rand_element(rng, z2, bound=2)
        rep = regular_rep(a)
        if rank_exact(rep) < 2:
            continue
        d = abs(det_exact(rep))
        assert d % 2 == 1 or d % 4 == 0
