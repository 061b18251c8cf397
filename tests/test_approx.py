"""Finite-quotient reduction, trace matching, and determinant chains."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fkdet import approx
from fkdet.approx import (
    DetSequence,
    QuotientChain,
    TraceCheck,
    chain_range,
    det_sequence,
    det_sequence_to_csv,
    norm_bound,
    reduce_mod,
    trace_element,
    trace_match_check,
)
from fkdet.fk_finite import (
    FiniteGroupRingElement,
    cyclic_stages,
    FiniteGroupRingMatrix,
    is_cyclic_table,
    make_cyclic,
    make_cyclic_product,
    parse_element,
    regular_rep,
)
from fkdet.laurent import GroupRingMatrix, LaurentPolynomial, parse_polynomial
from fkdet.values import Radical

from helpers import mat


def rand_poly(rng, rank, spread=1, bound=2):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(-spread, spread + 1) for _ in range(rank))
        terms[e] = terms.get(e, 0) + rng.randrange(-bound, bound + 1)
    return LaurentPolynomial(rank, terms)


def rand_matrix(rng, rows, cols, rank=1):
    return GroupRingMatrix(
        [[rand_poly(rng, rank) for _ in range(cols)] for _ in range(rows)], rank=rank
    )


# ---------------------------------------------------------------------------
# chains


def test_chain_validation():
    with pytest.raises(ValueError, match="rank"):
        QuotientChain(0, ((2,),))
    with pytest.raises(ValueError, match="rank"):
        QuotientChain(2, ((2,), (4,)))
    with pytest.raises(ValueError, match="positive"):
        QuotientChain(1, ((2,), (0,)))
    # any positive moduli make a chain; divisibility only decides nested
    assert QuotientChain(1, ((2,), (3,))).nested is False
    assert QuotientChain(2, ((2, 3), (4, 3))).nested is True
    assert QuotientChain(2, ((2, 3), (4, 4))).nested is False


def test_chain_accessors():
    chain = QuotientChain(2, ((2, 2), (4, 6)))
    assert chain.orders() == (4, 24)
    blob = chain.as_json()
    assert blob == {"rank": 2, "moduli": [[2, 2], [4, 6]], "nested": True}


def test_chain_builders():
    assert chain_range(1, 2, 5).moduli == ((2,), (3,), (4,), (5,))
    assert chain_range(1, 7, 7).moduli == ((7,),)
    # consecutive moduli divide each other only from 1 to 2
    assert chain_range(1, 2, 5).nested is False
    assert chain_range(1, 7, 7).nested is True
    assert chain_range(2, 1, 2).nested is True
    with pytest.raises(ValueError):
        chain_range(1, 5, 4)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_single_variable_examples():
    z3 = make_cyclic(3)
    assert reduce_mod(parse_polynomial("z - 2"), (3,)) == parse_element(z3, "t - 2")
    assert reduce_mod(parse_polynomial("z^3"), (3,)) == FiniteGroupRingElement.unit(z3)
    # z + z^4 collapses onto one coset
    assert reduce_mod(parse_polynomial("z + z^4"), (3,)) == parse_element(z3, "2*t")
    assert reduce_mod(parse_polynomial("z^-1"), (3,)) == parse_element(z3, "t^2")


def test_reduce_mixed_radix_indexing():
    g = make_cyclic_product((2, 3))
    x = reduce_mod(parse_polynomial("z1*z2^2", rank=2), (2, 3))
    # exponents (1, 2) land at index 1*3 + 2
    assert x.coeffs[5] == 1 and sum(map(abs, x.coeffs)) == 1
    assert x.group == g
    y = reduce_mod(parse_polynomial("z1^2*z2^3", rank=2), (2, 3))
    assert y == FiniteGroupRingElement.unit(g)


def test_reduce_integer_coefficients_stay_integers():
    x = reduce_mod(parse_polynomial("3*z^2 - z"), (4,))
    assert all(isinstance(c, int) for c in x.coeffs)


def test_reduce_is_a_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        p = rand_poly(rng, 2, spread=2)
        q = rand_poly(rng, 2, spread=2)
        mods = (rng.randrange(1, 5), rng.randrange(1, 5))
        assert reduce_mod(p * q, mods) == reduce_mod(p, mods) * reduce_mod(q, mods)
        assert reduce_mod(p + q, mods) == reduce_mod(p, mods) + reduce_mod(q, mods)
        assert reduce_mod(p.adjoint(), mods) == reduce_mod(p, mods).adjoint()


def test_reduce_matrix_commutes_with_multiplication():
    rng = random.Random(8)
    for _ in range(10):
        a = rand_matrix(rng, 2, 2)
        b = rand_matrix(rng, 2, 2)
        n = (rng.randrange(2, 6),)
        lhs = reduce_mod(a @ b, n)
        rhs = reduce_mod(a, n) @ reduce_mod(b, n)
        assert lhs.entries == rhs.entries
        adj = reduce_mod(a.adjoint(), n)
        assert adj.entries == reduce_mod(a, n).adjoint().entries


def test_reduce_validation():
    with pytest.raises(ValueError, match="modulus"):
        reduce_mod(parse_polynomial("z"), ())
    with pytest.raises(ValueError, match="positive"):
        reduce_mod(parse_polynomial("z"), (0,))
    with pytest.raises(ValueError, match="rank"):
        reduce_mod(parse_polynomial("z"), (2, 2))
    with pytest.raises(ValueError, match="rank"):
        reduce_mod(mat([["z1 + z2"]], rank=2), (3,))
    with pytest.raises(ValueError, match="expected"):
        reduce_mod("z + 1", (2,))


# ---------------------------------------------------------------------------
# traces


def test_trace_element_kinds():
    assert trace_element(parse_polynomial("z^2 + 3 - z^-1")) == 3
    assert trace_element(parse_polynomial("z + z^-1")) == 0
    z4 = make_cyclic(4)
    assert trace_element(parse_element(z4, "t^2 - 5")) == -5
    assert trace_element(7) == 7
    assert trace_element(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        trace_element("t + 1")


def test_trace_check_single_variable():
    a = mat([["z + z^-1"]])
    far = trace_match_check(a, 2, (5,))
    assert far.ok is True
    assert far.traces_zd == (0, 2)
    assert far.traces_quotient == (0, 2)
    assert far.sufficient == (5,)
    assert far.least_multiple == (5,)

    near = trace_match_check(a, 2, (2,))
    assert near.ok is False
    # mod 2 both monomials collapse onto t, so the square contributes 4
    assert near.traces_quotient == (0, 4)
    assert near.sufficient == (5,)
    assert near.least_multiple == (4,)

    again = trace_match_check(a, 2, (4,))
    assert again.ok is True and again.least_multiple == (4,)
    assert trace_match_check(a, 2, (8,)).ok is True
    assert trace_match_check(a, 2, (12,)).ok is True


def test_trace_check_two_variables():
    a = mat([["z1 + z2^-1"]], rank=2)
    res = trace_match_check(a, 2, (1, 1))
    assert res.ok is False
    assert res.traces_zd == (0, 0)
    # over the trivial quotient everything is a multiple of the identity
    assert res.traces_quotient == (2, 4)
    assert res.sufficient == (5, 5)
    assert res.least_multiple == (3, 3)
    assert trace_match_check(a, 2, (3, 3)).ok is True


def test_trace_check_matrix():
    a = mat([["z", "1"], ["1", "z^-1"]])
    res = trace_match_check(a, 2, (3,))
    assert res.ok is True
    assert res.traces_zd == (0, 2)
    small = trace_match_check(a, 2, (2,))
    assert small.ok is False
    assert small.traces_quotient == (0, 4)
    assert small.sufficient == (5,)
    assert small.least_multiple == (4,)


def test_trace_check_respects_reduction_of_powers():
    # tr((A mod n)^m) must equal tr(A^m mod n): reduction is a homomorphism
    rng = random.Random(11)
    for _ in range(10):
        a = rand_matrix(rng, 2, 2)
        n = (rng.randrange(2, 6),)
        sq = a @ a
        direct = reduce_mod(a, n) @ reduce_mod(a, n)
        reduced = reduce_mod(sq, n)
        assert direct.entries == reduced.entries


def test_trace_check_sufficient_tuple_always_matches():
    rng = random.Random(12)
    for _ in range(8):
        a = rand_matrix(rng, 2, 2, rank=2)
        res = trace_match_check(a, 2, (1, 1))
        assert trace_match_check(a, 2, res.sufficient).ok is True
        assert res.least_multiple[0] <= res.sufficient[0]


def test_trace_check_validation():
    with pytest.raises(ValueError, match="square"):
        trace_match_check(mat([["z", "1"]]), 2, (3,))
    with pytest.raises(ValueError, match="degree"):
        trace_match_check(mat([["z"]]), 0, (3,))
    with pytest.raises(ValueError, match="moduli"):
        trace_match_check(mat([["z"]]), 2, (3, 3))


def test_trace_check_json():
    blob = trace_match_check(mat([["z + z^-1"]]), 2, (2,)).as_json()
    assert blob["ok"] is False
    assert blob["moduli"] == [2]
    assert blob["degree"] == 2
    assert blob["traces_zd"] == ["0", "2"]
    assert blob["traces_quotient"] == ["0", "4"]
    assert blob["sufficient"] == [5]
    assert blob["least_multiple"] == [4]


# ---------------------------------------------------------------------------
# norm bounds


def test_norm_bound_goldens():
    assert norm_bound(mat([["z + z^-1 + 1"]])) == pytest.approx(3.0)
    assert norm_bound(mat([["z", "1"], ["1", "z^-1"]])) == pytest.approx(math.sqrt(6))
    assert norm_bound(GroupRingMatrix.zero(2, 0, 1)) == 0.0
    with pytest.raises(ValueError):
        norm_bound(parse_polynomial("z"))


def test_norm_bound_covers_finite_reductions():
    rng = random.Random(13)
    for _ in range(12):
        a = rand_matrix(rng, rng.randrange(1, 3), rng.randrange(1, 3))
        bound = norm_bound(a)
        for n in (2, 3, 5, 12):
            b = reduce_mod(a, (n,))
            assert norm_bound(b) <= bound + 1e-12
            if b.rows and b.cols:
                rep = np.array(regular_rep(b), dtype=float)
                top = np.linalg.svd(rep, compute_uv=False)[0]
                assert top <= bound + 1e-9


def test_norm_bound_finite_matrix_directly():
    g = make_cyclic(4)
    a = FiniteGroupRingMatrix.from_element(parse_element(g, "t^2 - 2*t + 1"))
    assert norm_bound(a) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# determinant chains


def test_det_sequence_z_minus_two():
    seq = det_sequence(mat([["z - 2"]]), chain_range(1, 2, 8))
    for n, v in zip(range(2, 9), seq.values):
        assert v.exact == Radical(2**n - 1, Fraction(1, n))
    assert seq.limit_reference.value == pytest.approx(2.0, abs=1e-12)
    assert seq.limsup_ok is True
    assert seq.approaching is True
    # the stages climb toward the limit from below
    floats = [v.value for v in seq.values]
    assert floats == sorted(floats)
    assert floats[-1] < 2.0


def test_det_sequence_unit_matrix():
    seq = det_sequence(mat([["1"]]), QuotientChain(1, ((2,), (4,), (8,))))
    assert [v.value for v in seq.values] == [1.0, 1.0, 1.0]
    assert seq.limit_reference.value == pytest.approx(1.0)
    assert seq.limsup_ok is True and seq.approaching is True


def test_det_sequence_cyclotomic_exceeds_its_limit():
    # every stage of z + 1 along odd quotients is 2^(1/n) > M(z + 1) = 1,
    # so the limsup inequality cannot be certified from finitely many stages
    chain = QuotientChain(1, ((3,), (5,), (7,), (9,)))
    seq = det_sequence(mat([["z + 1"]]), chain)
    for n, v in zip((3, 5, 7, 9), seq.values):
        assert v.exact == Radical(2, Fraction(1, n))
    assert seq.limit_reference.value == pytest.approx(1.0, abs=1e-12)
    assert seq.limsup_ok is False
    assert seq.approaching is True


def test_det_sequence_two_variables():
    a = mat([["z1 + z2 + 1"]], rank=2)
    seq = det_sequence(a, QuotientChain(2, ((2, 2), (4, 4))), measure_method="quadrature")
    assert len(seq.values) == 2
    assert all(v.exact is not None for v in seq.values)
    assert seq.limit_reference.value == pytest.approx(1.3813564445, abs=0.05)


def test_det_sequence_validation():
    with pytest.raises(ValueError, match="rank"):
        det_sequence(mat([["z1"]], rank=2), chain_range(1, 2, 4))
    with pytest.raises(ValueError, match="empty"):
        det_sequence(mat([["z"]]), QuotientChain(1, ()))
    with pytest.raises(ValueError, match="budget"):
        det_sequence(mat([["z"]]), chain_range(1, 2, 5), max_stage_order=4)


def test_det_sequence_refuses_an_oversized_stage_before_computing_any(monkeypatch):
    # stages 2..7 of a 2x2 fit REP_MAX_DIM = 100; (8, 8) needs dimension 128
    calls = []
    monkeypatch.setattr(approx, "fk_det_finite", lambda m: calls.append(m))
    monkeypatch.setattr(approx, "fk_det_zd", lambda *a, **k: calls.append(a))
    square = mat([["1 + z1", "z2"], ["1", "2 + z1*z2"]], rank=2)
    with pytest.raises(ValueError, match="dimension 128.*REP_MAX_DIM = 100"):
        det_sequence(square, chain_range(2, 2, 11))
    # a 2x2 never takes the cyclic route, even over Z/n
    with pytest.raises(ValueError, match="dimension 102"):
        det_sequence(mat([["z1", "1"], ["0", "z2"]], rank=2), QuotientChain(2, ((1, 51),)))
    assert calls == []


def test_det_sequence_admits_cyclic_stages_over_the_representation_budget():
    # with one modulus above 1 the quotient is Z/n in make_cyclic's order,
    # so one row or column takes cyclic_norm at any order
    for mods in ((1, 1), (1, 4), (4, 1), (1, 2, 1), (2, 2), (2, 3), (3, 1, 2)):
        cyclic = sum(n > 1 for n in mods) <= 1
        assert is_cyclic_table(make_cyclic_product(mods)) == cyclic, mods
    chain = QuotientChain(2, ((1, 150), (1, 200)))
    seq = det_sequence(mat([["1 + z1 + z2"]], rank=2), chain)
    # over Z/n the element is 2 + t, whose norm is 2^n - (-1)^n
    for (_, n), v in zip(chain.moduli, seq.values):
        assert v.exact == Radical(2**n - (-1) ** n, Fraction(1, n))
    column = QuotientChain(2, ((150, 1),))
    seq = det_sequence(mat([["z1 - 2"], ["1 + z2"]], rank=2), column)
    assert seq.values[0].method == "cyclic_norm"


def test_rank_2_chain_past_the_old_representation_budget_matches_a_float_product():
    # orders up to 900, far over REP_MAX_DIM; the engine decides exactly
    # which characters are zeros (the orbit of (omega, omega^2) when 3
    # divides n), and the float product over the n x n character grid
    # leaves out that many smallest values
    a = mat([["1 + z1 + z2"]], rank=2)
    chain = chain_range(2, 2, 30)
    seq = det_sequence(a, chain)
    kernels = [k for _, k in cyclic_stages([a.entries[0][0].terms], 1, chain.moduli)]
    for (n, _), value, kernel in zip(chain.moduli, seq.values, kernels):
        assert value.method == "cyclic_norm"
        assert kernel == (Fraction(2, n * n) if n % 3 == 0 else 0)
        zeta = np.exp(2j * np.pi * np.arange(n) / n)
        mags = np.sort(np.abs(1 + zeta[:, None] + zeta[None, :]).ravel())
        kept = mags[int(kernel * n * n):]
        want = math.exp(np.mean(np.log(kept)) * len(kept) / (n * n))
        assert value.value == pytest.approx(want, rel=1e-9), n


def test_one_row_or_column_takes_the_norm_engine_at_every_rank():
    # past REP_MAX_DIM at ranks 2 and 3, and with both moduli above 1
    cases = [
        (mat([["1 + z1 + z2"]], rank=2), QuotientChain(2, ((11, 11), (4, 30)))),
        (mat([["z1 - 2", "1 + z2"]], rank=2), QuotientChain(2, ((6, 9),))),
        (mat([["1 - z1*z2"], ["z1 + 3"]], rank=2), QuotientChain(2, ((8, 8),))),
        (mat([["3 + z1 + z2 - z3"]], rank=3), QuotientChain(3, ((5, 5, 5),))),
    ]
    for a, chain in cases:
        seq = det_sequence(a, chain)
        assert {v.method for v in seq.values} == {"cyclic_norm"}
        assert all(v.exact is not None for v in seq.values)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9])
def test_det_sequence_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        det_sequence(mat([["z - 2"]]), chain_range(1, 2, 4), tolerance=tolerance)
    assert det_sequence(mat([["z - 2"]]), chain_range(1, 2, 4), tolerance=0.0).limsup_ok


def test_det_sequence_json_and_csv():
    seq = det_sequence(mat([["z - 2"]]), chain_range(1, 2, 4))
    blob = seq.as_json()
    assert blob["chain"]["moduli"] == [[2], [3], [4]]
    assert blob["matrix"]["entries"] == ["-2 + z"]
    assert [s["order"] for s in blob["stages"]] == [2, 3, 4]
    assert blob["stages"][0]["value"]["exact"] == {"base": 3, "exponent": "1/2"}
    assert blob["limsup_ok"] is True
    assert blob["convergence"]["label"] == "evidence"
    assert blob["convergence"]["approaching"] is True
    assert blob["convergence"]["final_gap"] == pytest.approx(2 - 15 ** (1 / 4))

    csv = det_sequence_to_csv(seq)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,value"
    assert lines[1].startswith("2,") and len(lines) == 4
    assert float(lines[3].split(",")[1]) == pytest.approx(15 ** (1 / 4))
