"""Exact arithmetic for Laurent polynomials over Q and matrices of them.

A Laurent polynomial in ``d`` commuting variables ``z1, ..., zd`` is stored as
a finite map from exponent vectors (length-``d`` tuples of signed integers) to
nonzero rational coefficients.  The zero polynomial is the empty map.  All
arithmetic is exact; nothing here ever touches floating point.

The involution ``*`` negates every exponent vector and fixes the (rational)
coefficients.  Matrices follow the row-vector convention: a matrix ``A`` with
``r`` rows and ``s`` cols acts by ``(x_1, ..., x_r) -> (sum_k x_k A[k][j])_j``,
so kernels are LEFT kernels, spanned by rows ``b`` with ``b A = 0``.

Determinants of square matrices are computed fraction-free (cofactor expansion
up to size 4, above that the Bareiss elimination ``exact_linalg.eliminate``,
which divides exactly through ``//``), so no fraction-field value ever appears.
Kernel bases come from the same elimination on ``[A | I]``, and the canonical
ones are normalized to content 1 with per-axis minimal exponents 0.

The text grammar (shared with the CLI): terms joined by ``+`` and ``-``; a term
is an optional integer (or ``p/q`` rational) coefficient, an optional ``*``, and
monomial factors ``zK^E`` joined by ``*``, with ``K`` in ``1..d`` and ``E`` a
signed integer.  For rank 1 the bare name ``z`` is accepted and printed.
Canonical printing orders exponent vectors lexicographically.

Every polynomial keeps its terms canonical: exponent vectors are tuples of
ints of length ``rank``, no coefficient is zero, and an integral coefficient
is an ``int`` (a ``Fraction`` only otherwise).  The public constructor
``LaurentPolynomial(rank, terms)`` checks and canonicalizes whatever it is
given.  The ring operations here already produce canonical terms, so they
return through the private ``_from_canonical``, which checks nothing: a
product or a matrix entry sums into one dict and drops its zeros once, with
``_canonical``, and no intermediate polynomial is built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import add
from typing import Sequence

from .exact_linalg import eliminate


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division does not come out even."""


def _as_fraction(c):
    """An exact coefficient: an int when integral, else a Fraction."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _canonical(terms: dict) -> dict:
    """``terms`` with zero coefficients dropped and integral Fractions made
    ints; its exponent vectors must already be canonical."""
    return {
        e: c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
        for e, c in terms.items()
        if c
    }


def _mul_into(acc: dict, a: dict, b: dict, sign: int = 1) -> None:
    """Add ``sign * a * b`` into ``acc``, all term maps of one rank; sums
    that cancel stay in ``acc`` as zeros for ``_canonical`` to drop."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ea, ca in a.items():
        if sign < 0:
            ca = -ca
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            acc[e] = get(e, 0) + ca * cb


class LaurentPolynomial:
    """A Laurent polynomial with exact rational coefficients.

    ``rank`` is the number of variables; ``terms`` maps exponent tuples of
    length ``rank`` to nonzero coefficients, an ``int`` when integral and
    a ``Fraction`` otherwise.  Instances are immutable by convention: every
    operation returns a fresh object and the constructor strips zero
    coefficients, so equal polynomials have equal term maps.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        clean = {}
        if terms:
            for exps, c in (terms.items() if isinstance(terms, dict) else terms):
                exps = tuple(int(e) for e in exps)
                if len(exps) != rank:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected rank {rank}"
                    )
                c = _as_fraction(c)
                if c:
                    prev = clean.get(exps)
                    if prev is None:
                        clean[exps] = c
                    else:
                        tot = _as_fraction(prev + c)
                        if tot:
                            clean[exps] = tot
                        else:
                            del clean[exps]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, rank: int = 1) -> "LaurentPolynomial":
        return cls(rank)

    @classmethod
    def one(cls, rank: int = 1) -> "LaurentPolynomial":
        return cls(rank, {(0,) * rank: Fraction(1)})

    @classmethod
    def constant(cls, c, rank: int = 1) -> "LaurentPolynomial":
        return cls(rank, {(0,) * rank: _as_fraction(c)})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1, rank: int | None = None) -> "LaurentPolynomial":
        exps = tuple(int(e) for e in exps)
        if rank is None:
            rank = len(exps)
        return cls(rank, {exps: _as_fraction(coeff)})

    @classmethod
    def variable(cls, i: int = 1, rank: int = 1) -> "LaurentPolynomial":
        """The variable ``z_i`` inside rank ``rank`` (1-based axis index)."""
        if not 1 <= i <= rank:
            raise ValueError(f"variable index {i} outside 1..{rank}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(rank))
        return cls(rank, {exps: Fraction(1)})

    # ------------------------------------------------------------------
    # basic predicates and accessors

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.rank: Fraction(1)}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def constant_coefficient(self) -> Fraction:
        """Coefficient of the identity monomial (all exponents zero)."""
        return self.terms.get((0,) * self.rank, Fraction(0))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def one_norm(self) -> Fraction:
        """Sum of absolute values of the coefficients."""
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def support_bound(self, axis: int) -> int:
        """Max of ``|n_axis|`` over the support; 0 for the zero polynomial.

        ``axis`` is 1-based.
        """
        if not 1 <= axis <= self.rank:
            raise ValueError(f"axis {axis} outside 1..{self.rank}")
        i = axis - 1
        return max((abs(e[i]) for e in self.terms), default=0)

    def min_exponents(self) -> tuple:
        """Componentwise minimum exponent over the support (zeros if empty)."""
        if not self.terms:
            return (0,) * self.rank
        return tuple(min(e[i] for e in self.terms) for i in range(self.rank))

    def max_exponents(self) -> tuple:
        if not self.terms:
            return (0,) * self.rank
        return tuple(max(e[i] for e in self.terms) for i in range(self.rank))

    def content(self) -> Fraction:
        """Positive gcd of the coefficients (gcd of numerators over lcm of
        denominators); 0 for the zero polynomial."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    # ------------------------------------------------------------------
    # ring operations

    def _check_rank(self, other: "LaurentPolynomial"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.rank)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_rank(other)
        terms = dict(self.terms)
        get = terms.get
        for e, c in other.terms.items():
            terms[e] = get(e, 0) + c
        return _from_canonical(self.rank, _canonical(terms))

    __radd__ = __add__

    def __neg__(self):
        return _from_canonical(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.rank)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return _from_canonical(
                self.rank, _canonical({e: c * v for e, v in self.terms.items()})
            )
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_rank(other)
        # convolution product: exponent vectors add componentwise
        terms: dict = {}
        _mul_into(terms, self.terms, other.terms)
        return _from_canonical(self.rank, _canonical(terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = LaurentPolynomial.one(self.rank)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def adjoint(self) -> "LaurentPolynomial":
        """The involution ``*``: exponents negate, coefficients are fixed."""
        return _from_canonical(
            self.rank, {tuple(-x for x in e): c for e, c in self.terms.items()}
        )

    def shifted(self, exps: Sequence[int]) -> "LaurentPolynomial":
        """Multiply by the unit monomial with exponent vector ``exps``."""
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.rank:
            raise ValueError(f"shift {exps} has length {len(exps)}, expected rank {self.rank}")
        return _from_canonical(
            self.rank, {tuple(map(add, e, exps)): c for e, c in self.terms.items()}
        )

    def specialize(self, ks: Sequence[int]) -> "LaurentPolynomial":
        """Apply ``z_1^{a_1}...z_d^{a_d} -> z^{a_1 + sum_i k_i a_i}``.

        ``ks`` lists ``(k_2, ..., k_d)``; collapsing monomials sum.  The result
        has rank 1.
        """
        d = self.rank
        if d < 2:
            raise ValueError("specialization needs rank >= 2")
        ks = tuple(int(k) for k in ks)
        if len(ks) != d - 1:
            raise ValueError(f"expected {d - 1} specialization integers, got {len(ks)}")
        if any(k < 1 for k in ks):
            raise ValueError("specialization integers must be positive")
        terms: dict = {}
        for e, c in self.terms.items():
            n = (e[0] + sum(k * a for k, a in zip(ks, e[1:])),)
            terms[n] = terms.get(n, 0) + c
        return _from_canonical(1, _canonical(terms))

    def embed(self, rank: int, axis: int = 1) -> "LaurentPolynomial":
        """Reinterpret a rank-1 polynomial as living on ``axis`` of ``Z^rank``."""
        if self.rank != 1:
            raise ValueError("embed starts from rank 1")
        if not 1 <= axis <= rank:
            raise ValueError(f"axis {axis} outside 1..{rank}")
        out = {}
        for (n,), c in self.terms.items():
            e = [0] * rank
            e[axis - 1] = n
            out[tuple(e)] = c
        return _from_canonical(rank, out)

    # ------------------------------------------------------------------
    # exact division (used by the fraction-free elimination)

    def divide_exact(self, g: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient ``self / g``; raises ExactDivisionError otherwise.

        Both operands are shifted to honest polynomials first (the per-axis
        minimum exponent of a product is the sum of the factors' minima, so
        the shift is safe), then divided by lex-leading terms.
        """
        self._check_rank(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial(self.rank)
        mp = self.min_exponents()
        mg = g.min_exponents()
        p_h = {tuple(a - b for a, b in zip(e, mp)): c for e, c in self.terms.items()}
        g_h = {tuple(a - b for a, b in zip(e, mg)): c for e, c in g.terms.items()}
        lt_g = max(g_h)
        lc_g = g_h[lt_g]
        quot: dict = {}
        rem = dict(p_h)
        while rem:
            lt_r = max(rem)
            diff = tuple(a - b for a, b in zip(lt_r, lt_g))
            if any(x < 0 for x in diff):
                raise ExactDivisionError("not exactly divisible")
            c = _as_fraction(Fraction(rem[lt_r], lc_g))
            quot[diff] = c
            for e, cg in g_h.items():
                t = tuple(a + b for a, b in zip(diff, e))
                tot = rem.get(t, 0) - c * cg
                if tot:
                    rem[t] = tot
                else:
                    rem.pop(t, None)
        shift = tuple(a - b for a, b in zip(mp, mg))
        return _from_canonical(self.rank, quot).shifted(shift)

    def __floordiv__(self, g):
        """Exact quotient (``divide_exact``); ``// 1`` by the int 1 is ``self``."""
        if type(g) is int and g == 1:
            return self
        return self.divide_exact(g)

    # ------------------------------------------------------------------
    # rank-1 helpers

    def dense_coefficients(self) -> tuple[int, list]:
        """For rank 1: ``(min_exp, coeffs)`` with ``coeffs`` ascending and
        both ends nonzero; the zero polynomial gives ``(0, [])``."""
        if self.rank != 1:
            raise ValueError("dense coefficients only make sense at rank 1")
        if not self.terms:
            return 0, []
        lo = min(e[0] for e in self.terms)
        hi = max(e[0] for e in self.terms)
        coeffs = [0] * (hi - lo + 1)
        for (n,), c in self.terms.items():
            coeffs[n - lo] = c
        return lo, coeffs

    # ------------------------------------------------------------------
    # equality, hashing, printing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.rank)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"LaurentPolynomial({self.rank}, {format_polynomial(self)!r})"


def _from_canonical(rank: int, terms: dict) -> LaurentPolynomial:
    """A polynomial on ``terms`` as given, which must already be canonical
    (see the module docstring); nothing is checked or copied."""
    p = object.__new__(LaurentPolynomial)
    object.__setattr__(p, "rank", rank)
    object.__setattr__(p, "terms", terms)
    return p


# ----------------------------------------------------------------------
# text grammar


def format_polynomial(p: LaurentPolynomial) -> str:
    """Canonical text form: terms in ascending lexicographic exponent order."""
    if not p.terms:
        return "0"
    parts = []
    for e in sorted(p.terms):
        c = p.terms[e]
        factors = []
        for i, n in enumerate(e):
            if n == 0:
                continue
            name = "z" if p.rank == 1 else f"z{i + 1}"
            factors.append(name if n == 1 else f"{name}^{n}")
        mono = "*".join(factors)
        ac = abs(c)
        if not mono:
            body = str(ac)
        elif ac == 1:
            body = mono
        else:
            body = f"{ac}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"""
    (?P<coeff>\d+(?:/\d+)?)?          # optional integer or p/q coefficient
    (?P<stars>\*?)                     # optional * after the coefficient
    (?P<monos>
        (?:z\d*(?:\^[+-]?\d+)?)
        (?:\*z\d*(?:\^[+-]?\d+)?)*
    )?
    """,
    re.VERBOSE,
)


def parse_polynomial(text: str, rank: int | None = None, letter: str = "z") -> LaurentPolynomial:
    """Parse the shared polynomial grammar into a canonical polynomial.

    ``rank`` fixes the ambient rank; when omitted it is inferred from the
    largest variable index (a bare ``z`` means rank 1, a bare constant
    defaults to rank 1).  ``letter`` renames the variable symbol, which the
    finite-group CLI uses to accept elements written in ``t``.
    """
    src = text
    compact = "".join(text.split())
    if letter != "z":
        if "z" in compact:
            raise ValueError(f"unexpected symbol 'z' in {src!r}; expected variable {letter!r}")
        compact = compact.replace(letter, "z")
    if not compact:
        raise ValueError("empty polynomial text")
    # split into signed terms at top level (grammar has no parentheses);
    # a sign directly after '^' belongs to an exponent, not to a new term
    pieces = re.split(r"(?<!\^)([+-])", compact)
    if pieces[0] == "":
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    if len(pieces) % 2 != 0:
        raise ValueError(f"syntax error in {src!r}: dangling operator")
    terms = []
    bare_z = False
    max_index = 0
    pos = 0
    for sign_tok, body in zip(pieces[0::2], pieces[1::2]):
        pos += len(sign_tok)
        if not body:
            raise ValueError(f"syntax error in {src!r} at offset {pos}: empty term")
        m = _TERM_RE.fullmatch(body)
        if not m or (m.group("coeff") is None and not m.group("monos")):
            raise ValueError(f"syntax error in {src!r} at offset {pos}: bad term {body!r}")
        if m.group("stars") and not m.group("monos"):
            raise ValueError(f"syntax error in {src!r} at offset {pos}: dangling '*'")
        digits = m.group("coeff") or "1"
        coeff = Fraction(digits) if "/" in digits else int(digits)
        if sign_tok == "-":
            coeff = -coeff
        exps: dict[int, int] = {}
        if m.group("monos"):
            for factor in m.group("monos").split("*"):
                if "^" in factor:
                    var, _, etext = factor.partition("^")
                    e = int(etext)
                else:
                    var, e = factor, 1
                if var == "z":
                    bare_z = True
                    idx = 1
                else:
                    idx = int(var[1:])
                    if idx < 1:
                        raise ValueError(
                            f"syntax error in {src!r} at offset {pos}: variable index {idx}"
                        )
                    max_index = max(max_index, idx)
                exps[idx] = exps.get(idx, 0) + e
        terms.append((coeff, exps))
        pos += len(body)
    if bare_z and max_index > 1:
        raise ValueError(f"bare 'z' mixed with indexed variables in {src!r}")
    inferred = max(max_index, 1)
    if rank is None:
        rank = inferred
    elif inferred > rank:
        raise ValueError(f"polynomial {src!r} uses z{inferred} but rank is {rank}")
    if bare_z and rank > 1:
        raise ValueError(f"bare 'z' needs rank 1, got rank {rank}")
    out: dict = {}
    for coeff, exps in terms:
        vec = [0] * rank
        for idx, e in exps.items():
            vec[idx - 1] += e
        key = tuple(vec)
        out[key] = out.get(key, 0) + coeff
    return _from_canonical(rank, _canonical(out))


# ----------------------------------------------------------------------
# matrices


class GroupRingMatrix:
    """An ``r x s`` matrix of LaurentPolynomials sharing one rank."""

    __slots__ = ("rows", "cols", "rank", "entries")

    def __init__(
        self,
        entries: Sequence[Sequence[LaurentPolynomial]],
        rank: int | None = None,
        cols: int | None = None,
    ):
        rows = len(entries)
        if rows == 0:
            if rank is None or cols is None:
                raise ValueError("empty matrix needs explicit rank and cols")
            object.__setattr__(self, "rows", 0)
            object.__setattr__(self, "cols", cols)
            object.__setattr__(self, "rank", rank)
            object.__setattr__(self, "entries", ())
            return
        cols = len(entries[0])
        ents = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for p in row:
                if not isinstance(p, LaurentPolynomial):
                    raise TypeError("entries must be LaurentPolynomial")
                if rank is None:
                    rank = p.rank
                elif p.rank != rank:
                    raise ValueError(f"mixed ranks {rank} and {p.rank}")
            ents.append(tuple(row))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "entries", tuple(ents))

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingMatrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int, rank: int = 1) -> "GroupRingMatrix":
        z = LaurentPolynomial.zero(rank)
        return cls([[z] * cols for _ in range(rows)], rank=rank, cols=cols)

    @classmethod
    def identity(cls, n: int, rank: int = 1) -> "GroupRingMatrix":
        one = LaurentPolynomial.one(rank)
        z = LaurentPolynomial.zero(rank)
        return cls([[one if i == j else z for j in range(n)] for i in range(n)], rank=rank)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def is_integral(self) -> bool:
        return all(p.is_integral() for row in self.entries for p in row)

    def __eq__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.rank == other.rank
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.rank, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(str(p) for p in row) for row in self.entries)
        return f"GroupRingMatrix({self.rows}x{self.cols}, rank {self.rank}: {body})"

    def __add__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols) or self.rank != other.rank:
            raise ValueError("shape or rank mismatch in matrix sum")
        return GroupRingMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
            rank=self.rank,
        )

    def __neg__(self):
        return GroupRingMatrix([[-p for p in row] for row in self.entries], rank=self.rank)

    def __sub__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        return self + (-other)

    def __matmul__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.rows == 0 or other.cols == 0:
            return GroupRingMatrix.zero(self.rows, other.cols, self.rank)
        # each entry sums its products into one term map
        out = []
        for row_a in self.entries:
            row = []
            for j in range(other.cols):
                terms: dict = {}
                for a, row_b in zip(row_a, other.entries):
                    _mul_into(terms, a.terms, row_b[j].terms)
                row.append(_from_canonical(self.rank, _canonical(terms)))
            out.append(row)
        return GroupRingMatrix(out, rank=self.rank)

    def scale(self, p: LaurentPolynomial) -> "GroupRingMatrix":
        return GroupRingMatrix([[p * q for q in row] for row in self.entries], rank=self.rank)

    def adjoint(self) -> "GroupRingMatrix":
        """Conjugate transpose: entry (i,j) is ``A[j][i]*``."""
        return GroupRingMatrix(
            [[self.entries[j][i].adjoint() for j in range(self.rows)] for i in range(self.cols)],
            rank=self.rank,
            cols=self.rows,
        )

    # ------------------------------------------------------------------
    # determinant

    def det(self) -> LaurentPolynomial:
        """Exact determinant over the commutative Laurent ring.

        Cofactor expansion up to size 4, where it is faster, and the shared
        fraction-free elimination ``eliminate`` above; the empty 0x0
        determinant is 1.
        """
        if self.rows != self.cols:
            raise ValueError(f"determinant of a {self.rows}x{self.cols} matrix")
        n = self.rows
        if n == 0:
            return LaurentPolynomial.one(self.rank)
        if n <= 4:
            return _det_cofactor([list(row) for row in self.entries], self.rank)
        rank, last = eliminate([list(row) for row in self.entries])
        return last if rank == n else LaurentPolynomial.zero(self.rank)

    # ------------------------------------------------------------------
    # kernel

    def kernel_basis(self, variant: str = "canonical") -> tuple[int, "GroupRingMatrix"]:
        """Left kernel basis: ``(q, B)`` with ``B`` of shape ``q x rows`` and
        ``B @ self = 0`` exactly; ``q = rows - rank`` over the fraction field.

        ``variant`` selects an elimination order and normalization:
        "canonical" (rows top-down, content and minimal exponents normalized)
        or "reversed" (rows bottom-up, raw elimination output).  Both return
        honest bases; the pipeline value must not depend on the choice.
        ``[A | I]`` is eliminated by ``eliminate`` with pivots in ``A``'s
        columns, each the first nonzero entry of its column; the identity
        parts of the rows past the rank form the basis.
        """
        if variant not in ("canonical", "reversed"):
            raise ValueError(f"unknown kernel variant {variant!r}")
        r, s, rank = self.rows, self.cols, self.rank
        order = range(r) if variant == "canonical" else range(r - 1, -1, -1)
        zero, one = LaurentPolynomial.zero(rank), LaurentPolynomial.one(rank)
        work = [
            list(self.entries[i]) + [one if k == i else zero for k in range(r)]
            for i in order
        ]
        pivots, _ = eliminate(work, s)
        kernel_rows = [row[s:] for row in work[pivots:]]
        q = len(kernel_rows)
        if q == 0:
            return 0, GroupRingMatrix.zero(0, r, rank)
        if variant == "canonical":
            kernel_rows = [_normalize_row(row) for row in kernel_rows]
        return q, GroupRingMatrix(kernel_rows, rank=rank)


def _normalize_row(row: Sequence[LaurentPolynomial]) -> list:
    """Divide by the row content, shift per-axis minimal exponents to zero,
    and make the lex-leading coefficient of the first nonzero entry positive.
    A row with one nonzero entry becomes a unit vector."""
    nonzero = [p for p in row if p.terms]
    if not nonzero:
        return list(row)
    if len(nonzero) == 1:
        # the kernel row of a zero row of A, which the elimination leaves
        # scaled by the last pivot
        one = LaurentPolynomial.one(nonzero[0].rank)
        return [one if p.terms else p for p in row]
    rank = nonzero[0].rank
    num = 0
    den = 1
    for p in nonzero:
        c = p.content()
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    content = Fraction(num, den)
    mins = [min(p.min_exponents()[i] for p in nonzero) for i in range(rank)]
    shift = tuple(-m for m in mins)
    lead = nonzero[0].terms[max(nonzero[0].terms)]
    sign = -1 if lead < 0 else 1
    factor = Fraction(sign, 1) / content
    return [p.shifted(shift) * factor for p in row]


def _det_cofactor(m: list, rank: int) -> LaurentPolynomial:
    """Expansion along the first row, its signed products summed into one
    term map."""
    n = len(m)
    if n == 1:
        return m[0][0]
    terms: dict = {}
    if n == 2:
        _mul_into(terms, m[0][0].terms, m[1][1].terms)
        _mul_into(terms, m[0][1].terms, m[1][0].terms, -1)
    else:
        for j in range(n):
            if m[0][j].terms:
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                _mul_into(terms, m[0][j].terms, _det_cofactor(minor, rank).terms, (-1) ** j)
    return _from_canonical(rank, _canonical(terms))


# ----------------------------------------------------------------------
# file format


def matrix_to_json(a: GroupRingMatrix) -> dict:
    """Matrix as a JSON-ready dict: entries are row-major polynomial texts."""
    return {
        "rank": a.rank,
        "rows": a.rows,
        "cols": a.cols,
        "entries": [format_polynomial(p) for row in a.entries for p in row],
    }


def matrix_from_json(blob: dict) -> GroupRingMatrix:
    try:
        rank = int(blob["rank"])
        rows = int(blob["rows"])
        cols = int(blob["cols"])
        entries = list(blob["entries"])
    except (KeyError, TypeError):
        raise ValueError("matrix json needs rank, rows, cols, entries")
    if rank < 1:
        raise ValueError(f"matrix rank must be >= 1, got {rank}")
    if rows < 0 or cols < 0:
        raise ValueError("matrix shape must be nonnegative")
    if len(entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
        )
    if rows == 0 or cols == 0:
        return GroupRingMatrix.zero(rows, cols, rank)
    polys = [parse_polynomial(str(t), rank=rank) for t in entries]
    return GroupRingMatrix(
        [polys[i * cols : (i + 1) * cols] for i in range(rows)], rank=rank
    )
