"""Group rings of finite groups and their exact determinants.

Groups are given extensionally: an order, an identity index, and a full
multiplication table (validated as an associative Latin square).  The
determinant of a matrix over such a group ring goes through the regular
representation: an invertible square representation contributes
|det|**(1/n) directly, everything else goes through the Gram matrix,
whose nonzero eigenvalues multiply to a quotient of two pivot minors.
Over a cyclic group, and over every quotient Z/n_1 x ... x Z/n_d of a
determinant chain, a matrix with one row or one column skips the
representation: its determinant is a norm, a product over the
characters, which cyclic_norm (one modulus) and quotient_norm (several)
compute from integer resultants; the polynomial arithmetic under them,
the resultant included, is ``intpoly``'s.  cyclic_norm measures a whole
list of orders, and the orders that read the same p share one pass: one
search for the cyclotomic factors of p, and then either one table of
power sums for all the orders or one residue t^n mod p carried from order
to order, with one resultant each, as a measured cost rule picks.
All routes give exact radical values for integer inputs.  The regular
representation is picked straight out of the matrix's flat coefficient
vector by rep_getters, so a caller with many matrices of one shape, such
as the Lehmer scan, hands those vectors to fk_det_kernel_flat and builds no
group ring objects.  A stack of square matrices over a commutative table
takes norm_det_batch: the determinant of each over ZG (ring_det_batch),
whose n x n representation has the determinant of the whole one, and
which the same expansion over Z takes while it is small.
"""

from __future__ import annotations

from fractions import Fraction
import itertools
import math
import operator

import numpy as np

from .exact_linalg import (
    clear_denominators,
    det_batch,
    eliminate,
    mat_mul_exact,
    mat_transpose,
    rank_det_exact,
)
from .intpoly import (
    cyclotomic,
    cyclotomic_resultant,
    div_exact,
    divisors,
    poly_mul,
    reduced_rem,
    resultant,
    scaled_power_sums,
    t_power_mod,
    totient,
    trim,
)
from .laurent import parse_polynomial
from .values import FKValue, Radical, fk_exact

# Most bits the power-sum table of one chain pass of cyclic_norm may hold
# (takes_power_sums): 16 MB.  Its j-th entry has about j log2|b| bits, b
# the largest root of the scaled polynomial, so a table of N entries holds
# about N^2 log2|b| / 2 bits; |b| <= 2 max|coefficient| (Cauchy's bound).
POWER_SUM_TABLE_BITS = 2**27

# Largest regular representation, max(rows, cols) * order, that
# fk_det_kernel_flat eliminates: it bounds square matrices of side 2 or
# more, and groups given by a table that is not Z/n.  One row or one column
# over a cyclic group or a chain's quotient takes the norms instead and has
# no such bound.  Exact elimination grows fast with the dimension: over
# Z/12 x Z/12 (dimension 144) 1 + z1 + z2 took 13 s, over Z/15 x Z/15 63 s
# and over Z/18 x Z/18 268 s on a 2-core Xeon.
REP_MAX_DIM = 100

# Largest side of a square matrix over a commutative group ring whose batched
# determinants norm_det_batch takes by Laplace expansion: over ZG for the
# matrices, over Z for the n x n representations of their determinants.  The
# expansion forms side * 2^(side - 1) products in the ring: per chunk of a
# finite scan (36 864 representation entries) on a 2-core Xeon, side 4 over Z/3
# took 1.1 ms against 3.1 ms by det_batch of the whole representations, side 5
# over Z/2 2.1 ms against 2.9 ms, and side 6 over Z/2 4.3 ms against 3.3 ms.
RING_DET_MAX_SIDE = 5


class FiniteGroup:
    """A finite group as an element list 0..n-1 with a multiplication table."""

    __slots__ = ("order", "identity", "table", "names", "kind", "inverses")

    order: int
    identity: int
    table: tuple
    names: tuple
    kind: str

    def __init__(self, table, identity: int, names=None, kind: str = "table"):
        rows = tuple(tuple(map(int, row)) for row in table)
        n = len(rows)
        if n == 0:
            raise ValueError("empty multiplication table")
        arr = np.asarray(rows, dtype=np.int64)
        if arr.shape != (n, n):
            raise ValueError("multiplication table is not square")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("table entries out of range")
        ref = np.arange(n)
        if not (np.sort(arr, axis=1) == ref).all():
            raise ValueError("a table row is not a permutation")
        if not (np.sort(arr, axis=0) == ref[:, None]).all():
            raise ValueError("a table column is not a permutation")
        if not (0 <= identity < n):
            raise ValueError("identity index out of range")
        if not (arr[identity] == ref).all() or not (arr[:, identity] == ref).all():
            raise ValueError("identity is not two-sided")
        # associativity row by row to keep memory at n^2
        for a in range(n):
            if not np.array_equal(arr[arr[a], :], arr[a][arr]):
                raise ValueError("multiplication table is not associative")
        if names is None:
            names = tuple("g%d" % i for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ValueError("need one name per element")
        inverses = []
        for u in range(n):
            inverses.append(rows[u].index(identity))
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "inverses", tuple(inverses))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table and self.identity == other.identity

    def __hash__(self) -> int:
        return hash((self.table, self.identity))

    def __repr__(self) -> str:
        return "FiniteGroup(order=%d, kind=%s)" % (self.order, self.kind)

    def as_json(self) -> dict:
        return {
            "order": self.order,
            "identity": self.identity,
            "table": [list(row) for row in self.table],
            "names": list(self.names),
            "kind": self.kind,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "FiniteGroup":
        """Read the JSON form: identity and table, optional order, names, kind."""
        try:
            table = blob["table"]
            identity = blob["identity"]
        except (KeyError, TypeError):
            raise ValueError("group json needs identity and table")
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(isinstance(x, int) for x in row)
            for row in table
        ):
            raise ValueError("group json table must be a list of integer rows")
        if not isinstance(identity, int):
            raise ValueError("group json identity must be an integer")
        if "order" in blob and blob["order"] != len(table):
            raise ValueError("declared order does not match the table")
        names = blob.get("names")
        if names is not None and not isinstance(names, list):
            raise ValueError("group json names must be a list")
        return cls(table, identity, names, str(blob.get("kind", "table")))


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n with generator t at index 1."""
    return _cyclic_product([n], "cyclic")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with mixed-radix element indexing (a, b) -> a*|h| + b."""
    n, m = g.order, h.order
    table = [[0] * (n * m) for _ in range(n * m)]
    for a1 in range(n):
        for b1 in range(m):
            left = a1 * m + b1
            for a2 in range(n):
                ga = g.table[a1][a2]
                for b2 in range(m):
                    table[left][a2 * m + b2] = ga * m + h.table[b1][b2]
    names = tuple(
        "(%s,%s)" % (g.names[a], h.names[b]) for a in range(n) for b in range(m)
    )
    return FiniteGroup(table, g.identity * m + h.identity, names, kind="product")


def make_cyclic_product(moduli) -> FiniteGroup:
    """Product of cyclic groups; element index is the mixed-radix exponent.

    Table, names and kind are those of direct_product folded over
    make_cyclic of each modulus (one modulus gives make_cyclic's group)."""
    mods = list(moduli)
    if not mods:
        raise ValueError("need at least one modulus")
    return _cyclic_product(mods, "cyclic" if len(mods) == 1 else "product")


def _cyclic_product(mods: list, kind: str) -> FiniteGroup:
    """Z/n_1 x ... x Z/n_d, its table built in one numpy step: the entry at
    (x, y) sums the digits of x and y modulo each modulus, at that digit's
    mixed-radix stride.  FiniteGroup validates it once."""
    if any(n < 1 for n in mods):
        raise ValueError("group order must be positive")
    order = math.prod(mods)
    index = np.arange(order)
    table = np.zeros((order, order), dtype=np.int64)
    names: tuple = ()
    stride = order
    for n in mods:
        stride //= n
        digit = index // stride % n
        table += (digit[:, None] + digit[None, :]) % n * stride
        own = ("e",) if n == 1 else ("e", "t") + tuple("t^%d" % k for k in range(2, n))
        names = tuple("(%s,%s)" % (a, b) for a in names for b in own) if names else own
    return FiniteGroup(table.tolist(), 0, names, kind=kind)


class FiniteGroupRingElement:
    """An element of Q[G]: one exact rational coefficient per group element."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != group.order:
            raise ValueError("coefficient count must match the group order")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroupRingElement is immutable")

    @classmethod
    def zero(cls, group: FiniteGroup) -> "FiniteGroupRingElement":
        return cls(group, (0,) * group.order)

    @classmethod
    def unit(cls, group: FiniteGroup, index: int | None = None, coeff=1):
        """coeff times a single group element (the identity by default)."""
        if index is None:
            index = group.identity
        coeffs = [0] * group.order
        coeffs[index] = coeff
        return cls(group, coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integral(self) -> bool:
        return all(
            isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
            for c in self.coeffs
        )

    def identity_coefficient(self):
        return self.coeffs[self.group.identity]

    def _check(self, other: "FiniteGroupRingElement"):
        if self.group is not other.group and self.group != other.group:
            raise ValueError("elements live over different groups")

    def __add__(self, other):
        if not isinstance(other, FiniteGroupRingElement):
            return NotImplemented
        self._check(other)
        return FiniteGroupRingElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return FiniteGroupRingElement(self.group, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, FiniteGroupRingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FiniteGroupRingElement):
            return NotImplemented
        self._check(other)
        table = self.group.table
        out = [0] * self.group.order
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            row = table[i]
            for j, b in enumerate(other.coeffs):
                if b:
                    out[row[j]] += a * b
        return FiniteGroupRingElement(self.group, tuple(out))

    def scale(self, c) -> "FiniteGroupRingElement":
        return FiniteGroupRingElement(self.group, tuple(c * a for a in self.coeffs))

    def adjoint(self) -> "FiniteGroupRingElement":
        """Coefficients move to inverse elements; rationals are self-conjugate."""
        out = [0] * self.group.order
        for i, a in enumerate(self.coeffs):
            out[self.group.inv(i)] = a
        return FiniteGroupRingElement(self.group, tuple(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupRingElement):
            return NotImplemented
        return self.group == other.group and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.coeffs))

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return "FiniteGroupRingElement(%r)" % (format_element(self),)


def format_element(x: FiniteGroupRingElement) -> str:
    """Readable form, highest element index first, e.g. 't^2 - t + 2'; over
    a Z/n table in t order the names are powers of t, as parse_element reads."""
    names = x.group.names
    if is_cyclic_table(x.group):
        names = ("1", "t") + tuple("t^%d" % k for k in range(2, x.group.order))
    parts = []
    for i in range(x.group.order - 1, -1, -1):
        c = x.coeffs[i]
        if not c:
            continue
        name = names[i]
        if i == x.group.identity:
            body = str(abs(c))
        elif abs(c) == 1:
            body = name
        else:
            body = "%s*%s" % (abs(c), name)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def parse_element(group: FiniteGroup, text: str) -> FiniteGroupRingElement:
    """Parse 't^2 - t + 2' over a table that is Z/n with element k = t^k."""
    if not is_cyclic_table(group):
        raise ValueError("element text needs a Z/n table with element k = t^k")
    poly = parse_polynomial(text, rank=1, letter="t")
    coeffs = [0] * group.order
    for (e,), c in poly.terms.items():
        coeffs[e % group.order] += c
    return FiniteGroupRingElement(group, coeffs)


def norm_element(group: FiniteGroup) -> FiniteGroupRingElement:
    """The sum of all group elements."""
    return FiniteGroupRingElement(group, (1,) * group.order)


class FiniteGroupRingMatrix:
    """A rectangular matrix of group ring elements over one shared group."""

    __slots__ = ("group", "rows", "cols", "entries")

    def __init__(self, group: FiniteGroup, entries):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for x in row:
                if not isinstance(x, FiniteGroupRingElement):
                    raise ValueError("entries must be group ring elements")
                if x.group != group:
                    raise ValueError("entries live over different groups")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroupRingMatrix is immutable")

    @classmethod
    def zero(cls, group: FiniteGroup, rows: int, cols: int):
        z = FiniteGroupRingElement.zero(group)
        return cls(group, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_element(cls, x: FiniteGroupRingElement):
        return cls(x.group, [[x]])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def is_integral(self) -> bool:
        return all(x.is_integral() for row in self.entries for x in row)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def __add__(self, other):
        if not isinstance(other, FiniteGroupRingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return FiniteGroupRingMatrix(
            self.group,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __matmul__(self, other):
        if not isinstance(other, FiniteGroupRingMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.group != other.group:
            raise ValueError("group mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = FiniteGroupRingElement.zero(self.group)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return FiniteGroupRingMatrix(self.group, out)

    def adjoint(self) -> "FiniteGroupRingMatrix":
        return FiniteGroupRingMatrix(
            self.group,
            [
                [self.entries[j][i].adjoint() for j in range(self.rows)]
                for i in range(self.cols)
            ],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupRingMatrix):
            return NotImplemented
        return self.group == other.group and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.group, self.entries))

    def __repr__(self) -> str:
        return "FiniteGroupRingMatrix(%d x %d over order %d)" % (
            self.rows,
            self.cols,
            self.group.order,
        )


def _as_matrix(a) -> FiniteGroupRingMatrix:
    if isinstance(a, FiniteGroupRingMatrix):
        return a
    if isinstance(a, FiniteGroupRingElement):
        return FiniteGroupRingMatrix.from_element(a)
    raise ValueError("expected a group ring element or matrix")


def _picker(idx: list):
    """The entries of a vector at ``idx``, as a tuple even for one index or
    none."""
    if len(idx) == 1:
        i = idx[0]
        return lambda vec: (vec[i],)
    if not idx:
        return lambda vec: ()
    return operator.itemgetter(*idx)


def rep_getters(group: FiniteGroup, rows: int, cols: int) -> tuple:
    """One getter per row of regular_rep of a rows x cols matrix, which
    picks that row out of the matrix's flat, entry-major coefficient vector.

    Entry (i, j) starts at (i*cols + j)*n, and block [u][v] picks the
    coefficient of table[inv v][u] = inv(v)*u.
    """
    n = group.order
    # column v of every block reads along row inv(v) of the table
    lines = [group.table[group.inverses[v]] for v in range(n)]
    return tuple(
        _picker([(i * cols + j) * n + line[u] for j in range(cols) for line in lines])
        for i in range(rows)
        for u in range(n)
    )


def takes_ring_det(group: FiniteGroup, side: int, bound: int) -> bool:
    """Whether norm_det_batch takes the determinants of side x side
    matrices over ``group`` with coefficients in -bound..bound: a
    commutative (symmetric) table, a side of at most RING_DET_MAX_SIDE, and
    every coefficient of every minor in int64.  A minor of m rows sums m!
    products whose coefficients have absolute sum at most (bound n)^m."""
    table = np.asarray(group.table)
    return (
        side <= RING_DET_MAX_SIDE
        and math.factorial(side) * (bound * group.order) ** side < 2**63
        and bool((table == table.T).all())
    )


def _ring_mul(x: np.ndarray, y: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row-wise products x y of two (B, n) coefficient arrays, through the
    multiplication table: x_g y_h lands on g h."""
    out = np.zeros_like(y)
    for g, line in enumerate(table):
        out[:, line] += x[:, g : g + 1] * y
    return out


def ring_det_batch(vecs: np.ndarray, group: FiniteGroup, side: int) -> np.ndarray:
    """The determinant over ZG, G commutative, of each row of ``vecs``, an
    int64 (B, side^2 n) array of entry-major side x side matrices, as a
    (B, n) coefficient array.

    Laplace expansion along the first row, with the minors on the last
    rows kept by their column sets, so each is formed once; a 1 x 1 matrix
    is its entry.  takes_ring_det tells when the coefficients fit in int64.
    """
    n = group.order
    table = np.asarray(group.table)

    def entry(i, j):
        start = (i * side + j) * n
        return vecs[:, start : start + n]

    minors = {(j,): entry(side - 1, j) for j in range(side)}
    for i in range(side - 2, -1, -1):
        # the minors on rows i.. from those on rows i + 1..
        below, minors = minors, {}
        for cols in itertools.combinations(range(side), side - i):
            det = np.zeros((len(vecs), n), dtype=np.int64)
            for t, j in enumerate(cols):
                term = _ring_mul(entry(i, j), below[cols[:t] + cols[t + 1 :]], table)
                if t % 2:
                    det -= term
                else:
                    det += term
            minors[cols] = det
    return minors[tuple(range(side))]


# Z as the group ring of the trivial group
_TRIVIAL = FiniteGroup([[0]], 0)


def norm_det_batch(vecs: np.ndarray, group: FiniteGroup, side: int) -> list:
    """The determinants of the regular representations of the side x side
    matrices in the rows of ``vecs`` (as in ring_det_batch), as Python ints
    like det_batch's, from one n x n representation each.

    Over a commutative ring R = ZG the representation of a matrix A is the
    side x side block matrix of the representations of its entries, and
    these commute, so its determinant is that of the representation of
    det_R(A), the norm N_{R/Z}(det_R A) (Kovacs, Silver and Williams 1999,
    "Determinants of commuting-block matrices", Amer. Math. Monthly 106),
    sign included.  takes_ring_det tells when this applies.  The n x n
    determinants take the same expansion over Z when takes_ring_det allows
    it for their largest entry, and det_batch otherwise.
    """
    n = group.order
    rep = np.array([get(range(n)) for get in rep_getters(group, 1, 1)])
    reps = ring_det_batch(vecs, group, side)[:, rep]
    if takes_ring_det(_TRIVIAL, n, int(np.abs(reps).max(initial=0))):
        return ring_det_batch(reps.reshape(len(reps), -1), _TRIVIAL, n)[:, 0].tolist()
    return det_batch(reps)


def _flatten(mat: FiniteGroupRingMatrix) -> tuple:
    """The entry-major coefficient vector of a matrix."""
    return tuple(
        itertools.chain.from_iterable(x.coeffs for row in mat.entries for x in row)
    )


def regular_rep(a) -> list:
    """The rational matrix of right multiplication on the group basis.

    Block (i, j) holds entry (i, j) of the input; within a block, the
    entry at row g*h, column g is the coefficient of h, i.e. block[u][v]
    is the coefficient of inv(v)*u.
    """
    mat = _as_matrix(a)
    vec = _flatten(mat)
    return [list(get(vec)) for get in rep_getters(mat.group, mat.rows, mat.cols)]


def _radical_value(q, root: int, method: str) -> FKValue:
    """|q|**(1/root) for a nonzero rational q: exact when q is an integer."""
    if not isinstance(q, int):
        q = abs(Fraction(q))
        if q.denominator != 1:
            value = math.exp((math.log(q.numerator) - math.log(q.denominator)) / root)
            return FKValue(value, method, 1e-14 * value)
        q = q.numerator
    return fk_exact(Radical(abs(q), Fraction(1, root)), method)


# ---------------------------------------------------------------------------
# cyclic groups: norms from a resultant instead of the regular representation


def cyclic_norm(coeffs, orders) -> list:
    """For each order n in ``orders``: |prod p(zeta)| over the n-th roots
    of unity with p(zeta) != 0, and the number of roots with p(zeta) = 0,
    without an n x n matrix.

    ``coeffs`` maps integer exponents (any sign) to rational coefficients.
    Read mod the lcm L of the orders, which every order divides, they give
    one p of degree m < L (_cyclic_poly).  The orders n >= m + w, w the
    widest gap between the exponents of p, read the same p mod n, and they
    share one _cyclic_pass on it: a dense chain of them takes one table of
    power sums, a sparse one a resultant per order (takes_power_sums).
    Every order reads p at its roots of unity as it reads its own p mod n,
    up to a power of t, so the shared p gives the lower orders their norms
    too.  They join the shared pass when it takes the table, where each
    costs one Newton step on a table built anyway; the rule is read on r,
    p with its cyclotomic factors taken out (_cyclic_pass).  Otherwise
    each lower order reads its own p mod n, of degree below m, in a pass
    of its own, which takes a resultant: a span wider than the orders,
    such as 1 + t^1000 on 2..160, would otherwise carry every stage at
    degree m.  Each norm is exact, an int or a Fraction.
    """
    orders = list(orders)
    if any(n < 1 for n in orders):
        raise ValueError("group order must be positive")
    p, scale, least = _cyclic_poly(coeffs, math.lcm(*orders))
    shared = _cyclic_pass(p, [n for n in orders if n >= least], [n for n in orders if n < least])
    readings = {n: (scale, stage) for n, stage in shared.items()}
    for n in orders:
        if n not in readings:
            own, own_scale, _ = _cyclic_poly(coeffs, n)
            readings[n] = (own_scale, _cyclic_pass(own, [n])[n])
    measured = {}
    for n, (scale, (num, zeros)) in readings.items():
        den = scale ** (n - zeros)
        measured[n] = (num // den if num % den == 0 else Fraction(num, den), zeros)
    return [measured[n] for n in orders]


def _cyclic_poly(coeffs, period: int) -> tuple:
    """``coeffs`` read mod ``period`` as an ascending integer list p of
    degree m ([] when they cancel), starting after the widest cyclic gap
    between exponents, which keeps m least; the common denominator the
    coefficients were scaled by; and m + w, w the widest gap left between
    the exponents of p, the least order that reads this same p."""
    terms = {}
    for e, c in coeffs.items():
        if c:
            terms[e % period] = terms.get(e % period, 0) + c
    exps = sorted(e for e, c in terms.items() if c)
    if not exps:
        return [], 1, 0
    gaps = [(exps[0] + period - exps[-1], exps[0])]
    gaps += [(b - a, b) for a, b in zip(exps, exps[1:])]
    gaps.sort()
    low = gaps[-1][1]
    scale = math.lcm(*(terms[e].denominator for e in exps if isinstance(terms[e], Fraction)))
    p = [0] * (period - gaps[-1][0] + 1)
    for e in exps:
        p[(e - low) % period] = int(terms[e] * scale)
    return p, scale, len(p) - 1 + (gaps[-2][0] if len(gaps) > 1 else 0)


def _cyclic_pass(p: list, orders: list, low: list = ()) -> dict:
    """{n: (norm, zeros)} of an integer polynomial p for each order n of
    ``orders``, and of ``low`` when those join the pass: the norm is
    |prod p(zeta)| over the n-th roots of unity zeta with p(zeta) != 0, an
    int, and zeros counts the rest.

    p = C r, C the product of the Phi_d^k_d that divide p exactly, d a
    divisor of some order, found once; an n-th root of unity is a zero of
    p iff its order divides n and is one of those d.  r has no zero at any
    n-th root, so the product of |r| over them is |Res(t^n - 1, r)|, which
    is unchanged when r is reversed; the end with the smaller absolute
    value leads.  takes_power_sums picks the route for ``orders``, read on
    r: one table of power sums (_power_sum_resultants) or one resultant
    per order (_carried_resultants).  The orders of ``low``, lower ones
    whose own reading of p at their roots of unity is p's, join the pass
    only on the table, whose length they do not change: the search for C
    goes on over their divisors, and each takes one Newton step.  The
    norm is then the product over the n-th roots that are no zeros:
    |Res(t^n - 1, r)| divided by |Res(Phi_d, r)| for each of those d that
    divides n, times |C| over the other classes, |Res(Phi_e, Phi_d)|^k_e
    for each factor Phi_e^k_e of C and each other divisor d of n, in
    closed form (cyclotomic_resultant).
    """
    if not p or not orders:
        return {n: (1, n) for n in orders}
    searched = {d for n in orders for d in divisors(n)}
    r, factors = _divide_cyclotomic(p, searched)
    table = len(r) > 1 and takes_power_sums(r, orders)
    if table and low:
        r, more = _divide_cyclotomic(r, {d for n in low for d in divisors(n)} - searched)
        factors += more
        orders = list(orders) + list(low)
    if 0 < abs(r[0]) < abs(r[-1]):
        r = r[::-1]
    m = len(r) - 1
    if m == 0:
        full = [abs(r[0]) ** n for n in orders]
    elif table:
        full = _power_sum_resultants(r, orders)
    else:
        full = _carried_resultants(r, orders)
    if not factors:
        return {n: (value, 0) for n, value in zip(orders, full)}
    cuts = {d: resultant(list(cyclotomic(d)), r) for d, _ in factors}
    stages = {}
    for n, value in zip(orders, full):
        held = [d for d, _ in factors if n % d == 0]
        for d in held:
            value //= cuts[d]
        for d in divisors(n):
            if d not in held:
                for e, k in factors:
                    value *= cyclotomic_resultant(e, d) ** k
        stages[n] = (value, sum(map(totient, held)))
    return stages


def _divide_cyclotomic(r: list, ds) -> tuple:
    """r with every Phi_d that divides it, d in ``ds``, divided out as
    often as it divides, and the list of those (d, k), k the times
    divided."""
    factors = []
    for d in sorted(ds):
        if totient(d) > len(r) - 1:
            continue
        phi, k = list(cyclotomic(d)), 0
        while len(phi) <= len(r):
            try:
                r = div_exact(r, phi)
            except ValueError:
                break
            k += 1
        if k:
            factors.append((d, k))
    return r, factors


def takes_power_sums(r: list, orders: list) -> bool:
    """Whether a pass over ``orders`` of a polynomial r of degree m >= 1
    with no cyclotomic factor takes _power_sum_resultants: two orders or
    more, max(orders) / len(orders) at most 1.5 + 12 / m, and a table of
    N = m * max(orders) entries whose bound on its size in bits,
    N^2 (1 + bit_length(max|r_j|)) / 2, is within POWER_SUM_TABLE_BITS.

    The table costs about m * max(orders) steps and the carried route one
    resultant per order, so the table pays off on many orders close
    together, the more so the lower m.  On a 2-core Xeon, over random
    polynomials with m from 2 to 40 and |lc| 1 or 2, and chains of 5 to
    100 orders at strides 1 to 12, the table always won below
    max(orders) / len(orders) = 11.8 at m = 2, 3.1 at m = 10 and 1.3 at
    m = 30.  The rule took the table at 282 of 946 points, at a median
    0.58 of the carried route's time, and at two of them took longer:
    1.13 of it on 5 orders at m = 5, and 1.05 on 40 orders at m = 30.
    """
    m, count = len(r) - 1, len(orders)
    size = m * max(orders)
    bits = 1 + max(map(abs, r)).bit_length()
    return (
        count > 1
        and 2 * size <= (3 * m + 24) * count
        and size * size * bits <= 2 * POWER_SUM_TABLE_BITS
    )


def _power_sum_resultants(r: list, orders: list) -> list:
    """|Res(t^n - 1, r)| for each n in ``orders``, from one table of the
    power sums S_j of the roots b_i = a alpha_i of a^(m-1) r(x/a), a the
    leading coefficient and m the degree of r (scaled_power_sums).

    Newton's identities take S_n, S_2n, ..., S_mn, the power sums of the
    b_i^n, to the coefficients q_k of Q_n(x) = prod (x - b_i^n), integers
    since the b_i are algebraic integers, so each division by k is exact.
    Res(t^n - 1, r) = a^n prod (alpha_i^n - 1) is +-Q_n(a^n) / a^(n(m-1)).
    """
    m, a = len(r) - 1, r[-1]
    sums = scaled_power_sums(r, m * max(orders))
    out = []
    for n in orders:
        powers = sums[n : m * n + 1 : n]
        q = [1]
        for k in range(1, m + 1):
            q.append(-sum(map(operator.mul, reversed(q), powers)) // k)
        top, value = a**n, 0
        for c in q:
            value = value * top + c
        out.append(abs(value) // abs(a) ** (n * (m - 1)))
    return out


def _carried_resultants(r: list, orders: list) -> list:
    """|Res(t^n - 1, r)| for each n in ``orders``, for r of degree m >= 1.

    With t^n = num/den mod r and h = num - den, prod (alpha^n - 1) over the
    roots alpha of r is prod h(alpha) / den^m, and prod h(alpha) is
    Res(r, h) / lc(r)^deg(h), one resultant of degree below m.  The
    residue carries from each order to the next, times t^(n - previous)
    while the orders rise and afresh when they fall, kept as an integer
    numerator over one denominator, so no Fraction arithmetic runs
    whatever lc(r) is.
    """
    m, lead = len(r) - 1, abs(r[-1])
    out, prev = [], 0
    for n in orders:
        if not 0 < prev <= n:
            num, den = t_power_mod(n, r)
        elif n > prev:
            step, step_den = t_power_mod(n - prev, r)
            num, den = reduced_rem(poly_mul(num, step), den * step_den, r)
        prev = n
        h = list(num)
        h[0] -= den
        h = trim(h)
        out.append(lead ** (n - len(h) + 1) * resultant(r, h) // den**m)
    return out


def _eliminate_first(f: dict, d: int) -> dict:
    """prod f(zeta, x) over the primitive d-th roots of unity zeta, up to
    sign: Res_t(Phi_d, f) for f an integer polynomial {exponents: coeff}
    with nonnegative exponents, t its first variable and x the others.

    Kronecker substitution makes it one integer resultant: every
    coefficient of a product of phi(d) factors f(zeta, x) is at most
    B = |f|_1^phi(d) in size, so with x_j = (2B + 1)^w_j, the weights w_j
    outrunning the degrees, the resultant's balanced digits in base 2B + 1
    are its coefficients.
    """
    phi = list(cyclotomic(d))
    deg = len(phi) - 1
    rest = len(next(iter(f))) - 1
    radices = [deg * max(e[j] for e in f) + 1 for j in range(1, rest + 1)]
    weights = [math.prod(radices[:j]) for j in range(rest)]
    bound = sum(abs(c) for c in f.values()) ** deg if rest else 0
    base = 2 * bound + 1
    g = [0] * (max(e[0] for e in f) + 1)
    for e, c in f.items():
        g[e[0]] += c * base ** sum(w * x for w, x in zip(weights, e[1:]))
    value = resultant(phi, g)
    if not rest:
        return {(): value} if value else {}
    out, pos = {}, 0
    while value:
        value, digit = divmod(value, base)
        if digit > bound:
            digit, value = digit - base, value + 1
        if digit:
            out[tuple(pos // w % r for w, r in zip(weights, radices))] = digit
        pos += 1
    return out


def _class_product(f: dict, ds: tuple, cache: dict) -> int:
    """|prod f(chi)| over the characters chi whose j-th coordinate has
    order ds[j]: the variables are eliminated first to last by
    _eliminate_first, each result kept in ``cache`` under the orders of
    the variables eliminated so far."""
    for j, d in enumerate(ds):
        g = cache.get(ds[: j + 1])
        if g is None:
            g = cache[ds[: j + 1]] = _eliminate_first(f, d)
        if not g:
            return 0
        f = g
    return abs(f[()])


def _orbit_norms(f: dict, ds: tuple) -> tuple:
    """|prod f(chi)| over the characters of the class ``ds`` with
    f(chi) != 0, and the number with f(chi) = 0, one Galois orbit at a
    time.

    The class's characters are (zeta^e_1, ..., zeta^e_k) for zeta a
    primitive L-th root of unity, L = lcm(ds), and e_j = (L/d_j) u_j with
    u_j a unit mod d_j; the units mod L act freely, so each orbit has
    phi(L) characters and its norm is Res(Phi_L, f(t^e_1, ..., t^e_k)
    mod t^L - 1).
    """
    lcm = math.lcm(*ds)
    phi = list(cyclotomic(lcm))
    units = [u for u in range(1, lcm + 1) if math.gcd(u, lcm) == 1]
    choices = [[lcm // d * u for u in range(d) if math.gcd(u, d) == 1] for d in ds]
    seen: set = set()
    norm, zeros = 1, 0
    for e in itertools.product(*choices):
        if e in seen:
            continue
        seen.update(tuple(u * x % lcm for x in e) for u in units)
        h = [0] * lcm
        for exps, c in f.items():
            h[sum(x * y for x, y in zip(e, exps)) % lcm] += c
        value = resultant(phi, trim(h))
        if value:
            norm *= value
        else:
            zeros += len(units)
    return norm, zeros


def quotient_norm(coeffs: dict, moduli, cache: dict | None = None) -> tuple:
    """|prod f(chi)| over the characters chi of Z/n_1 x ... x Z/n_d with
    f(chi) != 0, and the number of chi with f(chi) = 0, as exact integer
    norms with no group table and no regular representation.

    ``coeffs`` maps exponent tuples (any sign) to rational coefficients.
    With at most one modulus above 1 the quotient is cyclic and
    cyclic_norm measures f on that axis.  Otherwise the characters fall
    into classes by the orders (d_1, ..., d_d) of their coordinates,
    d_j | n_j, and a class's product is the iterated resultant
    Res(Phi_d_d, ... Res(Phi_d_1, f)) (_class_product), the variables
    taken in increasing modulus.  A class whose product is 0 is split into
    its Galois orbits (_orbit_norms).  Class products depend only on the
    orders, so a caller measuring one f over many quotients passes the
    same ``cache`` dict to every call; it holds nothing else.
    """
    moduli = tuple(moduli)
    count = math.prod(moduli)
    big = [j for j, n in enumerate(moduli) if n > 1]
    if len(big) <= 1:
        axis = big[0] if big else 0
        line: dict = {}
        for e, c in coeffs.items():
            line[e[axis]] = line.get(e[axis], 0) + c
        return cyclic_norm(line, [count])[0]
    terms = {e: c for e, c in coeffs.items() if c}
    if not terms:
        return 1, count
    scale = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    # integer coefficients, nonnegative exponents, smallest modulus first
    order = sorted(range(len(moduli)), key=lambda j: moduli[j])
    low = [min(e[j] for e in terms) for j in order]
    f = {
        tuple(e[j] - m for j, m in zip(order, low)): int(c * scale)
        for e, c in terms.items()
    }
    if cache is None:
        cache = {}
    classes = cache.setdefault(tuple(order), {})
    norm, zeros = 1, 0
    for ds in itertools.product(*(divisors(moduli[j]) for j in order)):
        value = _class_product(f, ds, classes)
        if not value:
            value, lost = _orbit_norms(f, ds)
            zeros += lost
        norm *= value
    norm = Fraction(norm, scale ** (count - zeros))
    return (norm.numerator if norm.denominator == 1 else norm), zeros


def cyclic_stages(entries, rows: int, moduli) -> list:
    """(determinant, kernel dimension) over Z/n_1 x ... x Z/n_d for each
    moduli tuple in ``moduli`` of a 1x1, 1xk or kx1 matrix, given its
    entries as exponent tuple -> coefficient maps.  A rank-1 chain is one
    cyclic_norm call over all its orders, whose dense part reads every
    norm off one table of power sums; a higher rank takes one
    quotient_norm call per tuple and one class cache for them all.

    A single entry p is measured itself; a vector x through the element
    f = sum x_i x_i*, whose nonzero eigenvalues are those of the Gram
    matrix of regular_rep, so its determinant is the 2N-th root of the
    norm, N the group order.  A singular single entry is measured through
    p p* as the Gram route of regular_rep does, so even float values agree
    bit for bit.
    """
    gram = len(entries) > 1
    f = {} if gram else entries[0]
    if gram:
        for x in entries:
            items = [(e, c) for e, c in x.items() if c]
            for e1, c1 in items:
                for e2, c2 in items:
                    e = tuple(a - b for a, b in zip(e1, e2))
                    f[e] = f.get(e, 0) + c1 * c2
    if all(len(mods) == 1 for mods in moduli):
        # a rank-1 chain: one cyclic_norm call shares its work across stages
        norms = cyclic_norm({e: c for (e,), c in f.items()}, [n for (n,) in moduli])
    else:
        cache: dict = {}
        norms = [quotient_norm(f, mods, cache) for mods in moduli]
    out = []
    for mods, (norm, zeros) in zip(moduli, norms):
        n = math.prod(mods)
        root = 2 * n if gram else n
        if zeros and not gram:
            norm, root = norm * norm, 2 * n
        kernel = Fraction(rows * n - (n - zeros), n)
        out.append((_radical_value(norm, root, "cyclic_norm"), kernel))
    return out


def is_cyclic_table(group: FiniteGroup) -> bool:
    """Whether the table is Z/n with element k = t^k: identity 0 and row 1
    the shift b -> b + 1 mod n, from which t^a * t^b = t^(a+b) follows."""
    n = group.order
    if group.identity != 0:
        return False
    return n == 1 or all(x == (b + 1) % n for b, x in enumerate(group.table[1]))


def takes_cyclic_norm(shape, n: int, cyclic) -> bool:
    """Whether a matrix of ``shape`` over a group of order ``n`` is
    measured by its norms (method tag "cyclic_norm"): one row or one
    column, and ``cyclic()`` true, asked only for such a shape.  For
    fk_det_kernel_flat that is a table for Z/n in the order of make_cyclic;
    every stage of det_sequence, a product of cyclic groups, qualifies.  A
    matrix for the regular_rep route whose representation, of dimension
    max(shape) * n, is over REP_MAX_DIM is refused with a ValueError.
    """
    rows, cols = shape
    if min(rows, cols) == 1 and cyclic():
        return True
    dim = max(rows, cols) * n
    if dim > REP_MAX_DIM:
        raise ValueError(
            f"regular representation of dimension {dim} is over the budget "
            f"REP_MAX_DIM = {REP_MAX_DIM}"
        )
    return False


def fk_det_kernel_finite(a, singular_det: bool = True) -> tuple:
    """Determinant and normalized kernel dimension of right multiplication.

    Over a cyclic group a 1x1, 1xk or kx1 matrix goes through cyclic_norm
    (method tag "cyclic_norm"); everything else through regular_rep, where
    one elimination gives the rank and, for an invertible square matrix,
    the determinant.  Exact radicals are returned whenever the input has
    integer coefficients; the zero operator has determinant 1.  With
    ``singular_det`` false the regular_rep route skips the Gram
    elimination: a matrix other than an invertible square one gets None
    for its determinant.
    """
    mat = _as_matrix(a)
    return fk_det_kernel_flat(
        _flatten(mat), mat.group, (mat.rows, mat.cols), singular_det=singular_det
    )


def fk_det_kernel_flat(
    vec, group: FiniteGroup, shape, getters=None, singular_det=True, radicals=None
) -> tuple:
    """fk_det_kernel_finite of the matrix of the given shape whose
    entry-major coefficient vector is ``vec``: entry (i, j) holds
    vec[(i*cols + j)*n : (i*cols + j + 1)*n].

    ``getters`` is rep_getters(group, *shape), built here when not given.
    ``radicals`` is a dict that keeps each regular_rep value by its
    determinant and root, so a caller evaluating many matrices over one
    group builds each radical once.  takes_cyclic_norm picks the route and
    refuses a regular representation over REP_MAX_DIM.
    """
    rows, cols = shape
    n = group.order
    if takes_cyclic_norm(shape, n, lambda: is_cyclic_table(group)):
        entries = [
            {(e,): c for e, c in enumerate(vec[k : k + n])} for k in range(0, len(vec), n)
        ]
        return cyclic_stages(entries, rows, ((n,),))[0]
    if getters is None:
        getters = rep_getters(group, rows, cols)
    rep = [get(vec) for get in getters]
    rank, d = rank_det_exact(rep)
    kernel = Fraction(rows * n - rank, n)
    if d:
        return rep_value(d, n, radicals), kernel
    if not singular_det:
        return None, kernel
    return gram_rep_value(rep, n, radicals), kernel


def gram_rep_value(rep, n: int, radicals) -> FKValue:
    """The regular_rep value of a representation (a list of integer rows)
    with no determinant, a singular or non-square one, over a group of
    order n: the product of the nonzero eigenvalues of its smaller Gram
    matrix.  ``radicals`` is as in fk_det_kernel_flat."""
    if not rep or not rep[0]:
        return fk_exact(Radical(1), "regular_rep")
    if len(rep) <= len(rep[0]):
        gram = mat_mul_exact(rep, mat_transpose(rep))
    else:
        gram = mat_mul_exact(mat_transpose(rep), rep)
    return rep_value(_nonzero_eigen_product(gram), 2 * n, radicals)


def _nonzero_eigen_product(gram):
    """The product of the nonzero eigenvalues of a positive semidefinite
    matrix G, 1 for the zero matrix, from pivot minors.

    With I the pivot columns of G, G = G[:, I] G[I, I]^-1 G[I, :] and
    G[I, I] is nonsingular, so the product is
    det(G[:, I]^T G[:, I]) / det(G[I, I]), three eliminations where the
    characteristic polynomial takes O(N^4).
    """
    cols: list = []
    eliminate(clear_denominators(gram)[0], pivots=cols)
    picked = [[row[j] for j in cols] for row in gram]
    top = rank_det_exact(mat_mul_exact(mat_transpose(picked), picked))[1]
    sub = rank_det_exact([picked[i] for i in cols])[1]
    return Fraction(top, sub)


def rep_value(q, root: int, radicals) -> FKValue:
    """_radical_value of the regular_rep route, looked up in ``radicals``
    (a dict, or None for no memo) before it is built."""
    if radicals is None:
        return _radical_value(q, root, "regular_rep")
    key = (abs(q), root)
    value = radicals.get(key)
    if value is None:
        value = radicals[key] = _radical_value(q, root, "regular_rep")
    return value


def fk_det_finite(a) -> FKValue:
    """Determinant of right multiplication by a matrix over a finite group ring."""
    return fk_det_kernel_finite(a)[0]


def vn_dim_kernel_finite(a) -> Fraction:
    """Kernel dimension of right multiplication, normalized by the group order."""
    return fk_det_kernel_finite(a, singular_det=False)[1]


def _check_embedding(small: FiniteGroup, big: FiniteGroup, images) -> tuple:
    images = tuple(int(x) for x in images)
    if len(images) != small.order:
        raise ValueError("embedding must list an image for every element")
    if len(set(images)) != small.order:
        raise ValueError("embedding is not injective")
    if any(not 0 <= x < big.order for x in images):
        raise ValueError("embedding image out of range")
    for x in range(small.order):
        for y in range(small.order):
            if big.table[images[x]][images[y]] != images[small.table[x][y]]:
                raise ValueError("embedding is not a homomorphism")
    return images


def induce(a, big: FiniteGroup, images) -> FiniteGroupRingMatrix:
    """Push a matrix forward along an injective homomorphism into big."""
    mat = _as_matrix(a)
    images = _check_embedding(mat.group, big, images)
    out = []
    for row in mat.entries:
        new_row = []
        for x in row:
            coeffs = [0] * big.order
            for i, c in enumerate(x.coeffs):
                if c:
                    coeffs[images[i]] += c
            new_row.append(FiniteGroupRingElement(big, coeffs))
        out.append(new_row)
    return FiniteGroupRingMatrix(big, out)


def restrict(a, small: FiniteGroup, images) -> FiniteGroupRingMatrix:
    """Rewrite the multiplication operator over a subgroup.

    The subgroup is small embedded in the matrix group via images.  The
    module splits along right cosets; with coset representatives taken in
    element order, restricting to the one-element subgroup reproduces
    regular_rep entry for entry.
    """
    mat = _as_matrix(a)
    big = mat.group
    images = _check_embedding(small, big, images)
    image_set = {g: h for h, g in enumerate(images)}
    # right cosets Hg, representatives in element order
    rep_of = [-1] * big.order
    reps = []
    for g in range(big.order):
        if rep_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for h in images:
            rep_of[big.table[h][g]] = idx
    m = len(reps)
    out = [
        [FiniteGroupRingElement.zero(small) for _ in range(mat.cols * m)]
        for _ in range(mat.rows * m)
    ]
    for i in range(mat.rows):
        for j in range(mat.cols):
            coeffs = mat.entries[i][j].coeffs
            for g, c in enumerate(coeffs):
                if not c:
                    continue
                for v in range(m):
                    # h = g_v * g * g_u^{-1} lands in the subgroup for the
                    # unique coset index u of g_v * g
                    x = big.table[reps[v]][g]
                    u = rep_of[x]
                    h = image_set.get(big.table[x][big.inv(reps[u])])
                    if h is None:
                        raise AssertionError("coset bookkeeping failed")
                    cur = out[i * m + u][j * m + v]
                    new = list(cur.coeffs)
                    new[h] += c
                    out[i * m + u][j * m + v] = FiniteGroupRingElement(small, new)
    return FiniteGroupRingMatrix(small, out)
