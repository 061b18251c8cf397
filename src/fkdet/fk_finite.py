"""Group rings of finite groups and their exact determinants.

Groups are given extensionally: an order, an identity index, and a full
multiplication table (validated as an associative Latin square).  The
determinant of a matrix over such a group ring goes through the regular
representation: an invertible square representation contributes
|det|**(1/n) directly, everything else goes through the division-free
characteristic polynomial of the Gram matrix, whose lowest nonzero
coefficient is the product of the nonzero eigenvalues.  Both routes give
exact radical values for integer inputs.
"""

from __future__ import annotations

from fractions import Fraction
import math

import numpy as np

from .exact_linalg import (
    charpoly_berkowitz,
    det_exact,
    mat_mul_exact,
    mat_transpose,
    rank_exact,
)
from .laurent import parse_polynomial
from .values import FKValue, Radical, fk_exact


class FiniteGroup:
    """A finite group as an element list 0..n-1 with a multiplication table."""

    __slots__ = ("order", "identity", "table", "names", "kind", "inverses")

    order: int
    identity: int
    table: tuple
    names: tuple
    kind: str

    def __init__(self, table, identity: int, names=None, kind: str = "table"):
        rows = tuple(tuple(int(x) for x in row) for row in table)
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

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

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
    if n < 1:
        raise ValueError("group order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    if n == 1:
        names = ("e",)
    else:
        names = ("e", "t") + tuple("t^%d" % k for k in range(2, n))
    return FiniteGroup(table, 0, names, kind="cyclic")


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
    """Product of cyclic groups; element index is the mixed-radix exponent."""
    mods = list(moduli)
    if not mods:
        raise ValueError("need at least one modulus")
    group = make_cyclic(mods[0])
    for n in mods[1:]:
        group = direct_product(group, make_cyclic(n))
    return group


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
    """Readable form, highest element index first, e.g. 't^2 - t + 2'."""
    parts = []
    for i in range(x.group.order - 1, -1, -1):
        c = x.coeffs[i]
        if not c:
            continue
        name = x.group.names[i]
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
    """Parse 't^2 - t + 2' style text over a cyclic group."""
    if group.kind != "cyclic":
        raise ValueError("element text is only defined for cyclic groups")
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


def regular_rep(a) -> list:
    """The rational matrix of right multiplication on the group basis.

    Block (i, j) holds entry (i, j) of the input; within a block, the
    entry at row g*h, column g is the coefficient of h, i.e. block[u][v]
    is the coefficient of inv(v)*u.
    """
    mat = _as_matrix(a)
    g = mat.group
    n = g.order
    out = [[0] * (mat.cols * n) for _ in range(mat.rows * n)]
    for i in range(mat.rows):
        for j in range(mat.cols):
            coeffs = mat.entries[i][j].coeffs
            for v in range(n):
                iv = g.inv(v)
                row_iv = g.table[iv]
                for u in range(n):
                    c = coeffs[row_iv[u]]
                    if c:
                        out[i * n + u][j * n + v] = c
    return out


def vn_dim_kernel_finite(a) -> Fraction:
    """Kernel dimension of right multiplication, normalized by the group order."""
    mat = _as_matrix(a)
    n = mat.group.order
    rep = regular_rep(mat)
    return Fraction(mat.rows * n - rank_exact(rep), n)


def _log_abs_fraction(q) -> float:
    num = abs(q.numerator) if isinstance(q, Fraction) else abs(q)
    den = q.denominator if isinstance(q, Fraction) else 1
    return math.log(num) - math.log(den)


def _as_int(q):
    if isinstance(q, int):
        return q
    if isinstance(q, Fraction) and q.denominator == 1:
        return q.numerator
    return None


def fk_det_finite(a) -> FKValue:
    """Determinant of right multiplication by a matrix over a finite group ring.

    Exact radicals are returned whenever the input has integer
    coefficients; the zero operator has determinant 1 by convention (it
    falls out of the pseudo characteristic polynomial, whose lowest
    nonzero coefficient is then the leading 1).
    """
    mat = _as_matrix(a)
    n = mat.group.order
    rep = regular_rep(mat)
    if mat.rows == mat.cols and mat.rows > 0:
        d = det_exact(rep)
        if d != 0:
            exact = _as_int(d)
            if exact is not None:
                return fk_exact(Radical(abs(exact), Fraction(1, n)), "regular_rep")
            value = math.exp(_log_abs_fraction(d) / n)
            return FKValue(value, "regular_rep", 1e-14 * value)
    if mat.rows == 0 or mat.cols == 0:
        return fk_exact(Radical(1), "regular_rep")
    # Gram route: the lowest nonzero characteristic coefficient is the
    # product of the nonzero eigenvalues; take the smaller Gram matrix
    if mat.rows <= mat.cols:
        gram = mat_mul_exact(rep, mat_transpose(rep))
    else:
        gram = mat_mul_exact(mat_transpose(rep), rep)
    coeffs = charpoly_berkowitz(gram)
    low = next(i for i, c in enumerate(coeffs) if c != 0)
    q0 = coeffs[low]
    exact = _as_int(q0)
    if exact is not None:
        return fk_exact(Radical(abs(exact), Fraction(1, 2 * n)), "regular_rep")
    value = math.exp(_log_abs_fraction(q0) / (2 * n))
    return FKValue(value, "regular_rep", 1e-14 * value)


def fk_det_2x2_trivial(rows) -> FKValue:
    """Closed form over the trivial group: |det|, else sqrt(tr(A A*)), else 1."""
    ((a, b), (c, d)) = rows
    det = a * d - b * c
    if det != 0:
        exact = _as_int(det)
        if exact is not None:
            return fk_exact(Radical(abs(exact)), "trivial_2x2")
        return FKValue(math.exp(_log_abs_fraction(det)), "trivial_2x2", 0.0)
    if any((a, b, c, d)):
        tr = a * a + b * b + c * c + d * d
        exact = _as_int(tr)
        if exact is not None:
            return fk_exact(Radical(exact, Fraction(1, 2)), "trivial_2x2")
        return FKValue(math.exp(_log_abs_fraction(tr) / 2), "trivial_2x2", 0.0)
    return fk_exact(Radical(1), "trivial_2x2")


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
