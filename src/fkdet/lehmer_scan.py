"""Exhaustive search for generalized Lehmer constants.

Lambda(G) is the infimum of Fuglede-Kadison determinants above 1 over
integer matrices over the group ring, Lambda_1 restricts to single ring
elements, and the ^w variants restrict to injective operators.  A scan
enumerates a finite search space (bounded coefficients, optionally bounded
support), quotients it by the determinant-preserving symmetries (global
sign, monomial multiplication, adjoint), classifies each candidate as
determinant one or greater, and reports the least value above the
threshold together with the witness attaining it.  The scan certifies the
stated finite space only; known exact values for small groups live in a
separate table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact_linalg import det_batch
from .fk_finite import (
    FiniteGroup,
    FiniteGroupRingElement,
    FiniteGroupRingMatrix,
    fk_det_kernel_flat,
    format_element,
    gram_rep_value,
    is_cyclic_table,
    norm_det_batch,
    rep_getters,
    rep_value,
    takes_cyclic_norm,
    takes_ring_det,
)
from .fk_zd import fk_det_zd, vn_dim_kernel_zd
from .laurent import (
    GroupRingMatrix,
    LaurentPolynomial,
    format_polynomial,
    matrix_from_json,
    matrix_to_json,
    parse_polynomial,
)
from .mahler import (
    SMYTH_THETA0,
    face_lines,
    graeffe_bounds,
    line_bounds,
    line_coeffs,
    mahler_jensen_batch,
    mahler_measure,
    pad_lines,
    screen_lines,
)
from .values import FKValue, Radical

VARIANTS = ("lambda", "lambda_1", "lambda_w", "lambda_w_1")

# over Z^d a determinant below 1 + this counts as "determinant one" and is
# excluded from the infimum; every report carries the threshold it used
DEFAULT_ONE_THRESHOLD = 1e-9

DEFAULT_BUDGET_ELEMENTS = 10**7
DEFAULT_BUDGET_MATRICES = 10**5

# refuse spaces whose raw enumeration cannot finish at desk scale
RAW_ENUMERATION_CAP = 5 * 10**7

# a scan measures the candidates due for it whenever this many more canonical
# candidates have streamed past, and at the end of the stream; a longer wait
# leaves the cutoff stale, and held candidates pile up meanwhile.  Candidates
# a reciprocal-first stream drops never stream, so they do not count here.  A
# square finite stream on the regular_rep route takes the determinants of
# this many canonical candidates at a time, so its memo holds one chunk
MEASURE_CHUNK = 1024

# exact measure lower bounds are scaled by this before they rule a candidate
# out, so a candidate whose measure equals the bound (z^3 - z - 1 attains
# Smyth's constant) is still evaluated and the tie rule sees it
_BOUND_SLACK = 1.0 - 1e-9

# a face bound rules out an element that fibrewise Jensen would measure, to
# within estimates of up to 2.1e-4 relative on box 2,2; it is scaled by this,
# so an element whose measure equals its face bound (2 - z2 + z2*z3 measures
# exactly 2 and reads 4.6e-9 low) is still measured
_FACE_SLACK = 1.0 - 1e-3

# by Smyth (1971) a non-reciprocal integer polynomial with p(0) != 0 has
# M(p) >= SMYTH_THETA0, so the screen bounds every non-reciprocal element of
# a Z scan by at least this; once the cutoff is below it, such an element can
# be neither determinant one, nor measured, nor held, and a Z element scan
# streams only the reciprocal ones (up to sign) from then on
RECIPROCAL_CUTOFF = SMYTH_THETA0 * _BOUND_SLACK


@dataclass(frozen=True)
class SearchSpace:
    """A finite family of integer matrices over one group ring.

    Exactly one of ``group`` (a finite group) or ``rank``/``box`` (Z^d with
    entry exponents confined to the box ``0..box[i]`` per axis) describes
    the ring.  ``shape`` is the matrix size, ``coeff_bound`` the largest
    coefficient magnitude, and ``support`` optionally caps the number of
    nonzero coefficients across the whole candidate.
    """

    group: FiniteGroup | None = None
    rank: int = 0
    box: tuple = ()
    shape: tuple = (1, 1)
    coeff_bound: int = 1
    support: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        object.__setattr__(self, "box", tuple(int(b) for b in self.box))
        if self.group is not None:
            if not isinstance(self.group, FiniteGroup):
                raise ValueError("group must be a FiniteGroup")
            if self.rank or self.box:
                raise ValueError("give either a finite group or a rank and box")
        else:
            if self.rank < 1:
                raise ValueError("need a finite group or a rank >= 1")
            if len(self.box) != self.rank:
                raise ValueError(f"box {self.box} does not have rank {self.rank}")
            if any(b < 0 for b in self.box):
                raise ValueError("box entries must be nonnegative")
        if len(self.shape) != 2 or any(x < 1 for x in self.shape):
            raise ValueError(f"shape must be two positive integers, got {self.shape}")
        if self.coeff_bound < 1:
            raise ValueError("coefficient bound must be at least 1")
        if self.support is not None and self.support < 1:
            raise ValueError("support bound must be at least 1")

    def positions(self) -> int:
        r, s = self.shape
        if self.group is not None:
            return r * s * self.group.order
        return r * s * math.prod(b + 1 for b in self.box)

    def raw_count(self) -> int:
        """Vectors enumerated before symmetry reduction (zero excluded)."""
        p = self.positions()
        c = self.coeff_bound
        if self.support is None or self.support >= p:
            return (2 * c + 1) ** p - 1
        return sum(
            math.comb(p, j) * (2 * c) ** j for j in range(1, self.support + 1)
        )

    def as_json(self) -> dict:
        if self.group is not None:
            ring = {"kind": self.group.kind, "order": self.group.order}
        else:
            ring = {"kind": "zd", "rank": self.rank, "box": list(self.box)}
        return {
            "ring": ring,
            "shape": list(self.shape),
            "coeff_bound": self.coeff_bound,
            "support": self.support,
        }


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one exhaustive scan.

    ``infimum_found`` is the least determinant classified above 1, None
    when no candidate qualified.  ``count_examined`` counts symmetry-orbit
    representatives; candidates identical up to sign, monomial
    multiplication, or adjoint are examined once.
    """

    space: SearchSpace
    variant: str
    infimum_found: FKValue | None
    witness: dict | None
    count_examined: int
    count_det_one: int
    one_threshold: float
    budget: int
    budget_exceeded: bool
    survey: tuple | None = None

    def as_json(self) -> dict:
        out = {
            "space": self.space.as_json(),
            "variant": self.variant,
            "infimum_found": (
                None if self.infimum_found is None else self.infimum_found.as_json()
            ),
            "witness": self.witness,
            "count_examined": self.count_examined,
            "count_det_one": self.count_det_one,
            "one_threshold": self.one_threshold,
            "budget": self.budget,
            "budget_exceeded": self.budget_exceeded,
        }
        if self.survey is not None:
            out["survey"] = [{"witness": w, "value": v} for w, v in self.survey]
        return out


def survey_to_csv(report: ScanReport) -> str:
    """Survey rows (witness, value) as CSV; header only when no survey ran."""
    lines = ["witness,value"]
    for text, value in report.survey or ():
        lines.append('"%s",%r' % (text.replace('"', '""'), value))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# candidate enumeration


def _vectors(positions: int, bound: int, support: int | None):
    """All nonzero integer vectors in the box, deterministically ordered.

    Without a support cap the order is descending lexicographic, so the
    greatest member of a symmetry orbit is seen first and ties in the
    infimum resolve to it; with a support cap the stream is graded by
    support size first, which keeps sparse spaces enumerable without
    touching the dense box.  Within a support size the patterns come in
    lexicographic order, and each pattern's values in descending order with
    the negatives after the positives.  One C-level iterator: no Python
    frame resumes per vector.
    """
    if support is None or support >= positions:
        box = itertools.product(range(bound, -bound - 1, -1), repeat=positions)
        # the zero vector is the middle one
        zero = (2 * bound + 1) ** positions // 2
        return itertools.chain(
            itertools.islice(box, zero), itertools.islice(box, 1, None)
        )
    nonzero = tuple(range(bound, 0, -1)) + tuple(range(-1, -bound - 1, -1))

    def pattern(pos):
        choices = [(0,)] * positions
        for p in pos:
            choices[p] = nonzero
        return itertools.product(*choices)

    return itertools.chain.from_iterable(
        map(
            pattern,
            itertools.chain.from_iterable(
                itertools.combinations(range(positions), j)
                for j in range(1, support + 1)
            ),
        )
    )


# rows per block of _vector_blocks: small enough that a block and the images
# the orbit mask takes of it stay a few hundred KB
VECTOR_BLOCK = 4096


def _digit_rows(count: int, bound: int, dtype) -> np.ndarray:
    """Every vector of ``count`` entries in -bound..bound, in descending
    lexicographic order, as the rows of one array."""
    base = 2 * bound + 1
    idx = np.arange(base**count, dtype=np.int64)
    powers = base ** np.arange(count - 1, -1, -1, dtype=np.int64)
    return (bound - (idx[:, None] // powers) % base).astype(dtype)


def _vector_blocks(positions: int, bound: int, support: int | None):
    """_vectors as int arrays of at most VECTOR_BLOCK rows each: the same
    vectors in the same order, built from the enumeration's structure and
    not from its tuples."""
    dtype = np.int8 if bound <= np.iinfo(np.int8).max else np.int64
    if support is None or support >= positions:
        # row i of the box holds the base-(2 bound + 1) digits of i, each
        # digit d standing for the value bound - d; the zero vector is the
        # middle row, and is dropped wherever it falls.  Row i is the row
        # i // span of a table over the high positions next to the row
        # i % span of a table over the low ones.
        base = 2 * bound + 1
        low = positions // 2
        span = base**low
        high_rows = _digit_rows(positions - low, bound, dtype)
        low_rows = _digit_rows(low, bound, dtype)
        total = base**positions
        zero = total // 2
        for start in range(0, total, VECTOR_BLOCK):
            idx = np.arange(start, min(start + VECTOR_BLOCK, total), dtype=np.int64)
            if start <= zero < start + VECTOR_BLOCK:
                idx = np.delete(idx, zero - start)
            yield np.concatenate([high_rows[idx // span], low_rows[idx % span]], axis=1)
        return
    nonzero = np.array(
        list(range(bound, 0, -1)) + list(range(-1, -bound - 1, -1)), dtype=dtype
    )
    for j in range(1, support + 1):
        # a pattern's value rows, in the order of _vectors: value row v holds
        # the nonzero values at the base-(2 bound) digits of v
        values = (2 * bound) ** j
        digits = (2 * bound) ** np.arange(j - 1, -1, -1, dtype=np.int64)
        step = min(values, VECTOR_BLOCK)
        patterns = itertools.combinations(range(positions), j)
        while True:
            pos = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.islice(patterns, VECTOR_BLOCK // step)
                ),
                dtype=np.int64,
            ).reshape(-1, j)
            if not len(pos):
                break
            for start in range(0, values, step):
                rows = np.arange(start, min(start + step, values), dtype=np.int64)
                vals = nonzero[(rows[:, None] // digits) % (2 * bound)]
                block = np.zeros((len(pos) * len(vals), positions), dtype=dtype)
                # row r of the block is pattern r // len(vals) with value row
                # r % len(vals)
                at = np.arange(len(block)).reshape(len(pos), len(vals), 1)
                block.reshape(-1)[at * positions + pos[:, None, :]] = vals
                yield block


def _vector_positions(rows: np.ndarray, bound: int, support: int | None) -> np.ndarray:
    """The index in the order of _vectors of each row of ``rows``, nonzero
    vectors of ``rows.shape[1]`` entries in -bound..bound.

    Uncapped, a row's index in the box is read off its base-(2 bound + 1)
    digits, digit bound - x for the value x, less one past the zero row.
    Under a support cap the vectors come by support size j, then by the
    lexicographic rank of the support {c_0 < ... < c_(j-1)} among the
    j-subsets of the p positions, C(p, j) - 1 - sum_i C(p - 1 - c_i, j - i),
    then by the value row: the base-(2 bound) digits of the nonzero
    values, digit bound - x for x > 0 and bound - 1 - x for x < 0.
    """
    p = rows.shape[1]
    rows = rows.astype(np.int64)
    if support is None or support >= p:
        base = 2 * bound + 1
        at = (bound - rows) @ base ** np.arange(p - 1, -1, -1, dtype=np.int64)
        return at - (at > base**p // 2)
    width = 2 * bound
    comb = np.array(
        [[math.comb(n, k) for k in range(support + 1)] for n in range(p + 1)],
        dtype=np.int64,
    )
    nonzero = rows != 0
    size = nonzero.sum(axis=1)
    # later[r, i]: the nonzero entries of row r from position i on
    later = size[:, None] - np.cumsum(nonzero, axis=1) + nonzero
    ranks = np.where(nonzero, comb[p - 1 - np.arange(p), later], 0)
    rank = comb[p, size] - 1 - ranks.sum(axis=1)
    digits = np.where(rows > 0, bound - rows, bound - 1 - rows)
    values = np.where(nonzero, digits * width ** np.maximum(later - 1, 0), 0)
    value = values.sum(axis=1)
    # the vectors of each smaller support come first
    before = np.cumsum([0] + [comb[p, j] * width**j for j in range(1, support)])
    return before[size - 1] + rank * width**size + value


def _capped_rows(count: int, bound: int, most: int) -> np.ndarray:
    """Every vector of ``count`` entries in -bound..bound with at most
    ``most`` nonzero ones, zero included, as the int64 rows of one array."""
    if most >= count:
        return _digit_rows(count, bound, np.int64)
    zero = np.zeros((int(most >= 0), count), dtype=np.int64)
    return np.concatenate([zero, *_vector_blocks(count, bound, most)])


def _reciprocal_rows(space: SearchSpace) -> np.ndarray:
    """The canonical elements of a space of single elements over Z that
    equal + or - their reversal, in no particular order.

    Such a row A has a positive constant term c_0 and degree d, with
    c_(d-i) = +-c_i: it is the greatest of its orbit {A, -A}.  So it is fixed
    by c_0, the sign and the left half c_1..c_(h-1), h = ceil(d / 2), with
    the middle c_(d/2) of an even degree for the sign +; the sign - forces
    it to 0.  A pair (c_i, c_(d-i)) adds two terms to the support, the
    middle one.
    """
    (box,), bound = space.box, space.coeff_bound
    most = box + 1 if space.support is None else space.support
    values = np.arange(1, bound + 1)
    out = [np.pad(values[:, None], ((0, 0), (0, box)))]
    for d in range(1, box + 1):
        h = (d + 1) // 2
        for sign in (1, -1):
            middle = int(d % 2 == 0 and sign == 1)
            half = _capped_rows(h - 1 + middle, bound, most - 2)
            terms = (half != 0) @ np.array([2] * (h - 1) + [1] * middle)
            half = half[terms <= most - 2]
            rows = np.zeros((bound * len(half), box + 1), dtype=np.int64)
            rows[:, 0] = np.repeat(values, len(half))
            rows[:, 1 : h + middle] = np.tile(half, (bound, 1))
            rows[:, d - h + 1 : d + 1] = sign * rows[:, h - 1 :: -1]
            out.append(rows)
    return np.concatenate(out)


def _canonical_count(space: SearchSpace) -> int:
    """How many canonical elements a space of single elements over Z holds,
    by Burnside's lemma.

    Shifted down, an orbit of degree d is an orbit of the group {id, -1,
    rev, -rev} on the rows of degree d with c_0 and c_d nonzero; -1 fixes no
    row, and rev and -rev fix the rows that equal their reversal and minus
    it, so the orbits number (fixed(id) + fixed(rev) + fixed(-rev)) / 4.
    """
    (box,), bound = space.box, space.coeff_bound
    most = box + 1 if space.support is None else space.support
    width = 2 * bound

    def capped(count, k):
        # vectors of count entries with at most k nonzero
        return sum(math.comb(count, i) * width**i for i in range(min(count, k) + 1))

    total = bound  # degree 0: the constants 1..bound
    for d in range(1, box + 1):
        h = (d + 1) // 2
        fixed = width**2 * capped(d - 1, most - 2)
        # c_0 and the pairs after it; rev also fixes the rows of an even
        # degree with a nonzero middle
        minus = width * capped(h - 1, (most - 2) // 2)
        plus = minus + (d % 2 == 0) * width**2 * capped(h - 1, (most - 3) // 2)
        total += (fixed + plus + minus) // 4
    return total


# a key word sums at most this much in absolute value: (B^w - 1)/2 for w
# balanced base-B digits, so every partial sum of its float64 matmul is an
# integer float and exact
_KEY_WORD_MAX = 2**53

# rows per float64 key matmul: a quarter of a VECTOR_BLOCK, so its float
# copies stay near the size of the block's images as int8 gathers
KEY_ROWS = 1024


def _key_weights(images: np.ndarray, bound: int) -> np.ndarray:
    """The float64 matrix whose product with a block of rows, entries in
    -bound..bound, gives the key words of each row and of each of its
    ``images`` (rows of positions, as in _FiniteSpace.images; with an array
    of no rows, as _LaurentSpace takes it, the row's own words alone).

    A row x of p entries is read as balanced base-B digits, B = 2 bound +
    1, cut into words of w positions, the most w with (B^w - 1)/2 below
    _KEY_WORD_MAX; the positions s..e-1 make the word sum_i x_i B^(e-1-i).
    So the key of -x is minus the key of x, and the words compare
    lexicographically as the rows do.  The raw enumeration cap keeps B, and
    so a word of one digit, far below 2^53.  Entry [q, t, j] weighs
    position q of the row in word t of the row itself (j = 0) or of image
    j - 1.
    """
    base = 2 * bound + 1
    p = images.shape[1]
    width = 1
    while (base ** (width + 1) - 1) // 2 < _KEY_WORD_MAX:
        width += 1
    sources = np.concatenate([np.arange(p)[None, :], images])
    starts = range(0, p, width)
    weights = np.zeros((p, len(starts), len(sources)))
    for t, start in enumerate(starts):
        stop = min(start + width, p)
        digits = base ** np.arange(stop - start - 1, -1, -1, dtype=np.float64)
        for j, src in enumerate(sources):
            # image position i reads the row at src[i]
            np.add.at(weights[:, t, j], src[start:stop], digits)
    return weights


def _lex_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether the key words of a along axis 1 are lexicographically at
    most those of b (the arrays broadcast against each other)."""
    le = a[:, -1] <= b[:, -1]
    for t in range(a.shape[1] - 2, -1, -1):
        le = (a[:, t] < b[:, t]) | ((a[:, t] == b[:, t]) & le)
    return le


def _orbit_greatest_keys(keys: np.ndarray) -> np.ndarray:
    """Which rows A have a positive first nonzero entry and satisfy
    -A <= T <= A lexicographically for every image T, from key words
    shaped (rows, words, 1 + images): the row's own at [:, :, 0], image j's
    at [:, :, 1 + j]."""
    row, images = keys[:, :, :1], keys[:, :, 1:]
    keep = ~_lex_le(row, np.zeros_like(row))[:, 0]
    keep &= _lex_le(images, row).all(axis=1)
    keep &= _lex_le(-row, images).all(axis=1)
    return keep


def _canonical_stream(space: SearchSpace, keep):
    """The raw vectors of ``space`` that ``keep`` keeps, in enumeration order.

    ``keep`` takes the ``_vector_blocks`` blocks of the space and gives
    iterables of booleans, one boolean per raw vector in order.  Each raw
    vector is drawn once, as a tuple from ``_vectors``, and an iterable is
    taken only when the stream reaches it, so a scan stopped by its budget
    draws a prefix of the space.
    """
    args = (space.positions(), space.coeff_bound, space.support)
    return itertools.compress(
        _vectors(*args), itertools.chain.from_iterable(keep(_vector_blocks(*args)))
    )


class _FiniteSpace:
    """Enumeration context for matrices over a finite group ring.

    ``dets`` is the one determinant memo: it maps a candidate to its
    determinant, to 0 for a square candidate the stream found singular, or
    to None for an injective candidate whose representation is not square,
    which ``evaluate`` takes by the Gram route without a second elimination.
    The square stream fills it MEASURE_CHUNK candidates at a time, the
    count scan measures by, so it holds one chunk; ``injective`` fills it
    for other shapes; ``injective`` drops a candidate it rejects and
    ``evaluate`` the one it measures.
    """

    # evaluate_batch takes the candidates one at a time
    batched = False

    def __init__(self, space: SearchSpace):
        self.space = space
        self.group = space.group
        self.rows, self.cols = space.shape
        n = self.group.order
        self.n = n
        # candidates are evaluated straight from their coefficient vectors
        self.getters = rep_getters(self.group, self.rows, self.cols)
        self.radicals: dict = {}
        self.dets: dict = {}
        p = space.positions()
        # a square shape on the regular_rep route takes the determinants
        # stream() puts in dets in chunks: over a commutative table as the
        # norms of the determinants over ZG (ring_det), else from every
        # candidate's representation, read off one index table;
        # takes_cyclic_norm refuses a representation over REP_MAX_DIM here
        self.rep_index = None
        self.ring_det = False
        if self.rows == self.cols and not takes_cyclic_norm(
            space.shape, n, lambda: is_cyclic_table(self.group)
        ):
            ids = tuple(range(p))
            self.rep_index = np.array([get(ids) for get in self.getters])
            self.ring_det = takes_ring_det(self.group, self.rows, space.coeff_bound)
        # every image of a vector under a left translation g and, for a
        # square shape, under the adjoint of that translation, as the row of
        # positions the image reads off the vector; the identity translation
        # is left out, since the sign test in _orbit_greatest_keys covers it
        inv, c = self.group.inverses, self.cols
        entries = range(self.rows * c)
        # entry (i, j) of an adjoint reads entry (j, i) at inverses
        flip = [(e % c * c + e // c) * n + inv[h] for e in entries for h in range(n)]
        images = []
        for g in range(n):
            # g sends h to table[g][h], so the image reads position u at g^-1 u
            line = self.group.table[inv[g]]
            src = [e * n + line[u] for e in entries for u in range(n)]
            if g != self.group.identity:
                images.append(src)
            if self.rows == c:
                images.append([src[a] for a in flip])
        self.images = np.array(images, dtype=np.int64).reshape(len(images), p)
        self.key_weights = _key_weights(self.images, space.coeff_bound)

    def stream(self):
        """The canonical candidates in enumeration order, by _canonical_stream.

        On a square regular_rep space the candidates come in chunks of
        MEASURE_CHUNK, and before a chunk is yielded the determinant of each
        of its candidates goes in ``dets``, where ``injective`` and
        ``evaluate`` read it: norm_det_batch's on the ring_det route,
        det_batch's of the whole representation otherwise.  Any other
        candidate takes the elimination.
        """
        canonical = _canonical_stream(
            self.space,
            lambda blocks: (self._canonical_mask(block).tolist() for block in blocks),
        )
        if self.rep_index is None:
            yield from canonical
            return
        while chunk := list(itertools.islice(canonical, MEASURE_CHUNK)):
            block = np.array(chunk, dtype=np.int64)
            if self.ring_det:
                dets = norm_det_batch(block, self.group, self.rows)
            else:
                dets = det_batch(block[:, self.rep_index])
            self.dets.update(
                (vec, rep_value(d, self.n, self.radicals) if d else 0)
                for vec, d in zip(chunk, dets)
            )
            del block, dets
            yield from chunk
            # one chunk list alive at a time
            del chunk

    def _canonical_mask(self, block: np.ndarray) -> np.ndarray:
        """Which rows of ``block`` are the greatest member of their orbit
        under sign, left translations and (square shapes) their adjoints,
        from the key words of one matmul, KEY_ROWS rows at a time."""
        p, words, sources = self.key_weights.shape
        weights = self.key_weights.reshape(p, -1)
        keep = np.empty(len(block), dtype=bool)
        for start in range(0, len(block), KEY_ROWS):
            rows = block[start : start + KEY_ROWS].astype(np.float64)
            keys = (rows @ weights).reshape(len(rows), words, sources)
            keep[start : start + KEY_ROWS] = _orbit_greatest_keys(keys)
        return keep

    def matrix(self, vec: tuple) -> FiniteGroupRingMatrix:
        n = self.n
        rows = []
        for i in range(self.rows):
            row = []
            for j in range(self.cols):
                base = (i * self.cols + j) * n
                row.append(
                    FiniteGroupRingElement(self.group, vec[base : base + n])
                )
            rows.append(row)
        return FiniteGroupRingMatrix(self.group, rows)

    def screen(self, vec: tuple) -> None:
        """No exact screen over a finite group: every candidate is evaluated."""
        return None

    def _det_kernel(self, vec: tuple, singular_det: bool) -> tuple:
        return fk_det_kernel_flat(
            vec, self.group, self.space.shape, self.getters, singular_det, self.radicals
        )

    def injective(self, vec: tuple) -> bool:
        """Whether the candidate has zero kernel: read off ``dets`` when the
        stream has put the candidate there, else eliminated."""
        if vec not in self.dets:
            # the norms that find the kernel on the cyclic_norm route give
            # the determinant too, and a non-square representation has
            # none (None); evaluate takes either from dets
            det, kernel = self._det_kernel(vec, False)
            if kernel == 0:
                self.dets[vec] = det
            return kernel == 0
        det = self.dets[vec]
        # a square matrix is injective exactly when its determinant is
        # nonzero
        if not det:
            del self.dets[vec]
        return bool(det)

    def evaluate(self, vec, one_threshold):
        v = self.dets.pop(vec, 0)
        if v is None:
            # injective eliminated it already: straight to the Gram route
            rep = [get(vec) for get in self.getters]
            v = gram_rep_value(rep, self.n, self.radicals)
        elif not v:
            v = self._det_kernel(vec, True)[0]
        # candidates are integral, so v is an exact radical, and a canonical
        # radical is 1 exactly when its base is
        return v, v.exact.base == 1

    def evaluate_batch(self, vecs: list, one_threshold) -> list:
        """evaluate of each candidate in turn."""
        return [self.evaluate(vec, one_threshold) for vec in vecs]

    def entry_texts(self, vec) -> list:
        return [format_element(x) for row in self.matrix(vec).entries for x in row]

    def witness_json(self, vec) -> dict:
        m = self.matrix(vec)
        if self.space.shape == (1, 1):
            x = m.entries[0][0]
            return {
                "kind": "element",
                "text": format_element(x),
                "coeffs": [int(c) for c in x.coeffs],
            }
        return {
            "kind": "matrix",
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.entry_texts(vec),
            "coeffs": [
                [int(c) for c in x.coeffs] for row in m.entries for x in row
            ],
        }


class _LaurentSpace:
    """Enumeration context for matrices over Q[Z^d] with a degree box.

    A raw vector is the greatest member of its orbit under sign, monomial
    shifts and (square shapes) the adjoint when it is shifted down, its
    first nonzero coefficient is positive and, for a square shape, it is
    at least its shifted-down adjoint and that adjoint's negative.
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        self.rank = space.rank
        self.rows, self.cols = space.shape
        # single elements over Z: evaluate_batch measures them together, and
        # evaluating one never refuses
        self.batched = self.rank == 1 and space.shape == (1, 1)
        self.exps = list(itertools.product(*[range(b + 1) for b in space.box]))
        self.block = len(self.exps)
        # the exact screen of each canonical element, by its vector, put here
        # by _canonical_mask block by block and taken by screen
        self.screens: dict = {}
        # set by scan once only reciprocal elements can matter: from the next
        # block on, the stream keeps only the canonical rows reciprocal up to
        # sign (_reciprocal_keep)
        self.reciprocal_only = False
        # the shifted-down adjoint of a square matrix as a gather, one index
        # row per top exponent: the adjoint transposes the matrix and sends
        # z^e to z^-e, so shifted down, entry k's coefficient at e is entry
        # k^T's at top - e, and 0 where e exceeds top on some axis; row t
        # serves top = exps[t], and index p reads the zero column that
        # _canonical_mask appends
        self.adjoint = None
        if self.rows == self.cols:
            n, p = self.rows, space.positions()
            flat = {e: t for t, e in enumerate(self.exps)}
            starts = [((k % n) * n + k // n) * self.block for k in range(n * n)]
            rows = []
            for top in self.exps:
                # where top - e sits in an entry, None when it leaves the box
                at = [flat.get(tuple(y - x for x, y in zip(e, top))) for e in self.exps]
                rows.append([p if t is None else s + t for s in starts for t in at])
            self.adjoint = np.array(rows, dtype=np.int64)
        # the key words of a row alone: _orbit_mask keys the rows and their
        # adjoints each by one product
        no_image = np.empty((0, space.positions()), dtype=np.int64)
        self.key_weights = _key_weights(no_image, space.coeff_bound)[:, :, 0]

    def stream(self):
        """The canonical candidates in enumeration order."""
        return _canonical_stream(self.space, self._keep)

    def _keep(self, blocks):
        """The keep booleans of the stream: each block's _canonical_mask
        until scan sets ``reciprocal_only``, then, from the next block on,
        _reciprocal_keep over the rest of the space."""
        start = 0  # the raw index where the next block starts
        for block in blocks:
            if self.reciprocal_only:
                yield self._reciprocal_keep(start)
                return
            yield self._canonical_mask(block).tolist()
            start += len(block)

    def _reciprocal_keep(self, start: int):
        """The keep booleans of the raw vectors from index ``start`` on: true
        at the canonical elements reciprocal up to sign alone, which
        _reciprocal_rows builds, _vector_positions places and one call
        screens into ``screens``.  One C-level iterator: a run of falses
        before each true, and after the last."""
        space = self.space
        rows = _reciprocal_rows(space)
        at = _vector_positions(rows, space.coeff_bound, space.support)
        order = np.argsort(at)
        order = order[at[order] >= start]
        rows, at = rows[order], at[order]
        if len(rows):
            self.screens.update(zip(zip(*rows.T.tolist()), self._screen_rows(rows)))
        gaps = np.diff(at, prepend=start - 1, append=space.raw_count()) - 1
        runs = map(itertools.repeat, itertools.repeat(False), gaps.tolist())
        trues = itertools.repeat((True,), len(at))
        return itertools.chain.from_iterable(
            itertools.chain.from_iterable(
                itertools.zip_longest(runs, trues, fillvalue=())
            )
        )

    def _canonical_mask(self, block: np.ndarray) -> np.ndarray:
        """_orbit_mask of ``block``; for single elements the screen of each
        row it keeps goes to ``screens``."""
        keep = self._orbit_mask(block)
        if self.space.shape == (1, 1):
            canonical = block[keep]
            # the rows as tuples, straight from the columns
            self.screens.update(
                zip(zip(*canonical.T.tolist()), self._screen_rows(canonical))
            )
        return keep

    def _orbit_mask(self, block: np.ndarray) -> np.ndarray:
        """Which rows of ``block`` are the greatest member of their orbit,
        from the key words of the rows the shift-down anchor keeps and of
        their shifted-down adjoints, KEY_ROWS rows at a time."""
        box = self.space.box
        # nonzero[r, k, *e]: whether row r has a term at exponent e in entry k
        nonzero = (block != 0).reshape(len(block), -1, *(b + 1 for b in box))
        keep = np.ones(len(block), dtype=bool)
        top = 0  # each row's top exponent, as a flat index into exps
        for a, b in enumerate(box):
            others = tuple(i for i in range(1, nonzero.ndim) if i != a + 2)
            # levels[r, l]: whether row r has a term at exponent l on axis a
            levels = nonzero.any(axis=others)
            keep &= levels[:, 0]
            top = top * (b + 1) + b - levels[:, ::-1].argmax(axis=1)
        # the orbit test reads only the rows the shift-down anchor kept
        kept = np.flatnonzero(keep)
        for start in range(0, len(kept), KEY_ROWS):
            at = kept[start : start + KEY_ROWS]
            rows = block[at]
            sources = [rows]
            if self.adjoint is not None:
                padded = np.concatenate([rows, np.zeros_like(rows[:, :1])], axis=1)
                gather = self.adjoint.take(top[at], axis=0)
                sources.append(np.take_along_axis(padded, gather, axis=1))
            keys = [src.astype(np.float64) @ self.key_weights for src in sources]
            keep[at] = _orbit_greatest_keys(np.stack(keys, axis=2))
        return keep

    def matrix(self, vec: tuple) -> GroupRingMatrix:
        rows = []
        for i in range(self.rows):
            row = []
            for j in range(self.cols):
                base = (i * self.cols + j) * self.block
                terms = {}
                for t in range(self.block):
                    c = vec[base + t]
                    if c:
                        terms[self.exps[t]] = Fraction(c)
                row.append(LaurentPolynomial(self.rank, terms))
            rows.append(row)
        return GroupRingMatrix(rows, rank=self.rank)

    def screen(self, vec: tuple) -> tuple | None:
        """(proven determinant one, measure lower bound) of a canonical
        element, from its integer coefficients alone; None for matrices,
        which ``evaluate`` measures.  Taken from ``screens`` when the stream
        put it there, else screened as a block of one row.  An element is
        nonzero, hence injective."""
        if self.space.shape != (1, 1):
            return None
        found = self.screens.pop(vec, None)
        return found or self._screen_rows(np.array([vec]))[0]

    def _screen_rows(self, rows: np.ndarray) -> list:
        """screen of each row of an int array of canonical elements.

        Determinant one is proven only for collinear support, whose line
        (over Z the row itself: the shift-down anchor puts a term at z^0)
        screen_lines decides for the whole block at once; a non-collinear
        element gets the largest bound of its face_lines, all taken at
        once too, and ``evaluate`` decides whether its measure is one."""
        if self.rank == 1:
            return self._screen_lines(rows)
        # a line along a primitive direction has degree at most the largest
        # box side
        width = max(self.space.box) + 1
        out, at, lines, owners, faces = [None] * len(rows), [], [], [], []
        for r, vec in enumerate(rows.tolist()):
            terms = {self.exps[i]: c for i, c in enumerate(vec) if c}
            line = line_coeffs(terms)
            if line is None:
                found = face_lines(terms)
                owners += [r] * len(found)
                faces += found
            else:
                at.append(r)
                lines.append(line)
        for r, pair in zip(at, self._screen_lines(pad_lines(lines, width))):
            out[r] = pair
        if faces:
            # each non-collinear row's largest face bound
            bound = line_bounds(pad_lines(faces, width))[0]
            first = np.flatnonzero(np.diff(owners, prepend=-1))
            largest = np.maximum.reduceat(bound, first)
            for r, b in zip(np.array(owners)[first].tolist(), largest.tolist()):
                out[r] = (False, b * _FACE_SLACK)
        return out

    @staticmethod
    def _screen_lines(lines: np.ndarray) -> list:
        """screen_lines as (exact_one, bound) pairs, the bound scaled by
        _BOUND_SLACK."""
        exact_one, bound = screen_lines(lines)
        bound = np.where(exact_one, 1.0, bound * _BOUND_SLACK)
        return list(zip(exact_one.tolist(), bound.tolist()))

    def injective(self, vec: tuple) -> bool:
        return vn_dim_kernel_zd(self.matrix(vec)) == 0

    def evaluate(self, vec, one_threshold):
        m = self.matrix(vec)
        if self.space.shape == (1, 1):
            return _poly_det(m.entries[0][0], one_threshold)
        v = fk_det_zd(m).value
        return v, v.value < 1.0 + one_threshold

    def evaluate_batch(self, vecs: list, one_threshold) -> list:
        """evaluate of each candidate; single elements over Z are measured
        together by mahler_jensen_batch, straight from their coefficient
        vectors, except monomials, which evaluate gives their exact radical."""
        if not self.batched:
            return [self.evaluate(vec, one_threshold) for vec in vecs]
        values = iter(mahler_jensen_batch([vec for vec in vecs if any(vec[1:])]))
        out = []
        for vec in vecs:
            if any(vec[1:]):
                mv = next(values)
                v = FKValue(mv.value, mv.method, mv.error_estimate)
                out.append((v, v.value < 1.0 + one_threshold))
            else:
                out.append(self.evaluate(vec, one_threshold))
        return out

    def entry_texts(self, vec) -> list:
        return [format_polynomial(p) for row in self.matrix(vec).entries for p in row]

    def witness_json(self, vec) -> dict:
        m = self.matrix(vec)
        if self.space.shape == (1, 1):
            return {
                "kind": "element",
                "rank": self.rank,
                "text": format_polynomial(m.entries[0][0]),
            }
        return {"kind": "matrix", **matrix_to_json(m)}


def _poly_det(p, one_threshold):
    """Determinant of one nonzero element of Q[Z^d], its Mahler measure by
    the ``auto`` method, plus its float classification; a monomial carries
    its exact radical.  The scan has already counted the elements that
    ``_LaurentSpace.screen`` proves to have determinant one."""
    if len(p.terms) == 1:
        c = abs(next(iter(p.terms.values())))
        exact = Radical(c.numerator) if c.denominator == 1 and c >= 1 else None
        v = FKValue(float(c), "jensen", 0.0, exact)
        return v, v.value < 1.0 + one_threshold
    mv = mahler_measure(p)
    v = FKValue(mv.value, mv.method, mv.error_estimate)
    return v, mv.value < 1.0 + one_threshold


def _context(space: SearchSpace):
    return _FiniteSpace(space) if space.group is not None else _LaurentSpace(space)


def matrix_text(texts: list, rows: int, cols: int) -> str:
    """Row-major entry texts as the bracket text [a, b; c, d]."""
    return "[%s]" % "; ".join(
        ", ".join(texts[i * cols : (i + 1) * cols]) for i in range(rows)
    )


def scan(
    space: SearchSpace,
    variant: str,
    *,
    budget: int | None = None,
    one_threshold: float = DEFAULT_ONE_THRESHOLD,
    survey: bool = False,
) -> ScanReport:
    """Exhaust the space and report the least determinant above 1.

    The weak variants discard candidates that are not injective before any
    determinant is computed.  ``budget`` caps the admitted candidates:
    every candidate of a plain variant, the injective ones of a weak
    variant, whether the exact screen decides it, holds it, skips it or
    it is measured.  A scan whose next admitted candidate would exceed the
    budget stops and returns a partial report flagged
    ``budget_exceeded``.  A candidate whose exact measure lower bound lies
    above the floor (``1 + one_threshold``, or 1.5 for a survey) is held
    and measured after the stream, and only if its bound is at most the
    least value found by then.  Ties in the infimum keep the earliest candidate in
    enumeration order, so reports are deterministic for a fixed space.
    Over Z^d every determinant is measured by the ``auto`` method, fibrewise
    Jensen; a candidate it refuses ends the scan with its ValueError.  Over
    a finite group the exact radical decides determinant one.  A candidate
    is only its raw vector here.  Every candidate due for measurement waits
    in a pending list, and ``evaluate_batch`` measures the list every
    MEASURE_CHUNK streamed candidates and at the end of the stream; the
    held candidates follow, all in one batch for single elements over Z
    and one at a time otherwise.  Results are recorded in enumeration
    order, so the report is that of measuring each at once.  For single
    elements over Z, each batch first drops the candidates whose exact
    Graeffe bound (graeffe_bounds), scaled by _BOUND_SLACK, exceeds the
    cutoff: their measures lie above it, so they can neither lower it nor
    be determinant one or survey rows.  A ``one_threshold`` that is
    negative or not finite is refused.

    A scan of single elements over Z goes reciprocal-first.  By Smyth
    (1971) a non-reciprocal integer polynomial with a constant term has
    measure at least SMYTH_THETA0, so the first time a measurement leaves
    the cutoff below RECIPROCAL_CUTOFF, the stream yields only the canonical
    elements that are reciprocal up to sign, from its next block on, built
    directly and not masked.  The canonical elements it never yields are
    neither decided nor held, since their bounds exceed the cutoff; the
    scan counts them as examined and admitted at the end of the stream,
    where both counts become the number of canonical elements, found by
    Burnside's lemma, so the report is the full stream's.  A survey, or a
    threshold with 1 + one_threshold >= RECIPROCAL_CUTOFF, never switches,
    since the cutoff never falls below the floor; neither does a scan that
    its budget might stop, with fewer admissions than canonical elements.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant in ("lambda_1", "lambda_w_1") and space.shape != (1, 1):
        raise ValueError("the _1 constants range over ring elements; use shape (1, 1)")
    weak = variant in ("lambda_w", "lambda_w_1")
    if budget is None:
        budget = (
            DEFAULT_BUDGET_ELEMENTS
            if space.shape == (1, 1)
            else DEFAULT_BUDGET_MATRICES
        )
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not (math.isfinite(one_threshold) and one_threshold >= 0):
        raise ValueError(
            f"one_threshold must be finite and nonnegative, got {one_threshold}"
        )
    raw = space.raw_count()
    if raw > RAW_ENUMERATION_CAP:
        raise ValueError(
            f"space has {raw} raw candidates, over the enumeration cap "
            f"{RAW_ENUMERATION_CAP}; shrink the box or add a support bound"
        )

    ctx = _context(space)
    # the budget must not stop a scan that switches, so it must admit every
    # canonical element
    canonical = None
    if space.group is None and space.rank == 1 and space.shape == (1, 1):
        canonical = _canonical_count(space)
    reciprocal_first = canonical is not None and canonical <= budget

    examined = 0
    evaluated = 0
    det_one = 0
    exceeded = False
    best = None  # (value, enumeration index, FKValue, vec)
    rows: list = []
    # a candidate whose measure lower bound exceeds the floor can be neither
    # determinant one nor a survey row, and one whose bound exceeds the
    # cutoff cannot be the infimum either; the first kind is held back and
    # measured after the stream only if the cutoff has not fallen below it
    floor = max(1.0 + one_threshold, 1.5 if survey else 0.0)
    cutoff = math.inf
    held: list = []  # (enumeration index, bound, vec) with floor < bound <= cutoff
    # (enumeration index, vec) of the candidates due for measurement; flush
    # measures them and records them in this order
    pending: list = []

    def record(index, vec, value, is_one):
        nonlocal det_one, best, cutoff, held
        if is_one:
            det_one += 1
            return
        if survey and value.value <= 1.5:
            texts = ctx.entry_texts(vec)
            text = (
                texts[0]
                if space.shape == (1, 1)
                else matrix_text(texts, *space.shape)
            )
            rows.append((text, value.value))
        # ties keep the earliest candidate in enumeration order
        if best is None or (value.value, index) < best[:2]:
            best = (value.value, index, value, vec)
            cutoff = max(best[0], floor)
            held = [h for h in held if h[1] <= cutoff]

    def under_cutoff(due: list) -> list:
        """The entries of ``due``, each with its vec last, that a batched
        context may not drop: it drops those whose Graeffe bound, scaled by
        _BOUND_SLACK, exceeds the cutoff.  Such a measure can neither be the
        infimum nor lower the cutoff, and since the cutoff is at least the
        floor, it is neither determinant one nor a survey row."""
        if not (ctx.batched and due and cutoff < math.inf):
            return due
        bound = graeffe_bounds(pad_lines([list(e[-1]) for e in due], ctx.block))
        return [e for e, b in zip(due, (bound * _BOUND_SLACK).tolist()) if b <= cutoff]

    def flush():
        due = under_cutoff(pending)
        if due:
            results = ctx.evaluate_batch([vec for _, vec in due], one_threshold)
            for (index, vec), result in zip(due, results):
                record(index, vec, *result)
        pending.clear()
        if reciprocal_first and cutoff < RECIPROCAL_CUTOFF:
            ctx.reciprocal_only = True

    for streamed, vec in enumerate(ctx.stream(), 1):
        screen = ctx.screen(vec)
        admit = not weak or screen is not None or ctx.injective(vec)
        if admit and evaluated >= budget:
            exceeded = True
            break
        examined += 1
        if admit:
            evaluated += 1
            # a candidate without a screen is measured
            exact_one, bound = screen or (False, floor)
            if exact_one:
                det_one += 1
            elif bound <= floor:
                pending.append((examined, vec))
            elif bound <= cutoff:
                held.append((examined, bound, vec))
        # measure before the stream draws the next candidate, so a finite
        # scan's memo holds the determinants of one det_batch chunk at a time
        if streamed % MEASURE_CHUNK == 0:
            flush()
    flush()
    if reciprocal_first and ctx.reciprocal_only:
        # the elements the reciprocal-first stream never yielded: each is
        # admitted and, its bound above the cutoff, neither decided nor held
        examined = evaluated = canonical

    # record rebinds held when the cutoff falls; this walks the list as it
    # stood when the stream ended and rechecks each bound instead, so each
    # held candidate counts against the cutoff the ones before it left.  A
    # batched context measures at once every one still under the cutoff
    # that under_cutoff keeps, and records those whose bounds the falling
    # cutoff has not passed.  Any
    # other measures them one at a time: over Z^d with d >= 2 or for a
    # matrix, evaluating a candidate that the walk would skip may refuse
    if ctx.batched:
        due = under_cutoff([h for h in held if h[1] <= cutoff])
        results = ctx.evaluate_batch([vec for _, _, vec in due], one_threshold) if due else []
        for (index, bound, vec), result in zip(due, results):
            if bound <= cutoff:
                record(index, vec, *result)
    else:
        for index, bound, vec in held:
            if bound <= cutoff:
                pending.append((index, vec))
                flush()

    return ScanReport(
        space=space,
        variant=variant,
        infimum_found=None if best is None else best[2],
        witness=None if best is None else ctx.witness_json(best[3]),
        count_examined=examined,
        count_det_one=det_one,
        one_threshold=one_threshold,
        budget=budget,
        budget_exceeded=exceeded,
        survey=tuple(rows) if survey else None,
    )


def witness_value(
    space: SearchSpace,
    witness: dict,
    *,
    one_threshold: float = DEFAULT_ONE_THRESHOLD,
) -> FKValue:
    """Re-evaluate a reported witness through the same determinant path."""
    if space.group is not None:
        coeffs = witness["coeffs"]
        if witness["kind"] == "matrix":
            coeffs = itertools.chain.from_iterable(coeffs)
        return fk_det_kernel_flat(tuple(coeffs), space.group, space.shape)[0]
    if witness["kind"] == "element":
        p = parse_polynomial(witness["text"], rank=space.rank)
        value, _ = _poly_det(p, one_threshold)
        return value
    m = matrix_from_json(witness)
    return fk_det_zd(m).value


# ---------------------------------------------------------------------------
# known exact values


def _element_order(g: FiniteGroup, x: int) -> int:
    k = 1
    y = x
    while y != g.identity:
        y = g.table[y][x]
        k += 1
    return k


def _is_cyclic(g: FiniteGroup) -> bool:
    return any(_element_order(g, x) == g.order for x in range(g.order))


def exact_constants(g: FiniteGroup) -> dict:
    """Known values and two-sided bounds of the four constants for ``g``.

    Exact radicals exist for the trivial group, Z/2, and the weak constants
    of odd cyclic groups; every other finite group of order >= 3 gets the
    generic bounds 2**(1/(2n)) <= Lambda <= (n-1)**(1/n) and
    2**(1/n) <= Lambda^w <= (n-1)**(1/n).
    """
    if not isinstance(g, FiniteGroup):
        raise ValueError("exact constants are tabulated for finite groups only")
    n = g.order
    if n == 1:
        return {
            "lambda": {"exact": Radical(2, Fraction(1, 2))},
            "lambda_1": {"exact": Radical(2)},
            "lambda_w": {"exact": Radical(2)},
            "lambda_w_1": {"exact": Radical(2)},
        }
    if n == 2:
        return {
            "lambda": {
                "lower": Radical(2, Fraction(1, 4)),
                "upper": Radical(2, Fraction(1, 2)),
            },
            "lambda_1": {"exact": Radical(2, Fraction(1, 2))},
            "lambda_w": {"exact": Radical(3, Fraction(1, 2))},
            "lambda_w_1": {"exact": Radical(3, Fraction(1, 2))},
        }
    generic = {
        "lambda": {
            "lower": Radical(2, Fraction(1, 2 * n)),
            "upper": Radical(n - 1, Fraction(1, n)),
        },
        "lambda_w": {
            "lower": Radical(2, Fraction(1, n)),
            "upper": Radical(n - 1, Fraction(1, n)),
        },
    }
    if n % 2 == 1 and _is_cyclic(g):
        generic["lambda_w"] = {"exact": Radical(2, Fraction(1, n))}
        generic["lambda_w_1"] = {"exact": Radical(2, Fraction(1, n))}
    return generic


def constants_to_json(table: dict) -> dict:
    return {
        variant: {key: r.as_json() for key, r in row.items()}
        for variant, row in table.items()
    }


def torsion_bound_check(m: int) -> float:
    """(m - 1)**(1/m): an upper bound for Lambda^w_1 of any group with an
    order-m finite subgroup; decreases to 1 as m grows."""
    if m < 3:
        raise ValueError("need m >= 3")
    return (m - 1) ** (1.0 / m)
