"""Linear codes over a finite field.

Provides the GRS base construction (always MDS), exact minimum
distance and weight distribution by exhaustive enumeration, the
minor-criterion MDS check, single row/column scalings, diagonal
sandwich products, and a hard-coded [8,3,6] reference code over F_7.

The two MDS detectors are deliberately independent: ``is_mds`` checks
nonsingularity of every k-column submatrix and scales with C(n, k),
while ``min_distance`` enumerates one codeword per projective point,
(q^k - 1)/(q - 1) in all. Where both are feasible they must agree
(d = n - k + 1 iff all minors nonsingular), as the tests assert.
"""

from __future__ import annotations

import functools
import operator
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateAlpha,
    FieldTooLarge,
    IndexOutOfRange,
    LeadingBlockSingular,
    RankDeficient,
    TooLong,
    TooManyCodewords,
    TooManyMinors,
    ZeroDiagonalEntry,
    ZeroMultiplier,
    ZeroScalar,
)
from .field import FieldElement, FieldSpec, make_prime_field
from .matrix import FieldMatrix, diag_product, rank, to_systematic, vec_mat_mul

#: Cap on the q^k - 1 codewords an exhaustive enumeration covers.
DEFAULT_ENUM_LIMIT = 1 << 26

_CHUNK = 1 << 16  # messages per enumeration block

#: Cap on the C(n, k) minors the MDS check computes; the pass holds two
#: levels of at most that many sub-minors.
DEFAULT_MINOR_LIMIT = 1 << 22

_MINOR_BLOCK = 1 << 14  # column sets per block of the minor pass

_PLAN_CACHE = 1 << 17  # largest one-block level plan, in column indices, kept across calls


class LinearCode:
    """An [n, k] linear code given by a full-row-rank generator matrix.

    The minimum distance ``d`` starts unknown and is cached set-once by
    ``min_distance``; a cached value always satisfies the Singleton
    bound 1 <= d <= n - k + 1.
    """

    __slots__ = ("spec", "generator", "n", "k", "_d", "_systematic")

    def __init__(self, generator: FieldMatrix, d: int | None = None) -> None:
        k, n = generator.shape
        if k > n:
            raise DimensionMismatch(f"k={k} rows exceed n={n} columns")
        if rank(generator) != k:
            raise RankDeficient(f"generator rank < k={k}")
        self.spec = generator.spec
        self.generator = generator
        self.n = n
        self.k = k
        self._d = None
        self._systematic = None
        if d is not None:
            self.set_distance(d)

    @property
    def d(self) -> int | None:
        """Known minimum distance, or None before computation."""
        return self._d

    def set_distance(self, d: int) -> None:
        """Set-once cache; repeated sets must agree."""
        if not 1 <= d <= self.n - self.k + 1:
            raise ValueError(f"d={d} violates Singleton for [{self.n},{self.k}]")
        if self._d is not None and self._d != d:
            raise ValueError(f"distance already cached as {self._d}, got {d}")
        self._d = d

    def systematic_generator(self) -> FieldMatrix:
        """The [I_k | A] form of the generator (``to_systematic``), computed
        once; a singular leading block raises on every call."""
        if self._systematic is None:
            self._systematic = to_systematic(self.generator)
        return self._systematic

    def params(self) -> str:
        d = "?" if self._d is None else str(self._d)
        return f"[{self.n},{self.k},{d}]"

    def __repr__(self) -> str:
        return f"LinearCode({self.params()} over {self.spec})"


def grs_generator(
    spec: FieldSpec,
    n: int,
    k: int,
    alphas: Sequence[FieldElement] | None = None,
    vs: Sequence[FieldElement] | None = None,
) -> LinearCode:
    """Generalized Reed-Solomon code with entries v_j * alpha_j^i.

    Defaults: alphas = the first n field elements in code order, vs all
    ones. Any choice of distinct alphas and nonzero vs yields an MDS
    code (verified in tests, not assumed here: d is left uncached).
    """
    if n > spec.order:
        raise TooLong(f"n={n} exceeds field order {spec.order}")
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k={k} outside [1, n={n}]")
    if alphas is None:
        alphas = [spec.from_code(c) for c in range(n)]
    if vs is None:
        vs = [spec.one()] * n
    if len(alphas) != n or len(vs) != n:
        raise DimensionMismatch(f"need {n} alphas and vs")
    a_codes = [spec.element(a).code for a in alphas]
    v_codes = [spec.element(v).code for v in vs]
    if len(set(a_codes)) != n:
        raise DuplicateAlpha("evaluation points must be pairwise distinct")
    if any(v == 0 for v in v_codes):
        raise ZeroMultiplier("column multipliers must be nonzero")
    rows = []
    cur = list(v_codes)
    for _ in range(k):
        rows.append(cur)
        cur = [spec.mul_code(c, a) for c, a in zip(cur, a_codes)]
    return LinearCode(FieldMatrix(spec, np.array(rows, dtype=np.int64)))


def example1_code() -> LinearCode:
    """Reference [8,3] code over F_7 in systematic form.

    Fixed fixture used across the test suite; its minimum distance 6
    and MDS property are recomputed, never assumed.
    """
    spec = make_prime_field(7)
    g = FieldMatrix.from_rows(spec, [
        [1, 0, 0, 6, 4, 2, 5, 3],
        [0, 1, 0, 3, 1, 5, 1, 3],
        [0, 0, 1, 3, 5, 2, 4, 6],
    ])
    return LinearCode(g)


def encode_message(code: LinearCode, message: Sequence[FieldElement]) -> list[FieldElement]:
    """Codeword m . G for a length-k message."""
    if len(message) != code.k:
        raise DimensionMismatch(f"message length {len(message)} != k={code.k}")
    return vec_mat_mul(message, code.generator)


def _projective_weights(code: LinearCode, enum_limit: int) -> Iterator[np.ndarray]:
    """Weights of one codeword per projective point, a chunk at a time.

    Nonzero multiples share a weight, so the messages (0, ..., 0, 1, tail)
    stand for all q^k - 1 (capped by ``enum_limit``). Over F_p each g[i, j]
    is a t x t multiplication map, so encoding is one integer matrix
    product with the (k*t) x (n*t) block matrix ``lmat``.
    """
    spec = code.spec
    p, t, k, n = spec.p, spec.t, code.k, code.n
    total = spec.order ** k - 1
    if total > enum_limit:
        raise TooManyCodewords(f"{total} codewords exceed limit {enum_limit}")
    # largest entry of digits @ tail + lead row, before reduction mod p
    if ((k - 1) * t * (p - 1) + 1) * (p - 1) >= 1 << 63:
        raise FieldTooLarge(f"{spec} codeword coordinates overflow int64 for k={k}")
    # multiplication by g[i, j] is F_p-linear; row r of its map is the
    # coordinate vector of x^r * g[i, j]
    powers = np.array([p ** r for r in range(t)], dtype=np.int64)
    maps = spec.coords_array(spec.mul_array(code.generator.codes[:, :, None], powers))
    lmat = maps.swapaxes(1, 2).reshape(k * t, n * t)  # block (i, j) maps by g[i, j]
    for lead in range(k):
        tail = lmat[(lead + 1) * t:]
        width = tail.shape[0]
        for start in range(0, p ** width, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, p ** width), dtype=np.int64)
            digits = np.empty((idx.size, width), dtype=np.int64)
            for i in range(width):
                idx, digits[:, i] = np.divmod(idx, p)
            words = (digits @ tail + lmat[lead * t]) % p
            yield np.count_nonzero(words.reshape(-1, n, t).any(axis=2), axis=1)


def min_distance(code: LinearCode, enum_limit: int = DEFAULT_ENUM_LIMIT) -> int:
    """Exact minimum Hamming weight over all q^k - 1 nonzero codewords.

    Linear code, so minimum distance = minimum nonzero weight. One
    codeword per projective point is enumerated. The result is cached
    on the code. Covering more than ``enum_limit`` codewords is refused.
    """
    if code.d is not None:
        return code.d
    best = code.n
    for weights in _projective_weights(code, enum_limit):
        best = min(best, int(weights.min()))
        if best == 1:
            break
    code.set_distance(best)
    return best


def weight_distribution(code: LinearCode, enum_limit: int = DEFAULT_ENUM_LIMIT) -> list[int]:
    """Entry w counts the nonzero codewords of Hamming weight w, 0..n.

    Entry 0 is 0 and the entries sum to q^k - 1. Same enumeration and
    ``enum_limit`` as ``min_distance``.
    """
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for weights in _projective_weights(code, enum_limit):
        counts += np.bincount(weights, minlength=code.n + 1)
    return [int(c) * (code.spec.order - 1) for c in counts]


def _plan_block(n: int, i: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """``cols``, the i-column sets S with lex ranks start..stop-1, and ``sub``,
    where sub[s, r] is the lex rank of S - S[r] among the (i-1)-sets. An
    m-set T has rank C(n, m) - 1 - sum_j C(n - 1 - T[j], m - j); the sets
    come from peeling that sum greedily, one position at a time."""
    binom = np.array([[comb(a, b) for b in range(i + 1)] for a in range(n)], dtype=np.int64)
    rest = comb(n, i) - 1 - np.arange(start, stop, dtype=np.int64)
    cols = np.empty((stop - start, i), dtype=np.intp)
    for j in range(i):
        c = np.searchsorted(binom[:, i - j], rest, side="right") - 1
        rest -= binom[c, i - j]
        cols[:, j] = n - 1 - c
    # in rank(S - S[r]), S[j] is term j (lo) when j < r and term j - 1 (hi)
    # when j > r: sum_{j<r} lo_j + sum_{j>r} hi_j = sum hi - cumsum(hi - lo)_r - lo_r
    lo = binom[n - 1 - cols, np.arange(i - 1, -1, -1)]
    hi = binom[n - 1 - cols, np.arange(i, 0, -1)]
    terms = hi.sum(axis=1, keepdims=True) - (hi - lo).cumsum(axis=1) - lo
    return cols, comb(n, i - 1) - 1 - terms


@functools.lru_cache(maxsize=16)
def _cached_plan(n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    plan = _plan_block(n, i, 0, comb(n, i))
    for arr in plan:
        arr.setflags(write=False)  # shared by every caller through the cache
    return plan


def _laplace(spec: FieldSpec, row: np.ndarray, cols: np.ndarray, sub: np.ndarray,
             below: np.ndarray) -> np.ndarray:
    """Determinants of rows 0..i-1 on the i-sets ``cols``, expanded along
    row i-1 = ``row``: sum_r (-1)^(i-1+r) row[S[r]] * below[S - S[r]]."""
    i = cols.shape[1]
    terms = spec.coords_array(spec.mul_array(row[cols], below[sub]))
    sign = np.array([(-1) ** (i - 1 + r) for r in range(i)])
    return (sign @ terms) % spec.p @ spec._powers_array  # digit-wise signed sum


def _level_blocks(spec: FieldSpec, row: np.ndarray, n: int, i: int, below: np.ndarray
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Level i as (cols, dets) blocks of at most ``_MINOR_BLOCK`` sets in lex
    order, expanded along ``row`` from the whole level i-1 ``below``. Only a
    one-block level of at most ``_PLAN_CACHE`` indices keeps its plan, so
    the cache holds at most 16 * 2 * 8 * _PLAN_CACHE bytes (32 MB)."""
    size = comb(n, i)
    for start in range(0, size, _MINOR_BLOCK):
        if size <= _MINOR_BLOCK and i * size <= _PLAN_CACHE:
            cols, sub = _cached_plan(n, i)
        else:
            cols, sub = _plan_block(n, i, start, min(start + _MINOR_BLOCK, size))
        yield cols, _laplace(spec, row, cols, sub, below)


def _maximal_minors(a: FieldMatrix) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All k x k minors of a k x n matrix, k >= 1, as (cols, dets) blocks in
    lex order of the column sets. Levels 1..k-1 are held whole, one at a
    time; level k is yielded block by block."""
    spec, g = a.spec, a.codes
    k, n = a.shape
    # level 1 lists the columns in order, so it is the first row; a k = 1
    # pass expands it from the empty minor like any other final level
    below = g[0] if k > 1 else np.ones(1, dtype=np.int64)
    for i in range(2, k):
        level, at = np.empty(comb(n, i), dtype=np.int64), 0
        for _, dets in _level_blocks(spec, g[i - 1], n, i, below):
            level[at:at + dets.size], at = dets, at + dets.size
        below = level
    yield from _level_blocks(spec, g[k - 1], n, k, below)


def _first_zero(blocks: Iterator[tuple[np.ndarray, np.ndarray]], last: bool = False
                ) -> tuple[int, ...] | None:
    """Column set of the first (or last) zero determinant in (cols, dets)
    blocks; without ``last`` the scan stops at the first block with a zero."""
    found = None
    for cols, dets in blocks:
        zero = np.flatnonzero(dets == 0)
        if zero.size:
            found = tuple(cols[zero[-1 if last else 0]].tolist())
            if not last:
                break
    return found


def singular_minor(code: LinearCode, minor_limit: int = DEFAULT_MINOR_LIMIT
                   ) -> tuple[int, ...] | None:
    """Lexicographically first k-column set whose k x k submatrix of the
    generator is singular, or None when every such minor is nonsingular.

    Every k x k minor comes from one Laplace pass over shared sub-minors:
    level i holds the determinants of rows 0..i-1 on every i-column set,
    each expanded along row i-1 from level i-1, so an [n, k] code costs
    sum_i i * C(n, i) field products and a few array calls per block of
    2^14 sets. Level k is scanned block by block, stopping at the first
    block that holds a zero.

    For k > n/2 the pass runs on the n - k rows of [A^T | I] instead, for
    the systematic form [I | A]: its minor on the complement of S is, up
    to sign, the same minor of A as that of [I | A] on S. Complements
    reverse lex order, so the witness is the complement of its last
    singular set. (A singular leading block is itself the first witness.)
    Either way no level exceeds C(n, k) sets; a code with more than
    ``minor_limit`` minors is refused with TooManyMinors.

    On 2 vCPUs a lifted [8,3] code (56 minors) takes about 30-60 us; over
    F_49, GRS[16,8] (12,870 minors) 6-8 ms, or 25-45 ms on the first call
    for that shape, GRS[20,10] (184,756) about 0.5 s in 43 MB of RSS, and
    GRS[30,25] (142,506, through the dual) 0.08 s.
    """
    k, n = code.k, code.n
    if comb(n, k) > minor_limit:
        raise TooManyMinors(f"[{n},{k}] minor check needs {comb(n, k)} minors, "
                            f"limit {minor_limit}")
    if k == 0 or k == n:
        return None  # the one k x k minor, if any, is nonzero by full rank
    if 2 * k <= n:
        return _first_zero(_maximal_minors(code.generator))
    try:
        a = code.systematic_generator().codes[:, k:]
    except LeadingBlockSingular:
        return tuple(range(k))
    dual = FieldMatrix(code.spec, np.hstack([a.T, np.eye(n - k, dtype=np.int64)]))
    found = _first_zero(_maximal_minors(dual), last=True)
    return None if found is None else tuple(sorted(set(range(n)) - set(found)))


def is_mds(code: LinearCode, minor_limit: int = DEFAULT_MINOR_LIMIT) -> bool:
    """Minor criterion: every k-column submatrix is nonsingular.

    Equivalent to d = n - k + 1; scales with C(n, k) instead of q^k so
    it works over fields too large to enumerate. The minors come from
    the Laplace pass of ``singular_minor``, which also names the first
    failing column set and refuses more than ``minor_limit`` minors.
    """
    return singular_minor(code, minor_limit) is None


def _scalar_code(spec: FieldSpec, c: int | FieldElement) -> int:
    code = spec.element(c).code if isinstance(c, FieldElement) else operator.index(c)
    if not 0 <= code < spec.order:
        raise ValueError(f"scalar code {code} out of range for {spec}")
    return code


def scale_row(g: FieldMatrix, i: int, c: int | FieldElement) -> FieldMatrix:
    """Copy of g with row i multiplied by nonzero c (int = element code)."""
    cc = _scalar_code(g.spec, c)
    if cc == 0:
        raise ZeroScalar("row scaling by zero")
    if not 0 <= i < g.rows:
        raise IndexOutOfRange(f"row {i} of {g.rows}")
    return diag_product([cc if r == i else 1 for r in range(g.rows)], g, [1] * g.cols)


def scale_col(g: FieldMatrix, j: int, c: int | FieldElement) -> FieldMatrix:
    """Copy of g with column j multiplied by nonzero c (int = element code)."""
    cc = _scalar_code(g.spec, c)
    if cc == 0:
        raise ZeroScalar("column scaling by zero")
    if not 0 <= j < g.cols:
        raise IndexOutOfRange(f"column {j} of {g.cols}")
    return diag_product([1] * g.rows, g, [cc if c == j else 1 for c in range(g.cols)])


def _diag_codes(spec: FieldSpec, diag, length: int, side: str) -> list[int]:
    entries = getattr(diag, "diag", diag)
    codes = [_scalar_code(spec, e) for e in entries]
    if len(codes) != length:
        raise DimensionMismatch(f"{side} diagonal length {len(codes)}, need {length}")
    if any(c == 0 for c in codes):
        raise ZeroDiagonalEntry(f"{side} diagonal contains zero")
    return codes


def monomial_sandwich(d: FieldMatrix, m1, m2) -> FieldMatrix:
    """Product M1 . d . M2 for nonzero diagonals M1 (rows), M2 (cols).

    m1 and m2 may be element sequences or any object with a ``diag``
    attribute; entry (i, j) of the result is m1_i * d_ij * m2_j.
    """
    spec = d.spec
    left = _diag_codes(spec, m1, d.rows, "left")
    right = _diag_codes(spec, m2, d.cols, "right")
    return diag_product(left, d, right)
