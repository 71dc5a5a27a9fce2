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

from itertools import combinations, islice
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateAlpha,
    FieldTooLarge,
    IndexOutOfRange,
    RankDeficient,
    TooLong,
    TooManyCodewords,
    ZeroDiagonalEntry,
    ZeroMultiplier,
    ZeroScalar,
)
from .field import FieldElement, FieldSpec, make_prime_field
from .matrix import FieldMatrix, diag_product, rank, row_reduce, vec_mat_mul

#: Cap on the q^k - 1 codewords an exhaustive enumeration covers.
DEFAULT_ENUM_LIMIT = 1 << 26

_CHUNK = 1 << 16  # messages per enumeration block

_MINOR_BLOCK = 1 << 14  # minors per stacked elimination, up to k = 8


class LinearCode:
    """An [n, k] linear code given by a full-row-rank generator matrix.

    The minimum distance ``d`` starts unknown and is cached set-once by
    ``min_distance``; a cached value always satisfies the Singleton
    bound 1 <= d <= n - k + 1.
    """

    __slots__ = ("spec", "generator", "n", "k", "_d")

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


def singular_minor(code: LinearCode) -> tuple[int, ...] | None:
    """Lexicographically first k-column set whose k x k submatrix of the
    generator is singular, or None when every such minor is nonsingular.

    The C(n, k) column sets go through one stacked elimination per block
    of 2^14 sets (fewer for k > 8, so a block holds at most 2^20 entries);
    the scan stops after the first block that holds a singular minor.
    """
    g, k = code.generator.codes, code.k
    size = _MINOR_BLOCK * 64 // max(64, k * k)
    sets = combinations(range(code.n), k)
    while block := list(islice(sets, size)):
        cols = np.array(block, dtype=np.intp).reshape(len(block), k)
        # g.T[cols] stacks the transposed minors, which have the same rank
        ranks = row_reduce(g.T[cols], code.spec, reduced=False).sum(axis=1)
        singular = np.flatnonzero(ranks < k)
        if singular.size:
            return block[singular[0]]
    return None


def is_mds(code: LinearCode) -> bool:
    """Minor criterion: every k-column submatrix is nonsingular.

    Equivalent to d = n - k + 1; scales with C(n, k) instead of q^k so
    it works over fields too large to enumerate. The minors are
    row-reduced in stacks by ``singular_minor``, which also names the
    first failing column set: GRS[16,8] over F_49 (12,870 minors) takes
    about 0.25 s on 2 vCPUs.
    """
    return singular_minor(code) is None


def _scalar_code(spec: FieldSpec, c: int | FieldElement) -> int:
    code = spec.element(c).code if isinstance(c, FieldElement) else int(c)
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
