"""Linear codes over a finite field.

Provides the GRS base construction (always MDS), exact minimum
distance and weight distribution by exhaustive enumeration, the
minor-criterion MDS check, single row/column scalings, diagonal
sandwich products, and a hard-coded [8,3,6] reference code over F_7.

Two algorithms decide MDS: ``is_mds`` checks nonsingularity of every
k-column submatrix and scales with C(n, k), while the enumeration
behind ``weight_distribution`` covers one codeword per projective
point, (q^k - 1)/(q - 1) in all. ``min_distance`` uses both: d = n - k + 1
iff all minors are nonsingular, so where the minors are the fewer it
reads d from them and enumerates only a code that has a singular one.
Their independence is tested directly: ``is_mds`` against
``kernels.min_weight`` in test_codes.py and the acceptance tests, and
both against the brute-force oracles in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import comb
from typing import Sequence

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

#: Cap on the C(n, k) minors the MDS check computes; the pass holds two
#: levels of at most that many sub-minors.
DEFAULT_MINOR_LIMIT = 1 << 22


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
    return LinearCode(FieldMatrix(spec, rows))


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


def _projective_points(code: LinearCode, enum_limit: int) -> int:
    """(q^k - 1)/(q - 1), the codewords the enumeration encodes, after its
    refusals: more than ``enum_limit`` codewords in all, or coordinates
    that would overflow int64 before reduction mod p."""
    spec, k = code.spec, code.k
    p, t, total = spec.p, spec.t, spec.order ** k - 1
    if total > enum_limit:
        raise TooManyCodewords(f"{total} codewords exceed limit {enum_limit}")
    # largest entry of digits @ tail + lead row, before reduction mod p
    if ((k - 1) * t * (p - 1) + 1) * (p - 1) >= 1 << 63:
        raise FieldTooLarge(f"{spec} codeword coordinates overflow int64 for k={k}")
    return total // (spec.order - 1)


def min_distance(code: LinearCode, enum_limit: int = DEFAULT_ENUM_LIMIT) -> int:
    """Exact minimum Hamming weight over all q^k - 1 nonzero codewords.

    Linear code, so minimum distance = minimum nonzero weight. The
    result is cached on the code. Covering more than ``enum_limit``
    codewords is refused, whichever way the distance is then found.

    A code is MDS iff every k columns of G are independent, and then
    d = n - k + 1 (MacWilliams and Sloane, Ch. 11, Thm 2). So when the
    C(n, k) minors are no more than the (q^k - 1)/(q - 1) projective
    points, the minor pass of ``singular_minor`` runs first, and a code
    with no singular minor gets d = n - k + 1 with no enumeration. Any
    other code enumerates one codeword per projective point. On 2 vCPUs
    the lifted [8,3] code over F_343 (56 minors against 117,993 points)
    takes about 50 us this way, against about 90 ms of enumeration, and
    needs no numpy.
    """
    if code.d is not None:
        return code.d
    k, n = code.k, code.n
    points = _projective_points(code, enum_limit)
    if 0 < k and comb(n, k) <= points and singular_minor(code, comb(n, k)) is None:
        best = n - k + 1
    else:
        from .kernels import min_weight
        best = min_weight(code)
    code.set_distance(best)
    return best


def weight_distribution(code: LinearCode, enum_limit: int = DEFAULT_ENUM_LIMIT) -> list[int]:
    """Entry w counts the nonzero codewords of Hamming weight w, 0..n.

    Entry 0 is 0 and the entries sum to q^k - 1. Same enumeration and
    ``enum_limit`` as ``min_distance``.
    """
    _projective_points(code, enum_limit)
    from .kernels import projective_weight_counts
    return [c * (code.spec.order - 1) for c in projective_weight_counts(code)]


#: Largest minor pass, in sum_{i=2..k} i * C(n, i) field products, that
#: runs on the scalar Zech tables rather than on numpy arrays: where the
#: two cross for k = 3 when both are warm; k = 2 crosses near 130 products
#: (see ``singular_minor``).
SCALAR_PASS_PRODUCTS = 250


@functools.lru_cache(maxsize=32)
def _scalar_plan(n: int, i: int) -> tuple[tuple, tuple]:
    """The i-column sets S in lex order, and for each the terms of its
    expansion along row i - 1: the first as (c, s, rest), the others in
    ``rest`` as (c, s). Term r has s, the lex rank of S - S[r] among the
    (i - 1)-sets, and c = S[r] + n * (i - 1 + r mod 2), which picks the
    negated copy of the row for the negative terms."""
    ranks = {s: r for r, s in enumerate(itertools.combinations(range(n), i - 1))}
    sets = tuple(itertools.combinations(range(n), i))
    terms = [[(c + n * ((i - 1 + r) & 1), ranks[s[:r] + s[r + 1:]]) for r, c in enumerate(s)]
             for s in sets]
    return sets, tuple(t[0] + (tuple(t[1:]),) for t in terms)


@functools.lru_cache(maxsize=8)
def _log_sum_tables(spec: FieldSpec) -> tuple[list[int], list[int]]:
    """``red`` and ``step`` for logs with zero held as z = 2(q - 1), m = q - 1.

    red[x] is x mod m for x < 2m and z for x >= 2m, so red[a + b] is the
    log of a product of two such logs. step[b - a] is what a + b needs
    added to a, before ``red``: zech[(b - a) mod m] when both are nonzero,
    0 when b is zero, and b - a when a is zero (b - z lies in [-2m, -m),
    read from the end of the list, 4m + 1 long).
    """
    zech = spec._scalar_zech()
    m = len(zech)
    red = list(range(m)) * 2 + [2 * m] * (2 * m + 1)
    step = zech + [0] * (m + 1) + list(range(-2 * m, -m)) + zech
    return red, step


def _scalar_first_singular(a: FieldMatrix, last: bool = False) -> tuple[int, ...] | None:
    """``kernels.first_singular`` on the field's scalar tables, for a field
    with a Zech list: the same Laplace levels, each minor held as its log
    (2(q - 1) for zero), a product as a sum of logs and a sum as one Zech
    lookup."""
    spec = a.spec
    red, step = _log_sum_tables(spec)
    log, neg = spec._scalar_log(), spec._neg_log
    zero = log[0]
    k, n = a.shape
    rows = [[log[c] for c in r] for r in a.to_lists()]
    below = rows[0]
    for i in range(2, k + 1):
        row = rows[i - 1]
        signed = row + [red[x + neg] for x in row]
        level = []
        for c0, s0, rest in _scalar_plan(n, i)[1]:
            acc = red[signed[c0] + below[s0]]
            for c, s in rest:
                acc = red[acc + step[red[signed[c] + below[s]] - acc]]
            level.append(acc)
        below = level
    if zero not in below:
        return None
    at = len(below) - 1 - below[::-1].index(zero) if last else below.index(zero)
    return _scalar_plan(n, k)[0][at] if k > 1 else (at,)


def _first_singular(a: FieldMatrix, last: bool = False) -> tuple[int, ...] | None:
    """First (or last) singular k-column set of the k x n matrix ``a``, by
    the scalar pass when the field has Zech tables and the pass is at most
    ``SCALAR_PASS_PRODUCTS`` products, else by the numpy pass."""
    k, n = a.shape
    if (sum(i * comb(n, i) for i in range(2, k + 1)) <= SCALAR_PASS_PRODUCTS
            and a.spec._scalar_zech() is not None):
        return _scalar_first_singular(a, last)
    from .kernels import first_singular
    return first_singular(a, last)


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

    Over a field with Zech tables (order up to 2^16), a pass of at most
    ``SCALAR_PASS_PRODUCTS`` field products runs in Python on logs
    (``_scalar_first_singular``), so it needs no numpy, whose import
    costs a fresh process about 120 ms; a larger pass runs on numpy
    arrays (``kernels.first_singular``). Warm, on 2 vCPUs, the scalar
    pass over F_343 against the array pass: [7,3] (147 products) 34
    against 42 us, [8,3] (224) 47 against 46 us, [9,3] (324) 67 against
    49 us, [12,2] (132) 33 against 29 us, [16,2] (240) 49 against 31 us,
    [8,4] (504) 84 against 69 us and [14,7] (57,330) 11 against 1.8 ms
    (``BENCH_11.json``). On the array pass over F_49,
    GRS[16,8] (12,870 minors) takes 6-8 ms, or 25-45 ms on the first
    call for that shape, GRS[20,10] (184,756) about 0.5 s in 43 MB of
    RSS, and GRS[30,25] (142,506, through the dual) 0.08 s.
    """
    k, n = code.k, code.n
    if comb(n, k) > minor_limit:
        raise TooManyMinors(f"[{n},{k}] minor check needs {comb(n, k)} minors, "
                            f"limit {minor_limit}")
    if k == 0 or k == n:
        return None  # the one k x k minor, if any, is nonzero by full rank
    if 2 * k <= n:
        return _first_singular(code.generator)
    try:
        a = code.systematic_generator().to_lists()
    except LeadingBlockSingular:
        return tuple(range(k))
    dual = FieldMatrix(code.spec, [[r[j] for r in a] + [int(i == j) for i in range(k, n)]
                                   for j in range(k, n)])
    found = _first_singular(dual, last=True)
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
    return diag_product(None, g, [cc if c == j else 1 for c in range(g.cols)])


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
