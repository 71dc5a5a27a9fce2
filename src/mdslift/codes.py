"""Linear codes over a finite field.

Provides the GRS base construction (always MDS), exact minimum
distance and weight distribution by exhaustive enumeration, the
minor-criterion MDS check, single row/column scalings, diagonal
sandwich products, and a hard-coded [8,3,6] reference code over F_7.

Two algorithms decide MDS: ``is_mds`` checks nonsingularity of every
k-column submatrix and scales with C(n, k), while the enumeration
behind ``weight_distribution`` covers one codeword per projective
point, (q^k - 1)/(q - 1) in all. The minor check reads the
generator's cached RREF: every k-column minor is, up to a nonzero
factor, a square minor of its k x (n - k) non-pivot block, so it
computes those (90 field products for [8,3], against 224 for all k x k
minors of G, on scalar tables or numpy arrays) and needs no dual.

``min_distance`` uses both: d = n - k + 1 iff all minors are
nonsingular, so where the minors are the fewer it reads d from them and
enumerates only a code that has a singular one.
Their independence is tested directly: ``is_mds`` against
``kernels.min_weight`` in test_codes.py and the acceptance tests, and
both against the brute-force oracles in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
from math import comb
from typing import Sequence

from .errors import (
    DimensionMismatch,
    DuplicateAlpha,
    FieldMismatch,
    FieldTooLarge,
    IndexOutOfRange,
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

    def dual(self) -> "LinearCode":
        """The dual [n, n - k] code. With RREF R, pivot columns P and the
        other columns Q, its generator H is the identity on Q and -R[:, Q]^T
        on P, so that G H^T = R[:, Q] - R[:, Q] = 0; no leading block need
        be nonsingular."""
        reduced, pivots = self.generator.rref()
        n, rows = self.n, []
        for j in _free_columns(n, pivots):
            on_pivots = dict(zip(pivots, (self.spec.neg_code(r[j]) for r in reduced)))
            rows.append(tuple(on_pivots.get(c, int(c == j)) for c in range(n)))
        return LinearCode(FieldMatrix._of(self.spec, tuple(rows), (len(rows), n)))

    def params(self) -> str:
        d = "?" if self._d is None else str(self._d)
        return f"[{self.n},{self.k},{d}]"

    def __repr__(self) -> str:
        return f"LinearCode({self.params()} over {self.spec})"


def grs_generator(
    spec: FieldSpec,
    n: int,
    k: int,
    alphas: Sequence[int | FieldElement] | None = None,
    vs: Sequence[int | FieldElement] | None = None,
) -> LinearCode:
    """Generalized Reed-Solomon code with entries v_j * alpha_j^i.

    Alphas and vs are read by ``FieldSpec.code``. Defaults: alphas =
    codes 0..n-1, vs all ones. Any choice of distinct alphas and nonzero
    vs yields an MDS code (verified in tests, not assumed here: d is left
    uncached).
    """
    if n > spec.order:
        raise TooLong(f"n={n} exceeds field order {spec.order}")
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k={k} outside [1, n={n}]")
    a_codes = list(map(spec.code, range(n) if alphas is None else alphas))
    v_codes = [1] * n if vs is None else list(map(spec.code, vs))
    if len(a_codes) != n or len(v_codes) != n:
        raise DimensionMismatch(f"need {n} alphas and vs")
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


#: Largest minor pass, in sum_{j=2..min(k, n-k)} j * C(k, j) * C(n - k, j)
#: field products, that runs on the scalar Zech tables rather than on numpy
#: arrays; both passes do these products, and cross at [10,5] (605) warm.
SCALAR_PASS_PRODUCTS = 605


@functools.lru_cache(maxsize=64)
def _scalar_products(k: int, n: int) -> int:
    """Field products of the scalar pass on an [n, k] code."""
    return sum(j * comb(k, j) * comb(n - k, j) for j in range(2, min(k, n - k) + 1))


@functools.lru_cache(maxsize=64)
def _level_plan(h: int, w: int, j: int) -> tuple[tuple, tuple, tuple]:
    """Level j of the minors of an h x w block, flattened: the minor on
    rows I and columns J, both j-sets, sits at rank(I) * C(w, j) + rank(J)
    for lex ranks. Returns the row sets, the column sets, and the terms of
    each minor's expansion along row I[-1], one flat tuple per minor:
    (a_0, b_0, ..., a_(j-1), b_(j-1)), with a_r = w * I[-1] + J[r]
    + h * w * (j - 1 + r mod 2) in the block followed by its negation, and
    b_r the place of (I[:-1], J - J[r]) in level j - 1."""
    row_sets = tuple(itertools.combinations(range(h), j))
    col_sets = tuple(itertools.combinations(range(w), j))
    row_rank = {s: r for r, s in enumerate(itertools.combinations(range(h), j - 1))}
    col_rank = {s: r for r, s in enumerate(itertools.combinations(range(w), j - 1))}
    width = comb(w, j - 1)
    terms = tuple(tuple(x for r in range(j)
                        for x in (w * rs[-1] + cs[r] + h * w * ((j - 1 + r) & 1),
                                  row_rank[rs[:-1]] * width + col_rank[cs[:r] + cs[r + 1:]]))
                  for rs in row_sets for cs in col_sets)
    return row_sets, col_sets, terms


@functools.lru_cache(maxsize=None)  # one per level j, and j <= 5 on the scalar pass
def _level_sum(j: int):
    """The expansion of level j in one comprehension: a function of
    (terms, signed, below, red, step) that returns, for each flat term
    tuple of ``_level_plan``, the log of sum_r w^(signed[a_r] + below[b_r]),
    added term by term as x + step[y - x]. Its source is built from a
    fixed template on the integer j alone."""
    term = "red[signed[a{0}] + below[b{0}]]"
    total = term.format(0)
    for r in range(1, j):
        total = f"red[(x := {total}) + step[{term.format(r)} - x]]"
    names = ", ".join(f"a{r}, b{r}" for r in range(j))
    return eval(f"lambda terms, signed, below, red, step: [{total} for {names} in terms]")


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


@functools.lru_cache(maxsize=64)
def _free_columns(n: int, pivots: tuple[int, ...]) -> tuple[int, ...]:
    """The columns 0..n-1 that are not pivot columns, ascending."""
    return tuple(j for j in range(n) if j not in pivots)


@functools.lru_cache(maxsize=64)
def _block_logs(spec: FieldSpec, reduced: tuple[tuple[int, ...], ...],
                pivots: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Level 1 of the scalar pass on the RREF ``reduced`` of full rank:
    the logs of its non-pivot block A (2(q - 1) for zero), by row of A, or
    by column when A has more rows (its rows and columns as ``_level_plan``
    reads them, from A^T). Kept per RREF, which every lift of one base
    shares."""
    log, free = spec._scalar_log(), _free_columns(len(reduced[0]), pivots)
    if len(pivots) > len(free):
        return tuple(tuple(log[r[j]] for r in reduced) for j in free)
    return tuple(tuple(log[r[j]] for j in free) for r in reduced)


def _scalar_first_singular(a: FieldMatrix) -> tuple[int, ...] | None:
    """First singular k-column set of the k x n matrix ``a``, in lex
    order, for a field with a Zech list; all are singular when ``a`` has
    rank below k.

    With RREF R, pivot columns P and the other columns Q, A = R[:, Q]: the
    minor of ``a`` on S is zero iff that of A on the rows i with P_i not
    in S and the columns of S in Q is (MacWilliams and Sloane, Ch. 11,
    Thm 8). Every square minor of A is computed, level j from level j - 1
    by expansion along the last row, each held as its log (2(q - 1) for
    zero): a product is a sum of logs and a sum one Zech lookup. Level 1
    is the logs of the block of R, kept per RREF (``_block_logs``), plus
    those of a pending scale; each later level is one comprehension
    (``_level_sum``). Each zero is mapped back to its k-set.
    """
    spec = a.spec
    k, n = a.shape
    reduced, pivots, scale = a.echelon()
    if len(pivots) < k:
        return tuple(range(k))
    red, step = _log_sum_tables(spec)
    m = spec.order - 1
    zero = 2 * m
    free = _free_columns(n, pivots)
    flip = k > n - k  # expand along the shorter side: A^T has the same minors
    h, w = min(k, n - k), max(k, n - k)
    groups = _block_logs(spec, reduced, pivots)
    if scale is None:
        below = [x for group in groups for x in group]
    else:
        # log A_ic = log R_i,free[c] + log d_free[c] - log d_(P_i), d the pending
        # scale, each offset reduced mod q - 1 so that red keeps zero as zero
        log = spec._scalar_log()
        on_free, on_rows = [log[scale[j]] for j in free], [m - log[scale[p]] for p in pivots]
        outer, inner = (on_free, on_rows) if flip else (on_rows, on_free)
        below = [red[x + red[a + b]] for a, group in zip(outer, groups)
                 for x, b in zip(group, inner)]
    neg = spec._neg_log
    signed = below + [red[x + neg] for x in below]
    hits = [(1, at) for at, x in enumerate(below) if x == zero] if zero in below else []
    for j in range(2, h + 1):
        level = _level_sum(j)(_level_plan(h, w, j)[2], signed, below, red, step)
        if zero in level:
            hits += [(j, at) for at, x in enumerate(level) if x == zero]
        below = level
    sets = []
    for j, at in hits:
        row_sets, col_sets, _ = _level_plan(h, w, j)
        rs, cs = row_sets[at // len(col_sets)], col_sets[at % len(col_sets)]
        if flip:
            rs, cs = cs, rs
        sets.append(tuple(sorted([p for i, p in enumerate(pivots) if i not in rs]
                                 + [free[c] for c in cs])))
    return min(sets, default=None)


def singular_minor(code: LinearCode, minor_limit: int = DEFAULT_MINOR_LIMIT
                   ) -> tuple[int, ...] | None:
    """Lexicographically first k-column set whose k x k submatrix of the
    generator is singular, or None when every such minor is nonsingular;
    more than ``minor_limit`` minors C(n, k) raise TooManyMinors.

    Both passes compute the square minors of the cached RREF's non-pivot
    block (see ``_scalar_first_singular``), for any k and with no dual: in
    Python on the Zech tables (order up to 2^16) when that takes at most
    ``SCALAR_PASS_PRODUCTS`` field products, else on numpy arrays
    (``kernels.first_singular``). Warm, in-process on 2 vCPUs: [8,3] over
    F_49 (90 products) takes 18 us on the scalar pass, and ``is_mds`` of a
    lift of it, its pending scale included, 23-25 us (``BENCH_15.json``);
    on the numpy pass over F_49 (``BENCH_13.json``), GRS[16,8] (12,870
    minors) takes 1.1-1.9 ms, GRS[20,10] (184,756) 15-28 ms, GRS[24,12]
    (2,704,156) 0.38-0.53 s and GRS[30,25] (142,506) 33-37 ms.
    """
    k, n = code.k, code.n
    if comb(n, k) > minor_limit:
        raise TooManyMinors(f"[{n},{k}] minor check needs {comb(n, k)} minors, "
                            f"limit {minor_limit}")
    if k == 0 or k == n:
        return None  # the one k x k minor, if any, is nonzero by full rank
    if _scalar_products(k, n) <= SCALAR_PASS_PRODUCTS and code.spec._scalar_zech() is not None:
        return _scalar_first_singular(code.generator)
    from .kernels import first_singular
    return first_singular(code.generator)


def is_mds(code: LinearCode, minor_limit: int = DEFAULT_MINOR_LIMIT) -> bool:
    """Minor criterion: every k-column submatrix is nonsingular.

    Equivalent to d = n - k + 1; scales with C(n, k) instead of q^k so
    it works over fields too large to enumerate. The minors come from
    the Laplace pass of ``singular_minor``, which also names the first
    failing column set and refuses more than ``minor_limit`` minors.
    """
    return singular_minor(code, minor_limit) is None


def scale_row(g: FieldMatrix, i: int, c: int | FieldElement) -> FieldMatrix:
    """Copy of g with row i multiplied by nonzero c (int = element code)."""
    cc = g.spec.code(c)
    if cc == 0:
        raise ZeroScalar("row scaling by zero")
    if not 0 <= i < g.rows:
        raise IndexOutOfRange(f"row {i} of {g.rows}")
    return diag_product([cc if r == i else 1 for r in range(g.rows)], g, [1] * g.cols)


def scale_col(g: FieldMatrix, j: int, c: int | FieldElement) -> FieldMatrix:
    """Copy of g with column j multiplied by nonzero c (int = element code)."""
    cc = g.spec.code(c)
    if cc == 0:
        raise ZeroScalar("column scaling by zero")
    if not 0 <= j < g.cols:
        raise IndexOutOfRange(f"column {j} of {g.cols}")
    return diag_product(None, g, [cc if c == j else 1 for c in range(g.cols)])


def _diag_codes(spec: FieldSpec, diag, length: int, side: str) -> list[int]:
    from .lifting import DhDiagonal  # lifting imports this module
    if isinstance(diag, DhDiagonal):  # its codes are checked, in its own field
        if diag.spec.field_id != spec.field_id:
            raise FieldMismatch(f"{diag.spec} element used in {spec}")
        codes = list(diag.codes)
    else:
        codes = list(map(spec.code, getattr(diag, "diag", diag)))
    if len(codes) != length:
        raise DimensionMismatch(f"{side} diagonal length {len(codes)}, need {length}")
    if any(c == 0 for c in codes):
        raise ZeroDiagonalEntry(f"{side} diagonal contains zero")
    return codes


def monomial_sandwich(d: FieldMatrix, m1, m2) -> FieldMatrix:
    """Product M1 . d . M2 for nonzero diagonals M1 (rows), M2 (cols).

    m1 and m2 may be sequences read by ``FieldSpec.code``, ``DhDiagonal``s
    (read by their ``codes``) or any other object with a ``diag``
    attribute; entry (i, j) of the result is m1_i * d_ij * m2_j.
    """
    spec = d.spec
    left = _diag_codes(spec, m1, d.rows, "left")
    right = _diag_codes(spec, m2, d.cols, "right")
    return diag_product(left, d, right)
