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
computes those (C(n, k) - 1, the k(n - k) entries among them: 15 and 40
larger for [8,3], on scalar tables or numpy arrays) and needs no dual.

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
import operator
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
from .matrix import FieldMatrix, diag_product, rank, row_reduce, vec_mat_mul

#: Cap on the q^k - 1 codewords an exhaustive enumeration covers.
DEFAULT_ENUM_LIMIT = 1 << 26

#: Cap on the C(n, k) minors the MDS check computes; the pass holds two
#: levels of at most that many sub-minors.
DEFAULT_MINOR_LIMIT = 1 << 22


class LinearCode:
    """An [n, k] linear code given by a full-row-rank generator matrix.

    The minimum distance ``d`` starts unknown. Only ``min_distance``
    computes it and stores it here, so a known d is never one a caller
    stated.
    """

    __slots__ = ("spec", "generator", "n", "k", "_d")

    def __init__(self, generator: FieldMatrix) -> None:
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

    @property
    def d(self) -> int | None:
        """Known minimum distance, or None before computation."""
        return self._d

    def dual(self) -> "LinearCode":
        """The dual [n, n - k] code. With RREF R, pivot columns P and the
        other columns Q, its generator H is the identity on Q and -R[:, Q]^T
        on P, so that G H^T = R[:, Q] - R[:, Q] = 0; no leading block need
        be nonsingular. A code with k < n - k hands H its RREF, by the
        same rule on the RREF R' of G read right to left: its pivots P' are
        the code's lex-last information set, so Q' is the dual's lex-first
        one (matroid duality), and row j is zero left of j, as R' is zero
        beyond each pivot. Else H, with n - k <= k rows, is the cheaper
        one to reduce, and ``__init__`` reduces it."""
        spec, n = self.spec, self.n
        rows, rref = _dual_rows(spec, n, *self.generator.rref()), None
        if 2 * self.k < n:
            flipped = [r[::-1] for r in self.generator.to_lists()]
            last = [n - 1 - c for c in row_reduce(flipped, spec)]
            reduced = [r[::-1] for r in flipped[:len(last)]]
            rref = _dual_rows(spec, n, reduced, last), _free_columns(n, last), None
        return LinearCode(FieldMatrix._of(spec, rows, (len(rows), n), rref=rref))

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

    n and k are read by ``operator.index``, alphas and vs by
    ``FieldSpec.code``. Defaults: alphas = codes 0..n-1, vs all ones. Any
    choice of distinct alphas and nonzero vs yields an MDS code (verified
    in tests, not assumed here: d is left uncached).
    """
    n, k = operator.index(n), operator.index(k)
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
    with no singular minor gets d = n - k + 1 with no enumeration (56
    minors against 117,993 points for the lifted [8,3] code over F_343).
    Any other code enumerates one codeword per projective point.
    """
    enum_limit = operator.index(enum_limit)
    if code.d is not None:
        return code.d
    k, n = code.k, code.n
    points = _projective_points(code, enum_limit)
    if 0 < k and comb(n, k) <= points and singular_minor(code, comb(n, k)) is None:
        best = n - k + 1
    else:
        from .kernels import min_weight
        best = min_weight(code)
    code._d = best
    return best


def weight_distribution(code: LinearCode, enum_limit: int = DEFAULT_ENUM_LIMIT) -> list[int]:
    """Entry w counts the nonzero codewords of Hamming weight w, 0..n.

    Entry 0 is 0 and the entries sum to q^k - 1. Same enumeration and
    ``enum_limit`` as ``min_distance``.
    """
    _projective_points(code, operator.index(enum_limit))
    from .kernels import projective_weight_counts
    return [c * (code.spec.order - 1) for c in projective_weight_counts(code)]


#: Largest C(n, k) - k(n - k) (one more than the minors of size 2 and up, by
#: Vandermonde; 1 when min(k, n - k) = 1) that runs on the scalar Zech tables,
#: not numpy. Warm, the scalar pass wins up to [29,2] (352), [30,2] (379) is a
#: tie and numpy wins from [15,3] (419) on (``BENCH_22.json``).
SCALAR_PASS_MINORS = 352


@functools.lru_cache(maxsize=64)
def _level_plan(h: int, w: int, j: int) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """Level j >= 2 of the minors of an h x w block M, flattened, with its
    row sets split in two: the inner sets avoid M's last row h - 1, and the
    leaf sets hold it. Expansion along the last row of each set reads only
    minors on the sets I[:-1], which avoid row h - 1, so level j + 1 reads
    the inner minors alone and no level reads a leaf: a leaf is only tested
    for zero. The minor on inner rows I and columns J sits at
    rank(I) * C(w, j) + rank(J) for lex ranks among the inner j-sets (rows
    of range(h - 1)) and all j-sets of columns. Level 1 is all of M, row r
    at r * w, and (r,) has rank r among the 1-sets of range(h - 1) too, so
    level 2 reads it by the same rule.

    Returns the inner row sets, the leaf row sets, the column sets, and the
    terms of each minor's expansion along row I[-1], one flat tuple per
    (I, J) in row-set-major order: (a_0, b_0, ..., a_(j-1), b_(j-1)), with
    a_r = w * I[-1] + J[r] + h * w * (j - 1 + r mod 2) in the block followed
    by its negation, and b_r the place of (I[:-1], J - J[r]) in level j - 1.
    A leaf's last a_r points at the negated term: the leaf is zero iff the
    sum of its first j - 1 terms equals it."""
    inner = tuple(itertools.combinations(range(h - 1), j))
    leaves = tuple(s + (h - 1,) for s in itertools.combinations(range(h - 1), j - 1))
    col_sets = tuple(itertools.combinations(range(w), j))
    row_rank = {s: r for r, s in enumerate(itertools.combinations(range(h - 1), j - 1))}
    col_rank = {s: r for r, s in enumerate(itertools.combinations(range(w), j - 1))}
    width = comb(w, j - 1)

    def terms(row_sets, leaf):
        # the sign bit of term r is j - 1 + r mod 2, 0 for the last term,
        # and a leaf reads its last term negated
        return tuple(tuple(x for r in range(j)
                           for x in (w * rs[-1] + cs[r]
                                     + h * w * ((j - 1 + r + (leaf and r == j - 1)) & 1),
                                     row_rank[rs[:-1]] * width
                                     + col_rank[cs[:r] + cs[r + 1:]]))
                     for rs in row_sets for cs in col_sets)

    return inner, leaves, col_sets, terms(inner, False), terms(leaves, True)


@functools.lru_cache(maxsize=None)  # two per level j, and j <= 5 on the scalar pass
def _level_sum(j: int, leaf: bool):
    """Level j's part of the expansion in one comprehension: a function of
    (terms, signed, below, red, step) over the flat term tuples of
    ``_level_plan``. Inner (``leaf`` false): the list of logs of
    sum_r w^(signed[a_r] + below[b_r]), added term by term as
    x + step[y - x]. Leaf: the places of the tuples whose first j - 1 terms
    sum to their last, read negated, that is, of the zero minors. Its
    source is built from a fixed template on j and ``leaf`` alone."""
    term = "red[signed[a{0}] + below[b{0}]]"
    total = term.format(0)
    for r in range(1, j - 1 if leaf else j):
        total = f"red[(x := {total}) + step[{term.format(r)} - x]]"
    names = ", ".join(f"a{r}, b{r}" for r in range(j))
    if leaf:
        return eval(f"lambda terms, signed, below, red, step: [at for at, ({names}) in "
                    f"enumerate(terms) if {total} == {term.format(j - 1)}]")
    return eval(f"lambda terms, signed, below, red, step: [{total} for {names} in terms]")


def _free_columns(n: int, pivots: tuple[int, ...]) -> tuple[int, ...]:
    """The columns 0..n-1 that are not pivot columns, ascending."""
    return tuple(sorted(set(range(n)).difference(pivots)))


def _dual_rows(spec: FieldSpec, n: int, reduced, pivots) -> tuple[tuple[int, ...], ...]:
    """One row per column j outside ``pivots``, ascending: 1 at j, -R_ij at
    pivot P_i of row i of ``reduced``, 0 elsewhere."""
    rows = []
    for j in _free_columns(n, pivots):
        on_pivots = dict(zip(pivots, (spec.neg_code(r[j]) for r in reduced)))
        rows.append(tuple(on_pivots.get(c, int(c == j)) for c in range(n)))
    return tuple(rows)


#: Scalar-pass plans by (id of the field, id of the RREF rows): each plan
#: holds both objects, so neither id is reused while it is kept.
_PLANS: dict[tuple[int, int], tuple] = {}


def _scalar_plan(spec: FieldSpec, reduced: tuple[tuple[int, ...], ...],
                 pivots: tuple[int, ...]) -> tuple:
    """Build and keep (64 at most) what the scalar pass over ``spec`` reads of
    the full-rank RREF (``reduced``, ``pivots``), for later passes, as on
    each lift of one base into one field, to find with one lookup: the
    spec's log-sum lists ``red`` and ``step`` (built with its Zech list by
    ``FieldSpec._scalar_zech``, called first), the free columns, ``flip``
    (A has more rows), level 1 of M = A, or A^T if flipped, as its logs
    row by row (2(q - 1) for zero) and as these followed by their
    negations, its row and column 1-sets, and for each later level its
    two ``_level_sum``s and ``_level_plan``."""
    n, k, step = len(reduced[0]), len(pivots), spec._scalar_zech()
    free, log = _free_columns(n, pivots), spec._log
    flip = k > n - k  # expand along the shorter side: A^T has the same minors
    block = [[r[j] for j in free] for r in reduced]
    h, w = min(k, n - k), max(k, n - k)
    below = [log[x] for row in (zip(*block) if flip else block) for x in row]
    red, neg = spec._red, spec._neg_log
    signed = below + [red[x + neg] for x in below]
    ones = tuple((i,) for i in range(h)), tuple((c,) for c in range(w))
    levels = tuple((_level_sum(j, False), _level_sum(j, True), *_level_plan(h, w, j))
                   for j in range(2, h + 1))
    plan = red, step, free, flip, below, signed, ones, levels, spec, reduced
    if len(_PLANS) >= 64:
        _PLANS.clear()
    _PLANS[id(spec), id(reduced)] = plan
    return plan


def _scalar_first_singular(a: FieldMatrix) -> tuple[int, ...] | None:
    """First singular k-column set of the k x n matrix ``a``, in lex
    order, for a field with a Zech list; all are singular when ``a`` has
    rank below k.

    With RREF R, pivot columns P and the other columns Q, A = R[:, Q]: the
    minor of ``a`` on S is zero iff that of A on the rows i with P_i not
    in S and the columns of S in Q is (MacWilliams and Sloane, Ch. 11,
    Thm 8). Every square minor of M = A (A^T if it has more rows) is
    tested, level j from level j - 1 by expansion along the last row, each
    held as its log (2(q - 1) for zero): a product is a sum of logs and a
    sum one Zech lookup. A pending scale d of ``echelon`` is not read: it
    maps A to diag(d_P)^-1 A diag(d_Q), a nonzero factor on each square
    minor (Huffman and Pless, Sec. 1.7). Level 1 is the plan's
    (``_scalar_plan``). Each later level is two (``_level_sum``): the
    minors off M's last row are computed, as the next level reads them,
    and those on it, which no level reads, are only tested for zero, with
    one Zech addition fewer (for [8,3]: 10 values and 20 tests at level 2,
    10 tests at level 3). Each zero is mapped back to its k-set.
    """
    spec, k = a.spec, a.rows
    reduced, pivots, _ = a.echelon()
    if len(pivots) < k:
        return tuple(range(k))
    red, step, free, flip, below, signed, ones, levels, _, _ = (
        _PLANS.get((id(spec), id(reduced))) or _scalar_plan(spec, reduced, pivots))
    zero = 2 * (spec.order - 1)
    hits = [(*ones, at) for at, x in enumerate(below) if x == zero] if zero in below else []
    for inner_sum, leaf_test, inner, leaves, col_sets, inner_terms, leaf_terms in levels:
        found = leaf_test(leaf_terms, signed, below, red, step)
        if found:
            hits += [(leaves, col_sets, at) for at in found]
        if not inner_terms:
            break  # level min(k, n - k) holds only leaves
        below = inner_sum(inner_terms, signed, below, red, step)
        if zero in below:
            hits += [(inner, col_sets, at) for at, x in enumerate(below) if x == zero]
    if not hits:
        return None
    sets = []
    for row_sets, col_sets, at in hits:
        rs, cs = row_sets[at // len(col_sets)], col_sets[at % len(col_sets)]
        if flip:
            rs, cs = cs, rs
        sets.append(tuple(sorted([p for i, p in enumerate(pivots) if i not in rs]
                                 + [free[c] for c in cs])))
    return min(sets)


def singular_minor(code: LinearCode, minor_limit: int = DEFAULT_MINOR_LIMIT
                   ) -> tuple[int, ...] | None:
    """Lexicographically first k-column set whose k x k submatrix of the
    generator is singular, or None when every such minor is nonsingular;
    more than ``minor_limit`` minors C(n, k) raise TooManyMinors.

    Both passes find the zero square minors of the cached RREF's non-pivot
    block, its pending scale unread (``_scalar_first_singular``), for any
    k and with no dual: in Python on the Zech tables (order up to 2^16)
    when C(n, k) - k(n - k) is at most ``SCALAR_PASS_MINORS``, where the
    minors that no level reads are only tested for zero, else on numpy
    arrays (``kernels.first_singular``).
    In-process on 2 vCPUs, ``is_mds`` of a lift of the [8,3] code into
    F_49, F_343 or F_2401 takes about 9 us (``BENCH_31.json``).
    """
    minor_limit, k, n = operator.index(minor_limit), code.k, code.n
    minors = comb(n, k)
    if minors > minor_limit:
        raise TooManyMinors(f"[{n},{k}] minor check needs {minors} minors, "
                            f"limit {minor_limit}")
    if k == 0 or k == n:
        return None  # the one k x k minor, if any, is nonzero by full rank
    if minors - k * (n - k) <= SCALAR_PASS_MINORS and code.spec._scalar_zech() is not None:
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
    """Copy of g with row i (read by ``operator.index``) multiplied by
    nonzero c (int = element code)."""
    cc, i = g.spec.code(c), operator.index(i)
    if cc == 0:
        raise ZeroScalar("row scaling by zero")
    if not 0 <= i < g.rows:
        raise IndexOutOfRange(f"row {i} of {g.rows}")
    return diag_product([cc if r == i else 1 for r in range(g.rows)], g, [1] * g.cols)


def scale_col(g: FieldMatrix, j: int, c: int | FieldElement) -> FieldMatrix:
    """Copy of g with column j (read by ``operator.index``) multiplied by
    nonzero c (int = element code)."""
    cc, j = g.spec.code(c), operator.index(j)
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
