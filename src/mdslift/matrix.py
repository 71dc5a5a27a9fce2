"""Dense matrices over one finite field.

Entries are stored as rows of integer codes (see ``field``) with an
explicit shape; matrices are immutable values, and every operation
returns a new matrix, computed on the rows with the field's scalar code
ops. A column scaling multiplies no entry: the result keeps the unscaled
rows and a pending scale, and a further scaling composes the scales, in
O(n); the rows are scaled when first read (``FieldMatrix._rows``).
``codes`` builds a numpy array of the entries on first access, for the
array kernels (``kernels``). All elimination goes through one
kernel, ``row_reduce``, shared by solve and the reduced row-echelon
form (RREF) that ``FieldMatrix.echelon`` computes on first use and then
keeps; rank, nonsingularity and the systematic form read that cache.
Scaling the columns by nonzero d_j keeps the pivot columns P and maps
the RREF R to diag(d_P)^-1 R diag(d), and scaling the rows keeps it
(Huffman and Pless, Sec. 1.7), so ``diag_product`` and ``embed_matrix``
hand a cached RREF on to their result, the scaling left pending
(``FieldMatrix.echelon``); only ``rref()`` reads that scale. A lift
eliminates nothing and scales no entry, and its rank check and minor
pass (``codes.singular_minor``, on the unscaled RREF's non-pivot block,
whose square minors the scale multiplies by nonzero factors only) read
no row. Pivoting is first-nonzero with no column permutation:
coordinate positions carry meaning for codes and erasure patterns.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import (
    CharacteristicMismatch,
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    LeadingBlockSingular,
    NotSquare,
    NotStrictlyIncreasing,
    RankDeficient,
    Singular,
)
from .field import FieldElement, FieldSpec


class FieldMatrix:
    """Matrix over a single FieldSpec, entries in row-major order."""

    __slots__ = ("spec", "shape", "_data", "_codes", "_rref")

    def __init__(self, spec: FieldSpec, codes) -> None:
        """``codes``: a 2-dimensional array or nested sequence of entries,
        copied into the matrix. Entries are read by ``FieldSpec.code``, so
        an int is an element code, not a constant: in F_343, entry 10 is
        3 + x (an operator of ``FieldElement`` reads an int n as n * 1)."""
        shape = getattr(codes, "shape", None)  # an array keeps its shape when empty
        if shape is not None:
            if len(shape) != 2:
                raise DimensionMismatch("matrix codes must be 2-dimensional")
            codes = codes.tolist()
        rows = tuple(tuple(map(spec.code, r)) for r in codes)
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(r) != shape[1] for r in rows):
            raise DimensionMismatch("matrix rows must all have the same length")
        self.spec, self.shape, self._data = spec, shape, (rows, None)
        self._codes = self._rref = None

    @classmethod
    def _of(cls, spec: FieldSpec, rows: tuple[tuple[int, ...], ...],
            shape: tuple[int, int], rref: tuple | None = None,
            scale: tuple[int, ...] | None = None) -> "FieldMatrix":
        """Unchecked: for rows of valid codes that field ops produced, their
        RREF, as ``echelon`` holds it, when it is known, and a column scale
        still to be applied to the rows (``_rows``), if any."""
        m = object.__new__(cls)
        m.spec, m.shape, m._data, m._codes, m._rref = spec, shape, (rows, scale), None, rref
        return m

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Sequence[Sequence[int | FieldElement]]) -> "FieldMatrix":
        """Build from nested sequences of entries, as the constructor does."""
        return cls(spec, rows)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        m = cls.zeros(spec, n, n)
        m._data = tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), None
        return m

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "FieldMatrix":
        rows, cols = operator.index(rows), operator.index(cols)
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix dimensions {rows}x{cols}")
        return cls._of(spec, ((0,) * cols,) * rows, (rows, cols))

    @classmethod
    def diagonal(cls, spec: FieldSpec, entries: Sequence[int | FieldElement]) -> "FieldMatrix":
        return cls(spec, [[v if i == j else 0 for j in range(len(entries))]
                          for i, v in enumerate(entries)])

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """The entry codes, row by row: a pending column scale (``_data``,
        left by ``diag_product``) is applied on the first read and kept.
        Only this module reads the rows."""
        rows, scale = self._data
        if scale is not None:
            rows = _scale_columns(self.spec, rows, scale)
            self._data = rows, None  # one store: a concurrent reader sees either pair
        return rows

    @property
    def codes(self):
        """The entry codes as a read-only, C-ordered int64 numpy array,
        built on first access and then kept."""
        if self._codes is None:
            import numpy as np
            codes = np.array(self._rows, dtype=np.int64).reshape(self.shape)
            codes.setflags(write=False)
            self._codes = codes
        return self._codes

    def echelon(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...],
                               tuple[int, ...] | None]:
        """The cached RREF as (rows R, pivot columns P, scale d), built by
        ``row_reduce`` on first use: with d None, R itself; else row i
        of the RREF is R_ij * d_j / d_(P_i), for a nonzero column scaling
        d carried over by ``diag_product`` and not yet applied."""
        if self._rref is None:
            rows = [list(r) for r in self._rows]
            pivots = row_reduce(rows, self.spec)
            self._rref = tuple(map(tuple, rows)), tuple(pivots), None
        return self._rref

    def rref(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The reduced row-echelon form as (rows, pivot columns), zero rows
        last, with any pending scaling applied and kept."""
        rows, pivots, scale = self.echelon()
        if scale is not None:
            inverses = [self.spec.inv_code(scale[p]) for p in pivots]
            rows = _scale_columns(self.spec, rows, scale, inverses) + rows[len(pivots):]
            self._rref = rows, pivots, None
        return rows, pivots

    def __getitem__(self, key: tuple[int, int]) -> FieldElement:
        i, j = key
        return FieldElement(self.spec, self._rows[i][j])

    def row(self, i: int) -> list[FieldElement]:
        return [FieldElement(self.spec, c) for c in self._rows[i]]

    def col(self, j: int) -> list[FieldElement]:
        return [FieldElement(self.spec, r[j]) for r in self._rows]

    def transpose(self) -> "FieldMatrix":
        cols = tuple(zip(*self._rows)) if self.rows else ((),) * self.cols
        return FieldMatrix._of(self.spec, cols, (self.cols, self.rows))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (self.spec.field_id == other.spec.field_id and self.shape == other.shape
                and self._rows == other._rows)

    __hash__ = None

    def __repr__(self) -> str:
        return f"FieldMatrix({self.spec}, {self.rows}x{self.cols})"


def _row_times(spec: FieldSpec, xs: Sequence[int], rows, cols: int) -> list[int]:
    """sum_i x_i * row_i over code rows of length ``cols``: zeros if none."""
    mul, add, out = spec.mul_code, spec.add_code, [0] * cols
    for x, row in zip(xs, rows):
        if x:
            out = [add(o, mul(x, y)) for o, y in zip(out, row)]
    return out


def mat_mul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Standard matrix product over the common field."""
    if a.spec.field_id != b.spec.field_id:
        raise FieldMismatch(f"{a.spec} vs {b.spec}")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.shape} x {b.shape}")
    spec, b_rows = a.spec, b._rows
    rows = tuple(tuple(_row_times(spec, r, b_rows, b.cols)) for r in a._rows)
    return FieldMatrix._of(spec, rows, (a.rows, b.cols))


def _scale_columns(spec: FieldSpec, rows, scale: Sequence[int],
                   left: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """The rows with entry j of each multiplied by scale_j; with ``left``,
    diag(left) . rows . diag(scale) on the first len(left) rows."""
    mul = spec.mul_code
    if left is not None:
        rows = [[mul(c, x) for x in r] for c, r in zip(left, rows)]
    return tuple(tuple(map(mul, r, scale)) for r in rows)


def diag_product(left: Sequence[int] | None, a: FieldMatrix, right: Sequence[int]) -> FieldMatrix:
    """diag(left) . a . diag(right) for element codes: entry (i, j) is
    left_i * a_ij * right_j; with ``left`` None, a_ij * right_j. Callers
    validate the diagonals.

    With ``left`` None no entry is multiplied: the result keeps the rows of
    ``a`` unscaled, with ``right`` joining their pending column scale, in
    O(n) products, and its rows are scaled when first read (``_rows``).
    When every entry of both is nonzero, a cached RREF of ``a`` is carried
    over, ``right`` joining its pending scale: the left scaling keeps it,
    and row i of it becomes R_ij * right_j / right_(P_i), for its pivot
    column P_i."""
    spec = a.spec
    mul = spec.mul_code
    rows, scale = a._data
    scale = tuple(right) if scale is None else tuple(map(mul, scale, right))
    if left is not None:
        rows, scale = _scale_columns(spec, rows, scale, left), None
    rref = a._rref
    if rref is not None and 0 not in right and (left is None or 0 not in left):
        reduced, pivots, pending = rref
        rref = reduced, pivots, tuple(right if pending is None else map(mul, pending, right))
    else:
        rref = None
    return FieldMatrix._of(spec, rows, a.shape, rref, scale)


def row_reduce(rows: list[list[int]], spec: FieldSpec) -> list[int]:
    """Row-reduce a list of code rows in place to RREF (pivots 1, zeros
    above and below them); return the pivot columns.

    Pivot choice: first nonzero entry at or below the next pivot row,
    columns left to right, swapped into place.
    """
    mul, add, neg = spec.mul_code, spec.add_code, spec.neg_code
    nr = len(rows)
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        src = next((r for r in range(top, nr) if rows[r][col]), None)
        if src is None:
            continue
        pivots.append(col)
        # rows from top down are zero left of col, so work on columns col..
        prow = rows[src]
        rows[src] = rows[top]
        inv = spec.inv_code(prow[col])
        tail = [mul(inv, x) for x in prow[col:]]
        prow[col:] = tail
        rows[top] = prow
        for r in range(nr):
            row = rows[r]
            f = row[col]
            if f and r != top:  # x - f * y, as x + (-f) * y: one negation per row
                f = neg(f)
                row[col:] = [add(x, mul(f, y)) if y else x for x, y in zip(row[col:], tail)]
        if top == nr - 1:
            break
    return pivots


def rank(a: FieldMatrix) -> int:
    """The number of pivots of the cached RREF."""
    return len(a.echelon()[1])


def is_nonsingular(a: FieldMatrix) -> bool:
    if a.rows != a.cols:
        raise NotSquare(f"{a.shape} matrix")
    return rank(a) == a.rows


def submatrix(a: FieldMatrix, row_indices: Sequence[int], col_indices: Sequence[int]) -> FieldMatrix:
    """Rows and columns selected by strictly increasing index lists."""
    rows_at, cols_at = (list(map(operator.index, idx)) for idx in (row_indices, col_indices))
    for name, idx, bound in (("row", rows_at, a.rows), ("col", cols_at, a.cols)):
        if any(not 0 <= i < bound for i in idx):
            raise IndexOutOfRange(f"{name} index out of range in {idx}")
        if any(x >= y for x, y in zip(idx, idx[1:])):
            raise NotStrictlyIncreasing(f"{name} indices {idx}")
    rows = tuple(tuple(a._rows[i][j] for j in cols_at) for i in rows_at)
    return FieldMatrix._of(a.spec, rows, (len(rows_at), len(cols_at)))


def solve(a: FieldMatrix, b: Sequence[int | FieldElement]) -> list[FieldElement]:
    """Unique x with a @ x = b, for square nonsingular a; each entry of b
    is read by ``FieldSpec.code``."""
    if a.rows != a.cols:
        raise NotSquare(f"{a.shape} matrix")
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} for {a.shape}")
    spec = a.spec
    aug = [[*row, spec.code(v)] for row, v in zip(a._rows, b)]
    pivots = row_reduce(aug, spec)
    if pivots != list(range(a.rows)):
        raise Singular(f"matrix of rank {len(pivots)} in solve")
    return [FieldElement(spec, row[-1]) for row in aug]


def vec_mat_mul(v: Sequence[int | FieldElement], a: FieldMatrix) -> list[FieldElement]:
    """Row vector times matrix; each entry of v is read by
    ``FieldSpec.code``."""
    if len(v) != a.rows:
        raise DimensionMismatch(f"vector length {len(v)} for {a.shape}")
    spec = a.spec
    codes = list(map(spec.code, v))
    return [FieldElement(spec, c) for c in _row_times(spec, codes, a._rows, a.cols)]


def embed_matrix(a: FieldMatrix, target: FieldSpec) -> FieldMatrix:
    """Entrywise constant-polynomial embedding of a prime-field matrix.

    The embedding is the identity on codes, so only the field tag
    changes; the result shares the rows of ``a``, any pending column scale
    and any cached RREF.
    """
    if a.spec.t != 1:
        raise FieldMismatch("embedding is defined on prime-field matrices")
    if a.spec.p != target.p:
        raise CharacteristicMismatch(f"cannot embed {a.spec} matrix into {target}")
    rows, scale = a._data
    return FieldMatrix._of(target, rows, a.shape, a._rref, scale)


def to_systematic(g: FieldMatrix) -> FieldMatrix:
    """Reduced row-echelon form [I_k | A]; the row space is unchanged.

    No column permutation is performed: the leading k x k block must
    already be nonsingular, else LeadingBlockSingular. Rank-deficient
    input raises RankDeficient. This is the cached RREF of ``g``, and its
    own RREF.
    """
    reduced, pivots = g.rref()
    if len(pivots) < g.rows:
        raise RankDeficient(f"rank {len(pivots)} < {g.rows} rows")
    if pivots != tuple(range(g.rows)):
        raise LeadingBlockSingular(f"pivot columns {list(pivots)}")
    return FieldMatrix._of(g.spec, reduced, g.shape, (reduced, pivots, None))

