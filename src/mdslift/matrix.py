"""Dense matrices over one finite field.

Entries are stored as an integer code array (see ``field``); matrices
are immutable values, and every operation returns a new matrix.
Elimination runs on the field's scalar code ops; products run on whole
code arrays through its array ops. All elimination goes through one
kernel, ``row_reduce``, shared by rank, solve and the systematic form.
(The MDS minor check eliminates nothing: ``codes.singular_minor``
expands all minors in one Laplace pass.) Pivoting is first-nonzero
with no column permutation: coordinate positions carry meaning for
codes and erasure patterns.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

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

    __slots__ = ("spec", "_codes")

    def __init__(self, spec: FieldSpec, codes: np.ndarray) -> None:
        codes = np.asarray(codes)
        if codes.size and codes.dtype.kind not in "biu":
            raise TypeError(f"matrix codes must be integers, not {codes.dtype}")
        codes = np.array(codes, dtype=np.int64, order="C")  # a copy the caller cannot change
        if codes.ndim != 2:
            raise DimensionMismatch("matrix codes must be 2-dimensional")
        if codes.size and (codes.min() < 0 or codes.max() >= spec.order):
            raise ValueError(f"entry code out of range for {spec}")
        self.spec = spec
        self._codes = codes
        self._codes.setflags(write=False)

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Sequence[Sequence[int | FieldElement]]) -> "FieldMatrix":
        """Build from nested sequences. Integer entries are element
        codes (for prime fields, codes coincide with values)."""
        data = []
        for r in rows:
            out = []
            for v in r:
                if isinstance(v, FieldElement):
                    if v.spec.field_id != spec.field_id:
                        raise FieldMismatch(f"entry from {v.spec} in {spec} matrix")
                    out.append(v.code)
                else:
                    out.append(operator.index(v))
            data.append(out)
        return cls(spec, np.array(data, dtype=np.int64))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        return cls(spec, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "FieldMatrix":
        return cls(spec, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def diagonal(cls, spec: FieldSpec, entries: Sequence[int | FieldElement]) -> "FieldMatrix":
        n = len(entries)
        m = np.zeros((n, n), dtype=np.int64)
        for i, v in enumerate(entries):
            m[i, i] = v.code if isinstance(v, FieldElement) else operator.index(v)
        return cls(spec, m)

    @property
    def rows(self) -> int:
        return self._codes.shape[0]

    @property
    def cols(self) -> int:
        return self._codes.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._codes.shape

    @property
    def codes(self) -> np.ndarray:
        """Read-only view of the entry codes."""
        return self._codes

    def __getitem__(self, key: tuple[int, int]) -> FieldElement:
        i, j = key
        return FieldElement(self.spec, int(self._codes[i, j]))

    def row(self, i: int) -> list[FieldElement]:
        return [FieldElement(self.spec, int(c)) for c in self._codes[i]]

    def col(self, j: int) -> list[FieldElement]:
        return [FieldElement(self.spec, int(c)) for c in self._codes[:, j]]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.spec, self._codes.T)

    def to_lists(self) -> list[list[int]]:
        return self._codes.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (self.spec.field_id == other.spec.field_id
                and np.array_equal(self._codes, other._codes))

    __hash__ = None

    def __repr__(self) -> str:
        return f"FieldMatrix({self.spec}, {self.rows}x{self.cols})"


def _same_field(a: FieldMatrix, b: FieldMatrix) -> None:
    if a.spec.field_id != b.spec.field_id:
        raise FieldMismatch(f"{a.spec} vs {b.spec}")


def mat_mul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Standard matrix product over the common field."""
    _same_field(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.shape} x {b.shape}")
    spec = a.spec
    prods = spec.mul_array(a.codes[:, :, None], b.codes[None, :, :])
    return FieldMatrix(spec, spec.sum_array(prods, axis=1))


def diag_product(left: Sequence[int], a: FieldMatrix, right: Sequence[int]) -> FieldMatrix:
    """diag(left) . a . diag(right) for element codes: entry (i, j) is
    left_i * a_ij * right_j. Callers validate the diagonals."""
    spec = a.spec
    left = np.asarray(left, dtype=np.int64).reshape(a.rows, 1)
    right = np.asarray(right, dtype=np.int64).reshape(1, a.cols)
    return FieldMatrix(spec, spec.mul_array(left, spec.mul_array(a.codes, right)))


def row_reduce(rows: list[list[int]], spec: FieldSpec, reduced: bool) -> list[int]:
    """Row-reduce a list of code rows in place; return the pivot columns.

    Pivot choice: first nonzero entry at or below the next pivot row,
    columns left to right, swapped into place. ``reduced`` leaves RREF
    (pivots 1, zeros above and below them); otherwise a row echelon form
    whose last pivot row may be left unnormalized.
    """
    mul, sub = spec.mul_code, spec.sub_code
    nr = len(rows)
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        src = next((r for r in range(top, nr) if rows[r][col]), None)
        if src is None:
            continue
        pivots.append(col)
        if top == nr - 1 and not reduced:
            break  # no rows below the pivot: only RREF has anything left to clear
        # rows from top down are zero left of col, so work on columns col..
        prow = rows[src]
        rows[src] = rows[top]
        inv = spec.inv_code(prow[col])
        tail = [mul(inv, x) for x in prow[col:]]
        prow[col:] = tail
        rows[top] = prow
        for r in range(0 if reduced else top + 1, nr):
            row = rows[r]
            f = row[col]
            if f and r != top:
                row[col:] = [sub(x, mul(f, y)) if y else x for x, y in zip(row[col:], tail)]
        if top == nr - 1:
            break
    return pivots


def rank(a: FieldMatrix) -> int:
    """Row-echelon rank."""
    return len(row_reduce(a.codes.tolist(), a.spec, reduced=False))


def is_nonsingular(a: FieldMatrix) -> bool:
    if a.rows != a.cols:
        raise NotSquare(f"{a.shape} matrix")
    return rank(a) == a.rows


def submatrix(a: FieldMatrix, row_indices: Sequence[int], col_indices: Sequence[int]) -> FieldMatrix:
    """Rows and columns selected by strictly increasing index lists."""
    for name, idx, bound in (("row", row_indices, a.rows), ("col", col_indices, a.cols)):
        if any(i + 1 > bound or i < 0 for i in idx):
            raise IndexOutOfRange(f"{name} index out of range in {list(idx)}")
        if any(x >= y for x, y in zip(idx, idx[1:])):
            raise NotStrictlyIncreasing(f"{name} indices {list(idx)}")
    sel = a.codes[np.ix_(list(row_indices), list(col_indices))]
    return FieldMatrix(a.spec, sel)


def solve(a: FieldMatrix, b: Sequence[FieldElement]) -> list[FieldElement]:
    """Unique x with a @ x = b, for square nonsingular a."""
    if a.rows != a.cols:
        raise NotSquare(f"{a.shape} matrix")
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} for {a.shape}")
    spec = a.spec
    aug = [row + [spec.element(v).code] for row, v in zip(a.codes.tolist(), b)]
    pivots = row_reduce(aug, spec, reduced=True)
    if pivots != list(range(a.rows)):
        raise Singular(f"matrix of rank {len(pivots)} in solve")
    return [FieldElement(spec, row[-1]) for row in aug]


def vec_mat_mul(v: Sequence[FieldElement], a: FieldMatrix) -> list[FieldElement]:
    """Row vector times matrix."""
    if len(v) != a.rows:
        raise DimensionMismatch(f"vector length {len(v)} for {a.shape}")
    spec = a.spec
    codes = np.array([spec.element(x).code for x in v], dtype=np.int64).reshape(a.rows, 1)
    out = spec.sum_array(spec.mul_array(codes, a.codes), axis=0)
    return [FieldElement(spec, c) for c in out.tolist()]


def embed_matrix(a: FieldMatrix, target: FieldSpec) -> FieldMatrix:
    """Entrywise constant-polynomial embedding of a prime-field matrix.

    The embedding is the identity on codes, so only the field tag
    changes.
    """
    if a.spec.t != 1:
        raise FieldMismatch("embedding is defined on prime-field matrices")
    if a.spec.p != target.p:
        raise CharacteristicMismatch(f"cannot embed {a.spec} matrix into {target}")
    return FieldMatrix(target, a.codes)


def to_systematic(g: FieldMatrix) -> FieldMatrix:
    """Reduced row-echelon form [I_k | A]; the row space is unchanged.

    No column permutation is performed: the leading k x k block must
    already be nonsingular, else LeadingBlockSingular. Rank-deficient
    input raises RankDeficient.
    """
    rows = g.codes.tolist()
    pivots = row_reduce(rows, g.spec, reduced=True)
    if len(pivots) < g.rows:
        raise RankDeficient(f"rank {len(pivots)} < {g.rows} rows")
    if pivots != list(range(g.rows)):
        raise LeadingBlockSingular(f"pivot columns {pivots}")
    return FieldMatrix(g.spec, np.array(rows, dtype=np.int64).reshape(g.shape))

