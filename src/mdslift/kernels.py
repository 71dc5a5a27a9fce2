"""numpy kernels behind ``codes``: the projective codeword enumeration
(``weight_distribution``, and ``min_distance`` for a code it cannot
decide by minors) and the Laplace minor pass (``singular_minor``,
``is_mds``) for shapes above ``codes.SCALAR_PASS_PRODUCTS``. With
``FieldSpec``'s array tables, the only code that uses numpy; ``codes``
imports it on first use, so fields, matrices, lifts, erasure coding and
the minor checks of small codes run without numpy."""

from __future__ import annotations

import functools
from math import comb
from typing import Iterator

import numpy as np

from .codes import LinearCode
from .field import FieldSpec
from .matrix import FieldMatrix

_CHUNK = 1 << 16  # messages per enumeration block
_MINOR_BLOCK = 1 << 14  # column sets per block of the minor pass
_PLAN_CACHE = 1 << 17  # largest one-block level plan, in column indices, kept across calls


def _projective_weights(code: LinearCode) -> Iterator[np.ndarray]:
    """Weights of one codeword per projective point, a chunk at a time.

    Nonzero multiples share a weight, so the messages (0, ..., 0, 1, tail)
    stand for all q^k - 1. Over F_p each g[i, j] is a t x t multiplication
    map, so encoding is one integer matrix product with the (k*t) x (n*t)
    block matrix ``lmat``. The caller has checked the size
    (``codes._projective_points``).
    """
    spec = code.spec
    p, t, k, n = spec.p, spec.t, code.k, code.n
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


def min_weight(code: LinearCode) -> int:
    """Least weight of a nonzero codeword; stops early at weight 1."""
    best = code.n
    for weights in _projective_weights(code):
        best = min(best, int(weights.min()))
        if best == 1:
            break
    return best


def projective_weight_counts(code: LinearCode) -> list[int]:
    """Entry w counts the projective points whose codewords have weight w."""
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for weights in _projective_weights(code):
        counts += np.bincount(weights, minlength=code.n + 1)
    return counts.tolist()


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
    return (sign @ terms) % spec.p @ spec._array_tables()[3]  # digit-wise signed sum


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


def first_singular(a: FieldMatrix, last: bool = False) -> tuple[int, ...] | None:
    """Column set of the first (or last) zero k x k minor of the k x n
    matrix ``a``, k >= 1, in lex order; without ``last`` the pass stops at
    the first block with a zero."""
    found = None
    for cols, dets in _maximal_minors(a):
        zero = np.flatnonzero(dets == 0)
        if zero.size:
            found = tuple(cols[zero[-1 if last else 0]].tolist())
            if not last:
                break
    return found
