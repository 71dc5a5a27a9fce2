"""numpy kernels behind ``codes``: the projective codeword enumeration
(``weight_distribution``, and ``min_distance`` for a code it cannot
decide by minors) and the Laplace minor pass (``singular_minor``,
``is_mds``) above ``codes.SCALAR_PASS_MINORS`` or without Zech tables,
over the same minors of the RREF's non-pivot block as the scalar pass. With
``FieldSpec``'s array tables, the only code that uses numpy; ``codes``
imports it on first use, so fields, matrices, lifts, erasure coding and
the minor checks of small codes run without numpy."""

from __future__ import annotations

import functools
from math import comb
from typing import Iterator

import numpy as np

from .codes import LinearCode, _free_columns
from .field import FieldSpec
from .matrix import FieldMatrix

_CHUNK = 1 << 16  # messages per enumeration block
_MINOR_BLOCK = 1 << 14  # products per block of the minor pass


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


@functools.lru_cache(maxsize=16)  # a small pass's plans; a block is 2 x 2^14 indices at most
def _plan_block(n: int, i: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """``cols``, whose column s is the i-set S of lex rank start + s, and
    ``sub``, where sub[r, s] is the lex rank of S - S[r] among the
    (i-1)-sets; both i x (stop - start). An m-set T has rank
    C(n, m) - 1 - sum_j C(n - 1 - T[j], m - j); the sets come from peeling
    that sum greedily, one position at a time."""
    binom = np.zeros((i + 1, n), dtype=np.int64)  # binom[b, a] = C(a, b)
    binom[0] = 1
    for b in range(1, i + 1):
        np.cumsum(binom[b - 1, :-1], out=binom[b, 1:])
    rest = comb(n, i) - 1 - np.arange(start, stop, dtype=np.int64)
    cols, hi, lo = (np.empty((i, stop - start), dtype=np.int64) for _ in range(3))
    for j in range(i):
        c = np.searchsorted(binom[i - j], rest, side="right") - 1
        cols[j], hi[j], lo[j] = n - 1 - c, binom[i - j, c], binom[i - 1 - j, c]
        rest -= hi[j]
    # in the rank of S - S[r], S[j] keeps term j (lo) for j < r and takes term j - 1 (hi) for j > r
    sub = comb(n, i - 1) - 1 - (lo.cumsum(axis=0) - lo) - (hi[::-1].cumsum(axis=0)[::-1] - hi)
    for arr in (cols, sub):
        arr.setflags(write=False)  # shared by every caller through the cache
    return cols, sub


def _laplace(spec: FieldSpec, block: np.ndarray, below: np.ndarray, rows: np.ndarray,
             prev: np.ndarray, cols: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """The j x j minors of an h x w matrix M, h <= w, held transposed in
    ``block``, on its row sets ``rows`` and column sets ``cols`` (j x R
    and j x B, a set per column), as a B x R array, each expanded along
    row I[-1]: sum_r (-1)^(j-1+r) M[I[-1], J[r]] * below[sub[r, J], prev[I]],
    with ``below`` the (j-1) x (j-1) minors held the same way, prev[I]
    the rank of I - I[-1] and sub[r, J] that of J - J[r]. Products come
    from ``mul_array`` and are summed digit-wise, so no table is needed."""
    j = len(cols)
    terms = spec.coords_array(spec.mul_array(block.take(rows[-1], axis=1).take(cols, axis=0),
                                             below.take(sub, axis=0).take(prev, axis=2)))
    plus = (j - 1) % 2  # term r has sign (-1)^(j-1+r)
    return (terms[plus::2].sum(axis=0) - terms[1 - plus::2].sum(axis=0)) % spec.p \
        @ spec._array_tables()[3]


def _first_zero(dets: np.ndarray, rows: np.ndarray, cols: np.ndarray, sides, n: int
                ) -> tuple[int, ...]:
    """Lex-first k-set P ^ I' ^ J' over the zeros of ``dets`` (B x R, on
    ``cols`` and ``rows``), P the pivot columns ``sides[0]`` and I', J'
    the columns that the sets stand for in ``sides[1]``, ``sides[2]``.
    On sets of one size, lex order is descending order of the membership
    bits, column x worth 2^(n-1-x); keys compare 62 columns at a time."""
    c, r = np.divmod(np.flatnonzero(dets == 0), dets.shape[1])
    pivots, rows, cols = sides[0], sides[1][rows], sides[2][cols]
    keep = np.arange(len(r))
    for lo in range(0, n, 62):
        weight = np.zeros(n, dtype=np.int64)
        span = weight[lo:lo + 62]
        span[:] = 1 << np.arange(61, 61 - len(span), -1)
        key = (int(weight[pivots].sum()) ^ weight[rows].sum(axis=0)[r[keep]]
               ^ weight[cols].sum(axis=0)[c[keep]])
        keep = keep[key == key.max()]
    return tuple(sorted(set(pivots.tolist()) ^ set(rows[:, r[keep[0]]].tolist())
                        ^ set(cols[:, c[keep[0]]].tolist())))


def first_singular(a: FieldMatrix) -> tuple[int, ...] | None:
    """Lex-first k-column set whose k x k minor of the k x n matrix ``a``
    is zero, k >= 1, or None; every set when ``a`` has rank below k.

    The minors are those of ``codes._scalar_first_singular``, of M = A or
    A^T, whichever has fewer rows, for the non-pivot block A of the RREF,
    its pending scale unread (a nonzero factor on each square minor).
    Level j is built from level j - 1 for all row sets at once and blocks
    of column sets, at most ``_MINOR_BLOCK`` products a block; only two
    levels are held, and the last is checked block by block, not kept.
    """
    k, n = a.shape
    reduced, pivots, _ = a.echelon()
    if len(pivots) < k:
        return tuple(range(k))
    free = _free_columns(n, pivots)
    block = np.array([r[j] for j in free for r in reduced], dtype=np.int64).reshape(n - k, k)
    # the pivots, and the columns that the rows and the columns of M stand for
    sides = [np.array(pivots), np.array(pivots), np.array(free, dtype=np.int64)]
    if k > n - k:
        block, sides[1:] = block.T, sides[2:0:-1]
    w, h = block.shape  # block is M^T
    found = [] if block.all() else [_first_zero(block, np.arange(h)[None], np.arange(w)[None],
                                                sides, n)]
    below = block
    for j in range(2, h + 1):
        rows, prev = _plan_block(h, j, 0, comb(h, j))
        size, step = comb(w, j), max(1, _MINOR_BLOCK // (j * rows.shape[1]))
        level = np.empty((size, rows.shape[1]), dtype=np.int64) if j < h else None
        for start in range(0, size, step):
            cols, sub = _plan_block(w, j, start, min(start + step, size))
            dets = _laplace(a.spec, block, below, rows, prev[-1], cols, sub)
            if level is not None:  # the last level is only checked, block by block
                level[start:start + len(dets)] = dets
            if not dets.all():
                found.append(_first_zero(dets, rows, cols, sides, n))
        below = level
    return min(found, default=None)
