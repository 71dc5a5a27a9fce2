"""Systematic erasure encoding and recovery.

Operational face of the distance guarantee: a code whose every k
columns are independent can fill in any n - k missing positions.
Encoding always goes through the systematic form of the generator so
the message appears verbatim in the first k symbols; decoding solves
the k x k system on the first k surviving positions and then re-checks
every surviving symbol, so corruption that is not a pure erasure
surfaces as Inconsistent instead of a silently wrong message.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .codes import LinearCode
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    Inconsistent,
    TooManyErasures,
)
from .field import FieldElement
from .matrix import solve, submatrix, to_systematic, vec_mat_mul

#: Marker for a position whose symbol is missing.
ERASED = None


class ErasureWord:
    """A received word: per-position symbols, ERASED where missing."""

    __slots__ = ("code", "symbols")

    def __init__(self, code: LinearCode, symbols: Sequence[FieldElement | None]) -> None:
        if len(symbols) != code.n:
            raise DimensionMismatch(f"{len(symbols)} symbols for length-{code.n} code")
        for i, s in enumerate(symbols):
            if s is not None and not isinstance(s, FieldElement):
                raise TypeError(f"symbol {i} is {type(s).__name__}, not a FieldElement or None")
            if s is not None and s.spec.field_id != code.spec.field_id:
                raise FieldMismatch(f"symbol from {s.spec} in {code.spec} word")
        self.code = code
        self.symbols = tuple(symbols)

    @property
    def erased_positions(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.symbols) if s is None)

    def __repr__(self) -> str:
        shown = ["?" if s is None else str(s.code) for s in self.symbols]
        return f"ErasureWord([{' '.join(shown)}])"


def erasure_encode(code: LinearCode, message: Sequence[FieldElement]) -> list[FieldElement]:
    """Systematic codeword for a length-k message.

    The generator's cached RREF is read as [I_k | A] (identity when it
    already is systematic), so symbols 0..k-1 equal the message.
    """
    if len(message) != code.k:
        raise DimensionMismatch(f"message length {len(message)} != k={code.k}")
    return vec_mat_mul(message, to_systematic(code.generator))


def erase(code: LinearCode, codeword: Sequence[FieldElement], positions: Sequence[int]) -> ErasureWord:
    """Word with the given positions, each read by ``operator.index``,
    knocked out."""
    pos = set(map(operator.index, positions))
    for i in pos:
        if not 0 <= i < code.n:
            raise IndexOutOfRange(f"position {i} of {code.n}")
    return ErasureWord(code, [None if i in pos else s for i, s in enumerate(codeword)])


def erasure_decode(word: ErasureWord) -> list[FieldElement]:
    """Unique message consistent with every surviving symbol.

    Solves on the k lowest-index surviving positions (deterministic;
    any k positions work when the code is MDS), then re-encodes and
    compares all surviving symbols. Singular can only occur when some
    k columns of the generator are dependent, i.e. the code is not MDS.
    """
    code = word.code
    erased = word.erased_positions
    if len(erased) > code.n - code.k:
        raise TooManyErasures(f"{len(erased)} erasures, correctable at most {code.n - code.k}")
    sys_g = to_systematic(code.generator)
    cols = [i for i, s in enumerate(word.symbols) if s is not None][:code.k]
    block = submatrix(sys_g, list(range(code.k)), cols)
    message = solve(block.transpose(), [word.symbols[j] for j in cols])
    full = vec_mat_mul(message, sys_g)
    for j, s in enumerate(word.symbols):
        if s is not None and full[j] != s:
            raise Inconsistent(f"surviving symbol at position {j} matches no codeword")
    return message
