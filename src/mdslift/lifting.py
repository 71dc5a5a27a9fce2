"""Diagonal lifts of MDS codes into extension fields.

A diagonal matrix with pairwise distinct nonzero entries (the l
statistic equals 1) acts on a generator matrix by column scaling after
the base code is embedded into the larger field. The resulting code
keeps n, k and, as the tests verify instance by instance, the minimum
distance. Sampling such diagonals with a seeded generator makes every
lift in the test suite and CLI reproducible. A diagonal keeps its entry
codes, and a lift scales by them on the field's log tables, so sampling
and lifting build no ``FieldElement``.

Distinctness is not what preserves distance: any nonzero diagonal does,
as every lift is monomially equivalent to the embedded base code (Huffman
and Pless, Sec. 1.7). It makes distinct ordered diagonals give distinct
generator matrices; ``diversity_count`` counts the unordered ones.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import NamedTuple, Sequence

from .codes import DEFAULT_ENUM_LIMIT, LinearCode, is_mds, min_distance
from .errors import (
    CharacteristicMismatch,
    DegreeTooSmall,
    DimensionMismatch,
    EmptyDiagonal,
    FieldTooSmall,
    NotDh,
    NotPrime,
    TooManyCodewords,
    ZeroDiagonalEntry,
)
from .field import FieldElement, FieldSpec, is_prime
from .matrix import FieldMatrix, diag_product, embed_matrix, to_systematic
from .rng import SplitMix64


def l_statistic(diag: Sequence[FieldElement]) -> int:
    """Maximum multiplicity among the diagonal entries."""
    return _l_value([e.code for e in diag])


def _l_value(codes: Sequence[int]) -> int:
    if not codes:
        raise EmptyDiagonal("l statistic of an empty diagonal")
    return 1 if len(set(codes)) == len(codes) else max(Counter(codes).values())


class DhDiagonal:
    """Nonzero diagonal over one field with its l statistic cached.

    Entries must be nonzero but need not be distinct; ``is_dh`` tells
    the two cases apart (l_value 1 = pairwise distinct, s > 1 = s-dh).
    Either kind keeps the distance of the code it lifts.
    The entries, read by ``FieldSpec.code``, are kept as codes
    (``codes``); ``diag`` builds their ``FieldElement``s on each read.
    """

    __slots__ = ("spec", "codes", "l_value")

    def __init__(self, spec: FieldSpec, entries: Sequence[FieldElement | int]) -> None:
        codes = tuple(map(spec.code, entries))
        if 0 in codes:
            raise ZeroDiagonalEntry("diagonal entries must be nonzero")
        self.spec, self.codes, self.l_value = spec, codes, _l_value(codes)

    @classmethod
    def _of(cls, spec: FieldSpec, codes: tuple[int, ...]) -> "DhDiagonal":
        """Unchecked: for nonzero codes of ``spec``, as ``sample_dh`` draws."""
        m = object.__new__(cls)
        m.spec, m.codes, m.l_value = spec, codes, _l_value(codes)
        return m

    @property
    def diag(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, c) for c in self.codes)

    @property
    def n(self) -> int:
        return len(self.codes)

    def as_matrix(self) -> FieldMatrix:
        return FieldMatrix.diagonal(self.spec, self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DhDiagonal):
            return NotImplemented
        return self.spec.field_id == other.spec.field_id and self.codes == other.codes

    __hash__ = None

    def __repr__(self) -> str:
        return f"DhDiagonal({self.spec}, n={self.n}, l={self.l_value})"


def is_dh(m: DhDiagonal) -> bool:
    """True iff all entries are pairwise distinct (l statistic 1)."""
    return m.l_value == 1


def sample_dh(spec: FieldSpec, n: int, seed: int) -> DhDiagonal:
    """n distinct nonzero elements drawn without replacement.

    Deterministic in (spec, n, seed); the generator algorithm is fixed
    (see ``rng``), so samples are stable across platforms and runs. The
    drawn codes are kept unchecked (``DhDiagonal._of``).
    """
    n = operator.index(n)
    if n < 0:
        raise DimensionMismatch(f"n={n} is negative")
    if spec.order - 1 < n:
        raise FieldTooSmall(f"{spec} has {spec.order - 1} nonzero elements, need {n}")
    return DhDiagonal._of(spec, tuple(SplitMix64(seed).sample(range(1, spec.order), n)))


def lift(
    code: LinearCode,
    m: DhDiagonal,
    strict_dh: bool = True,
    systematize: bool = False,
) -> LinearCode:
    """Code over m.spec generated by embed(G) . diag(m).

    ``strict_dh`` insists on pairwise distinct entries; disabling it
    allows repeated-entry diagonals, which keep the distance too and reach
    more codes (the tetracode into F_9: 512 over all 4,096 nonzero
    diagonals, 210 over the 1,680 ordered dh ones). ``systematize`` applies
    reduced row echelon afterwards so the result displays an identity
    block. The lifted distance is left uncached: equality with the base
    distance is a claim to verify, not an input.
    """
    target = m.spec
    if target.p != code.spec.p:
        raise CharacteristicMismatch(f"cannot lift {code.spec} code with {target} diagonal")
    if m.n != code.n:
        raise DimensionMismatch(f"diagonal size {m.n} for length-{code.n} code")
    if target.order <= code.n:
        raise FieldTooSmall(f"need field order > {code.n}, got {target.order}")
    if strict_dh and not is_dh(m):
        raise NotDh(f"diagonal has l={m.l_value}; pass strict_dh=False to allow")
    lifted = diag_product(None, embed_matrix(code.generator, target), m.codes)
    if systematize:
        lifted = to_systematic(lifted)
    return LinearCode(lifted)


class LiftReport(NamedTuple):
    """Outcome of checking a lift against its base code."""

    n_match: bool
    k_match: bool
    lifted_mds: bool
    d_base: int | None
    d_lifted: int | None
    passed: bool

    def summary(self) -> str:
        parts = [
            f"n_match={self.n_match}",
            f"k_match={self.k_match}",
            f"lifted_mds={self.lifted_mds}",
            f"d_base={'?' if self.d_base is None else self.d_base}",
            f"d_lifted={'?' if self.d_lifted is None else self.d_lifted}",
            "PASS" if self.passed else "FAIL",
        ]
        return " ".join(parts)


def verify_lift(
    base: LinearCode,
    lifted: LinearCode,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
) -> LiftReport:
    """Empirical check that lifting preserved [n, k, d].

    Passes when n and k match, both codes get the same ``is_mds``
    verdict, and the distances agree, unless ``min_distance`` refuses
    either code (TooManyCodewords): then both distances are None.
    """
    enum_limit = operator.index(enum_limit)
    n_match = lifted.n == base.n
    k_match = lifted.k == base.k
    mds = is_mds(lifted)
    try:  # the lifted code first: its field is the larger, so it is refused first
        d_lifted, d_base = min_distance(lifted, enum_limit), min_distance(base, enum_limit)
    except TooManyCodewords:
        d_base = d_lifted = None
    passed = n_match and k_match and mds == is_mds(base) and d_base == d_lifted
    return LiftReport(n_match, k_match, mds, d_base, d_lifted, passed)


def diversity_count(p: int, t: int, n: int) -> int:
    """Number of size-n subsets of the p^t - 1 nonzero elements.

    Exact binomial C(p^t - 1, n): the unordered dh diagonals. It counts
    neither distinct generator matrices, n! * C(p^t - 1, n) (one per
    ordered diagonal), nor distinct codes (diagonals that differ by a
    common factor give one code), and every lift is equivalent to its base.
    """
    p, t, n = map(operator.index, (p, t, n))
    if not is_prime(p):
        raise NotPrime(f"p={p}")
    if t < 1:
        raise DegreeTooSmall(f"t={t}")
    if n < 0:
        raise DimensionMismatch(f"n={n} is negative")
    # no p^t for n = 0, nor to compare it with n when p^t >= 2^t > n
    if n and t <= n.bit_length() and p ** t <= n:
        raise FieldTooSmall(f"need p^t > n, got {p ** t} <= {n}")
    return math.comb(p ** t - 1, n) if n else 1
