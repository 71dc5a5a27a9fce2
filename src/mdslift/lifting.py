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
    ZeroDiagonalEntry,
)
from .field import FieldElement, FieldSpec, is_prime
from .matrix import FieldMatrix, diag_product, embed_matrix, to_systematic
from .rng import SplitMix64


def l_statistic(diag: Sequence[FieldElement]) -> int:
    """Maximum multiplicity among the diagonal entries."""
    if len(diag) == 0:
        raise EmptyDiagonal("l statistic of an empty diagonal")
    return max(Counter(e.code for e in diag).values())


class DhDiagonal:
    """Nonzero diagonal over one field with its l statistic cached.

    Entries must be nonzero but need not be distinct; ``is_dh`` tells
    the two cases apart (l_value 1 = distance holder, s > 1 = s-dh).
    The entries, read by ``FieldSpec.code``, are kept as codes
    (``codes``); ``diag`` builds their ``FieldElement``s on each read.
    """

    __slots__ = ("spec", "codes", "l_value")

    def __init__(self, spec: FieldSpec, entries: Sequence[FieldElement | int]) -> None:
        codes = tuple(map(spec.code, entries))
        if 0 in codes:
            raise ZeroDiagonalEntry("diagonal entries must be nonzero")
        self.spec, self.codes = spec, codes
        self.l_value = 1 if len(set(codes)) == len(codes) > 0 else l_statistic(self.diag)

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
    (see ``rng``), so samples are stable across platforms and runs.
    """
    if spec.order - 1 < n:
        raise FieldTooSmall(f"{spec} has {spec.order - 1} nonzero elements, need {n}")
    picks = SplitMix64(seed).sample(range(1, spec.order), n)
    return DhDiagonal(spec, picks)


def lift(
    code: LinearCode,
    m: DhDiagonal,
    strict_dh: bool = True,
    systematize: bool = False,
) -> LinearCode:
    """Code over m.spec generated by embed(G) . diag(m).

    ``strict_dh`` insists on pairwise distinct entries; disabling it
    allows repeated-entry diagonals, which still preserve distance but
    collapse the generator-diversity count. ``systematize`` applies
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
    verdict, and the distances agree; they are enumerated only when
    q^k - 1 fits ``enum_limit`` for both codes, else that clause is skipped.
    """
    n_match = lifted.n == base.n
    k_match = lifted.k == base.k
    mds = is_mds(lifted)
    d_base = d_lifted = None
    feasible = (base.spec.order ** base.k - 1 <= enum_limit
                and lifted.spec.order ** lifted.k - 1 <= enum_limit)
    if feasible:
        d_base = min_distance(base, enum_limit)
        d_lifted = min_distance(lifted, enum_limit)
    passed = (n_match and k_match and mds == is_mds(base)
              and (not feasible or d_base == d_lifted))
    return LiftReport(n_match, k_match, mds, d_base, d_lifted, passed)


def diversity_count(p: int, t: int, n: int) -> int:
    """Number of size-n subsets of the p^t - 1 nonzero elements.

    Exact binomial C(p^t - 1, n): the unordered dh diagonals. It counts
    neither distinct generator matrices, n! * C(p^t - 1, n) (one per
    ordered diagonal), nor distinct codes (diagonals that differ by a
    common factor give one code), and every lift is equivalent to its base.
    """
    if not is_prime(p):
        raise NotPrime(f"p={p}")
    if t < 1:
        raise DegreeTooSmall(f"t={t}")
    q = p ** t
    if q <= n:
        raise FieldTooSmall(f"need p^t > n, got {q} <= {n}")
    return math.comb(q - 1, n)
