"""Seeded, portable randomness.

All sampling in this package flows through SplitMix64 so that a seed
fully determines every output, independent of platform and Python
version. The generator is the standard one:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output: z XOR (z >> 31)

Bounded draws use rejection sampling (exactly uniform, no modulo bias):
draw 64-bit words until one falls below 2^64 - (2^64 mod bound), then
reduce mod bound. ``below`` is the one loop that steps the state;
``next_u64`` is ``below(2^64)``, which accepts every word. Sampling
without replacement is a partial Fisher-Yates shuffle of the population
list in its given order; the first ``count`` slots are the sample. These
procedures are part of the package's reproducibility contract.

Inputs the generator cannot honour are refused rather than folded into
another stream: a seed outside [0, 2^64) and a negative sample count
raise ValueError, and a seed, bound or count that is not an integer
raises TypeError (each is read with ``operator.index``).
"""

from __future__ import annotations

import operator
from typing import Sequence, TypeVar

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


class SplitMix64:
    """Deterministic 64-bit generator with a single word of state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if not 0 <= seed < _TWO64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        return self.below(_TWO64)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        bound = operator.index(bound)
        if not 0 < bound <= _TWO64:  # above 2^64 every word would be rejected
            raise ValueError(f"bound must be in [1, 2^64], got {bound}")
        threshold = _TWO64 - _TWO64 % bound
        while True:
            self._state = z = (self._state + _GAMMA) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < threshold:
                return z % bound

    def sample(self, population: Sequence[T], count: int) -> list[T]:
        """``count`` distinct items, via partial Fisher-Yates.

        The population is not copied: ``moved`` maps each slot the
        shuffle has written to the population index it now holds, and
        each draw is ``below(size - i)``.
        """
        count, size = operator.index(count), len(population)
        if count > size:
            raise ValueError("sample larger than population")
        if count < 0:
            raise ValueError(f"sample count must be >= 0, got {count}")
        moved: dict[int, int] = {}
        out = []
        for i in range(count):
            j = i + self.below(size - i)
            out.append(population[moved.get(j, j)])
            moved[j] = moved.get(i, i)
        return out
