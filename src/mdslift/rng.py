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
reduce mod bound. Sampling without replacement is a partial
Fisher-Yates shuffle of the population list in its given order; the
first ``count`` slots are the sample. These procedures are part of the
package's reproducibility contract.

``sample`` computes the same words, several at a time: lane i of one
Python int holds the state s + (i + 1) * gamma in bits 128i .. 128i + 63,
and each step of the mix above acts on every lane at once. A 64-bit lane
times a 64-bit constant stays below 2^128, so no lane carries into the
next; a mask back to 64 bits per lane after each step does what mod 2^64
does on one word. The words are read out with ``int.to_bytes`` and
``struct``, and the shuffle takes them in order, as ``next_u64`` would
return them; a word the shuffle rejects ends its batch, and the rest are
drawn in a new batch from the state after it. The stream is unchanged.
"""

from __future__ import annotations

import functools
import struct
from typing import Sequence, TypeVar

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Most words ``sample`` draws in one packed mix; the lane constants are
#: cached for each width up to it.
_LANES = 32

T = TypeVar("T")


class SplitMix64:
    """Deterministic 64-bit generator with a single word of state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if not 0 < bound <= _TWO64:  # above 2^64 every word would be rejected
            raise ValueError(f"bound must be in [1, 2^64], got {bound}")
        threshold = _TWO64 - _TWO64 % bound
        while True:
            z = self.next_u64()
            if z < threshold:
                return z % bound

    def sample(self, population: Sequence[T], count: int) -> list[T]:
        """``count`` distinct items, via partial Fisher-Yates.

        The population is not copied: ``moved`` maps each slot the
        shuffle has written to the population index it now holds. Each
        draw is ``below(size - i)`` on the next word of a packed batch
        (``_lanes``); only a word of at least 2^64 - size can be rejected.
        """
        size = len(population)
        if count > size:
            raise ValueError("sample larger than population")
        two64, mask, gamma = _TWO64, _MASK64, _GAMMA
        safe = two64 - size  # below each threshold 2^64 - 2^64 % bound > 2^64 - bound
        moved: dict[int, int] = {}
        out = []
        state, i = self._state, 0
        while i < count:
            start = i
            ones, steps, masks, words = _lanes(min(count - i, _LANES))
            z = (state * ones + steps) & masks
            z = ((z ^ z >> 30) & masks) * 0xBF58476D1CE4E5B9 & masks
            z = ((z ^ z >> 27) & masks) * 0x94D049BB133111EB & masks
            z ^= z >> 31  # what lane i + 1 shifts into lane i is not read
            for word in words(z):
                bound = size - i
                if word >= safe and word >= two64 - two64 % bound:
                    state += gamma  # rejected: the next batch starts after this word
                    break
                j = i + word % bound
                out.append(population[moved.get(j, j)])
                moved[j] = moved.get(i, i)
                i += 1
            state = (state + (i - start) * gamma) & mask
        self._state = state
        return out


@functools.lru_cache(maxsize=None)  # one entry per width, and widths are at most _LANES
def _lanes(width: int):
    """For ``width`` lanes of 128 bits: 1 in each lane, (i + 1) * gamma mod
    2^64 in lane i, 2^64 - 1 in each lane, and a function that reads the
    low 64 bits of each lane of such an int, lane 0 first."""
    at = [128 * i for i in range(width)]
    unpack = struct.Struct("<" + "Q8x" * width).unpack
    return (sum(1 << b for b in at),
            sum((i + 1) * _GAMMA % _TWO64 << b for i, b in enumerate(at)),
            sum(_MASK64 << b for b in at),
            lambda z: unpack(z.to_bytes(16 * width, "little")))
