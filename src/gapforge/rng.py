"""Deterministic random number generation for scheme sampling.

Encoding schemes must be reproducible from a seed across runs and across
reimplementations, so the generator is pinned down exactly rather than
delegated to a library whose stream might change: SplitMix64 (Steele,
Lea, Flood 2014), the same fixed-increment construction used by
java.util.SplittableRandom and as the seeding PRNG in xoshiro.

State update and output, all arithmetic mod 2**64:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    out = z ^ (z >> 31)

A field element digit is the top two bits of one output word
(``out >> 62``).  Bulk Monte Carlo estimation elsewhere in the package
uses numpy's seeded generators instead; only artifacts whose bytes must
be reproducible (sampled schemes, derived stage seeds) go through this
module.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def next_digit(self) -> int:
        """Uniform field element digit in 0..3 (top two bits of one word)."""
        return self.next_u64() >> 62


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("ascii"):
        h ^= b
        h = (h * 0x100000001B3) & _MASK64
    return h


def derive_seed(root: int, tag: str) -> int:
    """Stage seed derived from a root seed and an ASCII tag.

    Defined as one SplitMix64 output of ``root XOR fnv1a64(tag)``.  Used by
    the pipeline so each stage gets an independent, documented stream.
    """
    return _mix(((root & _MASK64) ^ _fnv1a64(tag)) & _MASK64)
