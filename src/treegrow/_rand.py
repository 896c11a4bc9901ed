"""Deterministic randomness utilities.

All randomness in the package flows from a 64-bit master seed through a
counter-based derivation keyed by purpose tokens, so runs are reproducible
across platforms and independent streams can be handed to parallel chains.

Random decisions against exact rational thresholds, given as integer
pairs ``(num, den)``, are made by lazily extending the binary expansion of
a uniform variate until the comparison is decided, so no floating point
ever enters a sampled trajectory.
"""

from __future__ import annotations

import hashlib
import random

_CHUNK = 32  # bits appended per refinement of a lazy uniform


def derive_seed(master_seed, *tokens) -> int:
    """Derive a 64-bit stream seed from a master seed and purpose tokens.

    Tokens may be strings, ints, or (nested) tuples of those, e.g. an
    Ulam-Harris word. The derivation is a hash of the canonical repr, so
    it is stable across platforms and process invocations.
    """
    payload = repr((int(master_seed),) + tokens).encode("ascii")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master_seed, *tokens) -> random.Random:
    """A private ``random.Random`` stream for the given purpose tokens."""
    return random.Random(derive_seed(master_seed, *tokens))


class LazyUniform:
    """A uniform variate on [0, 1) revealed one block of bits at a time.

    Comparisons against exact rationals refine the dyadic interval
    ``[bits/2^k, (bits+1)/2^k)`` containing the variate until the answer
    is determined. Repeated queries against the same instance are
    consistent: they all refer to one realized uniform, which is what a
    shared-threshold coupling needs.
    """

    __slots__ = ("_rng", "_bits", "_k")

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._bits = 0
        self._k = 0

    def _refine(self):
        self._bits = (self._bits << _CHUNK) | self._rng.getrandbits(_CHUNK)
        self._k += _CHUNK

    def is_below(self, num: int, den: int) -> bool:
        """Decide ``U <= num/den`` exactly (the boundary has measure zero).

        Every comparison is a cross-multiplication, so the answer and the
        bits drawn depend only on the value of ``num/den``: an unreduced
        pair decides exactly as its reduced form does.
        """
        if num <= 0:
            return False
        if num >= den:
            return True
        while True:
            # U lies in [bits/2^k, (bits+1)/2^k)
            scaled = num << self._k
            if (self._bits + 1) * den <= scaled:
                return True
            if self._bits * den >= scaled:
                return False
            self._refine()


def bernoulli(rng: random.Random, num: int, den: int) -> bool:
    """Exact Bernoulli(num/den) draw using a fresh lazily-expanded uniform; ``den > 0``."""
    return LazyUniform(rng).is_below(num, den)
