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
import operator
import random

from .errors import DomainError

CHUNK = 32  # bits appended per refinement of a lazy uniform


def derive_seed(master_seed, *tokens) -> int:
    """Derive a 64-bit stream seed from a master seed and purpose tokens.

    Tokens may be strings, ints, or (nested) tuples of those, e.g. an
    Ulam-Harris word. The derivation is a hash of the canonical repr, so
    it is stable across platforms and process invocations.  The master
    seed must be an integer: a float or a string would be truncated or
    parsed into the stream of some other seed.
    """
    try:
        seed = operator.index(master_seed)
    except TypeError:
        raise DomainError(f"a seed must be an integer, got {master_seed!r}") from None
    payload = repr((seed,) + tokens).encode("ascii")
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
    shared-threshold coupling needs.  A variate may start from bits
    already drawn (``bits``, ``k``).
    """

    __slots__ = ("_rng", "_bits", "_k")

    def __init__(self, rng: random.Random, bits: int = 0, k: int = 0):
        self._rng = rng
        self._bits = bits
        self._k = k

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
        bits, k = self._bits, self._k
        while True:
            # [bits/2^k, (bits+1)/2^k) lies below num/den, above it, or across it and is refined
            scaled = num << k
            if (bits + 1) * den <= scaled:
                return True
            if bits * den >= scaled:
                return False
            self._bits = bits = (bits << CHUNK) | self._rng.getrandbits(CHUNK)
            self._k = k = k + CHUNK


def bernoulli(rng: random.Random, num: int, den: int) -> bool:
    """Exact Bernoulli(num/den) draw on a fresh uniform; ``den > 0``.

    It draws the bits ``LazyUniform(rng).is_below(num, den)`` would, since
    that refines at least once when ``0 < num < den``; the first chunk
    almost always decides, and only when it straddles ``num/den`` is a
    ``LazyUniform`` made to refine it.
    """
    if num <= 0:
        return False
    if num >= den:
        return True
    bits, scaled = rng.getrandbits(CHUNK), num << CHUNK
    if (bits + 1) * den <= scaled:
        return True
    if bits * den >= scaled:
        return False
    return LazyUniform(rng, bits, CHUNK).is_below(num, den)
