"""Deterministic, replayable random streams.

Everything random in this package flows through one primitive so that a
fixed seed reproduces bit-identical results here and in any reimplementation
that follows the formulas below (64-bit unsigned arithmetic, wrapping).

Word stream (counter-based SplitMix64): output ``i`` (0-based) of the stream
seeded with ``s`` is::

    mix64(s + (i + 1) * 0x9E3779B97F4A7C15)

where ``mix64`` is the SplitMix64 finalizer::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniform doubles take the top 53 bits of a word: ``(w >> 11) * 2**-53``,
giving values in [0, 1). Normal deviates use the Box-Muller transform on
consecutive uniform pairs (u1, u2)::

    r  = sqrt(-2 * ln(1 - u1))
    z0 = r * cos(2*pi*u2)
    z1 = r * sin(2*pi*u2)

(``1 - u1`` keeps the logarithm argument inside (0, 1].) A request for n
normals consumes exactly 2*ceil(n/2) words and returns z0, z1, z0, z1, ...
truncated to n. Permutations are Fisher-Yates, drawing one word per step and
reducing it modulo the remaining range (the modulo bias is < n * 2**-64,
irrelevant at any size this package handles).

Child seeds derive from a parent seed by folding keys in order::

    derive_seed(s, k1, k2, ...) : s = mix64(s + (k + 1) * 0x9E3779B97F4A7C15)

applied once per key. Scope constants below keep unrelated consumers of the
same user-facing seed on disjoint streams.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Scope keys for derive_seed, one per independent consumer of a seed.
SCOPE_INIT = 1          # alignment weight initialization (then layer index)
SCOPE_SHUFFLE = 2       # alignment epoch shuffles (then epoch index)
SCOPE_CLASS_MEAN = 3    # synthetic class mean directions (then class id)
SCOPE_PROTOTYPE = 4     # synthetic prototype perturbations (then class id)
SCOPE_TRAIN = 5         # synthetic train samples (then class id)
SCOPE_TEST = 6          # synthetic test samples (then class id)
SCOPE_TRIAL = 7         # experiment trial seeds (then trial index)
SCOPE_STREAM = 8        # per-session evaluation stream order
SCOPE_SHOTS = 9         # per-class novel shot subsetting (then class id)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit unsigned integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Fold keys into a parent seed, one finalizer application per key."""
    s = seed & _MASK
    for k in keys:
        s = mix64((s + ((int(k) & _MASK) + 1) * _GOLDEN) & _MASK)
    return s


# Words are mixed in blocks of this many (256 KB), so that the finalizer's
# passes over a block stay in cache.
_WORD_BLOCK = 1 << 15
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))


class Stream:
    """Sequential view over the counter-based word stream for one seed."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._consumed = 0

    def words(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words as a uint64 array, mixed in place one
        block at a time."""
        out = np.empty(n, dtype=np.uint64)
        t = np.empty(min(n, _WORD_BLOCK), dtype=np.uint64)
        first = self._consumed + 1
        self._consumed += n
        for s in range(0, n, _WORD_BLOCK):
            z, tz = out[s:s + _WORD_BLOCK], t[:n - s]
            idx = np.arange(first + s, first + s + z.size, dtype=np.uint64)
            np.multiply(idx, np.uint64(_GOLDEN), out=z)
            z += np.uint64(self.seed)
            z ^= np.right_shift(z, _S30, out=tz)
            z *= np.uint64(_M1)
            z ^= np.right_shift(z, _S27, out=tz)
            z *= np.uint64(_M2)
            z ^= np.right_shift(z, _S31, out=tz)
        return out

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), drawn one block of words at a time."""
        out = np.empty(n, dtype=np.float64)
        for s in range(0, n, _WORD_BLOCK):
            w = self.words(min(n - s, _WORD_BLOCK))
            np.multiply(np.right_shift(w, _S11, out=w), 2.0 ** -53, out=out[s:s + w.size])
        return out

    def normal(self, n: int) -> np.ndarray:
        """n standard normal deviates via Box-Muller."""
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        draws = self.words(n - 1)
        for step, i in enumerate(range(n - 1, 0, -1)):
            j = int(draws[step]) % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
