"""Seeded random streams on a fixed, platform-independent generator.

All randomness in the package flows through ``make_prng``, which wraps
numpy's Philox bit generator. Philox is a named counter-based generator
whose stream for a given 64-bit seed is identical on every platform, so
identical seeds reproduce identical feature maps and synthetic datasets
everywhere. Generators are cheap; give each concurrent task its own.
Callers draw from the generator directly; the random Fourier features'
inverse-CDF Cauchy recipe lives in ``featmap.rff_build``.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidSpecError

SEED_LIMIT = 2**64  # seeds are the integers in [0, SEED_LIMIT)


def make_prng(seed: int) -> np.random.Generator:
    """Create a deterministic generator from an integer seed in [0, 2**64)."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < SEED_LIMIT):
        raise InvalidSpecError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))
