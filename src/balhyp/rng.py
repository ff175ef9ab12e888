"""Seeded, splittable random streams.

Every randomized operation in this package takes a seed and derives its
generator through `rng_for`, so identical (inputs, seed) give bit-identical
results on every platform.  Streams are split by extending the entropy
tuple: `rng_for(seed, cell, trial)` is independent of `rng_for(seed, cell)`
and of any other extension, and adding new stream indices never perturbs
existing ones.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, tuple]


def as_stream(seed: SeedLike) -> tuple:
    """The entropy tuple of `seed`, to be extended with stream indices."""
    if isinstance(seed, tuple):
        return tuple(int(x) for x in seed)
    return (int(seed),)


def rng_for(seed, *stream: int) -> np.random.Generator:
    """Return a PCG64 generator for `seed` extended by `stream` indices.

    `seed` may be an int or a tuple of ints; all components must be
    non-negative integers.
    """
    if isinstance(seed, tuple):
        entropy = list(seed) + list(stream)
    else:
        entropy = [int(seed)] + list(stream)
    if any(int(x) < 0 for x in entropy):
        raise ValueError(f"seed components must be non-negative: {entropy}")
    ss = np.random.SeedSequence([int(x) for x in entropy])
    return np.random.Generator(np.random.PCG64(ss))
