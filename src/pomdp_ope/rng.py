"""Deterministic random-stream derivation.

Every stochastic routine in this package is seeded with a 64-bit integer.
Experiment drivers derive one independent stream per (replication, unit)
from a single master seed, so results are independent of chunking and
scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def _non_negative(*seeds: int) -> tuple[int, ...]:
    """The seeds as ints; ConfigurationError names the most negative one."""
    ints = tuple(map(int, seeds))
    if min(ints) < 0:
        raise ConfigurationError(f"seeds must be non-negative integers, got {min(ints)}")
    return ints


def derive_seed(master_seed: int, *path: int) -> int:
    """Hash (master_seed, path...) into an independent 64-bit stream seed."""
    master, *key = _non_negative(master_seed, *path)
    ss = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Generator for a derived 64-bit seed."""
    return np.random.default_rng(np.random.SeedSequence(*_non_negative(seed)))
