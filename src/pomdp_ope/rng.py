"""Deterministic random-stream derivation.

Every stochastic routine in this package is seeded with a 64-bit integer.
Experiment drivers derive one independent stream per (replication, unit)
from a single master seed, so results are independent of chunking and
scheduling order.
"""

from __future__ import annotations

import numpy as np


def derive_seed(master_seed: int, *path: int) -> int:
    """Hash (master_seed, path...) into an independent 64-bit stream seed."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Generator for a derived 64-bit seed."""
    return np.random.default_rng(np.random.SeedSequence(int(seed)))
