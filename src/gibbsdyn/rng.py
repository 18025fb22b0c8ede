"""Deterministic random streams.

Every stochastic routine takes an explicit numpy Generator.  Ensembles derive
one stream per trajectory from a counter-based Philox generator keyed by
(master seed, trajectory index), so the values a trajectory sees depend only
on the seed and its own index -- never on batching, thread count, or the
order in which workers finish.
"""

from __future__ import annotations

import numpy as np

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio increment, splitmix-style


def _mix64(x: int) -> int:
    x &= 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


def stream(master_seed: int, *indices: int) -> np.random.Generator:
    """Generator for the sub-stream addressed by (master_seed, *indices)."""
    key0 = _mix64(int(master_seed))
    acc = key0
    for i in indices:
        acc = _mix64(acc + _MIX + _mix64(int(i)))
    return np.random.Generator(np.random.Philox(key=[key0, acc]))
