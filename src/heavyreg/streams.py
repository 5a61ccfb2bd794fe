"""Deterministic random-stream management for the Monte Carlo harness.

Every random draw in an experiment comes from a substream keyed by
``(master_seed, purpose, replication)``.  Streams are independent PCG64
generators spawned through :class:`numpy.random.SeedSequence`, so results do
not depend on scheduling order or on how replications are split across
workers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Stable purpose registry. The integer codes are part of the reproducibility
# contract: changing them changes every downstream stream.
PURPOSES = {
    "signal": 0,
    "design": 1,
    "noise": 2,
}


def substream(master_seed: int, purpose: str, replication: int = 0) -> np.random.Generator:
    """Return the generator for one ``(seed, purpose, replication)`` cell.

    Parameters
    ----------
    master_seed : int
        Nonnegative experiment-level seed.
    purpose : str
        One of ``"signal"``, ``"design"``, ``"noise"``.
    replication : int
        Replication index, >= 0. Frozen quantities (signal vectors) use 0.
    """
    if master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")
    if replication < 0:
        raise ConfigError(f"replication must be >= 0, got {replication}")
    try:
        code = PURPOSES[purpose]
    except KeyError:
        raise ConfigError(f"unknown stream purpose {purpose!r}; expected one of {sorted(PURPOSES)}") from None
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(code, replication))
    return np.random.Generator(np.random.PCG64(ss))
