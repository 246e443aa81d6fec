"""Deterministic random stream derivation.

Everything stochastic in this package draws from counter-based Philox
generators keyed by ``(master_seed, lane, index)`` through numpy's
``SeedSequence`` spawning. Replicate ``r`` of an experiment always sees the
stream ``(master_seed, TRAJECTORY_LANE, r)`` no matter how work is split
across workers, which is what makes Monte Carlo results independent of the
worker count and lets a comparator run replay the exact noise of a main run.

Lanes:

* 0 -- replicate trajectories (and their shared-noise comparators)
* 1 -- independent comparator streams (decoupled negative controls)
* 2 -- expected-gate-increment (E0) Monte Carlo estimation
* 3 -- validation sampling
"""

from __future__ import annotations

import numpy as np

TRAJECTORY_LANE = 0
COMPARATOR_LANE = 1
E0_LANE = 2
VALIDATION_LANE = 3

_MAX_SEED = 2**64


def substream(master_seed: int, lane: int, index: int) -> np.random.Generator:
    """Generator for one (lane, index) slot under ``master_seed``."""
    if not 0 <= int(master_seed) < _MAX_SEED:
        raise ValueError(f"master_seed must be a u64, got {master_seed!r}")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(lane), int(index)))
    return np.random.Generator(np.random.Philox(seq))


def as_generator(seed) -> np.random.Generator:
    """Coerce ``seed`` to a Generator.

    Integers map to the trajectory lane, slot 0, so a single run seeded with
    ``s`` reproduces replicate 0 of an experiment whose master seed is ``s``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(int(seed), TRAJECTORY_LANE, 0)
