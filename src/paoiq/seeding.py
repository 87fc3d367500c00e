"""Deterministic seed derivation.

All randomness in the package flows through 64-bit integer seeds.  Child
seeds for replications and grid points are derived from a master seed with
``numpy.random.SeedSequence`` so that runs are reproducible and independent
streams never collide:

    child = SeedSequence((master, k1, k2, ...)) -> first 64-bit word

The same ``(master, key...)`` tuple always yields the same child seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Stream roles used by the simulator when deriving per-replication seeds.
ROLE_ARRIVAL_1 = 0
ROLE_SERVICE = 1
ROLE_ARRIVAL_2 = 2


def derive_seed(master: int, *key: int) -> int:
    """Derive a 64-bit child seed from a master seed and an integer key path."""
    if master < 0:
        raise ValidationError(f"seeds must be non-negative, got {master}")
    ss = np.random.SeedSequence(entropy=(int(master), *(int(k) for k in key)))
    return int(ss.generate_state(1, np.uint64)[0])
