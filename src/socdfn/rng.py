"""Deterministic random streams.

Every stochastic choice in the package (splits, shuffles, weight init,
dropout, drive-cycle synthesis) draws from a numpy PCG64 generator built
here, so a run is fully reproduced by its seeds. A training run keys the
stream of each concern on (seed, concern, ...), so no two concerns share
a stream. PCG64 is the single generator family used; do not mix in other
bit generators.
"""

# Annotations stay unevaluated, so importing this module does not load
# numpy.random; a process loads it on its first draw.
from __future__ import annotations

import numpy as np

from .errors import check_range

# Name of the pinned bit generator, recorded in model files.
BIT_GENERATOR = "pcg64"


def check_seed(seed: int) -> int:
    """Validate a user-supplied 64-bit seed."""
    check_range("seed", seed, "in [0, 2^64)")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 stream for a seed in [0, 2^64). Equal seeds give identical streams."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def _seed_sequence(seed: int, key) -> np.random.SeedSequence:
    """SeedSequence of [seed, *key], each str part read as an ASCII integer."""
    ints = (int.from_bytes(p.encode("ascii"), "big") if isinstance(p, str) else int(p)
            for p in key)
    return np.random.SeedSequence([check_seed(seed), *ints])


def derive_seed(seed: int, *key) -> int:
    """64-bit seed keyed (seed, *key), such as (seed, "shuffle", epoch).

    Distinct keys give unrelated seeds, so no two concerns share a stream.
    """
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def substream(seed: int, *key) -> np.random.Generator:
    """PCG64 stream keyed (seed, *key), encoded as derive_seed's keys are."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, key)))
