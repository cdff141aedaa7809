"""Deterministic random streams.

All sampling in this package draws from numpy's Philox generator, a
counter-based bit generator whose output is a pure function of its 128-bit
key.  A stream is addressed by the pair (master_seed, stream_index), each
below 2^64: the seed fills the high key word and the index the low one, so
distinct pairs give statistically independent streams and the same pair
always reproduces the same draws, regardless of how many other streams were
created or in which order they run.  Monte Carlo
code derives one stream per run as (seed, run_index).
"""

from __future__ import annotations

import numpy as np

_WORD = 64  # stream index occupies the low key word


def stream(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """Generator for the (master_seed, stream_index) stream."""
    seed = int(master_seed)
    idx = int(stream_index)
    if not 0 <= seed < (1 << _WORD):
        raise ValueError(f"master_seed out of range [0, 2^64), got {seed}")
    if not 0 <= idx < (1 << _WORD):
        raise ValueError(f"stream_index out of range [0, 2^64), got {idx}")
    return np.random.Generator(np.random.Philox(key=(seed << _WORD) | idx))
