"""Deterministic random streams.

All sampling in this package draws from numpy's Philox generator, a
counter-based bit generator whose output is a pure function of its 128-bit
key.  A stream is addressed by the pair (master_seed, stream_index), each
below 2^64: the seed fills the high key word and the index the low one, so
distinct pairs give statistically independent streams and the same pair
always reproduces the same draws, regardless of how many other streams were
created or in which order they run.  Monte Carlo
code derives one stream per run as (seed, run_index).

Batched draws (:func:`uniform_rows`) reuse one bit generator for a whole
block of runs and re-key it per run, resetting its counter and buffer, so
row r holds exactly the uniforms that stream (seed, first_stream + r) would
produce on its own, without building a generator per run.
"""

from __future__ import annotations

import numpy as np

_WORD = 64  # stream index occupies the low key word


def _key_words(master_seed: int, stream_index: int) -> tuple[int, int]:
    seed = int(master_seed)
    idx = int(stream_index)
    if not 0 <= seed < (1 << _WORD):
        raise ValueError(f"master_seed out of range [0, 2^64), got {seed}")
    if not 0 <= idx < (1 << _WORD):
        raise ValueError(f"stream_index out of range [0, 2^64), got {idx}")
    return seed, idx


def stream(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """Generator for the (master_seed, stream_index) stream."""
    seed, idx = _key_words(master_seed, stream_index)
    return np.random.Generator(np.random.Philox(key=(seed << _WORD) | idx))


def uniform_rows(
    master_seed: int, first_stream: int, runs: int, n: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """(runs, n) uniforms; row r equals stream(master_seed, first_stream + r).random(n).

    Philox output depends only on key and counter, so setting the key of
    one generator to the row's stream, with counter 0 and an empty buffer
    (position 4 of its four words), reproduces that stream exactly.

    ``out``, a float64 (runs, n) array whose rows are each contiguous (a
    column slice of a wider C-contiguous buffer will do), receives the
    uniforms and is returned; without it a new array is.
    """
    if out is None:
        out = np.empty((runs, n))
    elif out.shape != (runs, n):
        raise ValueError(f"out must have shape {(runs, n)}, got {out.shape}")
    if runs == 0:
        return out
    # the indices are consecutive, so checking both ends checks them all; the
    # upper end is capped at the first out-of-range index, as a per-run loop
    # would fail there
    seed, first = _key_words(master_seed, first_stream)
    _key_words(seed, min(first + runs - 1, 1 << _WORD))
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    # plain lists: the state setter reads them faster than numpy arrays
    key = [0, seed]  # Philox stores the 128-bit key low word first
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for r in range(runs):
        key[0] = first + r
        bit_gen.state = state
        gen.random(out=out[r])
    return out
