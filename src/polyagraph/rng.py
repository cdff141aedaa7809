"""Deterministic random streams.

All sampling in this package draws from numpy's Philox generator, a
counter-based bit generator whose output is a pure function of its 128-bit
key.  A stream is addressed by the pair (master_seed, stream_index), each
an integer below 2^64: the seed fills the high key word and the index the
low one, so distinct pairs give statistically independent streams and the
same pair always reproduces the same draws, regardless of how many other
streams were created or in which order they run.  Monte Carlo
code derives one stream per run as (seed, run_index).

Batched draws (:func:`uniform_rows`) give row r exactly the uniforms that
stream (seed, first_stream + r) would produce on its own, by one of two
routes chosen from the row length.  Philox4x64-10 (Salmon, Moraes, Dror &
Shaw, SC 2011) makes each output word a function of its key and counter
alone, so short rows are computed for a whole tile of rows at once: each
round is a fixed set of numpy operations over every row and counter block
of the tile.  That costs a fixed amount of array work per word.  Long rows
re-key one numpy generator per row instead, by writing two words of its
state in place, the key's stream index and the counter, and pay a fixed
overhead per row, mostly numpy's ``Generator.random`` call, plus a little
per word, which is less there.  One cached probe per process decides
whether numpy's Philox may be re-keyed so: a probe generator must show
its words where they are expected and, re-keyed there, reproduce two
streams.  Where it does not, the kernel takes the long rows as well.
:func:`stream` is the reference both routes match bit for bit.  Both
write into a float64 view of any strides, so a sampler can keep its runs
time-major, with row t of an (n, runs) buffer holding draw t of every
run, and hand over its transpose.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from ._numeric import as_int

_WORD = 64  # stream index occupies the low key word


def _pair(a: int, b: int) -> np.ndarray:
    """One word for each half of a stacked (2, rows, blocks) kernel array."""
    return np.array([a, b], np.uint64).reshape(2, 1, 1)


# Philox4x64-10 as in numpy's philox.h: round multipliers and Weyl key bumps
# (halves taken in Python: a ufunc call at import costs 128 KiB of RSS)
_ROUNDS = 10
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_MUL = _pair(_M0, _M1)
_MUL_LO = _pair(_M0 & 0xFFFFFFFF, _M1 & 0xFFFFFFFF)
_MUL_HI = _pair(_M0 >> 32, _M1 >> 32)
_BUMP = _pair(0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

# The crossover between the two routes of uniform_rows.  Speed of the kernel
# over the re-keyed generator, median of 40 adjacent timings, 1024 / 10 000
# rows, 2 cores, median of three trials: n = 8 x1.64 / x2.64, 16 x1.36 /
# x1.62, 24 x1.50 / x1.15, 32 x1.15 / x1.08, 33 x0.92 / x1.01, 40 x0.86 /
# x0.93, 48 x0.79 / x0.72, 64 x0.84 / x0.63, 99 x0.54 / x0.58.
_BULK_MAX_N = 32
# Counter blocks (4 words each) per tile of rows: the kernel's workspace is
# then at most 1 MiB for any number of runs.  Of tiles of 2048, 4096,
# 8192 and 16 384 blocks, 8192 was fastest for 10 000 rows of 7 or 9.
_TILE_BLOCKS = 8192
# Uniforms per chunk of rows of the re-keyed route: 32 KiB of workspace.
_CHUNK_WORDS = 4096


def _key_words(master_seed: int, stream_index: int) -> tuple[int, int]:
    # a float or bool would be truncated to some other stream's key
    seed = as_int("master_seed", master_seed)
    idx = as_int("stream_index", stream_index)
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

    Rows of up to 32 uniforms (``_BULK_MAX_N``) are computed by a
    Philox4x64-10 kernel, a tile of rows at once, in a workspace of fixed
    size.  Longer rows re-key one numpy generator per row, by writing its
    key's stream index and its counter in place, in a 32 KiB chunk of rows.
    The kernel costs about the same array work per word, the generator a
    fixed overhead per row plus a little per word, so the kernel is about
    1.6-2.6x faster at n = 8, the two are even near n = 32, and the
    generator is about 1.8x faster at n = 99 (1.4-1.5 ms per 1024 rows).
    Both give the same bits.  Long rows are re-keyed only once a probe,
    run once per process, has found numpy's Philox state where the
    in-place writes expect it; otherwise the kernel computes them too.

    ``out``, any float64 (runs, n) array or view, receives the uniforms
    and is returned; without it a new array is.  Its strides are free: the
    transpose of a time-major (n, runs) buffer, whose rows are each
    contiguous, will do.  ``runs`` and ``n`` must be integers >= 0
    (numpy's included); a bool, a float or a negative value raises
    ValueError naming the argument ("runs must be >= 0, got -1").
    """
    runs, n = as_int("runs", runs, 0), as_int("n", n, 0)
    if out is None:
        out = np.empty((runs, n))
    else:
        _check_out(out, runs, n)
    # the indices are consecutive, so checking both ends checks them all; the
    # upper end is capped at the first out-of-range index, as a per-run loop
    # would fail there.  No uint64 key is formed before this check, and the
    # seed and first index are checked even when there are no runs.
    seed, first = _key_words(master_seed, first_stream)
    if runs == 0:
        return out
    _key_words(seed, min(first + runs - 1, 1 << _WORD))
    if n > _BULK_MAX_N and _rekeying_works():
        _rekeyed_rows(seed, first, out)
    elif n:
        _philox_rows(seed, first, out)
    return out


def _check_out(out: np.ndarray, runs: int, n: int) -> None:
    # a float32 out would round every uniform and no longer be the stream's
    if out.dtype != np.float64:
        raise ValueError(f"out must be float64, got {out.dtype}")
    if out.shape != (runs, n):
        raise ValueError(f"out must have shape {(runs, n)}, got {out.shape}")


def _tile_rows(n: int) -> int:
    """Rows of n >= 1 uniforms in one tile of the Philox kernel."""
    return _TILE_BLOCKS // -(-n // 4)


def _philox_rows(seed: int, first: int, out: np.ndarray) -> None:
    """Philox4x64-10 of keys (first + r, seed) for all rows r of ``out``.

    numpy's generator increments its counter before each 4-word block, so
    a row's blocks have counters 1 .. ceil(n/4).  The state words x0..x3
    are held as two stacked (2, rows, blocks) arrays, (x0, x2) and
    (x1, x3), so one ufunc call does the work of two; the 64 x 64 -> 128
    bit products are assembled from 32-bit halves.  Array arithmetic wraps
    modulo 2^64 as Philox needs.
    """
    runs, n = out.shape
    blocks = -(-n // 4)
    rows = min(runs, _tile_rows(n))
    work = np.empty((7, 2, rows, blocks), np.uint64)
    keys = np.empty((2, rows, 1), np.uint64)  # (k0, k1) = (stream index, seed)
    counters = np.arange(1, blocks + 1, dtype=np.uint64)
    for start in range(0, runs, rows):
        m = min(rows, runs - start)
        x02, x13, lo, a, b, c, d = work[:, :, :m]
        k = keys[:, :m]
        np.add(np.arange(m, dtype=np.uint64)[:, None], first + start, out=k[0])
        k[1] = seed
        x02[0] = counters
        x02[1] = 0
        x13.fill(0)
        for r in range(_ROUNDS):
            if r:
                k += _BUMP
            np.multiply(x02, _MUL, out=lo)
            # high words: with x = xh*2^32 + xl and the multiplier mh*2^32 + ml,
            # u = xh*ml + (xl*ml >> 32), v = xl*mh + (u mod 2^32),
            # high = xh*mh + (u >> 32) + (v >> 32); no partial sum overflows
            np.bitwise_and(x02, 0xFFFFFFFF, out=a)
            np.right_shift(x02, 32, out=b)
            np.multiply(a, _MUL_LO, out=c)
            np.multiply(b, _MUL_LO, out=d)
            c >>= 32
            d += c  # u
            a *= _MUL_HI
            np.bitwise_and(d, 0xFFFFFFFF, out=c)
            a += c  # v
            b *= _MUL_HI
            d >>= 32
            b += d
            a >>= 32
            b += a  # high
            # (x0, x2) <- (hi1 ^ x1 ^ k0, hi0 ^ x3 ^ k1); (x1, x3) <- (lo1, lo0)
            np.bitwise_xor(b[::-1], x13, out=x02)
            x02 ^= k
            x13, lo = lo[::-1], x13
        # the output words take the product scratch (a, b), free once the rounds end
        w = work[3:5].reshape(-1)[: 4 * m * blocks].reshape(m, blocks, 4)
        w[:, :, 0] = x02[0]
        w[:, :, 1] = x13[0]
        w[:, :, 2] = x02[1]
        w[:, :, 3] = x13[1]
        flat = w.reshape(m, 4 * blocks)
        flat >>= 11  # Generator.random: (word >> 11) * 2^-53
        np.multiply(flat[:, :n], 2.0**-53, out=out[start : start + m])


def _rekeyed_rows(seed: int, first: int, out: np.ndarray) -> None:
    """Fill row r of ``out`` from one generator re-keyed to stream (seed, first + r).

    Philox output depends only on key and counter, so one generator built
    with the seed as its high key word reproduces stream (seed, i) once its
    low key word is set to i and its counter to 0, with its buffer empty.
    Those two words are written in place, through :func:`_state_words`.
    Each row of the chunk is padded to whole 4-word Philox blocks, so a row
    uses up its last block and leaves the buffer empty for the next, and
    the counter, reset per row, never carries out of its low word.  The
    generator writes only contiguous rows, so it fills a bounded chunk of
    rows, whose leading n columns are copied into ``out`` whatever its
    strides.
    """
    runs, n = out.shape
    width = -(-n // 4) * 4
    chunk = np.empty((min(runs, max(1, _CHUNK_WORDS // width)), width))
    bit_gen = np.random.Philox(key=seed << _WORD)
    words = _state_words(bit_gen)
    if words is None:  # not once _rekeying_works() has passed; nothing is written
        raise RuntimeError(f"numpy {np.__version__}: Philox state layout not recognised")
    counter, key = words  # views of bit_gen, which outlives them
    random = np.random.Generator(bit_gen).random
    for start in range(0, runs, len(chunk)):
        rows = chunk[: min(len(chunk), runs - start)]
        for r, row in enumerate(rows, first + start):
            key[0] = r
            counter[0] = 0
            random(out=row)
        out[start : start + len(rows)] = rows[:, :n]


def _state_words(bit_gen) -> tuple[ctypes.Array, ctypes.Array] | None:
    """The 4-word counter and 2-word key of a numpy Philox, as writable ctypes
    arrays over its own memory (low word first); None otherwise.

    numpy's ``philox_state`` struct, at ``bit_gen.ctypes.state_address``,
    begins with pointers to the counter and the key, which the bit
    generator object holds.  Both pointers must lie inside that object
    (from ``id(bit_gen)``, its address in CPython), with room for their
    words, before either is read through; no other numpy bit generator
    passes this.  Nothing is written.
    """
    # not sys.getsizeof, which adds the GC header that lies before id()
    start, size = id(bit_gen), bit_gen.__sizeof__()

    def inside(address: int, words: int) -> bool:
        return start <= address and address + 8 * words <= start + size

    state = bit_gen.ctypes.state_address
    if not inside(state, 2):
        return None
    counter, key = (ctypes.c_uint64 * 2).from_address(state)
    if not (inside(counter, 4) and inside(key, 2)):
        return None
    return (ctypes.c_uint64 * 4).from_address(counter), (ctypes.c_uint64 * 2).from_address(key)


@functools.cache
def _rekeying_works() -> bool:
    """Whether long rows may take the re-keyed route: a Philox built with
    distinctive words shows them through :func:`_state_words`, and
    re-keying it there, as :func:`_rekeyed_rows` does, reproduces two
    streams in turn.  Where this numpy's Philox layout fails that, the
    kernel computes rows of every length, slower but with the same bits.
    Checked once per process."""
    seed, idx = 0x0123456789ABCDEF, 0xFEDCBA9876543210
    words = [0x1111111111111111 * d for d in (1, 2, 3, 4)]
    probe = np.random.Philox(
        key=(seed << _WORD) | idx, counter=sum(w << (_WORD * i) for i, w in enumerate(words))
    )
    found = _state_words(probe)
    if found is None or list(found[0]) != words or list(found[1]) != [idx, seed]:
        return False
    counter, key = found
    random = np.random.Generator(probe).random
    for i in (idx, idx + 1):
        key[0] = i
        counter[:] = [0, 0, 0, 0]
        if not np.array_equal(random(8), stream(seed, i).random(8)):
            return False
    return True
