import tracemalloc

import numpy as np
import pytest

from polyagraph import rng
from polyagraph.rng import _BULK_MAX_N, _CHUNK_WORDS, _TILE_BLOCKS, _state_words, stream, uniform_rows
from polyagraph.urn import UrnParams, sample_polya


def test_same_pair_reproduces():
    a = stream(123, 4).random(16)
    b = stream(123, 4).random(16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = stream(123, 0).random(16)
    b = stream(123, 1).random(16)
    c = stream(124, 0).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_counter_based_generator():
    assert isinstance(stream(0).bit_generator, np.random.Philox)


def test_rejects_bad_indices():
    with pytest.raises(ValueError):
        stream(-1)
    with pytest.raises(ValueError):
        stream(0, 1 << 64)


def test_seed_bound_is_the_low_key_word():
    # the 128-bit Philox key holds the seed in its high 64 bits
    assert stream((1 << 64) - 1, (1 << 64) - 1).random() == stream((1 << 64) - 1, (1 << 64) - 1).random()
    with pytest.raises(ValueError, match="master_seed"):
        stream(1 << 64)


def _tile_rows(n):
    return _TILE_BLOCKS // -(-n // 4)  # rows per tile of the bulk kernel


# row lengths on both sides of the crossover, each with one run and a few;
# some bulk lengths also with one run past a tile of rows.  47, 48 and 49
# pad the re-keyed route's rows by 1, 0 and 3 words, and 683 rows of 48 cross
# its chunks.  Seed 0 starts at stream 3, the top seed takes the last
# streams below 2^64.
_ROW_SHAPES = [
    *((runs, n) for n in (1, 2, 3, 5, 47, 49, 99, _BULK_MAX_N - 1, _BULK_MAX_N + 1) for runs in (1, 5)),
    *((_tile_rows(n) + 1, n) for n in (4, 9, 48, _BULK_MAX_N)),
]
_ROW_CASES = [
    pytest.param(123, 0, 5, 9, id="123-0"),
    pytest.param(2**64 - 1, 2**64 - 5, 5, 9, id=f"{2**64 - 1}-{2**64 - 5}"),
    *((seed, 3 if seed == 0 else 2**64 - runs, runs, n) for seed in (0, 2**64 - 1) for runs, n in _ROW_SHAPES),
]


@pytest.mark.parametrize("seed, first, runs, n", _ROW_CASES)
def test_uniform_rows_are_the_streams(seed, first, runs, n):
    rows = uniform_rows(seed, first, runs, n)
    assert rows.shape == (runs, n)
    for r in range(runs):
        assert np.array_equal(rows[r], stream(seed, first + r).random(n))
    assert uniform_rows(seed, first, 0, n).shape == (0, n)
    # into the leading columns of a wider buffer, whose last column stays
    buf = np.full((runs, n + 1), 7.0)
    assert uniform_rows(seed, first, runs, n, out=buf[:, :-1]).base is buf
    assert np.array_equal(buf[:, :-1], rows)
    assert np.all(buf[:, -1] == 7.0)
    with pytest.raises(ValueError, match="shape"):
        uniform_rows(seed, first, runs + 1, n, out=buf[:, :-1])
    # time-major: the transpose of an (n, runs) buffer, and of the leading
    # rows and columns of a wider one, whose other entries stay
    major = np.empty((n, runs))
    assert uniform_rows(seed, first, runs, n, out=major.T).base is major
    assert np.array_equal(major.T, rows)
    wide = np.full((n + 1, runs + 3), 7.0)
    uniform_rows(seed, first, runs, n, out=wide[:-1, :runs].T)
    assert np.array_equal(wide[:-1, :runs].T, rows)
    assert np.all(wide[-1] == 7.0) and np.all(wide[:, runs:] == 7.0)


@pytest.mark.parametrize("n", [6, 60])
def test_out_must_be_float64(n):
    # a float32 out used to receive rounded uniforms on the kernel route, and
    # numpy's own contiguity complaint on the re-keyed one
    for dtype in (np.float32, np.int64):
        with pytest.raises(ValueError, match=f"out must be float64, got {np.dtype(dtype)}"):
            uniform_rows(1, 0, 5, n, out=np.empty((5, n), dtype))


def test_uniform_rows_workspace_is_independent_of_runs():
    # the bulk kernel works tile by tile, the re-keyed route (n = 99) chunk
    # by chunk; the output buffers are not counted, nor numpy's one-off
    # allocations, made by a first call
    for n in (9, 99):
        uniform_rows(5, 0, 2, n)
        peaks = []
        for tiles in (2, 20):
            out = np.empty((tiles * _tile_rows(n) + 1, n))
            tracemalloc.start()
            try:
                uniform_rows(5, 0, len(out), n, out=out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2 << 20, n
        assert peaks[1] <= peaks[0] + (64 << 10), n


def _chunk_rows(n):
    return max(1, _CHUNK_WORDS // (-(-n // 4) * 4))  # rows per chunk of the re-keyed route


# n = 100 fills whole Philox blocks, the others pad their rows; rows of 4097
# exceed a chunk's words and go one per chunk
@pytest.mark.parametrize("n", [_BULK_MAX_N + 1, 99, 100, 101, 4097])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_rekeyed_rows_across_a_chunk_edge(seed, n):
    runs = _chunk_rows(n) + 1
    first = 2**64 - runs  # the last stream is 2^64 - 1
    rows = uniform_rows(seed, first, runs, n)
    for r in range(runs):
        assert np.array_equal(rows[r], stream(seed, first + r).random(n)), r
    # nothing of one call's generator state reaches the next
    assert np.array_equal(uniform_rows(seed, first, runs, n), rows)
    assert np.array_equal(uniform_rows(seed, first + 1, runs - 1, n), rows[1:])


@pytest.mark.parametrize("bit_gen", [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.SFC64])
def test_philox_layout_guard_refuses_other_bit_generators(bit_gen):
    # their state structs do not begin with two pointers into the object;
    # the guard reads no further and writes nothing
    gen = bit_gen(11)
    assert _state_words(gen) is None
    assert np.array_equal(gen.random_raw(8), bit_gen(11).random_raw(8))


def test_philox_layout_guard_accepts_a_philox():
    gen = np.random.Philox(key=(5 << 64) | 7, counter=3)
    counter, key = _state_words(gen)
    assert list(counter) == [3, 0, 0, 0]
    assert list(key) == [7, 5]
    counter[0], key[0] = 0, 9
    assert np.array_equal(np.random.Generator(gen).random(4), stream(5, 9).random(4))
    # on the numpy under test the long rows take the re-keyed route: a numpy
    # that moves Philox's state fails here rather than running slower
    assert rng._rekeying_works()


@pytest.fixture
def unrecognised_layout(monkeypatch):
    # a numpy whose Philox state layout fails the probe, as far as uniform_rows can tell
    def no_words(bit_gen):
        return None

    def no_writes(*args):
        raise AssertionError("the in-place route ran although the probe failed")

    monkeypatch.setattr(rng, "_state_words", no_words)
    monkeypatch.setattr(rng, "_rekeyed_rows", no_writes)
    rng._rekeying_works.cache_clear()
    yield
    rng._rekeying_works.cache_clear()


@pytest.mark.parametrize("n", [33, 99])
def test_long_rows_fall_back_to_the_kernel_when_the_layout_check_fails(unrecognised_layout, n):
    seed, first, runs = 0xC0FFEE, 2**64 - 70, 70  # the last stream is 2^64 - 1
    rows = uniform_rows(seed, first, runs, n)
    assert not rng._rekeying_works()
    for r in range(runs):
        assert np.array_equal(rows[r], stream(seed, first + r).random(n)), r
    out = np.empty((n, runs)).T  # time-major, as the samplers pass it
    assert uniform_rows(seed, first, runs, n, out=out) is out
    assert out.tobytes() == rows.tobytes()


@pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(3.0), np.bool_(False), "4"])
def test_keys_must_be_integers(bad):
    # a float or bool would otherwise be truncated to another stream's key
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        stream(bad)
    with pytest.raises(ValueError, match="stream_index must be an integer"):
        stream(1, bad)
    with pytest.raises(ValueError, match="must be an integer"):
        uniform_rows(bad, 0, 2, 3)
    with pytest.raises(ValueError, match="must be an integer"):
        uniform_rows(2, bad, 2, 3)
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        sample_polya(UrnParams(5, 5, 2), 4, bad)
    with pytest.raises(ValueError, match="stream_index must be an integer"):
        sample_polya(UrnParams(5, 5, 2), 4, 1, stream_index=bad)


def test_numpy_integer_keys_are_their_values():
    want = stream(2**64 - 1, 7).random(4)
    assert np.array_equal(stream(np.uint64(2**64 - 1), np.int64(7)).random(4), want)
    assert np.array_equal(uniform_rows(np.uint64(2**64 - 1), np.int32(7), 1, 4)[0], want)


def test_uniform_rows_keep_the_stream_range_check():
    def message(call):
        with pytest.raises(ValueError) as err:
            call()
        return str(err.value)

    assert message(lambda: uniform_rows(0, 2**64 - 2, 3, 4)) == message(lambda: stream(0, 2**64))
    # no rows are drawn at runs = 0, yet the seed and the first index are
    # checked; uniform_rows(0, -1, 0, 5) used to return an empty array
    for runs in (3, 0):
        assert message(lambda: uniform_rows(0, -1, runs, 4)) == message(lambda: stream(0, -1))
        assert message(lambda: uniform_rows(2**64, 0, runs, 4)) == message(lambda: stream(2**64, 0))
    assert uniform_rows(0, 2**64 - 1, 0, 4).shape == (0, 4)


@pytest.mark.parametrize("bad", [True, np.bool_(False), 2.0, np.float64(3.0)])
def test_uniform_rows_counts_must_be_integers(bad):
    with pytest.raises(ValueError, match="runs must be an integer"):
        uniform_rows(1, 0, bad, 3)
    with pytest.raises(ValueError, match="n must be an integer"):
        uniform_rows(1, 0, 2, bad)


def test_uniform_rows_take_numpy_integer_counts():
    # both routes, the kernel's short rows and the re-keyed long ones
    assert np.array_equal(uniform_rows(3, 5, np.int32(4), np.int16(40)), uniform_rows(3, 5, 4, 40))
    assert uniform_rows(3, 5, np.int64(0), np.int64(7)).shape == (0, 7)
