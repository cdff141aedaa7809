import numpy as np
import pytest

from polyagraph.rng import stream, uniform_rows


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


@pytest.mark.parametrize("seed, first", [(123, 0), (2**64 - 1, 2**64 - 5)])
def test_uniform_rows_are_the_streams(seed, first):
    # one re-keyed generator per block reproduces every stream exactly
    rows = uniform_rows(seed, first, 5, 9)
    assert rows.shape == (5, 9)
    for r in range(5):
        assert np.array_equal(rows[r], stream(seed, first + r).random(9))
    assert uniform_rows(seed, first, 0, 9).shape == (0, 9)
    # into the leading columns of a wider buffer, whose last column stays
    buf = np.full((5, 10), 7.0)
    assert uniform_rows(seed, first, 5, 9, out=buf[:, :-1]).base is buf
    assert np.array_equal(buf[:, :-1], rows)
    assert np.all(buf[:, -1] == 7.0)
    with pytest.raises(ValueError, match="shape"):
        uniform_rows(seed, first, 4, 9, out=buf[:, :-1])


def test_uniform_rows_keep_the_stream_range_check():
    def message(call):
        with pytest.raises(ValueError) as err:
            call()
        return str(err.value)

    assert message(lambda: uniform_rows(0, 2**64 - 2, 3, 4)) == message(lambda: stream(0, 2**64))
    assert message(lambda: uniform_rows(0, -1, 3, 4)) == message(lambda: stream(0, -1))
    assert message(lambda: uniform_rows(2**64, 0, 3, 4)) == message(lambda: stream(2**64, 0))
