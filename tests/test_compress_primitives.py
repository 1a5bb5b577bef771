"""Compression primitives: bitpack, RLE, DICT, two-bit, sparse, delta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import (
    bits_needed,
    delta_decode,
    delta_encode,
    dict_decode,
    dict_encode,
    mean_run_length,
    pack_bits,
    rle_decode,
    rle_encode,
    sparse_decode,
    sparse_encode,
    twobit_decode,
    twobit_encode,
    unpack_bits,
)
from repro.compress.sparse import exception_decode, exception_encode
from repro.errors import CodecError


class TestBitpack:
    @pytest.mark.parametrize("max_v,bits", [(0, 1), (1, 1), (2, 2), (255, 8),
                                            (256, 9), (1023, 10)])
    def test_bits_needed(self, max_v, bits):
        assert bits_needed(max_v) == bits

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            bits_needed(-1)

    def test_roundtrip_basic(self):
        v = np.array([0, 1, 2, 3, 7, 5])
        data = pack_bits(v, 3)
        assert np.array_equal(unpack_bits(data, 3, 6), v)

    def test_packed_size(self):
        # 100 values x 3 bits = 300 bits = 38 bytes.
        assert len(pack_bits(np.zeros(100, dtype=int), 3)) == 38

    def test_overflow_rejected(self):
        with pytest.raises(CodecError):
            pack_bits(np.array([8]), 3)

    def test_truncated_payload_rejected(self):
        with pytest.raises(CodecError):
            unpack_bits(b"\x00", 8, 100)

    @staticmethod
    def _shift_matrix_pack(values, width):
        """The former ``pack_bits``: an ``(n, width)`` uint64 shift matrix."""
        v = np.asarray(values).astype(np.uint64)
        if v.size == 0:
            return b""
        if int(v.max()) >= (1 << width):
            raise CodecError("overflow")
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = ((v[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        return np.packbits(bits.reshape(-1)).tobytes()

    @given(
        width=st.integers(1, 64),
        n=st.one_of(st.just(0), st.integers(1, 70)),
        seed=st.integers(0, 2**32 - 1),
        overflow=st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_bytes_as_the_shift_matrix(self, width, n, seed, overflow):
        rng = np.random.default_rng(seed)
        top = (1 << width) - 1
        v = rng.integers(0, top, n, dtype=np.uint64, endpoint=True)
        if n:
            v[rng.integers(0, n)] = top  # the widest value fits
        if overflow and n and width < 64:
            v[rng.integers(0, n)] = top + 1  # one value does not
            with pytest.raises(CodecError):
                self._shift_matrix_pack(v, width)
            with pytest.raises(CodecError):
                pack_bits(v, width)
            return
        assert pack_bits(v, width) == self._shift_matrix_pack(v, width)
        for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
            if n and top <= np.iinfo(dtype).max:
                assert pack_bits(v.astype(dtype), width) == (
                    self._shift_matrix_pack(v, width)
                )

    @given(
        st.lists(st.integers(0, 2**16 - 1), min_size=0, max_size=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values):
        v = np.asarray(values, dtype=np.uint64)
        width = bits_needed(int(v.max()) if v.size else 0)
        assert np.array_equal(unpack_bits(pack_bits(v, width), width, v.size), v)


class TestRle:
    def test_encode_runs(self):
        v, l = rle_encode(np.array([5, 5, 5, 2, 2, 9]))
        assert list(v) == [5, 2, 9]
        assert list(l) == [3, 2, 1]

    def test_empty(self):
        v, l = rle_encode(np.empty(0, dtype=np.uint8))
        assert v.size == 0 and l.size == 0
        assert rle_decode(v, l).size == 0

    def test_decode_validates_lengths(self):
        with pytest.raises(CodecError):
            rle_decode(np.array([1]), np.array([0]))

    def test_shape_mismatch(self):
        with pytest.raises(CodecError):
            rle_decode(np.array([1, 2]), np.array([1]))

    def test_mean_run_length(self):
        assert mean_run_length(np.array([1, 1, 1, 1])) == 4.0
        assert mean_run_length(np.array([1, 2, 3])) == 1.0
        assert mean_run_length(np.empty(0)) == 0.0

    def test_mean_run_length_known_column(self):
        # Pinned value on a known column: 4 runs over 10 values -> 2.5.
        # mean_run_length counts change points directly, without
        # materializing the rle_encode copy — the two must agree.
        col = np.array([5, 5, 5, 7, 7, 9, 9, 9, 9, 2], dtype=np.int32)
        assert mean_run_length(col) == 2.5
        values, lengths = rle_encode(col)
        assert mean_run_length(col) == col.size / values.size
        assert lengths.sum() == col.size

    @given(st.lists(st.integers(0, 5), min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.int64)
        v, l = rle_encode(arr)
        assert np.array_equal(rle_decode(v, l), arr)


class TestDict:
    def test_roundtrip_uint8(self, rng):
        v = rng.integers(0, 90, 5000).astype(np.uint8)
        assert np.array_equal(dict_decode(dict_encode(v)), v)

    def test_roundtrip_float32(self, rng):
        v = np.round(rng.random(1000), 2).astype(np.float32)
        assert np.array_equal(dict_decode(dict_encode(v)), v)

    def test_empty(self):
        v = np.empty(0, dtype=np.uint16)
        out = dict_decode(dict_encode(v))
        assert out.size == 0 and out.dtype == np.uint16

    def test_single_value_one_bit(self):
        v = np.full(1000, 7, dtype=np.uint8)
        blob = dict_encode(v)
        # dict(1 entry) + 1000 bits ~ 125 bytes + header.
        assert len(blob) < 150

    def test_small_dict_beats_bytes(self, rng):
        """<100 distinct values: better than 1 byte/elem (paper's point)."""
        v = rng.integers(0, 90, 10_000).astype(np.uint8)
        assert len(dict_encode(v)) < 10_000

    def test_too_many_distinct_rejected(self):
        v = np.arange(70_000, dtype=np.uint32)
        with pytest.raises(CodecError):
            dict_encode(v)

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            dict_decode(b"\x01")

    @given(st.lists(st.integers(0, 200), min_size=0, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.uint32)
        assert np.array_equal(dict_decode(dict_encode(arr)), arr)


class TestTwoBit:
    def test_roundtrip(self, rng):
        v = rng.integers(0, 4, 9999).astype(np.uint8)
        assert np.array_equal(twobit_decode(twobit_encode(v)), v)

    def test_quarter_size(self):
        v = np.zeros(4000, dtype=np.uint8)
        assert len(twobit_encode(v)) == 4 + 1000

    def test_rejects_large_values(self):
        with pytest.raises(CodecError):
            twobit_encode(np.array([4]))

    def test_empty(self):
        assert twobit_decode(twobit_encode(np.empty(0, dtype=np.uint8))).size == 0


class TestSparse:
    def test_roundtrip(self, rng):
        v = np.zeros(5000, dtype=np.uint16)
        idx = rng.choice(5000, 80, replace=False)
        v[idx] = rng.integers(1, 500, 80)
        assert np.array_equal(sparse_decode(sparse_encode(v, 0), v.size), v)

    def test_nonzero_default(self, rng):
        v = np.full(1000, 4, dtype=np.uint8)
        v[5] = 2
        out = sparse_decode(sparse_encode(v, 4), v.size)
        assert np.array_equal(out, v)

    def test_dense_column_still_lossless(self, rng):
        v = rng.integers(0, 255, 300).astype(np.uint8)
        assert np.array_equal(sparse_decode(sparse_encode(v, 0), v.size), v)

    def test_sparse_much_smaller(self, rng):
        v = np.zeros(100_000, dtype=np.uint16)
        v[rng.choice(100_000, 100, replace=False)] = 9
        assert len(sparse_encode(v, 0)) < 2000

    def test_float_column(self):
        v = np.full(100, 1.0, dtype=np.float32)
        v[3] = 0.5
        assert np.array_equal(sparse_decode(sparse_encode(v, 1.0), v.size), v)

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.uint8)
        assert np.array_equal(sparse_decode(sparse_encode(arr, 0), arr.size), arr)


class TestException:
    def test_roundtrip_with_prediction(self, rng):
        predicted = rng.integers(0, 10, 2000).astype(np.uint8)
        actual = predicted.copy()
        idx = rng.choice(2000, 20, replace=False)
        actual[idx] = (actual[idx] + 1) % 10
        blob = exception_encode(actual, predicted)
        assert np.array_equal(exception_decode(blob, predicted), actual)

    def test_perfect_prediction_tiny(self, rng):
        predicted = rng.integers(0, 10, 10_000).astype(np.uint8)
        blob = exception_encode(predicted, predicted)
        assert len(blob) < 40

    def test_wrong_prediction_length_rejected(self):
        v = np.zeros(5, dtype=np.uint8)
        blob = exception_encode(v, v)
        with pytest.raises(CodecError):
            exception_decode(blob, np.zeros(6, dtype=np.uint8))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CodecError):
            exception_encode(
                np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8)
            )


class TestDelta:
    def test_roundtrip(self, rng):
        v = np.sort(rng.integers(0, 10**6, 3000)).astype(np.int64)
        assert np.array_equal(delta_decode(delta_encode(v)), v)

    def test_unsorted_rejected(self):
        with pytest.raises(CodecError):
            delta_encode(np.array([3, 1]))

    def test_empty_and_single(self):
        assert delta_decode(delta_encode(np.empty(0, dtype=np.int64))).size == 0
        out = delta_decode(delta_encode(np.array([42], dtype=np.int64)))
        assert list(out) == [42]

    def test_dense_positions_compact(self):
        v = np.arange(10_000, dtype=np.int64)
        # All gaps are 1: one bit each.
        assert len(delta_encode(v)) < 1350

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, values):
        arr = np.sort(np.asarray(values, dtype=np.int64))
        assert np.array_equal(delta_decode(delta_encode(arr)), arr)
