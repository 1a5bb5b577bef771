"""RLE-DICT two-level codec, CPU and GPU paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import (
    dict_encode,
    dict_encode_gpu,
    rle_dict_decode,
    rle_dict_encode,
    rle_dict_encode_gpu,
)
from repro.errors import CodecError
from repro.gpusim.device import Device


def _runny_column(rng, n=5000, n_values=40, mean_run=12):
    n_runs = max(n // mean_run, 1)
    values = rng.integers(0, n_values, n_runs).astype(np.uint8)
    lengths = rng.integers(1, 2 * mean_run, n_runs)
    return np.repeat(values, lengths)[:n]


class TestCpu:
    def test_roundtrip(self, rng):
        col = _runny_column(rng)
        assert np.array_equal(rle_dict_decode(rle_dict_encode(col), col.size), col)

    def test_empty(self):
        col = np.empty(0, dtype=np.uint8)
        out = rle_dict_decode(rle_dict_encode(col), 0)
        assert out.size == 0

    def test_compresses_quality_like_columns(self, rng):
        """The paper's six quality columns: <100 distinct values, runs of
        ~tens — RLE-DICT should get well under 2 bits/element."""
        col = _runny_column(rng, n=50_000, n_values=80, mean_run=15)
        blob = rle_dict_encode(col)
        assert len(blob) * 8 / col.size < 2.0

    def test_beats_dict_alone_on_runny_data(self, rng):
        col = _runny_column(rng, n=20_000, mean_run=20)
        assert len(rle_dict_encode(col)) < len(dict_encode(col))

    def test_uint16_values(self, rng):
        col = np.repeat(
            rng.integers(0, 900, 100).astype(np.uint16),
            rng.integers(1, 30, 100),
        )
        assert np.array_equal(rle_dict_decode(rle_dict_encode(col), col.size), col)

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            rle_dict_decode(b"\x00\x00", 0)

    @given(st.lists(st.integers(0, 30), min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values):
        col = np.asarray(values, dtype=np.uint8)
        assert np.array_equal(rle_dict_decode(rle_dict_encode(col), col.size), col)


class TestGpu:
    def test_byte_identical_to_cpu(self, rng):
        col = _runny_column(rng, n=3000)
        device = Device()
        assert rle_dict_encode_gpu(device, col) == rle_dict_encode(col)

    def test_uses_paper_primitives(self, rng):
        """RLE via reduction; DICT via sort + unique + binary search."""
        col = _runny_column(rng, n=2000)
        device = Device()
        rle_dict_encode_gpu(device, col)
        kernels = set(device.counters.entries)
        assert "rle_flag" in kernels
        assert "reduce_block" in kernels
        assert "radix_histogram" in kernels
        assert "unique_compact" in kernels
        assert "binary_search" in kernels

    def test_dict_gpu_byte_identical(self, rng):
        for dtype in (np.uint8, np.uint16, np.float32):
            v = rng.integers(0, 50, 1000).astype(dtype)
            device = Device()
            assert dict_encode_gpu(device, v) == dict_encode(v)

    def test_small_dictionary_in_constant_memory(self, rng):
        col = rng.integers(0, 20, 1000).astype(np.uint8)
        device = Device()
        dict_encode_gpu(device, col)
        c = device.counters.get("binary_search")
        assert c.c_load > 0  # probes hit the constant cache

    def test_gpu_empty(self):
        device = Device()
        col = np.empty(0, dtype=np.uint8)
        assert rle_dict_encode_gpu(device, col) == rle_dict_encode(col)

    def test_float_column_gpu(self, rng):
        col = np.repeat(
            np.round(rng.random(50), 2).astype(np.float32),
            rng.integers(1, 20, 50),
        )
        device = Device()
        assert rle_dict_encode_gpu(device, col) == rle_dict_encode(col)


class TestFusedParity:
    """The fused codec's parity checks compare the device chain against
    the host encoders, not the host encoders against themselves."""

    def _cols(self, rng):
        return [_runny_column(rng, n=400, n_values=9) for _ in range(3)]

    def test_fused_chain_passes_its_checks(self, rng):
        from repro.compress.fusedcodec import _fused_rle_dict_column

        _fused_rle_dict_column(Device(), self._cols(rng))

    def test_short_device_dictionary_raises(self, rng, monkeypatch):
        """A ``device_unique`` that drops its last key must fail loudly:
        the dictionary sizes come from the device result."""
        import repro.gpusim.primitives.segmented as segmented
        from repro.compress.fusedcodec import _fused_rle_dict_column
        from repro.errors import KernelError

        real = segmented.device_unique

        def drops_last_key(device, keys):
            full = real(device, keys)
            short = device.to_device(full.data[:-1], "unique")
            device.free(full)
            return short

        monkeypatch.setattr(segmented, "device_unique", drops_last_key)
        with pytest.raises(KernelError, match="DICT sizes"):
            _fused_rle_dict_column(Device(), self._cols(rng))
