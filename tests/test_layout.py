"""Unit and property tests for the metacell record codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.layout import MetacellCodec, MetacellRecords


class TestRecordSize:
    def test_paper_record_size(self):
        # Section 7: 4-byte id + 1-byte vmin + 9*9*9 one-byte scalars = 734.
        codec = MetacellCodec((9, 9, 9), np.uint8)
        assert codec.record_size == 734

    def test_two_byte_scalars(self):
        codec = MetacellCodec((5, 5, 5), np.uint16)
        assert codec.record_size == 4 + 2 + 125 * 2

    def test_float_scalars(self):
        codec = MetacellCodec((3, 3, 3), np.float32)
        assert codec.record_size == 4 + 4 + 27 * 4

    def test_rejects_degenerate_shape(self):
        with pytest.raises(ValueError):
            MetacellCodec((1, 5, 5), np.uint8)
        with pytest.raises(ValueError):
            MetacellCodec((5, 5), np.uint8)  # type: ignore[arg-type]


class TestRoundTrip:
    def _sample(self, codec, n, rng):
        info_max = 255 if codec.scalar_dtype == np.uint8 else 1000
        ids = rng.integers(0, 2**31, size=n).astype(np.uint32)
        values = rng.integers(0, info_max, size=(n, codec.values_per_record)).astype(
            codec.scalar_dtype
        )
        vmins = values.min(axis=1)
        return ids, vmins, values

    def test_encode_decode_roundtrip(self):
        codec = MetacellCodec((3, 3, 3), np.uint8)
        rng = np.random.default_rng(0)
        ids, vmins, values = self._sample(codec, 10, rng)
        blob = codec.encode(ids, vmins, values)
        assert len(blob) == 10 * codec.record_size
        rec = codec.decode(blob)
        assert np.array_equal(rec.ids, ids)
        assert np.array_equal(rec.vmins, vmins)
        assert np.array_equal(rec.values, values)

    def test_decode_ignores_partial_trailing_record(self):
        codec = MetacellCodec((3, 3, 3), np.uint8)
        rng = np.random.default_rng(1)
        ids, vmins, values = self._sample(codec, 3, rng)
        blob = codec.encode(ids, vmins, values)
        rec = codec.decode(blob[: 2 * codec.record_size + 7])
        assert len(rec) == 2
        assert codec.decode_count(blob[:5]) == 0

    def test_encode_accepts_grid_shaped_values(self):
        codec = MetacellCodec((3, 3, 3), np.uint8)
        values = np.arange(27, dtype=np.uint8).reshape(1, 3, 3, 3)
        blob = codec.encode(
            np.array([7], dtype=np.uint32), np.array([0], dtype=np.uint8), values
        )
        rec = codec.decode(blob)
        assert np.array_equal(codec.values_grid(rec)[0], values[0])

    def test_length_mismatch_raises(self):
        codec = MetacellCodec((3, 3, 3), np.uint8)
        with pytest.raises(ValueError):
            codec.encode(
                np.array([1, 2], dtype=np.uint32),
                np.array([0], dtype=np.uint8),
                np.zeros((2, 27), dtype=np.uint8),
            )

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 40),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.uint8, np.uint16, np.float32]),
    )
    def test_roundtrip_property(self, n, seed, dtype):
        codec = MetacellCodec((3, 3, 3), dtype)
        rng = np.random.default_rng(seed)
        if np.dtype(dtype).kind == "f":
            values = rng.random((n, 27)).astype(dtype)
        else:
            values = rng.integers(0, np.iinfo(dtype).max, size=(n, 27)).astype(dtype)
        ids = rng.integers(0, 2**32 - 1, size=n).astype(np.uint32)
        vmins = values.min(axis=1) if n else np.empty(0, dtype=dtype)
        rec = codec.decode(codec.encode(ids, vmins, values))
        assert np.array_equal(rec.ids, ids)
        assert np.array_equal(rec.values, values)


class TestVminField:
    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.int32, np.int64, np.uint64,
                  np.float16, np.float32, np.float64],
    )
    def test_vmin_at_reads_each_record_after_pickling(self, dtype):
        # Spawned worker processes receive datasets, codec included, by
        # pickle; the clone must read the same vmin field.
        import pickle

        codec = pickle.loads(pickle.dumps(MetacellCodec((3, 3, 3), dtype)))
        values = (np.arange(3 * 27).reshape(3, 27) * 3 - 40).astype(dtype)
        vmins = values.min(axis=1)
        blob = codec.encode(np.arange(3, dtype=np.uint32), vmins, values)
        read = [codec.vmin_at(blob, i * codec.record_size) for i in range(3)]
        assert read == [float(v) for v in vmins]

    def test_rejects_scalars_without_a_fixed_size_code(self):
        for dtype in (np.complex64, np.bool_, np.longdouble):
            if np.dtype(dtype).kind == "f" and np.dtype(dtype).itemsize <= 8:
                continue  # platforms where long double is a plain double
            with pytest.raises(ValueError, match="scalar_dtype"):
                MetacellCodec((3, 3, 3), dtype)


class TestMetacellRecords:
    def test_empty(self):
        codec = MetacellCodec((3, 3, 3), np.uint8)
        rec = MetacellRecords.empty(codec)
        assert len(rec) == 0
        assert rec.values.shape == (0, 27)

    def test_concat(self):
        codec = MetacellCodec((3, 3, 3), np.uint8)
        rng = np.random.default_rng(2)
        parts = []
        for n in (3, 0, 5):
            values = rng.integers(0, 255, size=(n, 27)).astype(np.uint8)
            parts.append(
                MetacellRecords(
                    ids=np.arange(n, dtype=np.uint32),
                    vmins=(values.min(axis=1) if n else np.empty(0, np.uint8)),
                    values=values,
                )
            )
        whole = MetacellRecords.concat(parts)
        assert len(whole) == 8

    def test_concat_empty_list_raises(self):
        with pytest.raises(ValueError):
            MetacellRecords.concat([])
