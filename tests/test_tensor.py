import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefit.tensor import Rng, TensorCodecError, decode_tensor, encode_tensor


class TestRng:
    def test_same_seed_identical(self):
        a = Rng(0).uniform(0.0, 1.0, (4,))
        b = Rng(0).uniform(0.0, 1.0, (4,))
        np.testing.assert_array_equal(a, b)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            Rng(0).uniform(0.0, 0.0, (4,))

    def test_different_seeds_differ(self):
        a = Rng(0).uniform(0.0, 1.0, (16,))
        b = Rng(1).uniform(0.0, 1.0, (16,))
        assert np.any(a != b)

    def test_bounds(self):
        u = Rng(3).uniform(-2.0, 5.0, (1000,))
        assert np.all(u >= -2.0) and np.all(u < 5.0)

    def test_split_streams_independent_and_stable(self):
        a1 = Rng(0).split("data").uniform(0, 1, (8,))
        a2 = Rng(0).split("data").uniform(0, 1, (8,))
        b = Rng(0).split("init").uniform(0, 1, (8,))
        np.testing.assert_array_equal(a1, a2)
        assert np.any(a1 != b)

    def test_same_seed_byte_identical(self):
        a = Rng(42).normal(0, 1, (64,))
        b = Rng(42).normal(0, 1, (64,))
        assert a.tobytes() == b.tobytes()

    def test_draws_keep_their_bytes(self):
        # sha256 of the draws as written when they were scaled into a new
        # array and cast to float32 again; a 0-d draw is a float32 scalar
        a = Rng(7).normal(0.5, 2.0, (37, 5))
        b = Rng(7).uniform(-1.0, 3.0, (37, 5))
        assert hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest() == \
            "59228d832a082c52dc28918f500c83b5865bd4882d27db953ed0c62280e493dc"
        assert a.dtype == b.dtype == np.float32
        z = (Rng(7).normal(0.5, 2.0), Rng(7).uniform(-1.0, 3.0))
        assert [type(v) for v in z] == [np.float32, np.float32]
        assert [v.tobytes() for v in z] == [a[0, 0].tobytes(), b[0, 0].tobytes()]

    @pytest.mark.parametrize("draw", ["normal", "uniform"])
    def test_draw_is_scaled_in_its_own_buffer(self, draw):
        # a (1024, 1024) draw holds its 4 MiB of float32 and no more; 12 MiB
        # were measured when the scaled copy was cast again
        rng = Rng(7)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            getattr(rng, draw)(0.0, 1.0, (1024, 1024))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * 1024 * 4 + 4096


class TestCodec:
    def test_roundtrip_bit_identical(self):
        t = Rng(1).normal(0, 1, (3, 5))
        out = decode_tensor(encode_tensor(t))
        assert out.tobytes() == t.tobytes() and out.shape == t.shape

    def test_empty_tensor_header_only(self):
        t = np.zeros((0,), dtype=np.float32)
        blob = encode_tensor(t)
        assert len(blob) == 4 + 4 + 4  # magic, rank, one dim, no payload
        out = decode_tensor(blob)
        assert out.shape == (0,)

    def test_truncated_payload_reports_counts(self):
        blob = encode_tensor(np.ones((4,), dtype=np.float32))
        with pytest.raises(TensorCodecError, match="expected 28 bytes, got 24"):
            decode_tensor(blob[:-4])

    def test_bad_magic(self):
        with pytest.raises(TensorCodecError, match="magic"):
            decode_tensor(b"XXXX" + b"\x00" * 12)

    def test_wire_layout(self):
        blob = encode_tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        assert blob[:4] == b"SFT1"
        assert int.from_bytes(blob[4:8], "little") == 2       # rank
        assert int.from_bytes(blob[8:12], "little") == 1      # dim 0
        assert int.from_bytes(blob[12:16], "little") == 2     # dim 1
        assert np.frombuffer(blob[16:], dtype="<f4").tolist() == [1.0, 2.0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.lists(st.integers(0, 7), min_size=0, max_size=3))
    def test_roundtrip_property(self, seed, shape):
        t = Rng(seed).normal(0, 1, tuple(shape))
        out = decode_tensor(encode_tensor(t))
        assert out.shape == t.shape
        assert out.tobytes() == t.tobytes()
