"""Float32 tensor plumbing: a counter-based RNG with named sub-streams and
the binary wire codec used by checkpoints."""

from __future__ import annotations

import hashlib
import struct

import numpy as np

Array = np.ndarray

WIRE_MAGIC = b"SFT1"


class TensorCodecError(ValueError):
    """A serialized tensor could not be decoded."""


def _derive_key(seed: int, path: tuple[str, ...]) -> int:
    digest = hashlib.sha256(f"{seed}|{':'.join(path)}".encode()).digest()
    return int.from_bytes(digest[:16], "little")


class Rng:
    """Counter-based random stream (Philox) with named sub-streams.

    Identical seed and call sequence give bit-identical output on every
    platform. ``split`` derives an independent stream from a label, so a
    pipeline stage can be re-run without replaying the draws of earlier
    stages. ``position`` counts values drawn from this stream.
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = _path
        self.position = 0
        self._gen = np.random.Generator(np.random.Philox(key=_derive_key(self.seed, _path)))

    def __repr__(self) -> str:
        stream = "/".join(self.path) or "root"
        return f"Rng(seed={self.seed}, stream={stream!r}, position={self.position})"

    def split(self, label: str) -> "Rng":
        return Rng(self.seed, self.path + (str(label),))

    def uniform(self, lo: float, hi: float, shape=()) -> Array:
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        u = self._gen.random(shape, dtype=np.float32)
        self.position += int(np.size(u))
        return (np.float32(lo) + np.float32(hi - lo) * u).astype(np.float32)

    def normal(self, mean: float = 0.0, std: float = 1.0, shape=()) -> Array:
        z = self._gen.standard_normal(shape, dtype=np.float32)
        self.position += int(np.size(z))
        return (np.float32(mean) + np.float32(std) * z).astype(np.float32)

    def integers(self, lo: int, hi: int, shape=()) -> Array:
        if not lo < hi:
            raise ValueError(f"integers requires lo < hi, got [{lo}, {hi})")
        v = self._gen.integers(lo, hi, size=shape)
        self.position += int(np.size(v))
        return v

    def permutation(self, n: int) -> Array:
        p = self._gen.permutation(int(n))
        self.position += int(n)
        return p


def encode_tensor(t: Array) -> bytes:
    """Encode as magic, u32 rank, u32 dims, little-endian f32 payload."""
    t = np.asarray(t)
    if t.dtype != np.float32:
        raise TensorCodecError(f"wire format carries float32 payloads, got {t.dtype}")
    header = WIRE_MAGIC + struct.pack("<I", t.ndim) + struct.pack(f"<{t.ndim}I", *t.shape)
    return header + np.ascontiguousarray(t).astype("<f4").tobytes()


def decode_tensor(buf: bytes) -> Array:
    if len(buf) < 8 or buf[:4] != WIRE_MAGIC:
        raise TensorCodecError("bad magic: not a serialized tensor")
    (rank,) = struct.unpack_from("<I", buf, 4)
    header_len = 8 + 4 * rank
    if len(buf) < header_len:
        raise TensorCodecError(f"truncated header: expected {header_len} bytes, got {len(buf)}")
    shape = struct.unpack_from(f"<{rank}I", buf, 8)
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    expected = header_len + 4 * count
    if len(buf) != expected:
        raise TensorCodecError(f"payload length mismatch: expected {expected} bytes, got {len(buf)}")
    data = np.frombuffer(buf, dtype="<f4", offset=header_len, count=count)
    return data.reshape(shape).astype(np.float32)
