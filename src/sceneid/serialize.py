"""The versioned little-endian model containers.

A container is magic (4 bytes), version (u16), then a fixed sequence of
fields. Each model module declares its container once, as a `Format` of
field kinds, and that one declaration drives both its encoder and its
decoder. The kinds are u32, u64, f64, str (u32 byte length, then UTF-8),
strs (a u32 count, then that many strs) and array (u8 ndim, u32 dims, then
the little-endian float64 payload). Encoding is deterministic: identical
values produce identical bytes, which the pipeline relies on for
reproducibility. Nothing here touches a file: the pipeline reads and writes
the bytes, and reports a truncated or malformed container (a SceneidError)
as a config error naming the file.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SceneidError


HEADER_BYTES = 6  # magic and version


def _scalar(code: str):
    size = struct.calcsize(code)
    return (lambda out, value: out.append(struct.pack(code, value)),
            lambda take: struct.unpack(code, take(size))[0])


_write_u32, _read_u32 = _scalar("<I")


def _write_str(out: list, value: str) -> None:
    data = value.encode("utf-8")
    _write_u32(out, len(data))
    out.append(data)


def _read_str(take) -> str:
    return str(take(_read_u32(take)), "utf-8")


def _write_strs(out: list, values) -> None:
    _write_u32(out, len(values))
    for value in values:
        _write_str(out, value)


def _read_strs(take) -> list[str]:
    return [_read_str(take) for _ in range(_read_u32(take))]


def _write_array(out: list, arr) -> None:
    """A C-ordered float64 array's memory goes into the container with no
    intermediate copy."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    out.append(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
    out.append(arr.data)


def _read_array(take) -> np.ndarray:
    """The array is a view of the container's buffer when that buffer is
    writeable and the payload 8-byte aligned, as `pipeline.read_model_file`
    arranges for a container's last array (T in `tv.tvm`). Otherwise, for
    example from a `bytes` object, the payload is copied once into an owned
    array."""
    (ndim,) = struct.unpack("<B", take(1))
    shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
    payload = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
    in_place = payload.flags.writeable and payload.flags.aligned
    return payload.astype(np.float64, copy=not in_place)


# The writer and the reader of each field kind.
_KINDS = {
    "u32": (_write_u32, _read_u32),
    "u64": _scalar("<Q"),
    "f64": _scalar("<d"),
    "str": (_write_str, _read_str),
    "strs": (_write_strs, _read_strs),
    "array": (_write_array, _read_array),
}


@dataclass(frozen=True)
class Format:
    """One container format: its magic, its version and its field kinds in order."""

    magic: bytes
    version: int
    kinds: tuple

    def encode(self, *values) -> bytes:
        """The container of `values`, one per field kind."""
        out = [self.magic, struct.pack("<H", self.version)]
        for kind, value in zip(self.kinds, values, strict=True):
            _KINDS[kind][0](out, value)
        return b"".join(out)

    def decode(self, raw) -> list:
        """The field values of a container's bytes (any bytes-like object).

        The magic and version are checked first, and the container must end
        after its last field."""
        raw = memoryview(raw)
        if len(raw) < HEADER_BYTES or raw[:4] != self.magic:
            raise SceneidError(f"wrong or missing magic (expected {self.magic!r})")
        (found,) = struct.unpack("<H", raw[4:HEADER_BYTES])
        if found != self.version:
            raise SceneidError(f"container version {found}, expected {self.version}")
        pos = HEADER_BYTES

        def take(n: int) -> memoryview:  # the next n bytes, never copied
            nonlocal pos
            if pos + n > len(raw):
                raise SceneidError("container truncated")
            pos += n
            return raw[pos - n:pos]

        values = [_KINDS[kind][1](take) for kind in self.kinds]
        if extra := len(raw) - pos:
            raise SceneidError(f"trailing bytes after the last field ({extra})")
        return values


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()
