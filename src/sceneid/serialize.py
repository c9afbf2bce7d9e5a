"""Low-level helpers for the versioned little-endian model containers.

Every model file is magic (4 bytes) + version (u16) + a sequence of fields
written by the pack_* helpers. Encoders are deterministic: identical inputs
produce identical bytes, which the pipeline relies on for reproducibility.
Nothing here touches a file: the pipeline reads and writes the bytes, and
reports a truncated or malformed container (a SceneidError) as a config
error naming the file.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from io import BytesIO

import numpy as np

from .errors import SceneidError


HEADER_BYTES = 6  # magic and version


@dataclass
class ContainerReader:
    """A cursor over a container's bytes, which it never copies."""

    raw: memoryview
    pos: int


def pack_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def pack_u64(fh, value: int) -> None:
    fh.write(struct.pack("<Q", value))


def pack_f64(fh, value: float) -> None:
    fh.write(struct.pack("<d", value))


def pack_str(fh, value: str) -> None:
    data = value.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def pack_array(fh, arr: np.ndarray) -> None:
    """Write ndim, the dims and the little-endian float64 payload; a C-ordered
    float64 array's memory goes into `fh` with no intermediate copy."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(arr.data)


def unpack_u32(fh) -> int:
    return struct.unpack("<I", _take(fh, 4))[0]


def unpack_u64(fh) -> int:
    return struct.unpack("<Q", _take(fh, 8))[0]


def unpack_f64(fh) -> float:
    return struct.unpack("<d", _take(fh, 8))[0]


def unpack_str(fh) -> str:
    n = unpack_u32(fh)
    return str(_take(fh, n), "utf-8")


def unpack_array(fh: ContainerReader) -> np.ndarray:
    """Read an array written by pack_array.

    The array is a view of the container's buffer when that buffer is
    writeable and the payload 8-byte aligned, as `pipeline.read_model_file`
    arranges for a container's last array (T in `tv.tvm`). Otherwise, for
    example from a `bytes` object, the payload is copied once into an owned
    array."""
    ndim = struct.unpack("<B", _take(fh, 1))[0]
    shape = tuple(unpack_u32(fh) for _ in range(ndim))
    payload = np.frombuffer(_take(fh, 8 * math.prod(shape)), dtype="<f8").reshape(shape)
    in_place = payload.flags.writeable and payload.flags.aligned
    return payload.astype(np.float64, copy=not in_place)


def _take(fh: ContainerReader, n: int) -> memoryview:
    end = fh.pos + n
    if end > len(fh.raw):
        raise SceneidError("container truncated")
    data = fh.raw[fh.pos:end]
    fh.pos = end
    return data


def new_container(magic: bytes, version: int) -> BytesIO:
    """A buffer holding magic and version; the encoder packs its fields after
    them and takes the file's bytes with getvalue()."""
    fh = BytesIO()
    fh.write(magic + struct.pack("<H", version))
    return fh


def open_container(raw, magic: bytes, version: int) -> ContainerReader:
    """Check magic and version of a container's bytes (any bytes-like
    object) and return a reader positioned at the payload."""
    raw = memoryview(raw)
    if len(raw) < HEADER_BYTES or raw[:4] != magic:
        raise SceneidError(f"wrong or missing magic (expected {magic!r})")
    (found,) = struct.unpack("<H", raw[4:HEADER_BYTES])
    if found != version:
        raise SceneidError(f"container version {found}, expected {version}")
    return ContainerReader(raw, HEADER_BYTES)


def close_container(fh: ContainerReader) -> None:
    """Check that the container ends after its last field."""
    extra = len(fh.raw) - fh.pos
    if extra:
        raise SceneidError(f"trailing bytes after the last field ({extra})")


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()
