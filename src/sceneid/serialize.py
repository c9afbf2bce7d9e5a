"""Low-level helpers for the versioned little-endian model containers.

Every model file is magic (4 bytes) + version (u16) + a sequence of fields
written by the pack_* helpers. Encoders are deterministic: identical inputs
produce identical bytes, which the pipeline relies on for reproducibility.
Nothing here touches a file: the pipeline reads and writes the bytes.
"""

from __future__ import annotations

import hashlib
import struct
from io import BytesIO

import numpy as np

from .errors import SceneidError


HEADER_BYTES = 6  # magic and version


class ContainerError(SceneidError):
    pass


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
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(arr.astype("<f8").tobytes())


def unpack_u32(fh) -> int:
    return struct.unpack("<I", _take(fh, 4))[0]


def unpack_u64(fh) -> int:
    return struct.unpack("<Q", _take(fh, 8))[0]


def unpack_f64(fh) -> float:
    return struct.unpack("<d", _take(fh, 8))[0]


def unpack_str(fh) -> str:
    n = unpack_u32(fh)
    return _take(fh, n).decode("utf-8")


def unpack_array(fh: BytesIO) -> np.ndarray:
    """Read an array written by pack_array, copying its payload once out of
    the container's buffer."""
    ndim = struct.unpack("<B", _take(fh, 1))[0]
    shape = tuple(unpack_u32(fh) for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    start = fh.tell()
    with fh.getbuffer() as buffer:
        if len(buffer) - start < 8 * count:
            raise ContainerError("container truncated")
        view = np.frombuffer(buffer, dtype="<f8", count=count, offset=start)
        data = view.reshape(shape).astype(np.float64)
        del view  # the buffer cannot be released while a view exports it
    fh.seek(start + 8 * count)
    return data


def _take(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ContainerError("container truncated")
    return data


def new_container(magic: bytes, version: int) -> BytesIO:
    """A buffer holding magic and version; the encoder packs its fields after
    them and takes the file's bytes with getvalue()."""
    fh = BytesIO()
    fh.write(magic + struct.pack("<H", version))
    return fh


def open_container(raw: bytes, magic: bytes, version: int) -> BytesIO:
    """Check magic and version and return a reader positioned at the payload."""
    if len(raw) < HEADER_BYTES or raw[:4] != magic:
        raise ContainerError(f"wrong or missing magic (expected {magic!r})")
    (found,) = struct.unpack("<H", raw[4:HEADER_BYTES])
    if found != version:
        raise ContainerError(f"container version {found}, expected {version}")
    fh = BytesIO(raw)  # shares raw's buffer; slicing would copy the payload
    fh.seek(HEADER_BYTES)
    return fh


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()
