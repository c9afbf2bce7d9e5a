"""Low-level helpers for the versioned little-endian model containers.

Every model file is magic (4 bytes) + version (u16) + a sequence of fields
written by the pack_* helpers. Writers are deterministic: identical inputs
produce identical bytes, which the pipeline relies on for reproducibility.
"""

from __future__ import annotations

import hashlib
import struct
from io import BytesIO

import numpy as np

from .errors import SceneidError


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


def write_container(path, magic: bytes, version: int, payload: bytes) -> None:
    with open(path, "wb") as out:
        out.write(magic)
        out.write(struct.pack("<H", version))
        out.write(payload)


def read_container(path, magic: bytes, version: int, raw: bytes | None = None) -> BytesIO:
    """Check magic and version and return the payload; `raw` is the file's
    content when the caller has already read it, else the file is read."""
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    if len(raw) < 6 or raw[:4] != magic:
        raise ContainerError(f"{path}: wrong or missing magic (expected {magic!r})")
    (found,) = struct.unpack("<H", raw[4:6])
    if found != version:
        raise ContainerError(f"{path}: container version {found}, expected {version}")
    fh = BytesIO(raw)  # shares raw's buffer; slicing would copy the payload
    fh.seek(6)
    return fh


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()
