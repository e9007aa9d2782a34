"""Binary tensor file format and PGM image export.

Tensor files carry a little-endian header ``magic "UCDL" | version u32 |
ndim u32 | dims u64 x ndim | dtype tag u32`` followed by the raw row-major
interleaved re/im float64 payload.  Only complex128 (tag 1) is defined.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"UCDL"
VERSION = 1
DTYPE_TAG_COMPLEX128 = 1


class TensorFormatError(ValueError):
    """The file is not a valid tensor file of a supported version."""


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write a complex128 tensor to `path` in the package binary format."""
    if np.ndim(array) == 0:
        raise ValueError("tensor files store arrays with ndim >= 1")
    array = np.ascontiguousarray(array, dtype="<c16")
    header = MAGIC + struct.pack("<II", VERSION, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    header += struct.pack("<I", DTYPE_TAG_COMPLEX128)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(array.tobytes())


def _read_header_field(fh, path, fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    blob = fh.read(size)
    if len(blob) != size:
        raise TensorFormatError(f"{path}: truncated header")
    return struct.unpack(fmt, blob)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise TensorFormatError(f"{path}: bad magic {magic!r}")
        version, ndim = _read_header_field(fh, path, "<II")
        if version != VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        dims = _read_header_field(fh, path, f"<{ndim}Q")
        (tag,) = _read_header_field(fh, path, "<I")
        if tag != DTYPE_TAG_COMPLEX128:
            raise TensorFormatError(f"{path}: unsupported dtype tag {tag}")
        if ndim == 0:
            raise TensorFormatError(f"{path}: zero-dimensional tensor")
        count = int(np.prod(dims))
        data = np.fromfile(fh, dtype="<c16", count=count)
        if data.size != count:
            raise TensorFormatError(f"{path}: truncated payload")
    return data.reshape(dims).astype(np.complex128)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2D uint8 array as a binary (P5) PGM file."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"PGM image must be 2D, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise ValueError(f"PGM image must be uint8, got {image.dtype}")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def quantize_window(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map real values linearly from [lo, hi] to uint8, clipping outside."""
    if not hi > lo:
        raise ValueError(f"window [{lo}, {hi}] is empty")
    scaled = (np.asarray(values, dtype=np.float64) - lo) / (hi - lo)
    return (np.clip(scaled, 0.0, 1.0) * 255.0).round().astype(np.uint8)
