"""Binary tensor file format, JSON manifests, atomic writes and PGM export.

Tensor files carry a little-endian header ``magic "UCDL" | version u32 |
ndim u32 | dims u64 x ndim | dtype tag u32`` followed by the raw row-major
interleaved re/im float64 payload.  Only complex128 (tag 1) is defined.
Every output file is written by `atomic_write` and every output directory
made by `make_directory`; `all_or_nothing` lands a set of them together, and
`reserve` opens a file's temporary before the block computes what goes in it.
"""

from __future__ import annotations

import errno
import itertools
import json
import math
import os
import shutil
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"UCDL"
VERSION = 1
DTYPE_TAG_COMPLEX128 = 1


class TensorFormatError(ValueError):
    """The file is not a valid tensor file of a supported version."""


# the open block ({target: its last temporary}, all temporaries, directories
# made, {target: the temporary reserved for its next write})
_block: tuple[dict, set, list, dict] | None = None
_serial = itertools.count()  # tells apart temporary files of one path


@contextmanager
def all_or_nothing():
    """Hold back each `atomic_write` in the block until it exits cleanly, then
    replace the targets in the order each was first written, a path written
    twice with its last bytes.  An exception, `BaseException` included,
    removes the temporary files and the directories `make_directory` made in
    the block.  A block inside another is part of the outer one; the package
    runs no threads, so one module-level slot holds the open block."""
    global _block
    if _block is not None:
        yield
        return
    _block = targets, temps, made, _ = {}, set(), [], {}
    try:
        yield
        for path, tmp in targets.items():
            try:
                os.replace(tmp, path)
            except OSError as err:  # path made a directory while the block ran
                raise _named(path, err) from err
        made.clear()  # a clean exit keeps its directories
    finally:
        _block = None
        for tmp in temps:  # all but those that replaced a target
            tmp.unlink(missing_ok=True)
        for directory in reversed(made):
            shutil.rmtree(directory, ignore_errors=True)


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temporary file beside `path` that replaces `path` when the
    `all_or_nothing` block around it exits cleanly, a block of its own outside
    any.  Readers see the old file or the whole new one.  Nothing is synced to
    disk, so this guards against a crashed process, not a lost machine.  A
    directory at `path` is rejected before the block runs.  A failure reads
    `<path>: <reason>`, naming `path` and not the temporary file."""
    path = Path(path)
    with all_or_nothing():
        tmp, fh = _open_temporary(path, mode)
        with fh:
            yield fh
        _block[0][path] = tmp  # once its block ran cleanly; a rewrite keeps the first place


def reserve(path: str | Path) -> None:
    """Open now, in the open `all_or_nothing` block, the temporary file that
    the next `atomic_write` of `path` in the block writes, so that an output
    that cannot be written fails as `atomic_write` would, before the block
    computes what goes in it.  A reserved file left unwritten is removed with
    the block's other temporaries."""
    if _block is None:
        raise RuntimeError("reserve needs an open all_or_nothing block")
    path = Path(path)
    tmp, fh = _open_temporary(path, "wb")
    fh.close()
    _block[3][path] = tmp


def _open_temporary(path: Path, mode: str):
    """(temporary, open file) for a write of `path` in the open block: the
    temporary `reserve` made for it, else a new one beside it."""
    _, temps, _, reserved = _block
    tmp = reserved.pop(path, None) or path.with_name(
        f".{path.name}.{os.getpid()}.{next(_serial)}.tmp")
    try:
        if path.is_dir():  # which os.replace would reject after the block
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fh = open(tmp, mode)
    except OSError as err:  # a missing directory, one that cannot be written
        raise _named(path, err) from err
    temps.add(tmp)
    return tmp, fh


def make_directory(path: str | Path) -> Path:
    """Create the directory `path` and any missing parents, recording the first one
    made for the `all_or_nothing` block around it; a failure reads `<path>: <reason>`."""
    path = Path(path)
    if _block is not None:
        _block[2].extend([p for p in (*reversed(path.parents), path) if not p.exists()][:1])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a file in its place or in a parent's
        raise _named(path, err) from err
    return path


def write_json(path: str | Path, payload) -> None:
    """Write `payload` as indented, key-sorted JSON, atomically."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write a complex128 tensor to `path` in the package binary format."""
    if np.ndim(array) == 0:
        raise ValueError("tensor files store arrays with ndim >= 1")
    array = np.ascontiguousarray(array, dtype="<c16")
    header = MAGIC + struct.pack("<II", VERSION, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    header += struct.pack("<I", DTYPE_TAG_COMPLEX128)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(array.tobytes())


def _read_header_field(fh, path, fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    blob = fh.read(size)
    if len(blob) != size:
        raise TensorFormatError(f"{path}: truncated header")
    return struct.unpack(fmt, blob)


def _named(path, err: OSError) -> OSError:
    """`err`, of its own type, as the one line `<path>: <reason>`."""
    return type(err)(f"{path}: {err.strerror or err}")


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor`, rejecting one with a
    NaN or Inf entry or with bytes after its payload."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise TensorFormatError(f"{path}: bad magic {magic!r}")
            version, ndim = _read_header_field(fh, path, "<II")
            if version != VERSION:
                raise TensorFormatError(f"{path}: unsupported version {version}")
            size = os.fstat(fh.fileno()).st_size
            # check a size the header promises against the file before reading it
            if 8 * ndim > size - fh.tell():
                raise TensorFormatError(f"{path}: truncated header")
            dims = _read_header_field(fh, path, f"<{ndim}Q")
            (tag,) = _read_header_field(fh, path, "<I")
            if tag != DTYPE_TAG_COMPLEX128:
                raise TensorFormatError(f"{path}: unsupported dtype tag {tag}")
            if ndim == 0:
                raise TensorFormatError(f"{path}: zero-dimensional tensor")
            count = math.prod(dims)
            if 16 * count > size - fh.tell():
                raise TensorFormatError(f"{path}: truncated payload")
            if 16 * count < size - fh.tell():
                raise TensorFormatError(f"{path}: {size - fh.tell() - 16 * count} bytes "
                                        f"after the payload")
            data = np.fromfile(fh, dtype="<c16", count=count)
    except OSError as err:  # a missing file, a directory, a failed read
        raise _named(path, err) from err
    if not np.isfinite(data).all():
        raise TensorFormatError(f"{path}: non-finite entries")
    return data.reshape(dims).astype(np.complex128, copy=False)


# how a manifest type reads in a message; float stands for any finite JSON number
_TYPE_NAMES = {dict: "an object", str: "a string", float: "a finite number",
               list[str]: "a list of strings"}


def _has_type(value, expected) -> bool:
    """Whether a decoded JSON value is of `expected`, a key of _TYPE_NAMES;
    a number is an int or a float but not a bool, and converts to a finite
    float (json decodes NaN and Infinity)."""
    if expected == list[str]:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, expected)


def read_manifest(path: str | Path, keys: dict) -> dict:
    """The JSON object in `path`, checked to hold every key of `keys` with
    a value of the type `keys` maps it to (see _TYPE_NAMES)."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:  # a missing file, a directory, a failed read
        raise _named(path, err) from err
    except ValueError as err:  # bad JSON, an oversized integer or bytes that are not UTF-8
        raise ValueError(f"{path}: {err}") from err
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key, expected in keys.items():
        if key not in manifest:
            raise ValueError(f"{path}: missing key {key!r}")
        if not _has_type(manifest[key], expected):
            raise ValueError(f"{path}: key {key!r} must be {_TYPE_NAMES[expected]}, "
                             f"got {manifest[key]!r}")
    return manifest


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2D uint8 array as a binary (P5) PGM file."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"PGM image must be 2D, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise ValueError(f"PGM image must be uint8, got {image.dtype}")
    h, w = image.shape
    with atomic_write(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def quantize_window(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map real values linearly from [lo, hi] to uint8, clipping outside."""
    if not hi > lo:
        raise ValueError(f"window [{lo}, {hi}] is empty")
    scaled = (np.asarray(values, dtype=np.float64) - lo) / (hi - lo)
    return (np.clip(scaled, 0.0, 1.0) * 255.0).round().astype(np.uint8)
