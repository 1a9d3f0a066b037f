"""Flat binary serialization of parameter bundles.

Layout (little-endian throughout):

    magic   4 bytes  b"SQS1"
    tag     u32 length + utf-8 bytes   (architecture tag)
    count   u32                        (number of arrays)
    entry*  u32 name length + utf-8 name, u32 ndim, u64 * ndim extents
    data    raw float64 arrays, concatenated in entry order

Round-trips are bit-exact: arrays are written and read as raw IEEE-754
doubles with no textual conversion.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

_MAGIC = b"SQS1"


class BundleFormatError(ValueError):
    pass


def save_bundle(path: str | Path, tag: str, arrays: dict[str, np.ndarray]) -> None:
    chunks = [_MAGIC]
    tag_bytes = tag.encode("utf-8")
    chunks.append(struct.pack("<I", len(tag_bytes)))
    chunks.append(tag_bytes)
    chunks.append(struct.pack("<I", len(arrays)))
    payload = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8")
        if not arr.flags.c_contiguous:
            arr = arr.copy(order="C")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        payload.append(arr.tobytes())
    chunks.extend(payload)
    Path(path).write_bytes(b"".join(chunks))


def load_bundle(path: str | Path) -> tuple[str, dict[str, np.ndarray]]:
    """Read a bundle; every length is checked against the bytes left before
    it is read, so a truncated or corrupt file raises BundleFormatError."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise BundleFormatError(f"{path}: not a parameter bundle")
    pos = 4

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        if size > len(raw) - pos:
            raise BundleFormatError(
                f"{path}: truncated bundle ({what} needs {size} bytes at "
                f"offset {pos}, {len(raw) - pos} left)"
            )
        chunk = raw[pos:pos + size]
        pos += size
        return chunk

    def read(fmt: str, what: str):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    def text(what: str) -> str:
        (length,) = read("<I", f"{what} length")
        try:
            return take(length, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BundleFormatError(f"{path}: {what} is not utf-8") from exc

    tag = text("tag")
    (count,) = read("<I", "array count")
    headers = []
    for _ in range(count):
        name = text("array name")
        (ndim,) = read("<I", f"rank of {name}")
        shape = read(f"<{ndim}Q", f"shape of {name}") if ndim else ()
        headers.append((name, tuple(int(s) for s in shape)))
    arrays: dict[str, np.ndarray] = {}
    for name, shape in headers:
        payload = take(8 * math.prod(shape), f"data of {name}")
        try:
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # an extent numpy cannot index
            raise BundleFormatError(f"{path}: bad shape {shape} for {name}") from exc
    if pos != len(raw):
        raise BundleFormatError(f"{path}: trailing bytes in bundle")
    return tag, arrays
