"""Binary file formats: CTN1 tensors, CFPW model weights, CFPS state snapshots.

CTN1: magic "CTN1", u32-LE ndim, ndim x u64-LE dims, u8 dtype code
(0 = f32, 1 = f64), then the raw little-endian row-major payload.

CFPW: magic "CFPW", u32-LE length + UTF-8 JSON config document, then a
sequence of named tensors (u32-LE name length, name bytes, CTN1 record)
until end of file.

CFPS: magic "CFPS", u64-LE frame offset, then CTN1 records until end of
file, in layer order: per-head past keys, per-head past values, first conv
state, second conv state. `decoder.state_shapes` states the shape of each
record for a config and frame offset, and so the cache bound;
`decoder.load_decoder_state` checks a snapshot tensor by tensor against it.
"""

from __future__ import annotations

import json
import os
import struct
from typing import BinaryIO

import numpy as np

TENSOR_MAGIC = b"CTN1"
WEIGHTS_MAGIC = b"CFPW"
STATE_MAGIC = b"CFPS"

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES_BY_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class FormatError(ValueError):
    """A file or byte stream does not conform to its declared format."""


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    code = _CODES_BY_DTYPE.get(arr.dtype)
    if code is None:
        raise FormatError(f"unsupported dtype {arr.dtype}; CTN1 stores f32 or f64")
    header = TENSOR_MAGIC + struct.pack("<I", arr.ndim)
    header += b"".join(struct.pack("<Q", d) for d in arr.shape)
    header += struct.pack("<B", code)
    payload = np.ascontiguousarray(arr).astype(_DTYPE_CODES[code], copy=False).tobytes()
    return header + payload


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}")
    return data


def _bytes_left(f: BinaryIO) -> int:
    pos = f.tell()
    end = f.seek(0, os.SEEK_END)
    f.seek(pos)
    return end - pos


def _read_tensor_body(f: BinaryIO) -> np.ndarray:
    (ndim,) = struct.unpack("<I", _read_exact(f, 4, "ndim"))
    if ndim > 8:
        raise FormatError(f"implausible tensor rank {ndim}")
    dims = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim, "dims"))
    (code,) = struct.unpack("<B", _read_exact(f, 1, "dtype code"))
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise FormatError(f"unknown dtype code {code}")
    count = 1
    for d in dims:
        count *= d
    size = count * dtype.itemsize
    left = _bytes_left(f)
    if size > left:
        raise FormatError(
            f"truncated file: tensor {tuple(dims)} declares {size} payload bytes, {left} left"
        )
    payload = _read_exact(f, size, "tensor payload")
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
    return arr.astype(arr.dtype.newbyteorder("="), copy=True)


def read_tensor(f: BinaryIO) -> np.ndarray:
    magic = _read_exact(f, 4, "CTN1 magic")
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    return _read_tensor_body(f)


def save_tensor(path: str, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(tensor_to_bytes(arr))


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        arr = read_tensor(f)
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after tensor payload")
    return arr


def save_weights(path: str, config: dict, tensors: dict[str, np.ndarray]) -> None:
    doc = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<I", len(doc)))
        f.write(doc)
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(tensor_to_bytes(arr))


def load_weights(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "CFPW magic")
        if magic != WEIGHTS_MAGIC:
            raise FormatError(f"{path}: bad weights magic {magic!r}")
        (doc_len,) = struct.unpack("<I", _read_exact(f, 4, "config length"))
        try:
            config = json.loads(_read_exact(f, doc_len, "config document"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: invalid config JSON: {e}") from e
        tensors: dict[str, np.ndarray] = {}
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise FormatError(f"{path}: truncated tensor name length")
            (name_len,) = struct.unpack("<I", head)
            try:
                name = _read_exact(f, name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: tensor name is not UTF-8: {e}") from e
            if name in tensors:
                raise FormatError(f"{path}: duplicate tensor name {name!r}")
            tensors[name] = read_tensor(f)
    return config, tensors


def save_state(path: str, frame_offset: int, tensors: list[np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(STATE_MAGIC)
        f.write(struct.pack("<Q", frame_offset))
        for arr in tensors:
            f.write(tensor_to_bytes(arr))


def load_state(path: str) -> tuple[int, list[np.ndarray]]:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "CFPS magic")
        if magic != STATE_MAGIC:
            raise FormatError(f"{path}: bad state magic {magic!r}")
        (frame_offset,) = struct.unpack("<Q", _read_exact(f, 8, "frame offset"))
        tensors: list[np.ndarray] = []
        while True:
            head = f.read(4)
            if not head:
                break
            if head != TENSOR_MAGIC:
                raise FormatError(f"{path}: bad tensor magic {head!r}")
            tensors.append(_read_tensor_body(f))
    return frame_offset, tensors
