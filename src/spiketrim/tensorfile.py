"""Bit-exact binary tensor file format and the line-based manifest format.

Layout (little-endian):
    magic    4 bytes  b"SPKT"
    version  1 byte   = 1
    dtype    1 byte   0 = float32 LE, 1 = unsigned byte binary ({0, 1})
    rank     1 byte
    reserved 1 byte   = 0
    dims     rank x uint32 LE
    payload  row-major data

Round-trips are byte-identical for both dtypes.
"""
from __future__ import annotations

import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ContractError, ShapeError
from .tensors import DenseTensor, SpikeTensor, Tensor, check_shape

MAGIC = b"SPKT"
VERSION = 1
DTYPE_F32 = 0
DTYPE_U8 = 1


def write_tensor(path: Union[str, Path], t: Tensor) -> None:
    dims = check_shape(t.shape)
    if isinstance(t, SpikeTensor):
        dtype, payload = DTYPE_U8, t.data.tobytes()
    else:
        dtype, payload = DTYPE_F32, t.data.astype("<f4").tobytes()
    header = MAGIC + struct.pack("<BBBB", VERSION, dtype, len(dims), 0)
    header += struct.pack(f"<{len(dims)}I", *dims)
    Path(path).write_bytes(header + payload)


def read_tensor(path: Union[str, Path]) -> Tensor:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise ShapeError(f"{path}: not a tensor file (bad magic)")
    version, dtype, rank, reserved = struct.unpack("<BBBB", raw[4:8])
    if version != VERSION:
        raise ShapeError(f"{path}: unsupported version {version}")
    if reserved != 0:
        raise ShapeError(f"{path}: reserved byte must be 0")
    if not 1 <= rank <= 5:
        raise ShapeError(f"{path}: bad rank {rank}")
    dims_end = 8 + 4 * rank
    if len(raw) < dims_end:
        raise ShapeError(f"{path}: header truncated in its {rank} dims")
    dims = struct.unpack(f"<{rank}I", raw[8:dims_end])
    check_shape(dims)
    count = int(np.prod(dims))
    payload = raw[dims_end:]
    if dtype == DTYPE_F32:
        if len(payload) != 4 * count:
            raise ShapeError(f"{path}: payload size mismatch")
        data = np.frombuffer(payload, dtype="<f4").reshape(dims)
        return DenseTensor(data.astype(np.float32))
    if dtype == DTYPE_U8:
        if len(payload) != count:
            raise ShapeError(f"{path}: payload size mismatch")
        data = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
        if data.max(initial=0) > 1:
            raise ShapeError(f"{path}: binary payload contains values outside {{0, 1}}")
        return SpikeTensor(data)
    raise ShapeError(f"{path}: unknown dtype byte {dtype}")


def write_manifest(path: Union[str, Path], entries: dict[str, str]) -> None:
    """Flat key=value manifest: UTF-8, LF endings, keys written in sorted order."""
    lines = [f"{k}={entries[k]}" for k in sorted(entries)]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_manifest(path: Union[str, Path]) -> dict[str, str]:
    """Parse key=value lines; blank lines and #-comments are ignored."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not UTF-8: {exc}") from None
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ShapeError(f"{path}: malformed manifest line {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@contextmanager
def manifest_fields(path: Union[str, Path]):
    """Report a key missing from the manifest at path, or a value that does
    not parse, as a one-line ContractError."""
    try:
        yield
    except KeyError as exc:
        raise ContractError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise ContractError(f"{path}: bad value: {exc}") from None
