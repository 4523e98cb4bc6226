"""Flat-file formats for fragments and messages.

Fragment files are self-describing and bit-exact across platforms:

    magic   "RGC1"
    codec   u8    (rbt=1, rbt-sys=2, mbr-psrs=3, mbr-vdm=4, shah=5)
    field   u8 kind (prime=1, binary=2, fermat=3) + u32 parameter
    n,k,d   u16 each
    node    u16
    count   u32
    symbols count * w bytes, little-endian

The symbol width w is ceil(bits(q-1)/8), except the Fermat field stores
4-byte symbols so the value 65536 fits a uniform width.  Message files
are raw symbols at the same width, exactly B of them.

Each file is read or written whole, with one open: symbols are packed
and range-checked before a file is opened for writing, so a symbol
outside the field leaves any file at the path untouched.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..errors import ParamsInvalid, WrongMessageLength
from ..fragments import CODEC_TAGS, Fragment, trusted_fragment
from ..gf import Field, field_new

MAGIC = b"RGC1"
_HEADER = struct.Struct("<4sBBIHHHHI")
_READ_SIZE = 1 << 16

_CODEC_IDS = {tag: i + 1 for i, tag in enumerate(CODEC_TAGS)}
_CODEC_BY_ID = {i: tag for tag, i in _CODEC_IDS.items()}
_KIND_IDS = {"prime": 1, "binary": 2, "fermat": 3}
_KIND_BY_ID = {i: k for k, i in _KIND_IDS.items()}


def symbol_width(field: Field) -> int:
    if field.kind == "fermat":
        return 4
    return max(1, ((field.q - 1).bit_length() + 7) // 8)


def _field_params(field: Field) -> tuple[int, int]:
    if field.kind == "prime":
        return _KIND_IDS["prime"], field.q
    if field.kind == "binary":
        return _KIND_IDS["binary"], field.m  # type: ignore[attr-defined]
    return _KIND_IDS["fermat"], 0


def _field_from(kind_id: int, parameter: int) -> Field:
    kind = _KIND_BY_ID.get(kind_id)
    if kind is None:
        raise ParamsInvalid(f"unknown field kind id {kind_id}")
    if kind != "fermat":
        return field_new(kind, parameter)
    if parameter:  # the Fermat field is written with parameter 0
        raise ParamsInvalid(f"Fermat field with parameter {parameter}")
    return field_new(kind)


def _read_all(path) -> bytes:
    """The whole file at `path`: one open, then reads until end of file."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _write_all(path, data: bytes) -> None:
    """Create or truncate the file at `path` (mode 0o666 less the umask, as
    Path.write_bytes does) and write all of `data`."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


# One-byte symbols are the bytes themselves.  Every wider field's symbols
# fit 4 bytes, so they are packed and unpacked through little-endian u32
# arrays, keeping the low w bytes of each.

def _pack(field: Field, symbols) -> bytes:
    """Symbols as little-endian unsigned integers of symbol_width(field) bytes."""
    # Python ints: at fragment sizes their min and max cost less than a
    # numpy range check
    symbols = symbols.tolist() if isinstance(symbols, np.ndarray) else list(symbols)
    if symbols and (min(symbols) < 0 or max(symbols) >= field.q):
        raise ValueError(f"symbols outside [0, {field.q})")
    w = symbol_width(field)
    if w == 1:
        return bytes(symbols)
    wide = np.array(symbols, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return wide[:, :w].tobytes()


def _unpack(field: Field, body: bytes, path) -> np.ndarray:
    """Inverse of _pack, as a read-only int64 array; a symbol outside the
    field raises ParamsInvalid."""
    w = symbol_width(field)
    if w == 1:
        symbols = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    else:
        wide = np.zeros((len(body) // w, 4), dtype=np.uint8)
        wide[:, :w] = np.frombuffer(body, dtype=np.uint8).reshape(-1, w)
        symbols = wide.view("<u4")[:, 0].astype(np.int64)
    # a w-byte symbol is below 256^w, so GF(2^8) and GF(2^16) need no check
    if field.q < 256**w and symbols.size and symbols.max() >= field.q:
        raise ParamsInvalid(f"{path}: symbol {symbols.max()} outside [0, {field.q})")
    symbols.setflags(write=False)
    return symbols


def write_fragment(path: str | os.PathLike, field: Field, n: int, k: int, d: int,
                   fragment: Fragment) -> None:
    header = _HEADER.pack(
        MAGIC,
        _CODEC_IDS[fragment.codec],
        *_field_params(field),
        n,
        k,
        d,
        fragment.node,
        len(fragment.symbols),
    )
    _write_all(path, header + _pack(field, fragment.symbols))


def read_fragment(path: str | os.PathLike) -> tuple[Field, int, int, int, Fragment]:
    raw = _read_all(path)
    if len(raw) < _HEADER.size or raw[:4] != MAGIC:
        raise ParamsInvalid(f"{path}: not a fragment file")
    magic, codec_id, kind_id, parameter, n, k, d, node, count = _HEADER.unpack_from(raw)
    codec = _CODEC_BY_ID.get(codec_id)
    if codec is None:
        raise ParamsInvalid(f"{path}: unknown codec id {codec_id}")
    field = _field_from(kind_id, parameter)
    w = symbol_width(field)
    body = raw[_HEADER.size:]
    if len(body) != count * w:
        raise ParamsInvalid(f"{path}: expected {count * w} symbol bytes, found {len(body)}")
    if not 1 <= node <= n:
        raise ParamsInvalid(f"{path}: node {node} outside [1, {n}]")
    return field, n, k, d, trusted_fragment(codec, node, _unpack(field, body, path))


def write_message(path: str | os.PathLike, field: Field, symbols) -> None:
    _write_all(path, _pack(field, symbols))


def read_message(path: str | os.PathLike, field: Field, count: int) -> list[int]:
    raw = _read_all(path)
    w = symbol_width(field)
    if len(raw) != count * w:
        raise WrongMessageLength(f"{path}: {len(raw)} bytes, expected {count} symbols of width {w}")
    return _unpack(field, raw, path).tolist()
