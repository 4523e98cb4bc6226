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
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import ParamsInvalid, WrongMessageLength
from ..fragments import CODEC_TAGS, Fragment
from ..gf import Field, field_new

MAGIC = b"RGC1"
_HEADER = struct.Struct("<4sBBIHHHHI")

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
    return field_new(kind, parameter if kind != "fermat" else None)


# Every supported field's symbols fit 4 bytes, so symbols are packed and
# unpacked through little-endian u32 arrays, keeping the low w bytes of each.

def _pack(field: Field, symbols) -> bytes:
    """Symbols as little-endian unsigned integers of symbol_width(field) bytes."""
    symbols = list(symbols)
    if symbols and (min(symbols) < 0 or max(symbols) >= field.q):
        raise ValueError(f"symbols outside [0, {field.q})")
    wide = np.array(symbols, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return wide[:, :symbol_width(field)].tobytes()


def _unpack(field: Field, body: bytes, path) -> list[int]:
    """Inverse of _pack; a symbol outside the field raises ParamsInvalid."""
    w = symbol_width(field)
    wide = np.zeros((len(body) // w, 4), dtype=np.uint8)
    wide[:, :w] = np.frombuffer(body, dtype=np.uint8).reshape(-1, w)
    symbols = wide.view("<u4")[:, 0].tolist()
    if symbols and max(symbols) >= field.q:
        raise ParamsInvalid(f"{path}: symbol {max(symbols)} outside [0, {field.q})")
    return symbols


def write_fragment(path: str | Path, field: Field, n: int, k: int, d: int,
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
    Path(path).write_bytes(header + _pack(field, fragment.symbols))


def read_fragment(path: str | Path) -> tuple[Field, int, int, int, Fragment]:
    raw = Path(path).read_bytes()
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
    return field, n, k, d, Fragment(codec, node, tuple(_unpack(field, body, path)))


def write_message(path: str | Path, field: Field, symbols) -> None:
    Path(path).write_bytes(_pack(field, symbols))


def read_message(path: str | Path, field: Field, count: int | None = None) -> list[int]:
    raw = Path(path).read_bytes()
    w = symbol_width(field)
    if len(raw) % w:
        raise WrongMessageLength(f"{path}: length {len(raw)} is not a multiple of width {w}")
    if count is not None and len(raw) != count * w:
        raise WrongMessageLength(f"{path}: {len(raw) // w} symbols, expected {count}")
    return _unpack(field, raw, path)
