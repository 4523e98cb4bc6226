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


def write_fragment(path: str | Path, field: Field, n: int, k: int, d: int,
                   fragment: Fragment) -> None:
    w = symbol_width(field)
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
    body = b"".join(s.to_bytes(w, "little") for s in fragment.symbols)
    Path(path).write_bytes(header + body)


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
    symbols = tuple(
        int.from_bytes(body[i * w: (i + 1) * w], "little") for i in range(count)
    )
    for s in symbols:
        field.check(s)
    return field, n, k, d, Fragment(codec, node, symbols)


def write_message(path: str | Path, field: Field, symbols) -> None:
    w = symbol_width(field)
    Path(path).write_bytes(b"".join(field.check(s).to_bytes(w, "little") for s in symbols))


def read_message(path: str | Path, field: Field, count: int | None = None) -> list[int]:
    raw = Path(path).read_bytes()
    w = symbol_width(field)
    if len(raw) % w:
        raise WrongMessageLength(f"{path}: length {len(raw)} is not a multiple of width {w}")
    symbols = [int.from_bytes(raw[i: i + w], "little") for i in range(0, len(raw), w)]
    if count is not None and len(symbols) != count:
        raise WrongMessageLength(f"{path}: {len(symbols)} symbols, expected {count}")
    for s in symbols:
        field.check(s)
    return symbols
