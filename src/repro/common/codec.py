"""Pluggable serialization codecs for ledger payloads.

Blocks on the simulated file system are stored as *bytes* and must be
decoded on every read -- that decode cost is the paper's central cost
driver, so it has to be real work, not a pointer copy.  Two codecs are
provided:

* :class:`JsonCodec` -- human-inspectable, the default for block storage.
* :class:`BinaryCodec` -- a compact from-scratch tag-length-value format
  (varint lengths, type tags) used by the codec ablation benchmark.
* :class:`CompactCodec` -- :class:`BinaryCodec` plus a per-payload string
  interning table: every string (value or dict key) appearing more than
  once is stored once and referenced by index afterwards.  Block payloads
  are full of repeated structure (``"tx_id"``, ``"writes"``, chaincode
  names, per-transaction dict keys), so interning shrinks them without
  any cross-payload state.

Both codecs round-trip the JSON-ish value universe: ``None``, ``bool``,
``int``, ``float``, ``str``, ``bytes``, ``list`` and ``dict`` with string
keys.  ``bytes`` survive a JSON round trip via a tagged base64 wrapper.
"""

from __future__ import annotations

import base64
import json
import struct
from abc import ABC, abstractmethod
from typing import Any

from repro.common.errors import CodecError

_BYTES_TAG = "__repro_bytes__"


class Codec(ABC):
    """Serialize Python values to bytes and back."""

    #: Short identifier used in file headers and configs.
    name: str = "abstract"

    @abstractmethod
    def encode(self, value: Any) -> bytes:
        """Serialize ``value``; raises :class:`CodecError` on failure."""

    @abstractmethod
    def decode(self, payload: bytes) -> Any:
        """Deserialize ``payload``; raises :class:`CodecError` on failure."""


class JsonCodec(Codec):
    """UTF-8 JSON with a tagged wrapper so ``bytes`` round-trip.

    The encoder and decoder are built once per instance: ``json.dumps``
    and ``json.loads`` construct a fresh one on every call whenever a
    non-default option (``default``, ``separators``, ``object_hook``) is
    passed.  Both are stateless between calls, so sharing them across
    threads is safe.
    """

    name = "json"

    def __init__(self) -> None:
        self._encoder = json.JSONEncoder(
            default=self._encode_special, separators=(",", ":")
        )
        self._decoder = json.JSONDecoder(object_hook=self._decode_special)

    def encode(self, value: Any) -> bytes:
        try:
            return self._encoder.encode(value).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"JSON encode failed: {exc}") from exc

    def decode(self, payload: bytes) -> Any:
        try:
            return self._decoder.decode(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError(f"JSON decode failed: {exc}") from exc

    @staticmethod
    def _encode_special(value: Any) -> Any:
        if isinstance(value, bytes):
            return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
        raise TypeError(f"not JSON serializable: {type(value).__name__}")

    @staticmethod
    def _decode_special(obj: dict) -> Any:
        if _BYTES_TAG in obj and len(obj) == 1:
            return base64.b64decode(obj[_BYTES_TAG])
        return obj


# --- Binary codec ----------------------------------------------------------
#
# Layout: one type-tag byte, then a type-specific body.  Variable-length
# payloads are prefixed with an unsigned LEB128 varint length.  Containers
# are a varint count followed by the encoded items.

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT_POS = 0x03
_T_INT_NEG = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_LIST = 0x08
_T_DICT = 0x09


def write_uvarint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise CodecError(f"uvarint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(payload: bytes, offset: int) -> tuple[int, int]:
    """Read a varint from ``payload`` at ``offset``; return (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(payload):
            raise CodecError("truncated varint")
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63 * 2:
            raise CodecError("varint too long")


class BinaryCodec(Codec):
    """Compact tag-length-value binary encoding (no stdlib pickle)."""

    name = "binary"

    def encode(self, value: Any) -> bytes:
        out = bytearray()
        self._encode_into(value, out)
        return bytes(out)

    def decode(self, payload: bytes) -> Any:
        value, offset = self._decode_from(payload, 0)
        if offset != len(payload):
            raise CodecError(f"trailing bytes after value: {len(payload) - offset}")
        return value

    def _encode_into(self, value: Any, out: bytearray) -> None:
        if value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif isinstance(value, int):
            if value >= 0:
                out.append(_T_INT_POS)
                write_uvarint(value, out)
            else:
                out.append(_T_INT_NEG)
                write_uvarint(-value, out)
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out.extend(struct.pack(">d", value))
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(_T_STR)
            write_uvarint(len(raw), out)
            out.extend(raw)
        elif isinstance(value, (bytes, bytearray)):
            out.append(_T_BYTES)
            write_uvarint(len(value), out)
            out.extend(value)
        elif isinstance(value, (list, tuple)):
            out.append(_T_LIST)
            write_uvarint(len(value), out)
            for item in value:
                self._encode_into(item, out)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            write_uvarint(len(value), out)
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CodecError(
                        f"dict keys must be str, got {type(key).__name__}"
                    )
                raw = key.encode("utf-8")
                write_uvarint(len(raw), out)
                out.extend(raw)
                self._encode_into(item, out)
        else:
            raise CodecError(f"unsupported type: {type(value).__name__}")

    def _decode_from(self, payload: bytes, offset: int) -> tuple[Any, int]:
        if offset >= len(payload):
            raise CodecError("truncated payload")
        tag = payload[offset]
        offset += 1
        if tag == _T_NONE:
            return None, offset
        if tag == _T_TRUE:
            return True, offset
        if tag == _T_FALSE:
            return False, offset
        if tag == _T_INT_POS:
            return read_uvarint(payload, offset)
        if tag == _T_INT_NEG:
            value, offset = read_uvarint(payload, offset)
            return -value, offset
        if tag == _T_FLOAT:
            if offset + 8 > len(payload):
                raise CodecError("truncated float")
            (value,) = struct.unpack_from(">d", payload, offset)
            return value, offset + 8
        if tag == _T_STR:
            length, offset = read_uvarint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise CodecError("truncated string")
            return payload[offset:end].decode("utf-8"), end
        if tag == _T_BYTES:
            length, offset = read_uvarint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise CodecError("truncated bytes")
            return payload[offset:end], end
        if tag == _T_LIST:
            count, offset = read_uvarint(payload, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_from(payload, offset)
                items.append(item)
            return items, offset
        if tag == _T_DICT:
            count, offset = read_uvarint(payload, offset)
            result: dict[str, Any] = {}
            for _ in range(count):
                key_len, offset = read_uvarint(payload, offset)
                end = offset + key_len
                if end > len(payload):
                    raise CodecError("truncated dict key")
                key = payload[offset:end].decode("utf-8")
                item, end = self._decode_from(payload, end)
                result[key] = item
                offset = end
            return result, offset
        raise CodecError(f"unknown type tag: {tag:#04x}")


# --- Compact codec ---------------------------------------------------------
#
# Layout: varint table count, then each interned string (varint length +
# UTF-8 bytes), then the value in BinaryCodec's tag scheme extended with
# one tag: _T_STR_REF, a varint index into the table.  Dict keys are
# encoded as tagged string values (inline or ref) instead of bare
# length-prefixed bytes, so keys intern too.

_T_STR_REF = 0x0A


class CompactCodec(Codec):
    """Binary TLV with per-payload string interning (the lean block codec).

    Strings appearing at least twice in the payload -- dict keys and
    string values alike -- land in a front table and every occurrence
    becomes a one-or-two-byte reference.  Each payload is self-contained:
    no dictionary is shared across blocks, so any block still decodes in
    isolation (crash recovery scans records independently).
    """

    name = "compact"

    def encode(self, value: Any) -> bytes:
        counts: dict[str, int] = {}
        self._count_strings(value, counts)
        # Insertion order = first-appearance order: deterministic, so
        # encode(x) is byte-stable for equal x.
        table = [text for text, count in counts.items() if count >= 2]
        index = {text: position for position, text in enumerate(table)}
        out = bytearray()
        write_uvarint(len(table), out)
        for text in table:
            raw = text.encode("utf-8")
            write_uvarint(len(raw), out)
            out.extend(raw)
        self._encode_into(value, out, index)
        return bytes(out)

    def decode(self, payload: bytes) -> Any:
        count, offset = read_uvarint(payload, 0)
        table: list[str] = []
        for _ in range(count):
            length, offset = read_uvarint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise CodecError("truncated intern table entry")
            table.append(payload[offset:end].decode("utf-8"))
            offset = end
        value, offset = self._decode_from(payload, offset, table)
        if offset != len(payload):
            raise CodecError(f"trailing bytes after value: {len(payload) - offset}")
        return value

    def _count_strings(self, value: Any, counts: dict[str, int]) -> None:
        if isinstance(value, str):
            counts[value] = counts.get(value, 0) + 1
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._count_strings(item, counts)
        elif isinstance(value, dict):
            for key, item in value.items():
                if isinstance(key, str):
                    counts[key] = counts.get(key, 0) + 1
                self._count_strings(item, counts)

    def _encode_str(self, text: str, out: bytearray, index: dict[str, int]) -> None:
        position = index.get(text)
        if position is not None:
            out.append(_T_STR_REF)
            write_uvarint(position, out)
        else:
            raw = text.encode("utf-8")
            out.append(_T_STR)
            write_uvarint(len(raw), out)
            out.extend(raw)

    def _encode_into(self, value: Any, out: bytearray, index: dict[str, int]) -> None:
        if value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif isinstance(value, int):
            if value >= 0:
                out.append(_T_INT_POS)
                write_uvarint(value, out)
            else:
                out.append(_T_INT_NEG)
                write_uvarint(-value, out)
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out.extend(struct.pack(">d", value))
        elif isinstance(value, str):
            self._encode_str(value, out, index)
        elif isinstance(value, (bytes, bytearray)):
            out.append(_T_BYTES)
            write_uvarint(len(value), out)
            out.extend(value)
        elif isinstance(value, (list, tuple)):
            out.append(_T_LIST)
            write_uvarint(len(value), out)
            for item in value:
                self._encode_into(item, out, index)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            write_uvarint(len(value), out)
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CodecError(
                        f"dict keys must be str, got {type(key).__name__}"
                    )
                self._encode_str(key, out, index)
                self._encode_into(item, out, index)
        else:
            raise CodecError(f"unsupported type: {type(value).__name__}")

    def _decode_str(
        self, payload: bytes, offset: int, table: list[str]
    ) -> tuple[str, int]:
        if offset >= len(payload):
            raise CodecError("truncated payload")
        tag = payload[offset]
        offset += 1
        if tag == _T_STR_REF:
            position, offset = read_uvarint(payload, offset)
            if position >= len(table):
                raise CodecError(f"intern reference {position} out of range")
            return table[position], offset
        if tag == _T_STR:
            length, offset = read_uvarint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise CodecError("truncated string")
            return payload[offset:end].decode("utf-8"), end
        raise CodecError(f"expected a string tag, got {tag:#04x}")

    def _decode_from(
        self, payload: bytes, offset: int, table: list[str]
    ) -> tuple[Any, int]:
        if offset >= len(payload):
            raise CodecError("truncated payload")
        tag = payload[offset]
        if tag in (_T_STR, _T_STR_REF):
            return self._decode_str(payload, offset, table)
        offset += 1
        if tag == _T_NONE:
            return None, offset
        if tag == _T_TRUE:
            return True, offset
        if tag == _T_FALSE:
            return False, offset
        if tag == _T_INT_POS:
            return read_uvarint(payload, offset)
        if tag == _T_INT_NEG:
            value, offset = read_uvarint(payload, offset)
            return -value, offset
        if tag == _T_FLOAT:
            if offset + 8 > len(payload):
                raise CodecError("truncated float")
            (value,) = struct.unpack_from(">d", payload, offset)
            return value, offset + 8
        if tag == _T_BYTES:
            length, offset = read_uvarint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise CodecError("truncated bytes")
            return payload[offset:end], end
        if tag == _T_LIST:
            count, offset = read_uvarint(payload, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_from(payload, offset, table)
                items.append(item)
            return items, offset
        if tag == _T_DICT:
            count, offset = read_uvarint(payload, offset)
            result: dict[str, Any] = {}
            for _ in range(count):
                key, offset = self._decode_str(payload, offset, table)
                item, offset = self._decode_from(payload, offset, table)
                result[key] = item
            return result, offset
        raise CodecError(f"unknown type tag: {tag:#04x}")


_CODECS = {
    codec.name: codec for codec in (JsonCodec(), BinaryCodec(), CompactCodec())
}


def get_codec(name: str) -> Codec:
    """Look up a codec by its :attr:`Codec.name` (``json``, ``binary`` or
    ``compact``)."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_CODECS)}"
        ) from None
