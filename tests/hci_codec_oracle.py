"""The field-by-field HCI codec, kept as a test oracle.

``_encode_field`` and ``_decode_field`` are the interpreters
``repro.hci.packets`` ran on every field of every packet before the
field spec was compiled into a ``struct`` layout; they are copied here
unchanged.  ``tests/test_hci_codec.py`` checks the compiled codec
against them and ``tests/test_perf_hci.py`` times it against them.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, Type

from repro.core.errors import HciError
from repro.core.types import BdAddr, LinkKey
from repro.hci.constants import PacketIndicator
from repro.hci.packets import COMMAND_REGISTRY, EVENT_REGISTRY, HciCommand


def _encode_field(kind: str, value: Any) -> bytes:
    if kind == "u8":
        return int(value).to_bytes(1, "little")
    if kind == "u16":
        return int(value).to_bytes(2, "little")
    if kind == "u24":
        return int(value).to_bytes(3, "little")
    if kind == "u32":
        return int(value).to_bytes(4, "little")
    if kind == "bdaddr":
        return value.to_hci_bytes()
    if kind == "linkkey":
        return value.to_hci_bytes()
    if kind == "name248":
        raw = str(value).encode("utf-8")[:247]
        return raw + b"\x00" * (248 - len(raw))
    if kind == "rest":
        return bytes(value)
    if kind.startswith("bytes:"):
        length = int(kind.split(":", 1)[1])
        raw = bytes(value)
        if len(raw) != length:
            raise HciError(f"field expects {length} bytes, got {len(raw)}")
        return raw
    raise HciError(f"unknown field kind {kind!r}")


def _decode_field(kind: str, raw: bytes, offset: int) -> Tuple[Any, int]:
    if kind == "u8":
        return raw[offset], offset + 1
    if kind == "u16":
        return int.from_bytes(raw[offset : offset + 2], "little"), offset + 2
    if kind == "u24":
        return int.from_bytes(raw[offset : offset + 3], "little"), offset + 3
    if kind == "u32":
        return int.from_bytes(raw[offset : offset + 4], "little"), offset + 4
    if kind == "bdaddr":
        return BdAddr.from_hci_bytes(raw[offset : offset + 6]), offset + 6
    if kind == "linkkey":
        return LinkKey.from_hci_bytes(raw[offset : offset + 16]), offset + 16
    if kind == "name248":
        chunk = raw[offset : offset + 248]
        text = chunk.split(b"\x00", 1)[0].decode("utf-8", errors="replace")
        return text, offset + 248
    if kind == "rest":
        return raw[offset:], len(raw)
    if kind.startswith("bytes:"):
        length = int(kind.split(":", 1)[1])
        return raw[offset : offset + length], offset + length
    raise HciError(f"unknown field kind {kind!r}")


def oracle_parameters(packet: Any) -> bytes:
    """A typed packet's parameter bytes, field by field."""
    return b"".join(
        _encode_field(kind, getattr(packet, name)) for name, kind in packet.FIELDS
    )


def oracle_to_h4_bytes(packet: Any) -> bytes:
    """The H4 frame of a typed command or event, field by field."""
    params = oracle_parameters(packet)
    if isinstance(packet, HciCommand):
        header = packet.opcode.to_bytes(2, "little") + bytes([len(params)])
    else:
        header = bytes([packet.event_code, len(params)])
    return bytes([packet.indicator]) + header + params


def oracle_decode(cls: Type[Any], params: bytes) -> Dict[str, Any]:
    """Field values of ``cls`` parsed from ``params``, field by field."""
    values: Dict[str, Any] = {}
    offset = 0
    for name, kind in cls.FIELDS:
        values[name], offset = _decode_field(kind, params, offset)
    return values


def oracle_from_parameters(cls: Type[Any], params: bytes) -> Any:
    """A typed instance of ``cls`` parsed from ``params``, field by field."""
    return cls(**oracle_decode(cls, params))


def oracle_parse(indicator: int, payload: bytes) -> Any:
    """The packet the old ``parse_packet`` path built for a registered
    command or event; raises what that path raised."""
    if indicator == PacketIndicator.COMMAND:
        if len(payload) < 3:
            raise HciError("command packet too short")
        cls = COMMAND_REGISTRY[int.from_bytes(payload[0:2], "little")]
        params = payload[3 : 3 + payload[2]]
        if len(params) != payload[2]:
            raise HciError("command truncated")
    else:
        if len(payload) < 2:
            raise HciError("event packet too short")
        cls = EVENT_REGISTRY[payload[0]]
        params = payload[2 : 2 + payload[1]]
        if len(params) != payload[1]:
            raise HciError("event truncated")
    try:
        return oracle_from_parameters(cls, params)
    except (IndexError, ValueError) as exc:
        raise HciError(f"malformed {cls.__name__} parameters: {exc}") from exc
