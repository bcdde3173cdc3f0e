"""Raw HCI packet framing and the typed-packet machinery.

Wire formats (Vol 4, Part E, 5.4):

* Command:  ``opcode(2, LE) | param_len(1) | params``
* Event:    ``event_code(1) | param_len(1) | params``
* ACL data: ``handle+flags(2, LE) | data_len(2, LE) | data``

On a serial transport each packet is preceded by the H4 indicator byte
(0x01 command, 0x02 ACL, 0x04 event).  The HCI dump and the USB sniffer
both capture these exact bytes, which is what makes the link key
extractor work on real formats rather than on Python objects.

Typed packets declare their parameter layout with a small field spec —
a list of ``(name, kind)`` tuples — from which serialization and
parsing are derived.  Kinds:

``u8`` / ``u16`` / ``u24`` / ``u32``
    little-endian unsigned integers,
``bdaddr``
    6-byte little-endian device address (:class:`~repro.core.types.BdAddr`),
``linkkey``
    16-byte little-endian link key (:class:`~repro.core.types.LinkKey`),
``bytes:N``
    fixed-length raw bytes,
``name248``
    zero-padded 248-byte UTF-8 device name,
``rest``
    all remaining bytes (last field only).

The spec is compiled once per class, when the class is defined, into a
:class:`struct.Struct` for the fixed-width fields plus a converter
expression for each kind ``struct`` cannot express (``u24``, addresses,
keys, names, length-checked ``bytes:N``), generated into one encode and
one decode function (see :class:`_Codec`).  Encoding a packet is then
one ``pack`` over its attributes; parsing is one ``unpack_from`` and
the converters.  Parameters shorter than the fixed layout — truncated
or garbled captures — are decoded field by field, so a short
``u16``/``u24``/``u32`` still yields a partial little-endian integer
and a short ``u8`` or ``bdaddr`` still raises (``IndexError`` /
``ValueError``), which the parser reports as
:class:`~repro.core.errors.HciError`.
"""

from __future__ import annotations

import struct
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.errors import HciError
from repro.core.types import BdAddr, LinkKey
from repro.hci.constants import (
    EventCode,
    PacketIndicator,
    event_name,
    opcode_name,
)

FieldSpec = Tuple[str, str]


def _decode_field(kind: str, raw: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one field at ``offset`` (the path for short parameters)."""
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


def _fixed_bytes(value: Any, length: int) -> bytes:
    raw = bytes(value)
    if len(raw) != length:
        raise HciError(f"field expects {length} bytes, got {len(raw)}")
    return raw


#: struct code, to-wire expression and from-wire expression of each
#: fixed-width kind; ``{}`` stands for the field value / the unpacked slot
_KINDS: Dict[str, Tuple[str, str, str]] = {
    "u8": ("B", "{}", "{}"),
    "u16": ("H", "{}", "{}"),
    "u32": ("I", "{}", "{}"),
    "u24": (
        "3s",
        "int({}).to_bytes(3, 'little')",
        "int.from_bytes({}, 'little')",
    ),
    "bdaddr": ("6s", "{}.to_hci_bytes()", "BdAddr({}[::-1])"),
    "linkkey": ("16s", "{}.to_hci_bytes()", "LinkKey({}[::-1])"),
    # ``248s`` zero-pads; the cut to 247 bytes keeps a terminating NUL.
    "name248": (
        "248s",
        "str({}).encode('utf-8')[:247]",
        "{}.split(b'\\x00', 1)[0].decode('utf-8', errors='replace')",
    ),
}

#: kinds ``struct`` packs as integers (``int()`` on the coercing path)
_INT_KINDS = frozenset({"u8", "u16", "u32"})


def _kind_layout(kind: str) -> Tuple[str, str, str]:
    if kind in _KINDS:
        return _KINDS[kind]
    if kind.startswith("bytes:"):
        length = int(kind.split(":", 1)[1])
        return f"{length}s", f"_fixed_bytes({{}}, {length})", "{}"
    raise HciError(f"unknown field kind {kind!r}")


class _Codec:
    """One packet class's ``FIELDS``, compiled.

    The fixed-width fields become one little-endian :class:`struct.Struct`
    (integers packed natively, the other kinds as byte strings through
    their converter expressions); a trailing ``rest`` field is appended
    raw.  ``encode(packet)`` and ``decode(params)`` are generated once,
    as straight-line functions over that layout (the technique
    :func:`collections.namedtuple` uses), so no kind string is looked at
    per packet.

    ``encode`` packs the integer fields as they are.  Only when
    ``struct`` refuses one does it retry with ``int()`` on each (a float
    or an ``__int__`` object encodes as before); an integer that still
    does not fit raises ``OverflowError``, as ``int.to_bytes`` did.
    ``decode`` needs parameters at least :attr:`size` bytes long; shorter
    ones go through :meth:`decode_short`.
    """

    __slots__ = ("fields", "names", "size", "encode", "decode")

    def __init__(self, fields: Sequence[FieldSpec], label: str = "fields") -> None:
        codes: List[str] = []
        encoded: List[str] = []
        coerced: List[str] = []
        decoded: List[str] = []
        rest: Optional[str] = None
        for name, kind in fields:
            if not name.isidentifier():
                raise HciError(f"field name {name!r} is not an identifier")
            if rest is not None:
                raise HciError(f"field {name!r} follows the 'rest' field")
            if kind == "rest":
                rest = name
                continue
            code, to_wire, from_wire = _kind_layout(kind)
            value = f"packet.{name}"
            encoded.append(to_wire.format(value))
            coerced.append(
                to_wire.format(f"int({value})" if kind in _INT_KINDS else value)
            )
            decoded.append(f"{name!r}: " + from_wire.format(f"f{len(codes)}"))
            codes.append(code)
        layout = struct.Struct("<" + "".join(codes))
        tail = f" + bytes(packet.{rest})" if rest is not None else ""
        if rest is not None:
            decoded.append(f"{rest!r}: params[{layout.size}:]")
        unpack = (
            "".join(f"f{index}, " for index in range(len(codes)))
            + "= unpack_from(params)"
            if codes
            else "pass"
        )
        source = (
            "def encode(packet):\n"
            "    try:\n"
            f"        return pack({', '.join(encoded)}){tail}\n"
            "    except error:\n"
            "        pass\n"
            "    try:\n"
            f"        return pack({', '.join(coerced)}){tail}\n"
            "    except error as exc:\n"
            "        raise OverflowError(str(exc)) from None\n"
            "\n"
            "def decode(params):\n"
            f"    {unpack}\n"
            f"    return {{{', '.join(decoded)}}}\n"
        )
        namespace: Dict[str, Any] = {
            "pack": layout.pack,
            "unpack_from": layout.unpack_from,
            "error": struct.error,
            "BdAddr": BdAddr,
            "LinkKey": LinkKey,
            "_fixed_bytes": _fixed_bytes,
        }
        exec(compile(source, f"<hci codec {label}>", "exec"), namespace)
        self.fields = tuple(fields)
        #: compared with constructor keywords as a set
        self.names: FrozenSet[str] = frozenset(name for name, _ in fields)
        self.size = layout.size
        self.encode: Callable[[Any], bytes] = namespace["encode"]
        self.decode: Callable[[bytes], Dict[str, Any]] = namespace["decode"]

    def decode_short(self, params: bytes) -> Dict[str, Any]:
        """Field by field, for parameters shorter than the fixed layout."""
        values: Dict[str, Any] = {}
        offset = 0
        for name, kind in self.fields:
            values[name], offset = _decode_field(kind, params, offset)
        return values


_COMMAND_HEADER = struct.Struct("<HB").pack
_EVENT_HEADER = struct.Struct("<BB").pack


class HciPacket:
    """Base class for anything that can travel over an HCI transport."""

    indicator: PacketIndicator

    def to_bytes(self) -> bytes:
        """Packet bytes *without* the H4 indicator."""
        raise NotImplementedError

    def to_h4_bytes(self) -> bytes:
        """Packet bytes prefixed with the H4 indicator byte."""
        return bytes([self.indicator]) + self.to_bytes()

    @property
    def display_name(self) -> str:
        """Name shown in HCI dump listings."""
        raise NotImplementedError


class _FieldPacket(HciPacket):
    """Shared machinery of commands and events: ``FIELDS`` in, bytes out.

    Each subclass's ``FIELDS`` is compiled into a :class:`_Codec` when
    the class is defined.  Instances carry the field values as
    attributes; an untyped packet built by ``raw`` carries its parameter
    bytes instead.
    """

    FIELDS: List[FieldSpec] = []
    _codec = _Codec(())
    _raw_params: Optional[bytes] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._codec = _Codec(cls.FIELDS, cls.__qualname__)

    def __init__(self, **kwargs: Any) -> None:
        if kwargs.keys() != self._codec.names:
            for name, _ in self.FIELDS:
                if name not in kwargs:
                    raise HciError(
                        f"{type(self).__name__} missing field {name!r}"
                    )
            unexpected = sorted(kwargs.keys() - self._codec.names)
            raise HciError(
                f"{type(self).__name__} got unexpected fields {unexpected}"
            )
        # ``kwargs`` is a fresh dict holding exactly the fields.
        self.__dict__ = kwargs

    def parameters(self) -> bytes:
        if self._raw_params is not None:
            return self._raw_params
        return self._codec.encode(self)

    @classmethod
    def from_parameters(cls, params: bytes) -> Any:
        """Parse parameter bytes into a typed instance."""
        codec = cls._codec
        if len(params) < codec.size:
            values = codec.decode_short(params)
        else:
            values = codec.decode(params)
        packet = object.__new__(cls)
        # Every field is set, exactly as ``__init__`` would set them;
        # ``values`` is a fresh dict, so the instance can own it.
        packet.__dict__ = values
        return packet

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name, _ in self.FIELDS
        )
        return f"{type(self).__name__}({fields})"


class HciCommand(_FieldPacket):
    """A host-to-controller command.

    Subclasses set ``OPCODE`` and ``FIELDS``; instances carry the field
    values as attributes.  An untyped command can be built directly
    with :meth:`raw`.
    """

    indicator = PacketIndicator.COMMAND
    OPCODE: int = 0x0000
    _raw_opcode: Optional[int] = None
    _display_name = opcode_name(OPCODE)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._display_name = opcode_name(cls.OPCODE)

    @classmethod
    def raw(cls, opcode: int, params: bytes = b"") -> "HciCommand":
        """Build an untyped command with explicit opcode and parameters."""
        command = cls.__new__(cls)
        command._raw_opcode = opcode
        command._raw_params = params
        return command

    @property
    def opcode(self) -> int:
        raw = self._raw_opcode
        return self.OPCODE if raw is None else raw

    def to_bytes(self) -> bytes:
        params = self.parameters()
        if len(params) > 255:
            raise HciError(f"command parameters exceed 255 bytes: {len(params)}")
        return _COMMAND_HEADER(self.opcode, len(params)) + params

    @property
    def display_name(self) -> str:
        raw = self._raw_opcode
        return self._display_name if raw is None else opcode_name(raw)


class HciEvent(_FieldPacket):
    """A controller-to-host event."""

    indicator = PacketIndicator.EVENT
    EVENT_CODE: int = 0x00
    _raw_code: Optional[int] = None
    _display_name = event_name(EVENT_CODE)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._display_name = event_name(cls.EVENT_CODE)

    @classmethod
    def raw(cls, event_code: int, params: bytes = b"") -> "HciEvent":
        event = cls.__new__(cls)
        event._raw_code = event_code
        event._raw_params = params
        return event

    @property
    def event_code(self) -> int:
        raw = self._raw_code
        return self.EVENT_CODE if raw is None else raw

    def to_bytes(self) -> bytes:
        params = self.parameters()
        if len(params) > 255:
            raise HciError(f"event parameters exceed 255 bytes: {len(params)}")
        return _EVENT_HEADER(self.event_code, len(params)) + params

    @property
    def display_name(self) -> str:
        raw = self._raw_code
        return self._display_name if raw is None else event_name(raw)


class HciAclData(HciPacket):
    """An ACL data packet (L2CAP payloads ride inside these)."""

    indicator = PacketIndicator.ACL_DATA

    PB_FIRST_NON_FLUSHABLE = 0x0
    PB_CONTINUING = 0x1
    PB_FIRST_FLUSHABLE = 0x2

    def __init__(
        self,
        handle: int,
        data: bytes,
        pb_flag: int = PB_FIRST_FLUSHABLE,
        bc_flag: int = 0,
    ) -> None:
        if not 0 <= handle <= 0x0FFF:
            raise HciError(f"connection handle out of range: {handle:#x}")
        self.handle = handle
        self.data = data
        self.pb_flag = pb_flag
        self.bc_flag = bc_flag

    def to_bytes(self) -> bytes:
        word = self.handle | (self.pb_flag << 12) | (self.bc_flag << 14)
        return (
            word.to_bytes(2, "little")
            + len(self.data).to_bytes(2, "little")
            + self.data
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HciAclData":
        if len(raw) < 4:
            raise HciError("ACL packet too short")
        word = int.from_bytes(raw[0:2], "little")
        length = int.from_bytes(raw[2:4], "little")
        data = raw[4 : 4 + length]
        if len(data) != length:
            raise HciError("ACL packet truncated")
        return cls(
            handle=word & 0x0FFF,
            data=data,
            pb_flag=(word >> 12) & 0x3,
            bc_flag=(word >> 14) & 0x3,
        )

    @property
    def display_name(self) -> str:
        return f"ACL_Data(handle={self.handle:#06x}, {len(self.data)}B)"

    def __repr__(self) -> str:
        return (
            f"HciAclData(handle={self.handle:#x}, pb={self.pb_flag}, "
            f"len={len(self.data)})"
        )


# Registries filled in by the commands/events modules.
COMMAND_REGISTRY: Dict[int, Type[HciCommand]] = {}
EVENT_REGISTRY: Dict[int, Type[HciEvent]] = {}


def register_command(cls: Type[HciCommand]) -> Type[HciCommand]:
    """Class decorator: register a typed command for parsing."""
    COMMAND_REGISTRY[cls.OPCODE] = cls
    return cls


def register_event(cls: Type[HciEvent]) -> Type[HciEvent]:
    """Class decorator: register a typed event for parsing."""
    EVENT_REGISTRY[cls.EVENT_CODE] = cls
    return cls
