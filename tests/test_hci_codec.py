"""The compiled HCI codec against the field-by-field oracle.

Every registered command and event class is checked: valid field values
encode to the oracle's bytes, random parameters (short, exact and
over-long) decode to the oracle's values or fail the same way, the
parser raises what the oracle path raised, and invalid values still
raise.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.hci.commands  # noqa: F401 - fills COMMAND_REGISTRY
from repro.core.errors import HciError
from repro.core.types import BdAddr, LinkKey
from repro.hci import events as evt
from repro.hci.constants import PacketIndicator
from repro.hci.packets import COMMAND_REGISTRY, EVENT_REGISTRY, HciCommand
from repro.hci.parser import parse_packet
from tests.hci_codec_oracle import (
    oracle_decode,
    oracle_parameters,
    oracle_parse,
    oracle_to_h4_bytes,
)

CLASSES = sorted(
    list(COMMAND_REGISTRY.values()) + list(EVENT_REGISTRY.values()),
    key=lambda cls: cls.__name__,
)

INT_BITS = {"u8": 8, "u16": 16, "u24": 24, "u32": 32}

names = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120),
    # ASCII names around the 247-byte cut
    st.text(alphabet=st.characters(max_codepoint=0x7F), min_size=240, max_size=260),
)


def value_strategy(kind: str) -> st.SearchStrategy:
    if kind in INT_BITS:
        return st.integers(0, 2 ** INT_BITS[kind] - 1)
    if kind == "bdaddr":
        return st.binary(min_size=6, max_size=6).map(BdAddr)
    if kind == "linkkey":
        return st.binary(min_size=16, max_size=16).map(LinkKey)
    if kind == "name248":
        return names
    if kind == "rest":
        return st.binary(max_size=40)
    length = int(kind.split(":", 1)[1])
    return st.binary(min_size=length, max_size=length)


def fields_of(cls) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {name: value_strategy(kind) for name, kind in cls.FIELDS}
    )


def fixed_size(cls) -> int:
    return cls._codec.size


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", exception class)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return "raised", type(exc)


def params_for(cls) -> st.SearchStrategy:
    """Short, exact and over-long parameter bytes for ``cls``."""
    size = fixed_size(cls)
    return st.one_of(
        st.binary(max_size=max(0, size - 1)),
        st.binary(min_size=size, max_size=size),
        st.binary(min_size=size + 1, max_size=max(size + 1, min(255, size + 24))),
    )


def header_for(cls, length: int) -> bytes:
    if issubclass(cls, HciCommand):
        return cls.OPCODE.to_bytes(2, "little") + bytes([length])
    return bytes([cls.EVENT_CODE, length])


def indicator_for(cls) -> int:
    if issubclass(cls, HciCommand):
        return PacketIndicator.COMMAND
    return PacketIndicator.EVENT


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestAgainstOracle:
    @SETTINGS
    @given(data=st.data())
    def test_encode_is_byte_identical(self, cls, data):
        packet = cls(**data.draw(fields_of(cls)))
        assert packet.parameters() == oracle_parameters(packet)
        assert packet.to_h4_bytes() == oracle_to_h4_bytes(packet)

    @SETTINGS
    @given(data=st.data())
    def test_decode_matches_field_for_field(self, cls, data):
        params = data.draw(params_for(cls))
        new = outcome(lambda raw: vars(cls.from_parameters(raw)), params)
        old = outcome(oracle_decode, cls, params)
        assert new == old

    @SETTINGS
    @given(data=st.data())
    def test_parse_packet_fails_like_the_oracle(self, cls, data):
        params = data.draw(params_for(cls))
        length = data.draw(
            st.one_of(st.just(min(len(params), 255)), st.integers(0, 255))
        )
        payload = header_for(cls, length) + params
        new = outcome(parse_packet, indicator_for(cls), payload)
        old = outcome(oracle_parse, indicator_for(cls), payload)
        if old[0] == "raised":
            assert new == old
        else:
            assert new[0] == "ok"
            assert type(new[1]) is type(old[1]) is cls
            assert vars(new[1]) == vars(old[1])

    @SETTINGS
    @given(data=st.data())
    def test_round_trip(self, cls, data):
        values = data.draw(fields_of(cls))
        packet = cls(**values)
        parsed = parse_packet(packet.indicator, packet.to_bytes())
        assert type(parsed) is cls
        assert vars(parsed) == oracle_decode(cls, packet.parameters())
        for name, kind in cls.FIELDS:
            if kind != "name248":  # names are cut and NUL-terminated
                assert getattr(parsed, name) == values[name]


def _plain_fields(cls) -> dict:
    """Zero integers and fixed placeholder values for every field."""
    return {
        name: 0 if kind in INT_BITS else _placeholder(kind)
        for name, kind in cls.FIELDS
    }


def _placeholder(kind: str):
    if kind == "bdaddr":
        return BdAddr(bytes(6))
    if kind == "linkkey":
        return LinkKey(bytes(16))
    if kind == "name248":
        return "name"
    if kind == "rest":
        return b""
    return bytes(int(kind.split(":", 1)[1]))


def _int_field_cases():
    for cls in CLASSES:
        for name, kind in cls.FIELDS:
            if kind in INT_BITS:
                yield cls, name, kind


def _bytes_field_cases():
    for cls in CLASSES:
        for name, kind in cls.FIELDS:
            if kind.startswith("bytes:"):
                yield cls, name, int(kind.split(":", 1)[1])


@pytest.mark.parametrize(
    "cls,name,kind",
    list(_int_field_cases()),
    ids=lambda value: getattr(value, "__name__", str(value)),
)
@pytest.mark.parametrize("bad", ["negative", "too_big"])
def test_out_of_range_integer_raises_like_the_oracle(cls, name, kind, bad):
    values = _plain_fields(cls)
    values[name] = -1 if bad == "negative" else 2 ** INT_BITS[kind]
    packet = cls(**values)
    new = outcome(packet.parameters)
    old = outcome(oracle_parameters, packet)
    assert new[0] == old[0] == "raised"
    assert new == old


@pytest.mark.parametrize(
    "cls,name,length",
    list(_bytes_field_cases()),
    ids=lambda value: getattr(value, "__name__", str(value)),
)
@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_length_bytes_field_raises(cls, name, length, delta):
    values = _plain_fields(cls)
    values[name] = b"\x00" * (length + delta)
    packet = cls(**values)
    with pytest.raises(HciError, match=f"expects {length} bytes"):
        packet.parameters()
    with pytest.raises(HciError, match=f"expects {length} bytes"):
        oracle_parameters(packet)


class TestNonIntegerValues:
    """Values ``int()`` accepts encode as the oracle encodes them."""

    @pytest.mark.parametrize("value", [3.7, True, "12"])
    def test_coerced_like_int(self, value):
        packet = evt.DisconnectionComplete(
            status=value, connection_handle=value, reason=0
        )
        assert packet.parameters() == oracle_parameters(packet)


class TestShortParameters:
    """Truncated parameters decode exactly as the field-by-field path."""

    def test_short_u16_is_a_partial_integer(self):
        parsed = evt.AuthenticationComplete.from_parameters(b"\x05\x34")
        assert (parsed.status, parsed.connection_handle) == (5, 0x34)

    def test_short_u8_raises_index_error(self):
        with pytest.raises(IndexError):
            evt.DisconnectionComplete.from_parameters(b"\x00\x34\x12")

    def test_short_bdaddr_raises_value_error(self):
        with pytest.raises(ValueError):
            evt.PinCodeRequest.from_parameters(b"\x01\x02")
