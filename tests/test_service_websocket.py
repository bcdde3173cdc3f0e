"""RFC 6455 framing: masking against a byte-loop oracle, the spec's
worked examples, and the server's refusal of unmasked client frames."""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import websocket
from repro.service.websocket import (
    OP_BINARY,
    OP_TEXT,
    WebSocketError,
    apply_mask,
    encode_frame,
    read_frame,
)

#: the masking key of RFC 6455 §5.7's masked "Hello"
RFC_KEY = bytes.fromhex("37fa213d")
RFC_MASKED_HELLO = bytes.fromhex("818537fa213d7f9f4d5158")
RFC_UNMASKED_HELLO = bytes.fromhex("810548656c6c6f")

#: payload lengths around the 7-bit / 16-bit / 64-bit length encodings
BOUNDARY_LENGTHS = [0, 1, 2, 3, 4, 5, 125, 126, 127, 0xFFFF, 0x10000, 0x10001]


def byte_loop_mask(payload: bytes, key: bytes) -> bytes:
    """The per-byte definition of RFC 6455 §5.3, as an oracle."""
    return bytes(byte ^ key[index % 4] for index, byte in enumerate(payload))


def read(data: bytes, require_mask: bool = False):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader, require_mask=require_mask)

    return asyncio.run(go())


def payload_of(length: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(length)


class TestRfcExamples:
    def test_masked_hello_decodes(self):
        assert read(RFC_MASKED_HELLO, require_mask=True) == (OP_TEXT, b"Hello")

    def test_masked_hello_encodes(self, monkeypatch):
        monkeypatch.setattr(websocket.os, "urandom", lambda size: RFC_KEY)
        assert encode_frame(b"Hello", OP_TEXT, mask=True) == RFC_MASKED_HELLO

    def test_unmasked_hello(self):
        assert encode_frame(b"Hello", OP_TEXT) == RFC_UNMASKED_HELLO
        assert read(RFC_UNMASKED_HELLO) == (OP_TEXT, b"Hello")

    def test_mask_of_hello(self):
        assert apply_mask(b"Hello", RFC_KEY) == RFC_MASKED_HELLO[6:]


class TestMaskMatchesByteLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.binary(max_size=600),
        key=st.binary(min_size=4, max_size=4),
    )
    @example(payload=b"", key=RFC_KEY)
    @example(payload=b"\x00", key=b"\x00\x00\x00\x00")
    @example(payload=b"\xff\xff\xff", key=b"\xff\xff\xff\xff")
    def test_random_payloads(self, payload, key):
        assert apply_mask(payload, key) == byte_loop_mask(payload, key)

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.sampled_from(BOUNDARY_LENGTHS),
        seed=st.integers(0, 2**32),
        key=st.binary(min_size=4, max_size=4),
    )
    def test_boundary_lengths_round_trip(self, length, seed, key):
        payload = payload_of(length, seed)
        masked = apply_mask(payload, key)
        assert masked == byte_loop_mask(payload, key)
        assert apply_mask(masked, key) == payload

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.sampled_from(BOUNDARY_LENGTHS),
        seed=st.integers(0, 2**32),
        opcode=st.sampled_from([OP_TEXT, OP_BINARY]),
    )
    def test_masked_frames_round_trip(self, length, seed, opcode):
        payload = payload_of(length, seed)
        frame = encode_frame(payload, opcode, mask=True)
        header = 2 + (2 if 126 <= length < 0x10000 else 8 if length >= 0x10000 else 0)
        key = frame[header : header + 4]
        assert frame[header + 4 :] == byte_loop_mask(payload, key)
        assert read(frame, require_mask=True) == (opcode, payload)


class TestServerRequiresMask:
    def test_unmasked_frame_rejected_when_mask_required(self):
        with pytest.raises(WebSocketError, match="must be masked"):
            read(RFC_UNMASKED_HELLO, require_mask=True)

    @pytest.mark.parametrize("length", [0, 126, 0x10000])
    def test_unmasked_frame_of_any_length_rejected(self, length):
        with pytest.raises(WebSocketError, match="must be masked"):
            read(encode_frame(b"x" * length), require_mask=True)

    def test_client_still_reads_unmasked_server_frames(self):
        assert read(encode_frame(b"{}")) == (OP_TEXT, b"{}")
