"""Minimal RFC 6455 WebSocket framing over asyncio streams.

Just enough of the protocol for the ingest wire: the opening
handshake, unfragmented text frames carrying one JSON object each,
ping/pong, and close.  No extensions, no fragmentation, no binary
frames — a frame that needs them is a protocol error, reported with a
one-line reason like every other malformed input.

Both sides live here: the server-side upgrade/accept used by
:class:`~repro.service.server.IngestServer` and the client used by the
load generator and the tests.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import struct
from typing import Any, Dict, Optional, Tuple

#: RFC 6455 §1.3 handshake GUID
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: refuse frames beyond this payload size (bounds a hostile client)
MAX_FRAME_BYTES = 16 * 1024 * 1024


class WebSocketError(ConnectionError):
    """Framing or handshake violation: the reason is the message."""


def accept_key(client_key: str) -> str:
    """``Sec-WebSocket-Accept`` for a client's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1((client_key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def apply_mask(payload: bytes, key: bytes) -> bytes:
    """XOR ``payload`` with the 4-byte ``key`` repeated (RFC 6455 §5.3).

    Masking and unmasking are the same operation.  One big-integer XOR
    instead of a Python step per byte.
    """
    length = len(payload)
    if not length:
        return b""
    stream = (key * (length // 4 + 1))[:length]
    return (
        int.from_bytes(payload, "little") ^ int.from_bytes(stream, "little")
    ).to_bytes(length, "little")


def encode_frame(
    payload: bytes, opcode: int = OP_TEXT, mask: bool = False
) -> bytes:
    """One complete (FIN) frame; clients must set ``mask=True``."""
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < 0x10000:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask:
        key = os.urandom(4)
        header += key
        payload = apply_mask(payload, key)
    return bytes(header) + payload


async def read_frame(
    reader: asyncio.StreamReader, require_mask: bool = False
) -> Tuple[int, bytes]:
    """Read one frame; returns ``(opcode, unmasked payload)``.

    A server passes ``require_mask=True``: RFC 6455 §5.1 has it fail
    the connection on an unmasked client frame.  Clients read the
    server's frames, which are never masked.
    """
    try:
        head = await reader.readexactly(2)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise WebSocketError("connection closed mid-frame") from exc
    fin = head[0] & 0x80
    opcode = head[0] & 0x0F
    if not fin or opcode == OP_CONT:
        raise WebSocketError("fragmented frames are not supported")
    masked = head[1] & 0x80
    if require_mask and not masked:
        raise WebSocketError("client frames must be masked")
    length = head[1] & 0x7F
    try:
        if length == 126:
            (length,) = struct.unpack(">H", await reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", await reader.readexactly(8))
        if length > MAX_FRAME_BYTES:
            raise WebSocketError(f"frame too large ({length} bytes)")
        key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise WebSocketError("connection closed mid-frame") from exc
    if masked:
        payload = apply_mask(payload, key)
    return opcode, payload


class WebSocket:
    """One upgraded connection: JSON frames in, JSON frames out."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        mask: bool,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.mask = mask  # True on the client side (RFC 6455 §5.3)
        self.closed = False

    async def send_json(self, payload: Dict[str, Any]) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.writer.write(encode_frame(data, OP_TEXT, mask=self.mask))
        await self.writer.drain()

    async def recv_json(self) -> Optional[Dict[str, Any]]:
        """Next JSON object, or ``None`` once the peer closes.

        Control frames are handled inline: pings are answered, pongs
        ignored.  Non-JSON or non-object text raises
        :class:`WebSocketError` with a one-line reason.
        """
        while True:
            opcode, payload = await read_frame(
                self.reader, require_mask=not self.mask
            )
            if opcode == OP_PING:
                self.writer.write(
                    encode_frame(payload, OP_PONG, mask=self.mask)
                )
                await self.writer.drain()
                continue
            if opcode == OP_PONG:
                continue
            if opcode == OP_CLOSE:
                await self.close()
                return None
            if opcode != OP_TEXT:
                raise WebSocketError(f"unsupported opcode {opcode:#x}")
            try:
                frame = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise WebSocketError(f"frame is not JSON: {exc}") from exc
            if not isinstance(frame, dict):
                raise WebSocketError("frame must be a JSON object")
            return frame

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.writer.write(encode_frame(b"", OP_CLOSE, mask=self.mask))
            await self.writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        self.writer.close()


async def client_handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    host: str,
    path: str,
) -> WebSocket:
    """Perform the client side of the upgrade on an open connection."""
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    request = (
        f"GET {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        "Sec-WebSocket-Version: 13\r\n"
        "\r\n"
    )
    writer.write(request.encode("ascii"))
    await writer.drain()
    status = await reader.readline()
    if b"101" not in status:
        raise WebSocketError(
            f"upgrade refused: {status.decode('latin-1').strip()!r}"
        )
    accept = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    if accept != accept_key(key):
        raise WebSocketError("bad Sec-WebSocket-Accept from server")
    return WebSocket(reader, writer, mask=True)


async def connect(host: str, port: int, path: str) -> WebSocket:
    """Open a TCP connection and upgrade it (client side)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await client_handshake(reader, writer, f"{host}:{port}", path)
    except Exception:
        writer.close()
        raise


def handshake_response(headers: Dict[str, str]) -> bytes:
    """The 101 response for a server-side upgrade, or raise.

    ``headers`` are the request headers, lower-cased keys.
    """
    key = headers.get("sec-websocket-key")
    if not key:
        raise WebSocketError("missing Sec-WebSocket-Key")
    upgrade = headers.get("upgrade", "").lower()
    if upgrade != "websocket":
        raise WebSocketError(f"not a websocket upgrade: {upgrade!r}")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {accept_key(key)}\r\n"
        "\r\n"
    ).encode("ascii")
