"""The ``service-ingest`` load generator: open and closed loops over TCP.

The client runs on the server's event loop, in the benchmark's own code:
no ``repro`` function runs on the client side while measuring, so in a
traced run client work is never attributed to a server layer.  Every
WebSocket session's frames are JSON-encoded and masked once, when the
client is built, so per-session client work is writing bytes and
reading one verdict frame.

The open loop starts operations at ``rate`` per second whatever the
server's speed, every ``upload_every``-th one a ``POST /api/captures``
upload and the rest WebSocket sessions, with at most ``connections`` in
flight; a late operation waits for a free connection and its latency
counts from when it was due.  The closed loop keeps ``connections``
clients streaming sessions back to back.  Operation ``i`` replays
capture ``order[i % len(order)]``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import struct
import time
from typing import Any, Dict, List, Optional

def alerts_digest(alerts: List[Dict[str, Any]]) -> str:
    """Order-sensitive digest of a verdict's alert list."""
    text = json.dumps(alerts, sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


#: SO_LINGER on, zero seconds: ``close`` resets the connection
_ABORT = struct.pack("ii", 1, 0)


async def _connect(host: str, port: int) -> Any:
    """A connection whose close leaves no socket in TIME_WAIT.

    The closed loop opens hundreds of connections a second.  Closed
    the usual way, each leaves a socket in TIME_WAIT for a minute, and
    the next run then starts with tens of thousands of them in the
    kernel's tables; the client resets every connection instead, once
    it has read all it needs.
    """
    reader, writer = await asyncio.open_connection(host, port)
    writer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, _ABORT)
    return reader, writer


async def _wait_until(due: int) -> None:
    """Yield to the event loop until ``due`` (perf_counter ns).

    Polling instead of sleeping starts an operation within microseconds
    of its due time (the loop's timers can be a millisecond late) and
    keeps the core from idling between operations: how long an idle core
    takes to wake up depends on the host, not on the server under test.
    The server and the operations in flight run between polls.
    """
    while time.perf_counter_ns() < due:
        await asyncio.sleep(0)


async def _read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """One unmasked server frame: the JSON object, or ``None`` on close."""
    head = await reader.readexactly(2)
    opcode, length = head[0] & 0x0F, head[1] & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await reader.readexactly(8))
    payload = await reader.readexactly(length)
    if opcode == 0x8:
        return None
    return json.loads(payload) if opcode == 0x1 else {}


def _masked_frame(payload: Dict[str, Any], key: bytes = b"\x37\xfa\x21\x3d") -> bytes:
    """A client text frame (RFC 6455 requires clients to mask)."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = bytearray([0x81])
    if len(data) < 126:
        head.append(0x80 | len(data))
    elif len(data) < 0x10000:
        head += bytes([0x80 | 126]) + struct.pack(">H", len(data))
    else:
        head += bytes([0x80 | 127]) + struct.pack(">Q", len(data))
    masked = bytes(byte ^ key[index % 4] for index, byte in enumerate(data))
    return bytes(head) + key + masked


class Client:
    def __init__(self, host: str, port: int, captures: List[bytes],
                 frames: List[List[Dict[str, Any]]], order: List[int]) -> None:
        self.host, self.port = host, port
        self.order = order
        self.upgrade = (
            "GET /ws/ingest HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            "Sec-WebSocket-Key: cGVyZmJlbmNoLWxvYWRnZW4=\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("ascii")
        hello = _masked_frame({"type": "hello", "protocol": 1, "tenant": "bench"})
        finish = _masked_frame({"type": "finish"})
        self.bodies = [
            hello + b"".join(_masked_frame(frame) for frame in session) + finish
            for session in frames
        ]
        self.posts = [
            (
                "POST /api/captures HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/octet-stream\r\n"
                f"Content-Length: {len(capture)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii") + capture
            for capture in captures
        ]

    async def session(self, capture: int) -> Dict[str, Any]:
        """One WebSocket session; returns the verdict frame."""
        reader, writer = await _connect(self.host, self.port)
        try:
            writer.write(self.upgrade)
            status = await reader.readline()
            if b" 101 " not in status:
                raise ConnectionError(f"upgrade refused: {status!r}")
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            writer.write(self.bodies[capture])
            while True:
                frame = await _read_frame(reader)
                if frame is None:
                    raise ConnectionError("closed before the verdict")
                if frame.get("type") == "verdict":
                    return frame
                if frame.get("type") == "error":
                    raise ConnectionError(frame.get("reason", "error frame"))
        finally:
            writer.close()

    async def upload(self, capture: int) -> Dict[str, Any]:
        """One capture upload; returns the verdict with the HTTP status."""
        reader, writer = await _connect(self.host, self.port)
        try:
            writer.write(self.posts[capture])
            status = int((await reader.readline()).split()[1])
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            verdict = json.loads(await reader.read())
        finally:
            writer.close()
        verdict["status"] = status
        return verdict

    async def op(self, record: Dict[str, Any]) -> None:
        record["start"] = time.perf_counter_ns()
        try:
            if record["kind"] == "upload":
                verdict = await self.upload(record["capture"])
            else:
                verdict = await self.session(record["capture"])
        except (ConnectionError, OSError, ValueError, IndexError,
                asyncio.IncompleteReadError) as exc:
            record["end"] = time.perf_counter_ns()
            record.update(error=f"{type(exc).__name__}: {exc}", status=0,
                          digest="", events=0, alerts=0, dropped=0)
        else:
            record["end"] = time.perf_counter_ns()
            record.update(
                status=verdict.get("status", 200),
                digest=alerts_digest(verdict.get("alerts", [])),
                events=verdict.get("events", 0),
                alerts=verdict.get("alert_count", 0),
                dropped=verdict.get("dropped_events", 0),
            )

    async def open_loop(self, rate: Optional[float], upload_every: int,
                        connections: int, ops: Optional[int] = None,
                        seconds: float = 0.0, first: int = 0
                        ) -> List[Dict[str, Any]]:
        """``ops`` operations, or as many as fall due within ``seconds``.

        Operations are numbered from ``first``.

        With ``rate`` None each operation is due as soon as a connection
        is free: the same operations, with no idle time between them.
        """
        period_ns = int(1e9 / rate) if rate else 0
        slots = asyncio.Semaphore(connections)
        first_due = time.perf_counter_ns() + 1_000_000
        stop_due = first_due + int(seconds * 1e9)
        records: List[Dict[str, Any]] = []
        tasks = []

        async def run(record: Dict[str, Any]) -> None:
            try:
                await self.op(record)
            finally:
                slots.release()

        index = 0
        while True:
            due = first_due + index * period_ns
            if (index >= ops) if ops is not None else (due >= stop_due):
                break
            if period_ns:
                await _wait_until(due)
            else:
                due = time.perf_counter_ns()
            number = first + index
            kind = "upload" if number % upload_every == upload_every - 1 else "ws"
            record = {"index": number, "phase": "open", "kind": kind,
                      "capture": self.order[number % len(self.order)],
                      "due": due, "wake": time.perf_counter_ns()}
            records.append(record)
            await slots.acquire()
            tasks.append(asyncio.ensure_future(run(record)))
            index += 1
        await asyncio.gather(*tasks)
        return records

    async def closed_loop(self, connections: int, ops: Optional[int] = None,
                          seconds: float = 0.0, first: int = 0
                          ) -> List[Dict[str, Any]]:
        """``ops`` sessions, or as many as start within ``seconds``.

        Sessions are numbered from ``first``.
        """
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        records: List[Dict[str, Any]] = []

        async def client(lane: int) -> None:
            turn = 0
            while True:
                index = lane + turn * connections
                if ops is not None and index >= ops:
                    return
                if ops is None and time.perf_counter_ns() >= deadline:
                    return
                number = first + index
                record = {"index": number, "phase": "closed", "kind": "ws",
                          "capture": self.order[number % len(self.order)],
                          "due": None}
                records.append(record)
                await self.op(record)
                turn += 1

        await asyncio.gather(*(client(lane) for lane in range(connections)))
        records.sort(key=lambda record: record["index"])
        return records
