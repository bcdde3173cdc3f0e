"""The one HTTP front-end: asyncio HTTP + WebSocket detection service.

:class:`IngestServer` is the serving half of :mod:`repro.detect`, and
with a run store attached also serves the store's JSON API and HTML
view (:mod:`repro.store.routes`) — ``blap service serve`` and ``blap
serve`` both run it.  Standard library only.  Routes:

* ``GET /healthz`` — liveness;
* ``GET /api/metrics`` — merged service metrics + per-tenant snapshots
  (JSON);
* ``GET /metrics`` — the same instruments in Prometheus text
  exposition (:mod:`repro.obs.prom`): counters/gauges/histograms with
  digest quantiles, per-tenant series labeled ``tenant="..."``;
* ``GET /api/sessions`` — active-session summaries;
* ``GET /api/sessions/<id>`` — one session summary, or its verdict
  once finished;
* ``POST /api/captures`` — body is a btsnoop capture; scored
  synchronously, response is the verdict (identical alerts to
  :func:`repro.detect.replay_capture` on the same bytes).  Malformed
  bytes are a structured 400 with a one-line ``error`` reason — never
  a 500;
* ``POST /api/sessions`` — JSON ``{"run_id": ...}``: replay an
  archived run out of the attached store through a fresh session;
* ``GET /ws/ingest`` — the long-lived streaming path (wire protocol in
  :mod:`repro.service.protocol`);
* ``GET /api/runs…``, ``GET /`` and ``GET /run/<id>`` — the run
  store's routes (:mod:`repro.store.routes`); 400 without a store.

Malformed client input (request line, headers, ``Content-Length``,
query parameters) is a 4xx with an ``{"error": ...}`` body — never a
500 or a dropped connection.

Each WebSocket stream gets a bounded queue between the socket reader
and the scoring worker.  When the queue is full the event is *shed* —
counted in the session's ``dropped_events``, never silently lost —
so one slow stream cannot wedge the server.  Scoring itself is
synchronous per session (:meth:`~repro.service.session.Session.ingest`
is pure), which is what keeps concurrent-session verdicts identical
to sequential ones.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from repro.detect.base import detector_names
from repro.service import protocol
from repro.service.session import Session, SessionConfig, SessionManager
from repro.service.websocket import (
    WebSocket,
    WebSocketError,
    handshake_response,
)
from repro.store import RunStore
from repro.store import routes as store_routes
from repro.store.query import params_from_query_string
from repro.store.replay import detection_events_for_run

#: request line + headers are bounded; bodies use Content-Length
MAX_HEADER_BYTES = 64 * 1024

#: refuse capture uploads beyond this size
MAX_BODY_BYTES = 64 * 1024 * 1024

#: how often the idle-eviction task wakes (wall seconds)
EVICTION_TICK_S = 30.0

#: the event a WS worker treats as end-of-stream
_FINISH = object()

JSON_TYPE = "application/json"
HTML_TYPE = "text/html; charset=utf-8"
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
}

#: what a bad session parameter raises (bad int, unknown detector, …)
_BAD_PARAMS = (ValueError, KeyError, TypeError)

_NO_STORE = {"error": "no run store attached (start with --db)"}


class HttpError(Exception):
    """A client-caused request error: answered with ``status``."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status


def enqueue_or_shed(
    session: Session, queue: "asyncio.Queue", item: Any
) -> bool:
    """Enqueue an event for the session's worker, or shed it.

    Factored out of the WebSocket reader so backpressure is testable
    without sockets: a full queue increments the session's
    ``dropped_events`` (slow-consumer shedding) and the caller moves
    on.  Returns True when the item was queued.
    """
    try:
        queue.put_nowait(item)
        return True
    except asyncio.QueueFull:
        session.shed()
        return False


class _HttpRequest:
    """One parsed request: method, path, query params, headers, body."""

    def __init__(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        path, _, query_string = target.partition("?")
        self.path = path
        self.headers = headers
        self.body = body
        self.params = params_from_query_string(query_string)


class IngestServer:
    """The asyncio ingest service (``blap service serve``, ``blap serve``)."""

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        store: Optional[RunStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: Optional[float] = None,
        verbose: bool = False,
    ) -> None:
        if manager is None:
            manager = SessionManager(store=store)
        elif store is not None and manager.store is None:
            manager.store = store
        self.manager = manager
        self.store = manager.store
        self.host = host
        self.port = port
        self.verbose = verbose
        if idle_timeout_s is not None:
            self.manager.max_idle_s = idle_timeout_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._evictor: Optional[asyncio.Task] = None

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> "IngestServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._evictor = asyncio.get_running_loop().create_task(
            self._evict_loop()
        )
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._evictor is not None:
            self._evictor.cancel()
            try:
                await self._evictor
            except asyncio.CancelledError:
                pass
            self._evictor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "IngestServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def ws_url(self) -> str:
        return f"ws://{self.host}:{self.port}/ws/ingest"

    async def _evict_loop(self) -> None:
        while True:
            await asyncio.sleep(EVICTION_TICK_S)
            evicted = self.manager.evict_idle()
            if evicted:
                self._log(f"evicted idle sessions: {', '.join(evicted)}")

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[service] {message}")

    # ------------------------------------------------------------ connection

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except HttpError as exc:
                self._log(f"bad request: {exc}")
                await self._respond(writer, exc.status, {"error": str(exc)})
                return
            if request is None:
                return
            if (
                request.path == "/ws/ingest"
                and request.headers.get("upgrade", "").lower() == "websocket"
            ):
                await self._handle_websocket(request, reader, writer)
                return
            if request.path == "/metrics" and request.method == "GET":
                # Prometheus text exposition, not JSON — the one route
                # real scrapers hit.
                await self._respond(
                    writer,
                    200,
                    self.manager.prometheus_metrics(),
                    PROMETHEUS_TYPE,
                )
                return
            status, payload = self._route(request)
            self._log(f"{request.method} {request.path} {status}")
            await self._respond(
                writer,
                status,
                payload,
                HTML_TYPE if isinstance(payload, str) else JSON_TYPE,
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except WebSocketError as exc:
            self._log(f"websocket error: {exc}")
        except Exception as exc:  # the server must never die on one conn
            self._log(f"internal error: {exc!r}")
            try:
                await self._respond(writer, 500, {"error": "internal error"})
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_HttpRequest]:
        """One request off the wire, or ``None`` if the peer sent nothing.

        Malformed input raises :class:`HttpError`: 400 for a bad
        request line or ``Content-Length``, 413 for an oversize body,
        431 for oversize headers.
        """
        try:
            request_line = await reader.readline()
            if not request_line:
                return None
            parts = request_line.decode("latin-1").strip().split(" ", 2)
            if len(parts) != 3:
                raise HttpError(
                    400, f"bad request line: {request_line[:80]!r}"
                )
            method, target, _ = parts
            headers: Dict[str, str] = {}
            total = len(request_line)
            while True:
                line = await reader.readline()
                total += len(line)
                if total > MAX_HEADER_BYTES:
                    raise HttpError(431, "request headers too large")
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # one line beyond the stream's buffer limit
            raise HttpError(431, "request headers too large") from None
        length_text = headers.get("content-length", "0") or "0"
        if not length_text.isdecimal():
            raise HttpError(400, f"bad Content-Length {length_text[:40]!r}")
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return _HttpRequest(method.upper(), target, headers, body)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Any,
        content_type: str = JSON_TYPE,
    ) -> None:
        """Write one response; a JSON ``body`` is encoded here."""
        if content_type == JSON_TYPE:
            body = json.dumps(body, sort_keys=True)
        data = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # --------------------------------------------------------------- routing

    def _route(self, request: _HttpRequest) -> Tuple[int, Any]:
        """``(status, JSON dict)``, or an HTML ``str`` for store pages."""
        path, method = request.path, request.method
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "protocol": protocol.PROTOCOL_VERSION,
                "sessions": len(self.manager.sessions),
            }
        if path == "/api/metrics" and method == "GET":
            return 200, self.manager.service_snapshot()
        if path == "/api/sessions" and method == "GET":
            return 200, {"sessions": self.manager.list_sessions()}
        if path.startswith("/api/sessions/") and method == "GET":
            session_id = path[len("/api/sessions/"):]
            session = self.manager.sessions.get(session_id)
            if session is not None:
                return 200, session.summary()
            verdict = self.manager.finished.get(session_id)
            if verdict is not None:
                return 200, verdict
            return 404, {"error": f"unknown session {session_id!r}"}
        if path == "/api/captures" and method == "POST":
            return self._handle_capture(request)
        if path == "/api/sessions" and method == "POST":
            return self._handle_store_session(request)
        found = store_routes.resolve(path) if method == "GET" else None
        if found is None:
            return 404, {"error": f"no route for {method} {path}"}
        if self.store is None:
            return 400, _NO_STORE
        handler, run_id = found
        try:
            return handler(self.store, run_id, request.params)
        except ValueError as exc:  # a bad store filter
            return 400, {"error": str(exc)}

    def _session_config(
        self, params: Dict[str, Any], monitor_default: str
    ) -> SessionConfig:
        """Session overrides from query params / a JSON body / a hello.

        Raises one of ``_BAD_PARAMS`` on a bad value, before any
        session is opened.
        """
        config = self.manager.defaults
        overrides: Dict[str, Any] = {}
        tenant = params.get("tenant")
        if tenant:
            overrides["tenant"] = str(tenant)
        detectors = params.get("detectors")
        if detectors:
            if isinstance(detectors, str):
                detectors = [
                    name for name in detectors.split(",") if name
                ]
            unknown = set(detectors) - set(detector_names())
            if unknown:
                raise ValueError(f"unknown detector(s) {sorted(unknown)}")
            overrides["detectors"] = list(detectors)
        overrides["monitor"] = str(params.get("monitor") or monitor_default)
        for key in ("window", "max_events", "queue_size"):
            value = params.get(key)
            if value is not None and value != "":
                overrides[key] = int(value)
        return replace(config, **overrides)

    # -------------------------------------------------------------- captures

    def _handle_capture(
        self, request: _HttpRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """Score an uploaded btsnoop capture synchronously."""
        try:
            entries = protocol.decode_capture(request.body)
        except protocol.CaptureError as exc:
            return 400, {"error": str(exc)}
        try:
            config = self._session_config(request.params, "capture")
        except _BAD_PARAMS as exc:
            return 400, {"error": f"bad session parameters: {exc}"}
        session = self.manager.open(config)
        span = self.manager.obs.spans.begin(
            "service.capture", source="service", session=session.id
        )
        try:
            for event in protocol.capture_events(
                entries, monitor=config.monitor
            ):
                session.ingest(event)
            verdict = self.manager.finish(session)
        finally:
            self.manager.obs.spans.finish(span)
        self._log(
            f"capture scored: session={session.id} "
            f"events={verdict['events']} alerts={verdict['alert_count']}"
        )
        return 200, verdict

    # --------------------------------------------------------- store replay

    def _handle_store_session(
        self, request: _HttpRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """Replay an archived run out of the store through a session."""
        if self.store is None:
            return 400, _NO_STORE
        try:
            params = json.loads(request.body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError) as exc:
            return 400, {"error": f"body is not JSON: {exc}"}
        if not isinstance(params, dict):
            return 400, {"error": "body must be a JSON object"}
        run_id = params.get("run_id")
        if not run_id:
            return 400, {"error": "missing run_id"}
        try:
            config = self._session_config(params, "store")
        except _BAD_PARAMS as exc:
            return 400, {"error": f"bad session parameters: {exc}"}
        try:
            events = list(
                detection_events_for_run(
                    self.store, str(run_id), monitor=config.monitor
                )
            )
        except KeyError as exc:
            return 404, {"error": str(exc.args[0])}
        session = self.manager.open(config)
        span = self.manager.obs.spans.begin(
            "service.store_replay", source="service", session=session.id
        )
        try:
            for event in events:
                session.ingest(event)
            verdict = self.manager.finish(session)
        finally:
            self.manager.obs.spans.finish(span)
        verdict = dict(verdict)
        verdict["source_run_id"] = str(run_id)
        return 200, verdict

    # -------------------------------------------------------------- streaming

    async def _handle_websocket(
        self,
        request: _HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        writer.write(handshake_response(request.headers))
        await writer.drain()
        ws = WebSocket(reader, writer, mask=False)
        session: Optional[Session] = None
        worker: Optional[asyncio.Task] = None
        try:
            hello = await ws.recv_json()
            if hello is None:
                return
            if hello.get("type") != "hello":
                await ws.send_json(
                    protocol.error_frame(
                        f"expected a hello frame, got {hello.get('type')!r}"
                    )
                )
                return
            try:
                config = self._session_config(hello, "capture")
            except _BAD_PARAMS as exc:
                await ws.send_json(
                    protocol.error_frame(f"bad session parameters: {exc}")
                )
                return
            session = self.manager.open(config)
            queue: "asyncio.Queue" = asyncio.Queue(
                maxsize=max(1, config.queue_size)
            )
            span = self.manager.obs.spans.begin(
                "service.session", source="service", session=session.id
            )
            worker = asyncio.get_running_loop().create_task(
                self._score_worker(session, queue, ws)
            )
            await ws.send_json(
                {
                    "type": "welcome",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "session": session.id,
                    "tenant": config.tenant,
                    "detectors": session.detector_names,
                }
            )
            finished = False
            while not finished:
                frame = await ws.recv_json()
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "finish":
                    finished = True
                    continue
                if kind != "event":
                    await ws.send_json(
                        protocol.error_frame(
                            f"unexpected frame type {kind!r}"
                        )
                    )
                    continue
                try:
                    event = protocol.frame_to_event(
                        frame, default_monitor=config.monitor
                    )
                except protocol.ProtocolError as exc:
                    await ws.send_json(protocol.error_frame(str(exc)))
                    continue
                self.manager.touch(session)
                enqueue_or_shed(session, queue, event)
            await queue.put(_FINISH)
            verdict = await worker
            worker = None
            self.manager.obs.spans.finish(span)
            if verdict is not None:
                await ws.send_json(verdict)
        except WebSocketError as exc:
            self._log(f"stream error: {exc}")
        finally:
            if worker is not None:
                worker.cancel()
                try:
                    await worker
                except asyncio.CancelledError:
                    pass
            if session is not None and session.state == "open":
                # client vanished mid-stream: close out the session so
                # its verdict is still addressable and archived
                self.manager.finish(session)
            await ws.close()

    async def _score_worker(
        self,
        session: Session,
        queue: "asyncio.Queue",
        ws: WebSocket,
    ) -> Optional[Dict[str, Any]]:
        """Drain the session queue, streaming alerts as they fire."""
        while True:
            item = await queue.get()
            if item is _FINISH:
                return self.manager.finish(session)
            alerts = session.ingest(item)
            for alert in alerts:
                try:
                    await ws.send_json(
                        protocol.alert_frame(session.id, alert)
                    )
                except (ConnectionError, WebSocketError):
                    pass  # verdict still completes server-side


def run_server(
    host: str = "127.0.0.1",
    port: int = 8322,
    store: Optional[RunStore] = None,
    idle_timeout_s: float = 300.0,
    defaults: Optional[SessionConfig] = None,
    verbose: bool = False,
    ready: Optional[Any] = None,
) -> None:
    """Blocking entry point for ``blap service serve``."""

    async def main() -> None:
        manager = SessionManager(
            defaults=defaults, max_idle_s=idle_timeout_s, store=store
        )
        server = IngestServer(
            manager=manager, host=host, port=port, verbose=verbose
        )
        async with server:
            if ready is not None:
                ready(server)
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


__all__ = ["IngestServer", "enqueue_or_shed", "run_server"]
