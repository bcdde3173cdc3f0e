"""The ingest server end to end: HTTP, WebSocket, store, shedding."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.campaign.captures import attack_capture
from repro.detect import replay_capture
from repro.service import client as service_client
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    IngestServer,
    enqueue_or_shed,
)
from repro.service.session import SessionConfig, SessionManager
from repro.service.websocket import OP_CLOSE, OP_TEXT, accept_key, encode_frame


@pytest.fixture(scope="module")
def attack_bytes():
    return attack_capture()


def run(coro):
    return asyncio.run(coro)


async def with_server(fn, **server_kwargs):
    async with IngestServer(**server_kwargs) as server:
        return await fn(server)


async def raw_exchange(server, data):
    """Send raw request bytes; ``(status, JSON body)`` of the reply,
    status 0 when the server closes without answering."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(data)
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, json.loads(body or b"{}")


class TestHttp:
    def test_healthz(self):
        async def check(server):
            status, payload = await service_client.request(
                server.host, server.port, "GET", "/healthz"
            )
            assert status == 200
            assert payload["status"] == "ok"

        run(with_server(check))

    def test_unknown_route_404(self):
        async def check(server):
            status, payload = await service_client.request(
                server.host, server.port, "GET", "/nope"
            )
            assert status == 404
            assert "error" in payload

        run(with_server(check))

    def test_upload_verdict_identical_to_replay_capture(self, attack_bytes):
        """Acceptance: online capture verdict ≡ offline replay."""
        offline = [
            alert.to_dict() for alert in replay_capture(attack_bytes).alerts
        ]

        async def check(server):
            status, verdict = await service_client.request(
                server.host,
                server.port,
                "POST",
                "/api/captures",
                attack_bytes,
            )
            assert status == 200
            assert json.dumps(verdict["alerts"], sort_keys=True) == (
                json.dumps(offline, sort_keys=True)
            )
            assert verdict["dropped_events"] == 0

        run(with_server(check))

    def test_truncated_upload_is_structured_400(self, attack_bytes):
        """Satellite: bad client bytes → 400 with a one-line reason."""

        async def check(server):
            for body in (b"", b"garbage", attack_bytes[:40]):
                status, payload = await service_client.request(
                    server.host, server.port, "POST", "/api/captures", body
                )
                assert status == 400, body
                assert isinstance(payload.get("error"), str)
                assert "\n" not in payload["error"]

        run(with_server(check))

    def test_capture_query_params_select_tenant_and_detectors(
        self, attack_bytes
    ):
        cases = [
            ("tenant=acme&detectors=page-blocking", "acme",
             ["page-blocking"]),
            # percent-encoded values are decoded before use
            ("tenant=acme&detectors=page-blocking%2Cctkd-anomaly", "acme",
             ["page-blocking", "ctkd-anomaly"]),
            ("tenant=lab%201&detectors=page-blocking", "lab 1",
             ["page-blocking"]),
        ]

        async def check(server):
            for query, tenant, detectors in cases:
                status, verdict = await service_client.request(
                    server.host,
                    server.port,
                    "POST",
                    f"/api/captures?{query}",
                    attack_bytes,
                )
                assert status == 200, (query, verdict)
                assert verdict["tenant"] == tenant
                assert verdict["detectors"] == detectors
                assert set(verdict["max_scores"]) == set(detectors)
            return server.manager

        manager = run(with_server(check))
        assert {"acme", "lab 1"} <= set(manager.tenants)

    def test_metrics_endpoint_merges_tenants(self, attack_bytes):
        async def check(server):
            await service_client.request(
                server.host,
                server.port,
                "POST",
                "/api/captures?tenant=a",
                attack_bytes,
            )
            await service_client.request(
                server.host,
                server.port,
                "POST",
                "/api/captures?tenant=b",
                attack_bytes,
            )
            status, payload = await service_client.request(
                server.host, server.port, "GET", "/api/metrics"
            )
            assert status == 200
            assert sorted(payload["tenants"]) == ["a", "b"]
            per_tenant = [
                payload["tenants"][t]["counters"]["service.events"]
                for t in ("a", "b")
            ]
            assert payload["service"]["counters"]["service.events"] == sum(
                per_tenant
            )
            assert payload["sessions"]["finished"] == 2

        run(with_server(check))

    def test_finished_session_verdict_stays_addressable(self, attack_bytes):
        async def check(server):
            _, verdict = await service_client.request(
                server.host, server.port, "POST", "/api/captures",
                attack_bytes,
            )
            status, payload = await service_client.request(
                server.host,
                server.port,
                "GET",
                f"/api/sessions/{verdict['session']}",
            )
            assert status == 200
            assert payload["type"] == "verdict"
            status, _ = await service_client.request(
                server.host, server.port, "GET", "/api/sessions/s9999"
            )
            assert status == 404

        run(with_server(check))


class TestBadRequests:
    """Client-caused errors are 4xx with an ``error`` body, never a 500
    or a silent close."""

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /api/captures HTTP/1.1\r\nContent-Length: abc\r\n", 400),
            (b"POST /api/captures HTTP/1.1\r\nContent-Length: -5\r\n", 400),
            (b"garbage\r\n", 400),
            (
                b"POST /api/captures HTTP/1.1\r\nContent-Length: %d\r\n"
                % (MAX_BODY_BYTES + 1),
                413,
            ),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"X-Pad: %s\r\n" % (b"a" * 1024) * (MAX_HEADER_BYTES // 1024),
                431,
            ),
        ],
        ids=["length-abc", "length-negative", "request-line", "body-413",
             "headers-431"],
    )
    def test_malformed_request_is_4xx(self, head, status):
        async def check(server):
            return await raw_exchange(server, head + b"\r\n")

        got, payload = run(with_server(check))
        assert got == status
        assert isinstance(payload.get("error"), str)

    def test_unknown_detector_in_query_is_400(self, attack_bytes):
        async def check(server):
            status, payload = await service_client.request(
                server.host,
                server.port,
                "POST",
                "/api/captures?detectors=nope",
                attack_bytes,
            )
            assert status == 400
            assert "nope" in payload["error"]
            assert server.manager.sessions == {}

        run(with_server(check))

    def test_unknown_detector_in_hello_is_error_frame(self):
        async def check(server):
            with pytest.raises(ConnectionError, match="nope"):
                await service_client.open_stream(
                    server.host, server.port, detectors=["nope"]
                )
            assert server.manager.sessions == {}

        run(with_server(check))

    def test_store_routes_without_store_are_400(self):
        async def check(server):
            for path in ("/api/runs", "/", "/run/x"):
                status, payload = await service_client.request(
                    server.host, server.port, "GET", path
                )
                assert status == 400, path
                assert "no run store attached" in payload["error"]

        run(with_server(check))


class TestWebSocket:
    def test_stream_verdict_identical_to_replay_capture(self, attack_bytes):
        offline = [
            alert.to_dict() for alert in replay_capture(attack_bytes).alerts
        ]

        async def check(server):
            verdict = await service_client.stream_capture(
                server.host, server.port, attack_bytes, tenant="ws"
            )
            assert json.dumps(verdict["alerts"], sort_keys=True) == (
                json.dumps(offline, sort_keys=True)
            )
            assert verdict["tenant"] == "ws"

        run(with_server(check))

    def test_small_window_streams_alerts_live(self, attack_bytes):
        """With a reorder window smaller than the stream, alerts are
        pushed mid-session instead of only at finish."""

        async def check(server):
            verdict = await service_client.stream_capture(
                server.host, server.port, attack_bytes, window=4
            )
            assert verdict["alert_count"] > 0
            assert len(verdict["streamed_alerts"]) == verdict["alert_count"]

        run(with_server(check))

    def test_bad_event_frame_gets_error_frame_not_disconnect(self):
        async def check(server):
            ws, welcome = await service_client.open_stream(
                server.host, server.port
            )
            try:
                await ws.send_json({"type": "event", "channel": "hci"})
                reply = await ws.recv_json()
                assert reply["type"] == "error"
                assert "\n" not in reply["reason"]
                # the stream is still alive: finishing works
                await ws.send_json({"type": "finish"})
                verdict = await ws.recv_json()
                assert verdict["type"] == "verdict"
                assert verdict["session"] == welcome["session"]
            finally:
                await ws.close()

        run(with_server(check))

    def test_unmasked_client_frame_fails_the_connection(self):
        """RFC 6455 §5.1: a server must close on an unmasked client frame."""

        async def check(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(
                    b"GET /ws/ingest HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Upgrade: websocket\r\n"
                    b"Connection: Upgrade\r\n"
                    b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                    b"Sec-WebSocket-Version: 13\r\n\r\n"
                )
                hello = json.dumps({"type": "hello", "protocol": 1}).encode()
                writer.write(encode_frame(hello, OP_TEXT, mask=False))
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), timeout=5)
            finally:
                writer.close()
            head, _, frames = response.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 101")
            # no welcome: the only frame back is the server's close
            assert frames == encode_frame(b"", OP_CLOSE)
            assert server.manager.sessions == {}

        run(with_server(check))

    def test_listing_shows_open_stream(self):
        async def check(server):
            ws, welcome = await service_client.open_stream(
                server.host, server.port, tenant="live"
            )
            try:
                status, payload = await service_client.request(
                    server.host, server.port, "GET", "/api/sessions"
                )
                assert status == 200
                rows = {
                    row["session"]: row for row in payload["sessions"]
                }
                assert welcome["session"] in rows
                assert rows[welcome["session"]]["tenant"] == "live"
            finally:
                await ws.close()

        run(with_server(check))


class TestStoreSourcedSessions:
    @pytest.fixture()
    def store(self, tmp_path):
        from repro.store import RunStore, store_events

        store = RunStore(str(tmp_path / "store.db"))
        # a synthetic recon run: one radio flooding inquiries, which
        # the surveillance detector (trace channel) must flag
        events = [
            {
                "kind": "trace",
                "time": 0.5 * index,
                "seq": index,
                "source": "phy",
                "category": "phy-inquiry",
                "message": "inquiry",
                "detail": {"initiator": "aa:bb:cc:dd:ee:01"},
            }
            for index in range(8)
        ]
        store_events(store, "recon-run", events)
        yield store
        store.close()

    def test_session_sourced_from_archived_run(self, store):
        """Satellite: store query → feed → verdict, alerts archived."""

        async def check(server):
            status, verdict = await service_client.request(
                server.host,
                server.port,
                "POST",
                "/api/sessions",
                json.dumps({"run_id": "recon-run"}).encode(),
                "application/json",
            )
            assert status == 200
            assert verdict["source_run_id"] == "recon-run"
            assert verdict["max_scores"]["surveillance"] > 0
            return verdict

        verdict = run(with_server(check, store=store))
        from repro.store import AlertQuery

        rows = store.query_alerts(
            AlertQuery(run_id=f"service-{verdict['session']}")
        )
        assert len(rows) == verdict["alert_count"] > 0

    def test_unknown_run_is_404(self, store):
        async def check(server):
            status, payload = await service_client.request(
                server.host,
                server.port,
                "POST",
                "/api/sessions",
                json.dumps({"run_id": "missing"}).encode(),
                "application/json",
            )
            assert status == 404
            assert "missing" in payload["error"]

        run(with_server(check, store=store))

    def test_without_store_is_400(self):
        async def check(server):
            status, payload = await service_client.request(
                server.host,
                server.port,
                "POST",
                "/api/sessions",
                json.dumps({"run_id": "x"}).encode(),
                "application/json",
            )
            assert status == 400
            assert "store" in payload["error"]

        run(with_server(check))


class TestBackpressure:
    def test_enqueue_or_shed_is_deterministic(self):
        """Satellite: a stalled consumer sheds exactly the overflow."""

        async def check():
            manager = SessionManager()
            session = manager.open(
                config=SessionConfig(queue_size=4)
            )
            queue = asyncio.Queue(maxsize=session.config.queue_size)
            accepted = sum(
                enqueue_or_shed(session, queue, object())
                for _ in range(10)
            )
            assert accepted == 4
            assert session.dropped_events == 6
            verdict = manager.finish(session)
            assert verdict["dropped_events"] == 6

        run(check())

    def test_idle_eviction_closes_sessions(self):
        async def check(server):
            clock = {"now": 0.0}
            server.manager.clock = lambda: clock["now"]
            session = server.manager.open()
            clock["now"] = 1000.0
            evicted = server.manager.evict_idle()
            assert evicted == [session.id]
            assert session.id in server.manager.finished

        run(with_server(check, idle_timeout_s=10.0))


class TestServiceCli:
    def test_loadgen_self_hosted(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("BLAP_BENCH_DIR", str(tmp_path))
        assert (
            main(
                [
                    "service", "loadgen",
                    "--sessions", "6",
                    "--tenants", "2",
                    "--captures", "2",
                    "--bench",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["sessions"] == 6
        assert payload["failures"] == 0
        bench = json.loads((tmp_path / "BENCH_service.json").read_text())
        assert bench["loadgen"]["ingest_events_per_s"] > 0
        assert (tmp_path / "BENCH_HISTORY.jsonl").exists()

    def test_sessions_against_dead_server_is_operator_error(self, capsys):
        from repro.cli import main

        assert (
            main(
                ["service", "sessions", "--url", "http://127.0.0.1:9"]
            )
            == 2
        )
        assert "error:" in capsys.readouterr().err


def test_accept_key_matches_rfc_example():
    # the worked example from RFC 6455 §1.3
    assert (
        accept_key("dGhlIHNhbXBsZSBub25jZQ==")
        == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
    )
