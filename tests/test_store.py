"""The queryable run store: round-trips, ingest, sinks, server, and
the ``blap report`` byte-identity pin.

The contract under test is the PR's acceptance line: a campaign run
ingested into the store can be queried back by time-range / device /
source / span-type through the typed query API and the ``blap serve``
JSON API, and a store-backed report renders byte-identically to the
pre-store JSONL path.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.campaign.telemetry import CampaignTelemetry, read_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_markdown, telemetry_from_store
from repro.obs.timeline import (
    TimelineEvent,
    events_from_jsonl,
    export_jsonl,
    write_jsonl,
)
from repro.store import (
    AlertQuery,
    EventQuery,
    RunStore,
    StoreTelemetrySink,
    TelemetryQuery,
    alert_from_event,
    ingest_run_dir,
    query_from_params,
    store_events,
)
from repro.service.server import IngestServer

RUN = "run-a"

GOLDEN_API = Path(__file__).parent / "golden" / "store_api.jsonl"


def _events():
    """A small mixed timeline: traces, spans, and one detector alert."""
    return [
        TimelineEvent(0.5, 1, "M", "phy-page", "page tx"),
        TimelineEvent(1.0, 2, "A", "hci", "connect request"),
        TimelineEvent(1.5, 3, "M", "span", "pairing", duration=0.75),
        TimelineEvent(2.0, 4, "C", "hci", "link key stored"),
        TimelineEvent(
            2.5,
            5,
            "detect",
            "alert",
            "[page-blocking] signature on aa:bb",
            detail={"score": 0.9, "peer": "aa:bb", "monitor": "m1"},
        ),
        TimelineEvent(3.0, 6, "M", "span", "inquiry", duration=0.2),
    ]


def _records():
    return [
        {
            "scenario": "baseline-race",
            "seed": seed,
            "success": seed % 2 == 0,
            "outcome": "mitm" if seed % 2 == 0 else "lost-race",
            "attempts": 1,
            "wall_time_s": 0.01 * (seed + 1),
            "sim_time_s": 5.0,
            "cached": seed == 3,
            "faulted": False,
            **({"error": "boom"} if seed == 5 else {}),
        }
        for seed in range(6)
    ]


@pytest.fixture()
def store():
    with RunStore(":memory:") as handle:
        yield handle


@pytest.fixture()
def run_dir(tmp_path):
    """A realistic ``runs/<id>/`` directory: telemetry via the real
    CampaignTelemetry writer plus an exported timeline artifact."""
    telemetry = CampaignTelemetry(run_id=RUN, root=tmp_path, mode="off")
    telemetry.begin_campaign("baseline-race", total=6)
    for record in _records():
        telemetry.record(record)
    telemetry.close()
    with open(
        telemetry.run_dir / "timeline.jsonl", "w", encoding="utf-8"
    ) as fp:
        write_jsonl(_events(), fp)
    return telemetry.run_dir


class TestEventRoundTrip:
    def test_events_come_back_in_time_seq_order(self, store):
        store.add_events(RUN, reversed(_events()), scenario="s", seed=7)
        out = store.query_events(EventQuery(run_id=RUN))
        assert [e.seq for e in out] == [1, 2, 3, 4, 5, 6]
        assert {e.scenario for e in out} == {"s"}
        assert {e.seed for e in out} == {7}

    def test_time_range_is_inclusive_exclusive(self, store):
        store.add_events(RUN, _events())
        out = store.query_events(
            EventQuery(run_id=RUN, since=1.0, until=2.5)
        )
        assert [e.time for e in out] == [1.0, 1.5, 2.0]
        assert store.time_range(RUN) == (0.5, 3.0)

    def test_source_and_category_filters(self, store):
        store.add_events(RUN, _events())
        assert len(
            store.query_events(EventQuery(run_id=RUN, sources=("M",)))
        ) == 3
        assert len(
            store.query_events(
                EventQuery(run_id=RUN, sources=("A", "C"))
            )
        ) == 2
        assert len(
            store.query_events(EventQuery(run_id=RUN, categories=("hci",)))
        ) == 2

    def test_span_type_filter_implies_kind_span(self, store):
        store.add_events(RUN, _events())
        out = store.query_events(
            EventQuery(run_id=RUN, span_type="pairing")
        )
        assert len(out) == 1
        assert out[0].kind == "span"
        assert out[0].duration == pytest.approx(0.75)
        assert len(
            store.query_events(EventQuery(run_id=RUN, kind="span"))
        ) == 2

    def test_pagination_is_stable(self, store):
        store.add_events(RUN, _events())
        first = store.query_events(EventQuery(run_id=RUN, limit=2))
        second = store.query_events(
            EventQuery(run_id=RUN, limit=2, offset=2)
        )
        rest = store.query_events(
            EventQuery(run_id=RUN, limit=-1, offset=4)
        )
        assert [e.seq for e in first + second + rest] == [1, 2, 3, 4, 5, 6]

    def test_count_and_group_by(self, store):
        store.add_events(RUN, _events())
        store.add_events("run-b", _events()[:2])
        query = EventQuery(run_id=RUN)
        assert store.count_events(query) == 6
        assert store.count_events(query, group_by="source") == {
            "A": 1,
            "C": 1,
            "M": 3,
            "detect": 1,
        }
        with pytest.raises(ValueError):
            store.count_events(query, group_by="message")

    def test_detail_survives_the_round_trip(self, store):
        store.add_events(RUN, _events())
        alert = store.query_events(
            EventQuery(run_id=RUN, categories=("alert",))
        )[0]
        assert alert.detail["peer"] == repr("aa:bb")


class TestAlertMirroring:
    def test_store_events_mirrors_alert_rows(self, store):
        counts = store_events(store, RUN, _events(), seed=3)
        assert counts == {"events": 6, "alerts": 1}
        alerts = store.query_alerts(AlertQuery(run_id=RUN))
        assert len(alerts) == 1
        assert alerts[0]["detector"] == "page-blocking"
        assert alerts[0]["score"] == pytest.approx(0.9)
        assert alerts[0]["peer"] == "aa:bb"
        assert alerts[0]["message"] == "signature on aa:bb"
        assert alerts[0]["seed"] == 3

    def test_alert_filters(self, store):
        events = _events() + [
            TimelineEvent(
                4.0,
                7,
                "detect",
                "alert",
                "[surveillance] repeat inquiries",
                detail={"score": 0.4},
            )
        ]
        store_events(store, RUN, events)
        assert len(
            store.query_alerts(AlertQuery(run_id=RUN, min_score=0.5))
        ) == 1
        assert len(
            store.query_alerts(
                AlertQuery(run_id=RUN, detectors=("surveillance",))
            )
        ) == 1
        assert len(
            store.query_alerts(AlertQuery(run_id=RUN, until=3.0))
        ) == 1

    def test_non_alert_events_map_to_none(self):
        assert alert_from_event({"source": "M", "category": "hci"}) is None


class TestTelemetryRoundTrip:
    def test_records_come_back_verbatim_in_order(self, store):
        records = _records()
        store.add_telemetry(RUN, records)
        assert store.query_telemetry(TelemetryQuery(run_id=RUN)) == records

    def test_filters(self, store):
        store.add_telemetry(RUN, _records())
        assert len(
            store.query_telemetry(
                TelemetryQuery(run_id=RUN, success=True)
            )
        ) == 3
        assert len(
            store.query_telemetry(TelemetryQuery(run_id=RUN, cached=True))
        ) == 1
        errored = store.query_telemetry(
            TelemetryQuery(run_id=RUN, errors_only=True)
        )
        assert [r["seed"] for r in errored] == [5]
        assert len(
            store.query_telemetry(
                TelemetryQuery(run_id=RUN, scenario="baseline-race", seed=2)
            )
        ) == 1

    def test_summary_rollup(self, store):
        store.add_telemetry(RUN, _records())
        rollup = store.telemetry_summary(RUN)
        assert rollup["trials"] == 6
        assert rollup["successes"] == 3
        assert rollup["cached"] == 1
        assert rollup["errors"] == 1


class TestQueryFromParams:
    def test_coerces_strings_by_annotation(self):
        query = query_from_params(
            EventQuery,
            {
                "run_id": RUN,
                "since": "1.5",
                "sources": "M,phy",
                "seed": "3",
                "limit": "10",
            },
        )
        assert query.since == 1.5
        assert query.sources == ("M", "phy")
        assert query.seed == 3
        assert query.limit == 10

    def test_unknown_filter_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            query_from_params(EventQuery, {"bogus": "1"})


class TestIngest:
    def test_round_trip_matches_the_artifacts(self, store, run_dir):
        counts = ingest_run_dir(store, run_dir)
        assert counts == {"telemetry": 6, "events": 6, "alerts": 1}
        assert store.query_telemetry(
            TelemetryQuery(run_id=RUN)
        ) == read_telemetry(run_dir)
        info = store.run(RUN)
        assert info is not None and info.trials == 6 and info.errors == 1

    def test_reingest_is_idempotent(self, store, run_dir):
        ingest_run_dir(store, run_dir)
        ingest_run_dir(store, run_dir)
        assert store.count_events(EventQuery(run_id=RUN)) == 6
        assert len(store.query_telemetry(TelemetryQuery(run_id=RUN))) == 6
        assert len(store.runs()) == 1

    def test_jsonl_export_parses_back_identically(self):
        events = _events()
        parsed = list(
            events_from_jsonl(export_jsonl(events).splitlines())
        )
        assert len(parsed) == len(events)
        assert [p["time"] for p in parsed] == [e.time for e in events]
        assert [p["kind"] for p in parsed] == [e.kind for e in events]


class TestStoreTelemetrySink:
    def test_campaign_telemetry_tees_into_the_store(self, tmp_path, store):
        sink = StoreTelemetrySink(store, RUN)
        telemetry = CampaignTelemetry(
            run_id=RUN, root=tmp_path, mode="off", sink=sink
        )
        telemetry.begin_campaign("baseline-race", total=6)
        for record in _records():
            telemetry.record(record)
        telemetry.close()
        # the store saw every record the JSONL did, live
        assert store.query_telemetry(
            TelemetryQuery(run_id=RUN)
        ) == read_telemetry(telemetry.run_dir)
        info = store.run(RUN)
        assert info is not None
        assert info.trials == 6
        assert info.summary["campaigns"][0]["scenario"] == "baseline-race"


@contextlib.contextmanager
def serving(store):
    """An :class:`IngestServer` over ``store`` on a background event
    loop, so blocking ``urllib`` clients can drive it; yields its URL."""
    loop = asyncio.new_event_loop()
    server = IngestServer(store=store)
    loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        yield server.url
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        assert not thread.is_alive()
        loop.run_until_complete(server.stop())
        loop.close()


def _fetch(url):
    """``(status, body text)`` for a GET, error statuses included."""
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestServer:
    @pytest.fixture()
    def base_url(self, store, run_dir):
        ingest_run_dir(store, run_dir)
        with serving(store) as url:
            yield url

    def _get(self, url):
        with urllib.request.urlopen(url) as response:
            return json.loads(response.read())

    def test_runs_listing(self, base_url):
        payload = self._get(base_url + "/api/runs")
        assert payload["count"] == 1
        entry = payload["data"][0]
        assert entry["run_id"] == RUN
        assert entry["events"] == 6
        assert entry["telemetry"]["trials"] == 6

    def test_time_range_and_source_query(self, base_url):
        payload = self._get(
            base_url
            + f"/api/runs/{RUN}/events?since=1&until=2.5&source=M,A"
        )
        assert [e["time"] for e in payload["data"]] == [1.0, 1.5]
        assert payload["total"] == 2

    def test_span_type_query(self, base_url):
        payload = self._get(
            base_url + f"/api/runs/{RUN}/events?span_type=inquiry"
        )
        assert payload["count"] == 1
        assert payload["data"][0]["duration"] == pytest.approx(0.2)

    def test_alerts_endpoint(self, base_url):
        payload = self._get(
            base_url + f"/api/runs/{RUN}/alerts?min_score=0.5"
        )
        assert payload["count"] == 1
        assert payload["data"][0]["detector"] == "page-blocking"

    def test_telemetry_endpoint(self, base_url):
        payload = self._get(
            base_url + f"/api/runs/{RUN}/telemetry?success=true"
        )
        assert payload["count"] == 3

    def test_unknown_filter_is_a_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(base_url + f"/api/runs/{RUN}/events?bogus=1")
        assert excinfo.value.code == 400

    def test_unknown_run_is_a_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(base_url + "/api/runs/nope")
        assert excinfo.value.code == 404

    def test_html_views_render(self, base_url):
        with urllib.request.urlopen(base_url + "/") as response:
            index = response.read().decode()
        assert RUN in index
        with urllib.request.urlopen(
            base_url + f"/run/{RUN}"
        ) as response:
            page = response.read().decode()
        assert "page-blocking" in page and "Timeline" in page


class TestStoreApiBytes:
    """Every ``/api/runs…`` response status and body, byte for byte,
    against ``tests/golden/store_api.jsonl`` (one ``[route, status,
    body]`` per line, over the store :meth:`build` makes)."""

    @staticmethod
    def build(store):
        store_events(store, RUN, _events())
        store.add_telemetry(RUN, _records())
        store.upsert_run(
            RUN,
            created_ts="2026-08-08T12:00:00Z",
            trials=6,
            errors=1,
            wall_time_s=0.21,
            summary={"trials": 6, "errors": 1},
        )

    def test_bodies_match_golden(self, store):
        golden = [
            json.loads(line)
            for line in GOLDEN_API.read_text(encoding="utf-8").splitlines()
        ]
        self.build(store)
        with serving(store) as url:
            served = [
                [route, *_fetch(url + route)] for route, _, _ in golden
            ]
        assert served == golden


def _report_data():
    return {
        "trials": 6,
        "table1": [],
        "table2": [],
        "scenarios": {
            "baseline-race": {"trials": 6, "successes": 3, "errors": 1}
        },
        "metrics": MetricsRegistry().snapshot(),
    }


class TestReportFromStore:
    def test_store_report_is_byte_identical_to_jsonl_path(self, run_dir):
        """The golden pin: telemetry read through the store renders the
        exact same report bytes as the pre-store ``read_telemetry``
        path did."""
        data = _report_data()
        via_jsonl = render_markdown(
            data, telemetry=read_telemetry(run_dir)
        )
        via_store = render_markdown(
            data, telemetry=telemetry_from_store(run_dir=run_dir)
        )
        assert "## Run telemetry" in via_store
        assert via_store == via_jsonl

    def test_file_store_path_matches_run_dir_path(self, tmp_path, run_dir):
        db = tmp_path / "store.db"
        with RunStore(db) as store:
            ingest_run_dir(store, run_dir)
        data = _report_data()
        via_db = render_markdown(
            data,
            telemetry=telemetry_from_store(store_path=db, run_id=RUN),
        )
        via_dir = render_markdown(
            data, telemetry=telemetry_from_store(run_dir=run_dir)
        )
        assert via_db == via_dir


class TestCli:
    def test_ingest_then_query_events_json(self, tmp_path, run_dir, capsys):
        from repro.cli import main

        db = str(tmp_path / "store.db")
        assert main(["store", "ingest", str(run_dir), "--db", db]) == 0
        capsys.readouterr()
        assert main(
            [
                "query",
                "events",
                "--db",
                db,
                "--run",
                RUN,
                "--since",
                "1",
                "--until",
                "2.5",
                "--source",
                "M",
                "--json",
            ]
        ) == 0
        events = json.loads(capsys.readouterr().out)
        assert [e["time"] for e in events] == [1.5]

    def test_query_alerts_and_runs(self, tmp_path, run_dir, capsys):
        from repro.cli import main

        db = str(tmp_path / "store.db")
        main(["store", "ingest", str(run_dir), "--db", db])
        capsys.readouterr()
        assert main(
            ["query", "alerts", "--db", db, "--run", RUN, "--json"]
        ) == 0
        alerts = json.loads(capsys.readouterr().out)
        assert [a["detector"] for a in alerts] == ["page-blocking"]
        assert main(["query", "runs", "--db", db, "--json"]) == 0
        runs = json.loads(capsys.readouterr().out)
        assert runs[0]["run_id"] == RUN and runs[0]["events"] == 6

    def test_group_by_count(self, tmp_path, run_dir, capsys):
        from repro.cli import main

        db = str(tmp_path / "store.db")
        main(["store", "ingest", str(run_dir), "--db", db])
        capsys.readouterr()
        assert main(
            [
                "query",
                "events",
                "--db",
                db,
                "--run",
                RUN,
                "--group-by",
                "kind",
                "--json",
            ]
        ) == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts == {"span": 2, "trace": 4}

    def test_ingest_without_dirs_discovers_runs(
        self, tmp_path, run_dir, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("BLAP_RUNS_DIR", str(run_dir.parent))
        db = str(tmp_path / "store.db")
        assert main(["store", "ingest", "--db", db]) == 0
        out = capsys.readouterr().out
        assert f"{RUN}: 6 telemetry, 6 events, 1 alerts" in out
