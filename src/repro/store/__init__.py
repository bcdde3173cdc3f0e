"""The queryable run store: indexed timelines over ``runs/<run-id>/``.

Every diagnostic stream the reproduction emits — timeline events
(HCI taps, air frames, tracer records, fault injections, spans),
detector alerts, per-trial campaign telemetry — lands in one indexed
SQLite database instead of write-only JSONL dumps, following the
bluTruth storage-layer/interface-layer split:

* :mod:`repro.store.db` — :class:`RunStore`, the append-friendly
  storage layer (normalised schema in :mod:`repro.store.schema`);
* :mod:`repro.store.query` — typed query values
  (:class:`EventQuery`, :class:`AlertQuery`,
  :class:`TelemetryQuery`) shared by every front-end;
* :mod:`repro.store.ingest` — live exporter hooks
  (:func:`export_world_timeline`, :class:`StoreTelemetrySink`) and
  ``blap store ingest`` backfill (:func:`ingest_run_dir`);
* :mod:`repro.store.routes` — the HTTP JSON API and live HTML view,
  mounted by :class:`repro.service.server.IngestServer` (``blap
  serve``);
* :mod:`repro.store.replay` — archived run → detection-event stream
  (:func:`detection_events_for_run`), feeding store-sourced
  :mod:`repro.service` sessions.

Quick start::

    from repro.store import RunStore, EventQuery, ingest_run_dir

    with RunStore("runs/store.db") as store:
        ingest_run_dir(store, "runs/20260808-120000-00042")
        events = store.query_events(
            EventQuery(run_id="20260808-120000-00042",
                       since=10.0, until=12.5, sources=("M", "phy"))
        )
"""

from repro.store.db import (
    RunInfo,
    RunStore,
    StoredEvent,
    StoreError,
    default_store_path,
)
from repro.store.ingest import (
    StoreTelemetrySink,
    alert_from_event,
    export_world_timeline,
    ingest_run_dir,
    store_events,
)
from repro.store.query import (
    AlertQuery,
    EventQuery,
    TelemetryQuery,
    params_from_query_string,
    query_from_params,
)
from repro.store.replay import detection_events_for_run
from repro.store.schema import SCHEMA_VERSION

__all__ = [
    "AlertQuery",
    "EventQuery",
    "RunInfo",
    "RunStore",
    "SCHEMA_VERSION",
    "StoreError",
    "StoreTelemetrySink",
    "StoredEvent",
    "TelemetryQuery",
    "alert_from_event",
    "default_store_path",
    "detection_events_for_run",
    "export_world_timeline",
    "ingest_run_dir",
    "params_from_query_string",
    "query_from_params",
    "store_events",
]
