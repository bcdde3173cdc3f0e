"""The run store over HTTP: JSON route bodies and the live HTML view.

:class:`~repro.service.server.IngestServer` mounts these routes; this
module owns their URL layout and the store's query format, so the
server only dispatches.  Each handler is a plain function
``(store, run_id, params) -> (status, payload)`` where ``params`` is
the flat mapping :func:`~repro.store.query.params_from_query_string`
builds and ``payload`` is a JSON-able dict, or a ``str`` of HTML.

JSON API::

    GET /api/runs                    every run in the store
    GET /api/runs/<id>               run detail + counts + time range
    GET /api/runs/<id>/events       ?since=&until=&source=&category=
                                    &kind=&span_type=&scenario=&seed=
                                    &limit=&offset=
    GET /api/runs/<id>/alerts       ?detector=&min_score=&since=&until=
    GET /api/runs/<id>/telemetry    ?scenario=&seed=&success=&cached=

List-valued filters repeat the parameter (``&source=M&source=phy``)
or comma-join (``&source=M,phy``).  Responses are
``{"data": [...], "count": N}`` envelopes; filter errors raise
``ValueError``, which the server returns as HTTP 400 with
``{"error": ...}``.

HTML view::

    GET /                            runs index
    GET /run/<id>                    per-run live view (auto-refresh)

Every request reads through the shared :class:`RunStore` handle (its
internal lock serialises readers against any live exporter), so the
page a browser shows tracks an in-flight campaign without restarts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.store.db import RunStore
from repro.store.query import (
    AlertQuery,
    EventQuery,
    TelemetryQuery,
    query_from_params,
)

#: rows shown in the HTML event/alert tables
HTML_ROWS = 50

#: ``(store, run_id, params) -> (status, JSON dict or HTML str)``
Handler = Callable[
    [RunStore, Optional[str], Mapping[str, Any]], Tuple[int, Any]
]


def _query(cls, run_id: str, params: Mapping[str, Any]):
    return query_from_params(cls, {**params, "run_id": run_id})


# ------------------------------------------------------------- JSON API


def api_runs(
    store: RunStore, run_id: Optional[str], params: Mapping[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    data = []
    for info in store.runs():
        entry = info.to_dict()
        entry["telemetry"] = store.telemetry_summary(info.run_id)
        entry["events"] = store.count_events(EventQuery(run_id=info.run_id))
        data.append(entry)
    return 200, {"data": data, "count": len(data)}


def api_run(
    store: RunStore, run_id: str, params: Mapping[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    info = store.run(run_id)
    if info is None:
        return 404, {"error": f"unknown run {run_id!r}"}
    span = store.time_range(run_id)
    return 200, {
        "data": {
            **info.to_dict(),
            "telemetry": store.telemetry_summary(run_id),
            "events": store.count_events(EventQuery(run_id=run_id)),
            "events_by_source": store.count_events(
                EventQuery(run_id=run_id), group_by="source"
            ),
            "events_by_kind": store.count_events(
                EventQuery(run_id=run_id), group_by="kind"
            ),
            "alerts": len(store.query_alerts(AlertQuery(run_id=run_id))),
            "time_range": list(span) if span else None,
        }
    }


def api_events(
    store: RunStore, run_id: str, params: Mapping[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    query = _query(EventQuery, run_id, params)
    events = [event.to_dict() for event in store.query_events(query)]
    return 200, {
        "data": events,
        "count": len(events),
        "total": store.count_events(query),
        "offset": query.offset,
    }


def api_alerts(
    store: RunStore, run_id: str, params: Mapping[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    alerts = store.query_alerts(_query(AlertQuery, run_id, params))
    return 200, {"data": alerts, "count": len(alerts)}


def api_telemetry(
    store: RunStore, run_id: str, params: Mapping[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    records = store.query_telemetry(_query(TelemetryQuery, run_id, params))
    return 200, {"data": records, "count": len(records)}


#: ``/api/runs/<id>/<resource>`` handlers
RESOURCES: Dict[str, Handler] = {
    "events": api_events,
    "alerts": api_alerts,
    "telemetry": api_telemetry,
}


def api_unknown_resource(
    store: RunStore, resource: str, params: Mapping[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    """``/api/runs/<id>/<resource>`` for a resource not in RESOURCES;
    :func:`resolve` passes the resource name where a run id goes."""
    return 404, {"error": f"unknown resource {resource!r}"}


def resolve(path: str) -> Optional[Tuple[Handler, Optional[str]]]:
    """``(handler, run_id)`` for a store GET path, else ``None``."""
    parts = [part for part in path.split("/") if part]
    if not parts:
        return render_index, None
    if len(parts) == 2 and parts[0] == "run":
        return render_run_page, parts[1]
    if parts[:2] != ["api", "runs"]:
        return None
    if len(parts) == 2:
        return api_runs, None
    if len(parts) == 3:
        return api_run, parts[2]
    if len(parts) == 4:
        if parts[3] in RESOURCES:
            return RESOURCES[parts[3]], parts[2]
        return api_unknown_resource, parts[3]
    return None


# ----------------------------------------------------------------- HTML


def _escape(text: Any) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; max-width: 72rem;
       margin: 2rem auto; padding: 0 1rem; color: #1a1a2e; }
table { border-collapse: collapse; margin: 0.75rem 0; width: 100%; }
th, td { border: 1px solid #c5c9d4; padding: 0.2rem 0.55rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #eef0f5; }
h1, h2 { line-height: 1.2; }
code { background: #eef0f5; padding: 0 0.25rem; }
.muted { color: #667; }
""".strip()


def _page(title: str, body: str, refresh_s: Optional[int] = None) -> str:
    refresh = (
        f'<meta http-equiv="refresh" content="{refresh_s}">'
        if refresh_s
        else ""
    )
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_escape(title)}</title>{refresh}"
        f"<style>{_STYLE}</style></head>\n<body>\n{body}\n</body></html>\n"
    )


def _table(headers: List[str], rows: List[List[Any]]) -> str:
    out = ["<table><tr>"]
    out.extend(f"<th>{_escape(h)}</th>" for h in headers)
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        out.extend(f"<td>{cell}</td>" for cell in row)
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def render_index(
    store: RunStore, run_id: Optional[str], params: Mapping[str, Any]
) -> Tuple[int, str]:
    rows = []
    for info in store.runs():
        telemetry = store.telemetry_summary(info.run_id)
        events = store.count_events(EventQuery(run_id=info.run_id))
        rows.append(
            [
                f'<a href="/run/{_escape(info.run_id)}">'
                f"{_escape(info.run_id)}</a>",
                telemetry["trials"],
                telemetry["successes"],
                telemetry["errors"],
                events,
                f"{info.wall_time_s:.2f}",
            ]
        )
    body = (
        "<h1>BLAP run store</h1>"
        f'<p class="muted">{_escape(store.path)} — '
        f"{len(rows)} run(s); JSON at <code>/api/runs</code>.</p>"
        + _table(
            ["run", "trials", "ok", "errors", "events", "wall (s)"], rows
        )
    )
    return 200, _page("BLAP run store", body, refresh_s=5)


def render_run_page(
    store: RunStore, run_id: str, params: Mapping[str, Any]
) -> Tuple[int, str]:
    info = store.run(run_id)
    if info is None:
        return 404, "<h1>run not found</h1>"
    telemetry = store.telemetry_summary(run_id)
    by_source = store.count_events(
        EventQuery(run_id=run_id), group_by="source"
    )
    span = store.time_range(run_id)
    alerts = store.query_alerts(AlertQuery(run_id=run_id, limit=HTML_ROWS))
    events = store.query_events(EventQuery(run_id=run_id, limit=HTML_ROWS))

    parts = [f"<h1>run {_escape(run_id)}</h1>"]
    time_note = (
        f"t = {span[0]:.6f} .. {span[1]:.6f} s" if span else "no events"
    )
    parts.append(
        f'<p class="muted">{telemetry["trials"]} trials '
        f'({telemetry["successes"]} ok, {telemetry["errors"]} errors, '
        f'{telemetry["cached"]} cached) — {time_note} — JSON at '
        f'<code>/api/runs/{_escape(run_id)}/events</code>.</p>'
    )
    if by_source:
        parts.append("<h2>Events by source</h2>")
        parts.append(
            _table(
                ["source", "events"],
                [[_escape(k), v] for k, v in sorted(by_source.items())],
            )
        )
    if alerts:
        parts.append(f"<h2>Alerts (first {len(alerts)})</h2>")
        parts.append(
            _table(
                ["time", "detector", "score", "peer", "message"],
                [
                    [
                        f"{alert['time']:.6f}",
                        _escape(alert["detector"]),
                        "-"
                        if alert["score"] is None
                        else f"{alert['score']:.2f}",
                        _escape(alert["peer"] or ""),
                        _escape(alert["message"] or ""),
                    ]
                    for alert in alerts
                ],
            )
        )
    if events:
        parts.append(f"<h2>Timeline (first {len(events)})</h2>")
        parts.append(
            _table(
                ["time", "source", "category", "kind", "message"],
                [
                    [
                        f"{event.time:.6f}",
                        _escape(event.source),
                        _escape(event.category),
                        _escape(event.kind),
                        _escape(event.message),
                    ]
                    for event in events
                ],
            )
        )
    parts.append('<p><a href="/">&larr; all runs</a></p>')
    return 200, _page(f"run {run_id}", "".join(parts), refresh_s=3)
