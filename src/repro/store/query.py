"""Typed queries against the run store.

A query is a frozen dataclass — a plain value that travels unchanged
from any front-end (``blap query`` argument parsing, the ``blap
serve`` URL layer, library callers) into
:meth:`~repro.store.db.RunStore.query_events` and friends, so every
surface filters with exactly the same semantics.  Each query knows how
to render its own SQL ``WHERE`` clause; the store supplies the
``SELECT`` around it.

Filters compose conjunctively (AND); list-valued filters match any of
their values (IN).  Pagination is plain ``limit``/``offset`` over the
deterministic ``(time, seq)`` order, so pages are stable for a given
store.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs

#: default page size for event queries (servers and CLIs share it)
DEFAULT_LIMIT = 1000

#: singular URL spellings of the list-valued query fields
LIST_PARAMS = {
    "source": "sources",
    "category": "categories",
    "detector": "detectors",
}


def _in_clause(column: str, values: Sequence[Any]) -> Tuple[str, List[Any]]:
    marks = ", ".join("?" for _ in values)
    return f"{column} IN ({marks})", list(values)


@dataclass(frozen=True)
class EventQuery:
    """Filters over the unified timeline (``events`` table)."""

    run_id: Optional[str] = None
    #: simulated-time range, inclusive start / exclusive end
    since: Optional[float] = None
    until: Optional[float] = None
    #: producing device / stream (tracer ``source`` column)
    sources: Sequence[str] = field(default_factory=tuple)
    categories: Sequence[str] = field(default_factory=tuple)
    #: ``"trace"`` or ``"span"``
    kind: Optional[str] = None
    #: span name filter (implies ``kind="span"``)
    span_type: Optional[str] = None
    scenario: Optional[str] = None
    seed: Optional[int] = None
    limit: int = DEFAULT_LIMIT
    offset: int = 0

    def where(self) -> Tuple[str, List[Any]]:
        clauses: List[str] = []
        params: List[Any] = []
        if self.run_id is not None:
            clauses.append("run_id = ?")
            params.append(self.run_id)
        if self.since is not None:
            clauses.append("time >= ?")
            params.append(float(self.since))
        if self.until is not None:
            clauses.append("time < ?")
            params.append(float(self.until))
        if self.sources:
            clause, values = _in_clause("source", self.sources)
            clauses.append(clause)
            params.extend(values)
        if self.categories:
            clause, values = _in_clause("category", self.categories)
            clauses.append(clause)
            params.extend(values)
        kind = self.kind
        if self.span_type is not None:
            kind = "span"
            clauses.append("message = ?")
            params.append(self.span_type)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if self.scenario is not None:
            clauses.append("scenario = ?")
            params.append(self.scenario)
        if self.seed is not None:
            clauses.append("seed = ?")
            params.append(int(self.seed))
        where = " AND ".join(clauses) if clauses else "1=1"
        return where, params


@dataclass(frozen=True)
class AlertQuery:
    """Filters over persisted detector alerts (``alerts`` table)."""

    run_id: Optional[str] = None
    since: Optional[float] = None
    until: Optional[float] = None
    detectors: Sequence[str] = field(default_factory=tuple)
    min_score: Optional[float] = None
    peer: Optional[str] = None
    scenario: Optional[str] = None
    seed: Optional[int] = None
    limit: int = DEFAULT_LIMIT
    offset: int = 0

    def where(self) -> Tuple[str, List[Any]]:
        clauses: List[str] = []
        params: List[Any] = []
        if self.run_id is not None:
            clauses.append("run_id = ?")
            params.append(self.run_id)
        if self.since is not None:
            clauses.append("time >= ?")
            params.append(float(self.since))
        if self.until is not None:
            clauses.append("time < ?")
            params.append(float(self.until))
        if self.detectors:
            clause, values = _in_clause("detector", self.detectors)
            clauses.append(clause)
            params.extend(values)
        if self.min_score is not None:
            clauses.append("score >= ?")
            params.append(float(self.min_score))
        if self.peer is not None:
            clauses.append("peer = ?")
            params.append(self.peer)
        if self.scenario is not None:
            clauses.append("scenario = ?")
            params.append(self.scenario)
        if self.seed is not None:
            clauses.append("seed = ?")
            params.append(int(self.seed))
        where = " AND ".join(clauses) if clauses else "1=1"
        return where, params


@dataclass(frozen=True)
class TelemetryQuery:
    """Filters over per-trial telemetry rows."""

    run_id: Optional[str] = None
    scenario: Optional[str] = None
    seed: Optional[int] = None
    success: Optional[bool] = None
    cached: Optional[bool] = None
    errors_only: bool = False
    limit: int = DEFAULT_LIMIT
    offset: int = 0

    def where(self) -> Tuple[str, List[Any]]:
        clauses: List[str] = []
        params: List[Any] = []
        if self.run_id is not None:
            clauses.append("run_id = ?")
            params.append(self.run_id)
        if self.scenario is not None:
            clauses.append("scenario = ?")
            params.append(self.scenario)
        if self.seed is not None:
            clauses.append("seed = ?")
            params.append(int(self.seed))
        if self.success is not None:
            clauses.append("success = ?")
            params.append(1 if self.success else 0)
        if self.cached is not None:
            clauses.append("cached = ?")
            params.append(1 if self.cached else 0)
        if self.errors_only:
            clauses.append("error IS NOT NULL")
        where = " AND ".join(clauses) if clauses else "1=1"
        return where, params


def params_from_query_string(query_string: str) -> Dict[str, Any]:
    """A percent-encoded URL query string → flat kwargs for
    :func:`query_from_params`.

    The singular spellings in :data:`LIST_PARAMS` (``source``) collect
    into the query dataclass's plural field (``sources``) as a tuple,
    whether repeated (``&source=M&source=phy``) or comma-joined
    (``&source=M,phy``); every other key keeps its last value.
    """
    out: Dict[str, Any] = {}
    for key, values in parse_qs(query_string).items():
        target = LIST_PARAMS.get(key)
        if target is not None:
            out[target] = tuple(
                item for value in values for item in value.split(",") if item
            )
        else:
            out[key] = values[-1]
    return out


def query_from_params(cls, params: Dict[str, Any]):
    """Build a query dataclass from loosely-typed string parameters
    (URL query strings, CLI remainders).  Unknown keys raise — a typo
    in a filter name must not silently widen the result set."""
    known = {f.name: f for f in fields(cls)}
    unknown = set(params) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} filter(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    coerced: Dict[str, Any] = {}
    for key, value in params.items():
        if value is None:
            continue
        spec = known[key]
        annotation = str(spec.type)
        if key in ("sources", "categories", "detectors"):
            if isinstance(value, str):
                value = tuple(v for v in value.split(",") if v)
            coerced[key] = tuple(value)
        elif "int" in annotation:
            coerced[key] = int(value)
        elif "float" in annotation:
            coerced[key] = float(value)
        elif "bool" in annotation:
            if isinstance(value, str):
                coerced[key] = value.lower() in ("1", "true", "yes", "on")
            else:
                coerced[key] = bool(value)
        else:
            coerced[key] = value
    return cls(**coerced)
