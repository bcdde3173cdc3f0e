"""Instrumentation overhead guards (run with ``-m perf``; skipped by
``-m "not perf"`` in CI).

The event loop promises that a *disabled* registry costs nothing on the
hot path: ``run()`` checks ``metrics.enabled`` once and then takes the
identical uninstrumented branch.  This test holds that promise to <5%
on a 10k-event run.

Timing discipline: one discarded warm-up run (first-call costs —
allocator growth, bytecode specialisation, branch warm-up — land
there), then the *median* of the repeats.  The old min-of-repeats
divided the best-case outlier of one distribution by the best-case
outlier of another, so the recorded enabled-overhead ratio swung from
~14% to ~54% run to run.  Warm-up + median compares typical runs to
typical runs and lands reproducibly near ~40% (recorded as
``BENCH_campaign.json`` ``obs_overhead_enabled.overhead``, the one
record of this figure) — the honest post-instrument-caching figure (down from
the pre-caching 57%); the ~11% once claimed in the changelog was
itself a lucky-minimum artifact.

The span-tracker guard charges spans separately from metrics: the
tracker's own open/close bookkeeping (parent linkage, self-time
accounting, timeline record) is measured against a disabled registry,
and the metrics observation it feeds (the three histogram families of
``Observability._observe_span``) against an enabled one — so
``BENCH_obs.json`` attributes "span overhead" and "metrics overhead"
to their actual owners instead of one conflated number.
"""

import statistics
import time

import pytest

from repro.core.bench import record_bench
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.sim.eventloop import Simulator

EVENTS = 10_000
#: span opens/closes per timed span-workload run (half outer, half inner)
SPANS = 10_000
REPEATS = 15


def _run_chain(metrics) -> float:
    """Wall time of a 10k-event chained run under the given registry."""
    sim = Simulator(metrics=metrics)
    remaining = [EVENTS]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert sim.events_processed == EVENTS
    return elapsed


def _median_of(metrics_factory) -> float:
    _run_chain(metrics_factory())  # warm-up, discarded
    return statistics.median(
        _run_chain(metrics_factory()) for _ in range(REPEATS)
    )


@pytest.mark.perf
def test_disabled_registry_under_five_percent_overhead():
    bare = _median_of(lambda: None)
    disabled = _median_of(lambda: MetricsRegistry(enabled=False))
    record_bench(
        "campaign",
        "obs_overhead_disabled",
        {
            "events": EVENTS,
            "bare_s": bare,
            "disabled_s": disabled,
            "overhead": disabled / bare - 1,
        },
    )
    # 0.5 ms absolute slack keeps sub-millisecond timer jitter from
    # failing runs where 5% of the baseline is only a few hundred µs.
    assert disabled <= bare * 1.05 + 0.0005, (
        f"disabled-registry run took {disabled:.6f}s vs {bare:.6f}s bare "
        f"({disabled / bare - 1:+.1%})"
    )


@pytest.mark.perf
def test_enabled_registry_stays_cheap_enough_for_benchmarks():
    bare = _median_of(lambda: None)
    enabled = _median_of(MetricsRegistry)
    record_bench(
        "campaign",
        "obs_overhead_enabled",
        {
            "events": EVENTS,
            "bare_s": bare,
            "enabled_s": enabled,
            "overhead": enabled / bare - 1,
        },
    )
    # Live counters + the wall-time histogram may cost real work, but
    # "cheap enough to stay on in benchmarks" means small-multiple, not
    # order-of-magnitude.
    assert enabled <= bare * 3 + 0.0005, (
        f"enabled-registry run took {enabled:.6f}s vs {bare:.6f}s bare"
    )


def _run_spans(obs: Observability) -> float:
    """Wall time of SPANS nested span opens/closes."""
    started = time.perf_counter()
    for _ in range(SPANS // 2):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
    return time.perf_counter() - started


def _median_spans(factory) -> float:
    _run_spans(factory())  # warm-up, discarded
    return statistics.median(_run_spans(factory()) for _ in range(REPEATS))


@pytest.mark.perf
def test_span_tracker_overhead_split_from_metrics():
    tracker_only = _median_spans(
        lambda: Observability(registry=MetricsRegistry(enabled=False))
    )
    with_metrics = _median_spans(
        lambda: Observability(registry=MetricsRegistry())
    )
    record_bench(
        "obs",
        "span_overhead",
        {
            "spans": SPANS,
            "tracker_s": tracker_only,
            "with_metrics_s": with_metrics,
            "metrics_overhead": with_metrics / tracker_only - 1,
        },
        spans=["outer", "inner"],
    )
    # Three cached-histogram observes per close on top of the tracker's
    # bookkeeping: small-multiple, never order-of-magnitude.
    assert with_metrics <= tracker_only * 5 + 0.0005, (
        f"span close with metrics took {with_metrics:.6f}s vs "
        f"{tracker_only:.6f}s tracker-only per {SPANS} spans"
    )
