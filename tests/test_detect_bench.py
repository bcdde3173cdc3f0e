"""Detection-subsystem benchmarks (run with ``-m perf``).

Persists the measured numbers to ``BENCH_detect.json`` (see
``repro.core.bench``): monitored-trial wall time, detection events per
second of whole trial wall time, and the wall time of a small serial
ROC sweep.  A monitored trial is a full page-blocking trial, and most
of its time goes to the simulated ECDH, so ``trial_events_per_s``
tracks trial speed, not detector throughput.  The
assertions are generous sanity floors — the artifact is the point.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.runner import run_trial
from repro.core.bench import record_bench

pytestmark = pytest.mark.perf


def test_monitored_trial_throughput():
    # warm-up takes imports out of the measurement
    run_trial("detection-attack", 89_999, params={"attack": "page-blocking"})
    started = time.perf_counter()
    repeats = 5
    events = 0
    for index in range(repeats):
        result, _ = run_trial(
            "detection-attack",
            90_000 + index,
            params={"attack": "page-blocking"},
        )
        assert result.error is None
        events += result.detail["events"]
    elapsed = time.perf_counter() - started
    per_trial = elapsed / repeats
    events_per_s = events / elapsed
    record_bench(
        "detect",
        "monitored_trial",
        {
            "repeats": repeats,
            "trial_s": per_trial,
            "feed_events": events // repeats,
            "trial_events_per_s": events_per_s,
        },
    )
    assert events_per_s > 1_000, (
        f"monitored trials yield {events_per_s:.0f} detection events/s, "
        "implausibly slow"
    )


def test_small_roc_sweep_wall_time():
    runner = CampaignRunner(workers=1)
    started = time.perf_counter()
    attack = runner.run(
        CampaignSpec(
            "detection-attack",
            seeds=range(91_000, 91_004),
            params={"attack": "page-blocking"},
        )
    )
    benign = runner.run(
        CampaignSpec("detection-benign", seeds=range(92_000, 92_004))
    )
    elapsed = time.perf_counter() - started
    assert not attack.errors and not benign.errors
    record_bench(
        "detect",
        "roc_sweep",
        {
            "attack_trials": attack.trials,
            "benign_trials": benign.trials,
            "wall_s": elapsed,
            "trial_s": elapsed / (attack.trials + benign.trials),
        },
    )
