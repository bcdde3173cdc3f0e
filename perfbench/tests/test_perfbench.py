"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import layers  # noqa: E402
from stats import (  # noqa: E402
    grouped_percentile,
    percentile,
    samples_beyond,
    summary_ms,
)

PREFIX = "fakebench."


class FakeClock:
    """Advances 10 ns on every read, so spans have known lengths."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 10
        return self.now


# ------------------------------------------------------------- self time


def test_self_time_of_nested_spans():
    # root [0,100] > a [10,40] > a1 [20,30]; root > b [50,70]
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 70]
    assert layers.self_times(parents, starts, ends) == [50, 20, 10, 20]
    assert layers.root_coverage(parents, starts, ends, (0, 120)) == 100


def test_self_time_counts_overlapping_children_once():
    # two children overlap on [30,50]; one runs past its parent's end
    parents = [-1, 0, 0]
    starts = [0, 10, 30]
    ends = [100, 50, 130]
    assert layers.self_times(parents, starts, ends) == [10, 40, 100]


def test_root_coverage_clips_to_window():
    assert layers.root_coverage([-1, -1], [0, 50], [40, 90], (20, 60)) == 30


# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize("count", [2, 5, 11, 100, 137])
@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
def test_percentile_matches_inclusive_quantiles(count, q):
    values = [(index * 7919) % 101 for index in range(count)]
    cuts = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, q) == pytest.approx(cuts[int(q * 4) - 1])


def test_percentile_edges():
    assert percentile([3.0], 0.9) == 3.0
    assert percentile([1, 2, 3, 4], 0.0) == 1
    assert percentile([1, 2, 3, 4], 1.0) == 4
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_samples_beyond_the_tail():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(10, 0.9) == 1
    assert samples_beyond(0, 0.9) == 0
    summary = summary_ms([1_000_000 * i for i in range(1, 321)])
    assert summary["count"] == 320
    assert summary["groups"] == 3
    assert summary["beyond"] == 10
    # groups 1-100, 101-200, 201-300; the partial last group is dropped
    assert summary["p50"] == pytest.approx(150.5)
    assert summary_ms([2_000_000, 4_000_000])["p50"] == pytest.approx(3.0)


def test_grouped_percentile_ignores_one_stalled_group():
    steady = [1.0] * 100
    stalled = [50.0] * 100
    assert grouped_percentile(steady + stalled + steady, 0.9) == 1.0
    assert percentile(steady + stalled + steady, 0.9) == 50.0


# --------------------------------------------------------------- wrappers


@pytest.fixture
def fake_modules():
    """Two fake layers: ``alpha`` calls into ``beta``."""
    alpha = types.ModuleType(PREFIX + "alpha")
    beta = types.ModuleType(PREFIX + "beta")
    source = '''
def leaf(x):
    return x + 1

def helper(x):
    return leaf(x) * 2

async def waits(x):
    await asyncio.sleep(0)
    await asyncio.sleep(0)
    return leaf(x)

def produce(n):
    for i in range(n):
        yield leaf(i)

class Codec:
    def __init__(self):
        self.scale = 1

    def __repr__(self):
        return "Codec()"

    def encode(self, x):
        return helper(x)

    @staticmethod
    def tag():
        return "codec"
'''
    beta.asyncio = asyncio
    exec(compile(source, "beta.py", "exec"), beta.__dict__)
    exec(compile('''
def run(codec, x):
    return codec.encode(x) + helper(x)
''', "alpha.py", "exec"), alpha.__dict__)
    alpha.helper = beta.helper  # imported by name, as `from beta import helper`
    sys.modules[alpha.__name__] = alpha
    sys.modules[beta.__name__] = beta
    yield alpha, beta
    del sys.modules[alpha.__name__], sys.modules[beta.__name__]


def test_install_traces_cross_layer_calls_and_removes_cleanly(fake_modules):
    alpha, beta = fake_modules
    originals = {
        "alpha.run": alpha.run, "alpha.helper": alpha.helper,
        "beta.helper": beta.helper, "encode": vars(beta.Codec)["encode"],
        "tag": vars(beta.Codec)["tag"],
        "init": vars(beta.Codec)["__init__"],
        "repr": vars(beta.Codec)["__repr__"],
    }
    tracer = layers.Tracer(clock=FakeClock())
    patches = layers.install(tracer, prefix=PREFIX)
    try:
        assert alpha.helper is beta.helper  # patched where imported too
        assert alpha.helper is not originals["beta.helper"]
        assert vars(beta.Codec)["__init__"] is not originals["init"]
        assert vars(beta.Codec)["__repr__"] is originals["repr"]  # not traced
        started = tracer.clock()
        assert alpha.run(beta.Codec(), 1) == 8
        assert beta.Codec.tag() == "codec"
        ended = tracer.clock()
    finally:
        patches.remove()

    assert patches.restored()
    assert layers.leftover_wrappers(PREFIX) == []
    assert alpha.run is originals["alpha.run"]
    assert alpha.helper is originals["alpha.helper"] is beta.helper
    assert vars(beta.Codec)["encode"] is originals["encode"]
    assert vars(beta.Codec)["tag"] is originals["tag"]
    assert vars(beta.Codec)["__init__"] is originals["init"]

    names = [span[0] for span in tracer.spans()]
    # beta's internal calls (helper -> leaf) open no span of their own
    assert names == [
        PREFIX + "beta.Codec.__init__",
        PREFIX + "alpha.run",
        PREFIX + "beta.Codec.encode",
        PREFIX + "beta.helper",
        PREFIX + "beta.Codec.tag",
    ]
    report = layers.layer_report(tracer, (started, ended))
    assert report["nested"]
    assert set(report["self_ns"]) == {"alpha", "beta"}
    assert sum(report["self_ns"].values()) + report["other_ns"] == (
        ended - started
    )


def test_coroutines_and_generators_are_timed_per_step(fake_modules):
    alpha, beta = fake_modules
    tracer = layers.Tracer(clock=FakeClock())
    patches = layers.install(tracer, prefix=PREFIX)
    try:
        started = tracer.clock()
        assert asyncio.run(beta.waits(1)) == 2
        assert list(beta.produce(3)) == [1, 2, 3]
        ended = tracer.clock()
    finally:
        patches.remove()
    assert patches.restored()
    names = [span[0] for span in tracer.spans()]
    # three coroutine steps (two suspensions), four generator steps
    assert names.count(PREFIX + "beta.waits") == 3
    assert names.count(PREFIX + "beta.produce") == 4
    report = layers.layer_report(tracer, (started, ended))
    assert report["nested"]
    assert report["self_ns"]["beta"] > 0


def test_counted_functions_count_nested_calls():
    tracer = layers.Tracer()
    count = tracer.counts["crypto.aes.blocks"]
    inner = layers.wrap(tracer, lambda block: block, "crypto.aes",
                        "aes128_encrypt", count)
    outer = layers.wrap(tracer, lambda blocks: [inner(b) for b in blocks],
                        "crypto.aes", "aes_cmac")
    outer([1, 2, 3])
    assert count[0] == 3
    assert len(tracer.starts) == 1  # same-layer calls open no span


def test_layer_of():
    assert layers.layer_of("repro.crypto.ecc") == "crypto.ecc"
    assert layers.layer_of("repro.crypto.smp") == "crypto.other"
    assert layers.layer_of("repro.service.websocket") == "service.ws"
    assert layers.layer_of("repro.service.server") == "service.server"
    assert layers.layer_of("repro.hci.packets") == "hci"


# ----------------------------------------------------------- output checks


def _record(**changes):
    record = {"kind": "ws", "index": 3, "capture": 1, "status": 200,
              "digest": "good", "dropped": 0, "error": None}
    record.update(changes)
    return record


def test_op_checks_catch_a_tampered_verdict():
    expected = ["other", "good"]
    assert checks.op_problem(_record(), expected) is None
    assert "offline" in checks.op_problem(_record(digest="tampered"), expected)
    assert "dropped" in checks.op_problem(_record(dropped=2), expected)
    assert "HTTP 500" in checks.op_problem(
        _record(kind="upload", status=500), expected)
    assert "refused" in checks.op_problem(_record(error="refused"), expected)


def test_trial_checks_need_the_scenario_flag():
    good = SimpleNamespace(error=None, seed=7,
                           detail={"mitm_connection": True})
    assert checks.trial_problem("page-blocking", good) is None
    lost = SimpleNamespace(error=None, seed=7,
                           detail={"mitm_connection": False})
    assert "mitm_connection" in checks.trial_problem("page-blocking", lost)
    crashed = SimpleNamespace(error="TrialTimeout: 120s", seed=7, detail={})
    assert "TrialTimeout" in checks.trial_problem("extraction", crashed)


def test_count_mismatches():
    assert checks.count_mismatches({"a": 1, "b": [1, 2]},
                                   {"a": 1, "b": [1, 2]}) == []
    assert checks.count_mismatches({"a": 1, "b": 2.5},
                                   {"a": 1, "b": 2.5000001}) == ["b"]
    assert checks.count_mismatches({"a": 1}, {}) == ["a"]
