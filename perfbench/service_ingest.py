"""``service-ingest``: the detection service under an open and a closed loop.

An ``IngestServer`` on a loopback port scores a corpus of
``produce_captures(kind="mixed")`` captures that the client in
``loadgen.py`` replays in three ways, over at most 2 connections:

* an open loop of WebSocket sessions at a fixed rate, each timed from
  when it was due (the main operation);
* ``POST /api/captures`` uploads, every 4th open-loop operation, which
  run the same detectors and ``hci.parser`` over a whole capture at once
  (the side operation);
* a closed loop of back-to-back sessions for saturated throughput.

The run alternates open-loop and closed-loop slices of ``SLICE_S``
seconds, so both loops sample the whole run: the host's speed drifts
over seconds, and a closed loop that only ran in the second half of the
run would see a different host than the open loop did.  Throughput is
the median of the closed-loop slices' events per second.

Nothing in the repository fixes the share of uploads (the service's own
load generator only streams), so it is set by the samples each
percentile needs: at ``RATE`` for half of a 30-second run, one upload in
four gives about 380 uploads, three groups of 100 for the median of
group medians, and leaves about 1100 sessions, eleven groups with ten
samples each beyond their p90.

Client and server share one process and one event loop.  A client in a
process of its own made every figure here swing by 20-60% from run to
run on a 2-core VM, because each session then waits on wake-ups of both
cores; on one loop a session runs without a cross-process wake-up.  The
client's frames are encoded and masked in set-up, and it calls no
``repro`` code while measuring, so its remaining work (writing bytes,
reading one verdict) is never attributed to a server layer.

No simulation or crypto runs while measuring; the corpus is built in
set-up.  The corpus is the same for every seed (the captures of
``produce_captures``' default seeds), because how many frames a capture
holds depends on its seed and would make the work per session differ
from run to run; the seed sets the order in which operations pick
captures.  Every verdict must equal offline ``replay_capture`` of the same
capture, with no dropped events, and every upload must return 200.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from typing import Any, Dict, List

import checks
from loadgen import Client, alerts_digest
from stats import percentile, summary_ms

#: captures in the corpus (alternating attack and benign)
CAPTURES = 8

#: length of the seeded capture order operations cycle through
ORDER = 64

#: open-loop operations started per second
RATE = 100

#: every n-th open-loop operation is an upload
UPLOAD_EVERY = 4

#: concurrent connections the client may hold
CONNECTIONS = 2

#: open-loop operations re-run for the determinism check and traced pass
PREFIX_OPEN = 40

#: closed-loop sessions in the re-run
PREFIX_CLOSED = 200

#: seconds of one open-loop or closed-loop slice
SLICE_S = 1.5


def events_rate(records: List[Dict[str, Any]]) -> float:
    """Events per second over a closed loop, first start to last end."""
    span_ns = (max(record["end"] for record in records)
               - min(record["start"] for record in records))
    return sum(record["events"] for record in records) / (span_ns / 1e9)


class ServiceIngest:
    def __init__(self, seed: int) -> None:
        # every capture is uploaded, and streamed, equally often whatever
        # the seed: attack sessions are longer than benign ones
        rng = random.Random(seed)
        uploads = [index % CAPTURES for index in range(ORDER // UPLOAD_EVERY)]
        streams = [index % CAPTURES for index in range(ORDER - len(uploads))]
        rng.shuffle(uploads)
        rng.shuffle(streams)
        self.order = [
            uploads.pop() if index % UPLOAD_EVERY == UPLOAD_EVERY - 1
            else streams.pop()
            for index in range(ORDER)
        ]

    def setup(self) -> None:
        from repro.campaign.captures import produce_captures
        from repro.detect import replay_capture
        from repro.service.protocol import frames_from_capture
        from repro.service.server import IngestServer
        from repro.snoop.hcidump import entries_from_btsnoop

        captures = produce_captures(CAPTURES, kind="mixed")
        self.expected = [
            alerts_digest([alert.to_dict() for alert in
                           replay_capture(capture).alerts])
            for capture in captures
        ]
        self.records_per_capture = [
            len(entries_from_btsnoop(capture)) for capture in captures
        ]
        self.loop = asyncio.new_event_loop()
        self.server = IngestServer()
        self.loop.run_until_complete(self.server.start())
        self.client = Client(
            self.server.host, self.server.port, captures,
            [frames_from_capture(capture) for capture in captures], self.order,
        )

    def _run(self, rate: Any = RATE, open_ops: Any = None, open_s: float = 0.0,
             closed_ops: Any = None, closed_s: float = 0.0,
             first: int = 0) -> List[Dict[str, Any]]:
        """An open loop, then a closed loop; operations numbered from ``first``."""
        async def both() -> List[Dict[str, Any]]:
            records = await self.client.open_loop(
                rate, UPLOAD_EVERY, CONNECTIONS, ops=open_ops, seconds=open_s,
                first=first)
            return records + await self.client.closed_loop(
                CONNECTIONS, ops=closed_ops, seconds=closed_s, first=first)

        return self.loop.run_until_complete(both())

    def _problems(self, records: List[Dict[str, Any]]) -> List[str]:
        problems = [checks.op_problem(r, self.expected) for r in records]
        return [problem for problem in problems if problem]

    def measure(self, seconds: float) -> Dict[str, Any]:
        records: List[Dict[str, Any]] = []
        rates: List[float] = []
        for _ in range(max(1, round(seconds / (2 * SLICE_S)))):
            part = self._run(open_s=SLICE_S, closed_s=SLICE_S,
                             first=len(records))
            rates.append(events_rate([r for r in part if r["phase"] == "closed"]))
            records += part
        opened = [r for r in records if r["phase"] == "open"]
        closed = [r for r in records if r["phase"] == "closed"]
        sessions = [r["end"] - r["due"] for r in opened if r["kind"] == "ws"]
        uploads = [r["end"] - r["due"] for r in opened if r["kind"] == "upload"]
        self.prefix = opened[:PREFIX_OPEN]
        self.lag_ms_p90 = percentile(
            [(r["wake"] - r["due"]) / 1e6 for r in opened], 0.9
        )
        problems = self._problems(records)
        session_ms = summary_ms(sessions)
        upload_ms = summary_ms(uploads)
        return {
            "attempted": len(records),
            "failed": len(problems),
            "problems": problems[:5],
            "work_per_s": statistics.median(rates),
            "main_op_ms_p50": session_ms["p50"],
            "main_op_ms_p90": session_ms["tail"],
            "side_op_ms_p50": upload_ms["p50"],
            "samples": {"session_ms": session_ms, "upload_ms": upload_ms,
                        "closed_sessions": len(closed), "slices": len(rates),
                        "lag_ms_p90": self.lag_ms_p90},
        }

    @staticmethod
    def _counts(records: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {
            "detect.events": sum(r["events"] for r in records),
            "detect.alerts": sum(r["alerts"] for r in records),
            "per_op": [(r["phase"], r["kind"], r["capture"], r["digest"],
                        r["events"]) for r in records],
        }

    def prefix_counts(self) -> Dict[str, Any]:
        return self._counts(self.prefix)

    def replay(self) -> Dict[str, Any]:
        """Re-run the measured prefix's operations, then closed-loop sessions.

        The open-loop operations run back to back instead of at ``RATE``:
        the verdicts are the same, and a traced pass then attributes the
        server's work rather than the client's waiting between operations.
        """
        records = self.replayed = self._run(rate=None, open_ops=PREFIX_OPEN,
                                            closed_ops=PREFIX_CLOSED)
        self.replay_problems = self._problems(records)
        counts = self._counts(records[:PREFIX_OPEN])
        counts["closed"] = self._counts(records[PREFIX_OPEN:])
        return counts

    def replay_cost(self) -> float:
        """Seconds per event in the last replay's closed loop."""
        return 1.0 / events_rate(self.replayed[PREFIX_OPEN:])

    @property
    def replay_attempted(self) -> int:
        return len(self.replayed)

    def layer_counts(self, counts: Dict[str, Any]) -> Dict[str, float]:
        records = self.replayed
        uploads = [r for r in records if r["kind"] == "upload"]
        streamed = sum(r["events"] for r in records if r["kind"] == "ws")
        frames = counts["service.frames"]
        return {
            "service.useful_ratio": streamed / frames if frames else 0.0,
            "detect.events": sum(r["events"] for r in records),
            "detect.alerts": sum(r["alerts"] for r in records),
            "service.dropped_events": sum(r["dropped"] for r in records),
            "snoop.records": sum(
                self.records_per_capture[r["capture"]] for r in uploads
            ),
            "loadgen.lag_ms_p90": self.lag_ms_p90,
        }

    def close(self) -> None:
        if getattr(self, "server", None) is not None:
            self.loop.run_until_complete(self.server.stop())
        if getattr(self, "loop", None) is not None:
            self.loop.close()
