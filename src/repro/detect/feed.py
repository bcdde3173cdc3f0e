"""The DetectionFeed: one ordered event stream per monitored world.

The feed taps the observability plumbing the earlier layers already
expose — air-sniffer frames from :class:`~repro.phy.medium.RadioMedium`,
raw HCI packets from every :class:`~repro.transport.base.HciTransport`
tap, and live :class:`~repro.sim.trace.Tracer` records — and publishes
them to subscribers as uniform :class:`DetectionEvent` values.

Ordering: the simulator is single-threaded and taps/sniffers/listeners
fire synchronously at emission, so events arrive in simulated-time
order with the process-wide emission sequence as the tie-breaker (the
same ``(time, seq)`` rule the event loop and timeline use).  No
buffering or re-sorting is needed for live streams.

HCI taps observe the *wire image*: on a secure (encrypted) transport
the bytes do not parse, and on a transport with a ``transport.garble``
fault the original bytes are still seen (taps run before injectors).
Unparseable packets become ``kind="undecodable"`` events instead of
errors, so detection keeps running on degraded or hostile inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.errors import HciError
from repro.hci.parser import parse_packet
from repro.sim.trace import TraceRecord, next_sequence
from repro.transport.base import Direction

if TYPE_CHECKING:
    from repro.attacks.scenario import World
    from repro.hci.packets import HciPacket
    from repro.phy.medium import AirFrame, RadioMedium
    from repro.sim.trace import Tracer
    from repro.transport.base import HciTransport


#: trace sources the feed never re-ingests (the alert pipeline itself
#: emits ``detect`` records — forwarding them back would recurse).
EXCLUDED_TRACE_SOURCES = frozenset({"detect"})


@dataclass(frozen=True)
class DetectionEvent:
    """One observation on a monitored stream.

    ``channel`` selects which optional payload fields are set:

    * ``"hci"`` — ``packet`` (parsed, or ``None`` when undecodable),
      ``direction`` and the per-monitor ``frame_no`` (1-based, matching
      btsnoop frame numbering);
    * ``"air"`` — ``frame``, ``link_id`` and ``sender``;
    * ``"trace"`` — the raw :class:`TraceRecord` in ``record``.

    ``kind`` is the packet class name, the air-frame kind, or the
    trace category respectively — a cheap pre-filter so detectors can
    skip events without isinstance checks.
    """

    time: float
    seq: int
    monitor: str
    channel: str  # "hci" | "air" | "trace"
    kind: str
    packet: Optional["HciPacket"] = None
    frame_no: int = 0
    direction: Optional[Direction] = None
    frame: Optional["AirFrame"] = None
    link_id: int = 0
    sender: str = ""
    record: Optional[TraceRecord] = field(default=None, compare=False)


#: feed subscriber callback
EventSink = Callable[[DetectionEvent], None]


class DetectionFeed:
    """Merges taps across layers into one subscriber-facing stream."""

    def __init__(self) -> None:
        self._subscribers: List[EventSink] = []
        self._detachers: List[Callable[[], None]] = []
        self._frame_counts: Dict[str, int] = {}
        self.events_published = 0
        self.undecodable_packets = 0

    # ---------------------------------------------------------- subscribers

    def subscribe(self, sink: EventSink) -> "DetectionFeed":
        if sink not in self._subscribers:
            self._subscribers.append(sink)
        return self

    def publish(self, event: DetectionEvent) -> None:
        """Deliver one event to every subscriber (also the tap target)."""
        self.events_published += 1
        for sink in list(self._subscribers):
            sink(event)

    # ----------------------------------------------------------------- taps

    def tap_transport(
        self, monitor: str, transport: "HciTransport"
    ) -> "DetectionFeed":
        """Monitor one HCI transport as stream ``monitor``."""

        def tap(now: float, direction: Direction, raw: bytes) -> None:
            count = self._frame_counts.get(monitor, 0) + 1
            self._frame_counts[monitor] = count
            packet: Optional["HciPacket"] = None
            kind = "undecodable"
            if raw:
                try:
                    packet = parse_packet(raw[0], raw[1:])
                    kind = type(packet).__name__
                except HciError:
                    packet = None
            if packet is None:
                self.undecodable_packets += 1
            self.publish(
                DetectionEvent(
                    time=now,
                    seq=next_sequence(),
                    monitor=monitor,
                    channel="hci",
                    kind=kind,
                    packet=packet,
                    frame_no=count,
                    direction=direction,
                )
            )

        transport.add_tap(tap)
        self._detachers.append(lambda: transport.remove_tap(tap))
        return self

    def tap_medium(
        self, medium: "RadioMedium", monitor: str = "phy"
    ) -> "DetectionFeed":
        """Monitor the shared air: every sniffable frame, pages included."""

        def sniffer(
            now: float, link_id: int, sender: str, frame: "AirFrame"
        ) -> None:
            self.publish(
                DetectionEvent(
                    time=now,
                    seq=next_sequence(),
                    monitor=monitor,
                    channel="air",
                    kind=frame.kind,
                    frame=frame,
                    link_id=link_id,
                    sender=sender,
                )
            )

        medium.add_air_sniffer(sniffer)
        self._detachers.append(lambda: medium.remove_air_sniffer(sniffer))
        return self

    def tap_tracer(
        self,
        tracer: "Tracer",
        monitor: str = "phy",
        sources: Optional[Sequence[str]] = None,
    ) -> "DetectionFeed":
        """Monitor live tracer records (``detect``'s own are skipped)."""
        wanted = frozenset(sources) if sources is not None else None

        def listener(record: TraceRecord) -> None:
            if record.source in EXCLUDED_TRACE_SOURCES:
                return
            if wanted is not None and record.source not in wanted:
                return
            self.publish(
                DetectionEvent(
                    time=record.time,
                    seq=record.seq,
                    monitor=monitor,
                    channel="trace",
                    kind=record.category,
                    record=record,
                )
            )

        tracer.add_listener(listener)
        self._detachers.append(lambda: tracer.remove_listener(listener))
        return self

    def attach_world(
        self, world: "World", roles: Optional[Sequence[str]] = None
    ) -> "DetectionFeed":
        """Tap a whole world: medium + tracer + selected device HCI.

        ``roles`` picks which devices' transports to monitor (default:
        all present).  Devices added to the world later are *not*
        auto-tapped — call :meth:`tap_transport` for them.
        """
        self.tap_medium(world.medium)
        self.tap_tracer(world.tracer)
        for role, device in world.devices.items():
            if roles is not None and role not in roles:
                continue
            self.tap_transport(role, device.transport)
        return self

    def detach(self) -> None:
        """Remove every tap and listener this feed installed."""
        while self._detachers:
            self._detachers.pop()()
