"""Abstract HCI transport with tap (sniffer) support.

A transport connects one host stack to one controller and delivers
serialized packet bytes in both directions with a small configurable
latency.  Taps observe the raw byte flow without interfering — exactly
the property that makes HCI dumping and USB sniffing possible, and thus
exactly the property the link key extraction attack exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.errors import TransportError
from repro.hci.packets import HciPacket
from repro.sim.eventloop import Simulator


class Direction(enum.Enum):
    """Which way a packet crossed the transport."""

    HOST_TO_CONTROLLER = "host->controller"
    CONTROLLER_TO_HOST = "controller->host"


# A tap receives (sim_time, direction, raw_bytes).
TransportTap = Callable[[float, Direction, bytes], None]


@dataclass
class TransportFate:
    """A fault injector's verdict on one in-flight wire packet."""

    action: str = "deliver"  # "deliver" | "drop" | "mutate"
    raw: Optional[bytes] = None  # replacement bytes when action == "mutate"
    extra_delay_s: float = 0.0


# Fault injector hook: (now, transport_name, direction, raw) ->
# TransportFate.  Installed by repro.faults; taps and sniffers observe
# the packet as sent — faults corrupt delivery, not transmission.
TransportFaultInjector = Callable[[float, str, Direction, bytes], TransportFate]


class HciTransport:
    """Base transport: serializes packets, delivers bytes, feeds taps."""

    #: one-way latency in seconds (subclasses override)
    LATENCY = 0.0001

    def __init__(self, simulator: Simulator, name: str = "hci0") -> None:
        self.simulator = simulator
        self.name = name
        self._host_receiver: Optional[Callable[[bytes], None]] = None
        self._controller_receiver: Optional[Callable[[bytes], None]] = None
        self._taps: List[TransportTap] = []
        self.packets_sent = 0
        self.fault_injector: Optional[TransportFaultInjector] = None

    def attach_host(self, receiver: Callable[[bytes], None]) -> None:
        """Register the host-side byte receiver."""
        self._host_receiver = receiver

    def attach_controller(self, receiver: Callable[[bytes], None]) -> None:
        """Register the controller-side byte receiver."""
        self._controller_receiver = receiver

    def add_tap(self, tap: TransportTap) -> None:
        """Attach a sniffer; it sees every byte in both directions."""
        self._taps.append(tap)

    def remove_tap(self, tap: TransportTap) -> None:
        self._taps.remove(tap)

    def frame(self, packet: HciPacket) -> bytes:
        """Serialize a packet to this transport's wire framing."""
        return packet.to_h4_bytes()

    def latency_for(self, raw: bytes) -> float:
        """One-way delivery delay for a wire packet (subclass hook)."""
        return self.LATENCY

    def wire_image(self, direction: Direction, raw: bytes) -> bytes:
        """What taps observe on the wire (secure transports encrypt)."""
        return raw

    def send_from_host(self, packet: HciPacket) -> None:
        """Host sends a packet down to the controller."""
        self._send(Direction.HOST_TO_CONTROLLER, self.frame(packet))

    def send_from_controller(self, packet: HciPacket) -> None:
        """Controller sends a packet up to the host."""
        self._send(Direction.CONTROLLER_TO_HOST, self.frame(packet))

    def _send(self, direction: Direction, raw: bytes) -> None:
        """Feed the taps, then deliver wire bytes via the fault injector."""
        self._feed_taps(direction, self.wire_image(direction, raw))
        if direction is Direction.HOST_TO_CONTROLLER:
            receiver, side = self._controller_receiver, "controller"
        else:
            receiver, side = self._host_receiver, "host"
        if receiver is None:
            raise TransportError(f"{self.name}: no {side} attached")
        self.packets_sent += 1
        delay = self.latency_for(raw)
        if self.fault_injector is not None:
            fate = self.fault_injector(
                self.simulator.now, self.name, direction, raw
            )
            if fate.action == "drop":
                return
            if fate.action == "mutate" and fate.raw is not None:
                raw = fate.raw
            delay += fate.extra_delay_s
        self.simulator.schedule(delay, receiver, raw)

    def _feed_taps(self, direction: Direction, raw: bytes) -> None:
        now = self.simulator.now
        for tap in self._taps:
            tap(now, direction, raw)
