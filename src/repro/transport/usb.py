"""USB transport for dongle-type controllers, with a sniffable bus.

Per the Bluetooth USB transport specification (Vol 4, Part B):

* HCI commands go out as control transfers on endpoint 0x00,
* HCI events come back on the interrupt IN endpoint 0x81,
* ACL data uses the bulk endpoints 0x02 (OUT) and 0x82 (IN).

A :class:`UsbSniffer` (the simulation stand-in for 'Free USB Analyzer'
or an FTS4USB probe) records the raw transfer stream — including the
idle NULL transfers the paper notes clutter real captures — and the
:mod:`repro.snoop.usb_extract` tools then recover link keys from that
stream exactly the way the paper's Fig. 11 does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.errors import TransportError
from repro.hci.constants import PacketIndicator
from repro.hci.packets import HciPacket
from repro.sim.eventloop import Simulator
from repro.transport.base import Direction, HciTransport

ENDPOINT_CONTROL_OUT = 0x00
ENDPOINT_INTERRUPT_IN = 0x81
ENDPOINT_BULK_OUT = 0x02
ENDPOINT_BULK_IN = 0x82


@dataclass(frozen=True)
class UsbTransfer:
    """One captured USB transfer."""

    timestamp: float
    endpoint: int
    payload: bytes

    @property
    def direction(self) -> str:
        return "IN" if self.endpoint & 0x80 else "OUT"

    def record_bytes(self) -> bytes:
        """Binary on-the-wire record: endpoint, length, payload.

        This is the raw stream an analyzer writes to disk; the paper's
        authors wrote a C converter to turn it into hex text before
        grepping for the ``0b 04 16`` signature.
        """
        return (
            bytes([self.endpoint])
            + len(self.payload).to_bytes(2, "little")
            + self.payload
        )


class UsbTransport(HciTransport):
    """USB HCI transport with endpoint routing and idle NULL traffic."""

    LATENCY = 0.000125  # one microframe

    def __init__(
        self,
        simulator: Simulator,
        name: str = "usb0",
        idle_null_transfers: bool = True,
    ) -> None:
        super().__init__(simulator, name)
        self.idle_null_transfers = idle_null_transfers
        self._transfers: List[UsbTransfer] = []
        self._sniffers: List["UsbSniffer"] = []

    def add_sniffer(self, sniffer: "UsbSniffer") -> None:
        """Physically attach a USB analyzer to the bus."""
        self._sniffers.append(sniffer)

    def _endpoint_for(self, packet: HciPacket, direction: Direction) -> int:
        if packet.indicator == PacketIndicator.COMMAND:
            return ENDPOINT_CONTROL_OUT
        if packet.indicator == PacketIndicator.EVENT:
            return ENDPOINT_INTERRUPT_IN
        if direction is Direction.HOST_TO_CONTROLLER:
            return ENDPOINT_BULK_OUT
        return ENDPOINT_BULK_IN

    def bus_image(self, h4: bytes) -> bytes:
        """The transfer payload for an H4 frame (secure transports encrypt).

        The USB transport does not carry the H4 indicator byte — the
        endpoint itself identifies the packet type.
        """
        return h4[1:]

    def _capture(self, packet: HciPacket, direction: Direction, h4: bytes) -> None:
        endpoint = self._endpoint_for(packet, direction)
        transfer = UsbTransfer(self.simulator.now, endpoint, self.bus_image(h4))
        self._transfers.append(transfer)
        for sniffer in self._sniffers:
            sniffer.observe(transfer)
        if self.idle_null_transfers:
            # Interrupt endpoints are polled; idle polls show up as
            # zero-length transfers in real captures.
            null = UsbTransfer(self.simulator.now, ENDPOINT_INTERRUPT_IN, b"")
            self._transfers.append(null)
            for sniffer in self._sniffers:
                sniffer.observe(null)

    def send_from_host(self, packet: HciPacket) -> None:
        raw = self.frame(packet)
        self._capture(packet, Direction.HOST_TO_CONTROLLER, raw)
        self._send(Direction.HOST_TO_CONTROLLER, raw)

    def send_from_controller(self, packet: HciPacket) -> None:
        raw = self.frame(packet)
        self._capture(packet, Direction.CONTROLLER_TO_HOST, raw)
        self._send(Direction.CONTROLLER_TO_HOST, raw)

    @property
    def transfers(self) -> List[UsbTransfer]:
        return list(self._transfers)


class UsbSniffer:
    """A passive USB analyzer capturing the raw transfer stream."""

    def __init__(self, name: str = "free-usb-analyzer") -> None:
        self.name = name
        self.transfers: List[UsbTransfer] = []

    def observe(self, transfer: UsbTransfer) -> None:
        self.transfers.append(transfer)

    def raw_stream(self) -> bytes:
        """Concatenated binary records, as saved by the analyzer."""
        return b"".join(transfer.record_bytes() for transfer in self.transfers)

    def attach(self, transport: UsbTransport) -> "UsbSniffer":
        """Convenience: attach to a transport and return self."""
        if not isinstance(transport, UsbTransport):
            raise TransportError("USB sniffers only attach to USB transports")
        transport.add_sniffer(self)
        return self
