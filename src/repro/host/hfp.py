"""HFP — Hands-Free Profile (the paper's prototypical soft target C).

The paper's system model casts C as "car-kits, headset devices" that
speak HFP to the phone.  This module implements the profile's service
level connection and the parts the threat model cares about:

* an AT-command channel (BRSF feature negotiation, dialing, caller-ID
  notifications), authentication-gated like every sensitive profile;
* call state on the audio gateway (the phone): an attacker holding the
  link key can silently place calls and receive caller-ID events —
  the "phone call conversations" exposure of §IV.

Simplification: real HFP rides RFCOMM; we carry the (real-format) AT
commands over L2CAP.  Call audio uses a genuine SCO channel negotiated
via ``HCI_Setup_Synchronous_Connection`` / the synchronous-connection-
complete event; only the voice samples themselves are elided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.types import BdAddr
from repro.host.l2cap import L2capChannel, L2capService
from repro.host.operations import Operation

PSM_HFP = 0x1005

#: audio-gateway feature bits we advertise (3-way calling | voice
#: recognition | caller id)
_AG_FEATURES = 0x0E5


@dataclass
class CallRecord:
    """One call observed at the audio gateway."""

    number: str
    direction: str  # "outgoing" | "incoming"
    answered: bool = False


@dataclass
class HfpProfile:
    """Audio gateway (AG) + hands-free (HF) roles for one host."""

    host: object
    call_log: List[CallRecord] = field(default_factory=list)
    caller_id_events: List[str] = field(default_factory=list)
    audio_connected: bool = False
    _client_channels: dict = field(default_factory=dict)
    _ag_channels: dict = field(default_factory=dict)
    _pending_dials: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.host.l2cap.register_service(
            L2capService(
                psm=PSM_HFP,
                requires_authentication=True,
                on_open=self._on_ag_open,
                on_data=self._on_ag_data,
            )
        )

    def _on_ag_open(self, channel: L2capChannel) -> None:
        self._ag_channels[channel.local_cid] = channel

    # ----------------------------------------------------- audio gateway (AG)

    def _on_ag_data(self, channel: L2capChannel, payload: bytes) -> None:
        text = payload.decode("ascii", errors="replace").strip()
        if text.startswith("AT+BRSF="):
            self.host.l2cap.send(
                channel, f"+BRSF: {_AG_FEATURES}\r\nOK\r\n".encode("ascii")
            )
        elif text.startswith("ATD"):
            number = text[3:].rstrip(";")
            self.call_log.append(CallRecord(number=number, direction="outgoing"))
            self.host.l2cap.send(channel, b"OK\r\n")
            # Bring up the SCO audio channel for the call.
            self._setup_sco(channel.handle)
        elif text == "AT+CHUP":
            self.audio_connected = False
            self.host.l2cap.send(channel, b"OK\r\n")
        elif text == "AT+CLCC":
            lines = "".join(
                f"+CLCC: {i},0,0,0,0,\"{record.number}\"\r\n"
                for i, record in enumerate(self.call_log, start=1)
            )
            self.host.l2cap.send(channel, (lines + "OK\r\n").encode("ascii"))

    def _setup_sco(self, acl_handle: int) -> None:
        from repro.hci import commands as hci_cmd

        self.host.send_command(
            hci_cmd.SetupSynchronousConnection(
                connection_handle=acl_handle,
                transmit_bandwidth=8000,
                receive_bandwidth=8000,
                max_latency=0x000D,
                voice_setting=0x0060,
                retransmission_effort=0x02,
                packet_type=0x0380,  # EV3/EV4/EV5
            )
        )

    def on_sco_complete(self, event) -> None:
        """A synchronous channel came up: the call has audio."""
        if event.status == 0:
            self.audio_connected = True

    def ring(self, number: str) -> None:
        """An incoming call on the gateway: notify connected HF units."""
        self.call_log.append(CallRecord(number=number, direction="incoming"))
        for channel in list(self._ag_channels.values()):
            if channel.state != "open":
                continue
            self.host.l2cap.send(
                channel, f"RING\r\n+CLIP: \"{number}\",129\r\n".encode("ascii")
            )

    # ------------------------------------------------------- hands-free (HF)

    def connect(self, addr: BdAddr) -> Operation:
        """Establish the HFP service level connection (auth gated)."""
        operation = Operation("hfp-slc")

        def on_data(channel: L2capChannel, payload: bytes) -> None:
            text = payload.decode("ascii", errors="replace")
            if "+BRSF:" in text and not operation.done:
                self._client_channels[addr] = channel
                operation.complete(result=channel)
            elif "RING" in text:
                for line in text.splitlines():
                    if line.startswith("+CLIP:"):
                        self.caller_id_events.append(line)
            elif "OK" in text:
                dial_op = self._pending_dials.pop(addr, None)
                if dial_op is not None:
                    dial_op.complete()
            if "+CLCC:" in text:
                listing_op = self._pending_dials.pop((addr, "clcc"), None)
                if listing_op is not None:
                    listing_op.complete(
                        result=[
                            line
                            for line in text.splitlines()
                            if line.startswith("+CLCC:")
                        ]
                    )

        def on_channel(op: Operation) -> None:
            if not op.success:
                operation.fail(op.status)
                return
            self.host.l2cap.send(op.result, b"AT+BRSF=127\r\n")

        def start(connect_op: Optional[Operation]) -> None:
            if connect_op is not None and not connect_op.success:
                operation.fail(connect_op.status)
                return
            self.host.l2cap.connect(addr, PSM_HFP, on_data=on_data).on_done(
                on_channel
            )

        if self.host.gap.is_connected(addr):
            start(None)
        else:
            self.host.gap.connect(addr).on_done(start)
        return operation

    def dial(self, addr: BdAddr, number: str) -> Operation:
        """Place a call through the connected gateway."""
        operation = Operation("hfp-dial")
        channel = self._client_channels.get(addr)
        if channel is None:
            operation.fail(0xFF)
            return operation
        self._pending_dials[addr] = operation
        self.host.l2cap.send(channel, f"ATD{number};\r\n".encode("ascii"))
        return operation

    def list_calls(self, addr: BdAddr) -> Operation:
        """Query the gateway's current call list (AT+CLCC)."""
        operation = Operation("hfp-clcc")
        channel = self._client_channels.get(addr)
        if channel is None:
            operation.fail(0xFF)
            return operation
        self._pending_dials[(addr, "clcc")] = operation
        self.host.l2cap.send(channel, b"AT+CLCC\r\n")
        return operation
