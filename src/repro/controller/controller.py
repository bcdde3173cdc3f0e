"""The simulated BR/EDR controller (baseband + link manager).

One :class:`Controller` models a Bluetooth chipset:

* **HCI face (up):** parses commands arriving over the attached
  transport, answers with Command_Status / Command_Complete, and emits
  the asynchronous events of the connection and security procedures.
* **Radio face (down):** registers with a :class:`~repro.phy.medium.
  RadioMedium`, performs inquiry and paging, and exchanges LMP PDUs
  and ACL frames over physical links.

Security procedures implemented:

* Legacy LMP authentication — the E1 challenge-response.  The
  controller has no key storage, so on each authentication it raises
  ``HCI_Link_Key_Request`` to the host and waits; the host's plaintext
  reply is precisely what the HCI dump logs (paper §IV).  If the host
  never answers (the paper's Fig. 9 bluedroid patch), the *peer's*
  LMP response timer expires and the link drops with
  ``LMP_RESPONSE_TIMEOUT`` — crucially *not* an authentication
  failure, so the peer keeps its stored key.
* Secure Simple Pairing — IO capability exchange, P-192/P-256 ECDH,
  commitment/nonce authentication stage 1, user confirmation, DHKey
  check, f2 link key derivation, ``HCI_Link_Key_Notification``.
* E0 link encryption keyed by E3(link key, EN_RAND, ACO).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.association import (
    passkey_displayer_is_initiator,
    select_association_model,
)
from repro.core.errors import HciError
from repro.core.types import (
    AssociationModel,
    BdAddr,
    IoCapability,
    LinkKey,
    LinkKeyType,
    LinkType,
)
from repro.crypto.e0 import e0_encrypt
from repro.crypto.ecc import (
    CurveParams,
    EccKeyPair,
    EccPoint,
    P192,
    P256,
    ecdh_shared_secret,
    generate_keypair,
)
from repro.crypto.legacy import e1, e3, e21, e22, reduce_key_entropy
from repro.crypto.ssp import (
    KEY_ID_BTLK,
    f1_p192,
    f1_p256,
    f2_p192,
    f2_p256,
    f3_p192,
    f3_p256,
    g_numeric,
    h4,
    h5,
    io_cap_bytes,
)
from repro.hci import commands as cmd
from repro.hci import events as evt
from repro.hci.constants import ErrorCode, Opcode, ScanEnable
from repro.hci.packets import HciAclData, HciCommand, HciEvent
from repro.hci.parser import parse_packet
from repro.controller import lmp
from repro.phy.medium import AirFrame, PhysicalLink, RadioMedium
from repro.sim.eventloop import Event, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.transport.base import HciTransport

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.obs.spans import Span

_ZERO16 = b"\x00" * 16


class LinkState(enum.Enum):
    """ACL link lifecycle."""

    AWAITING_ACCEPT = "awaiting_accept"  # initiator waiting for peer host
    PENDING_ACCEPT = "pending_accept"  # responder waiting for local host
    CONNECTED = "connected"
    CLOSED = "closed"


@dataclass
class SspSession:
    """State of one in-flight Secure Simple Pairing transaction."""

    role: str  # "initiator" | "responder"
    curve: CurveParams
    local_io: Optional[int] = None
    local_oob: int = 0
    local_auth_req: int = 0
    remote_io: Optional[int] = None
    remote_oob: int = 0
    remote_auth_req: int = 0
    keypair: Optional[EccKeyPair] = None
    peer_public: Optional[EccPoint] = None
    local_nonce: Optional[bytes] = None
    peer_nonce: Optional[bytes] = None
    peer_commitment: Optional[bytes] = None
    dhkey: Optional[bytes] = None
    local_confirmed: bool = False
    peer_confirmed: bool = False
    stage2_started: bool = False
    numeric_value: Optional[int] = None
    pending_peer_check: Optional[bytes] = None
    # Passkey Entry state (the 20-round commitment protocol).
    association: Optional[AssociationModel] = None
    passkey: Optional[int] = None
    #: stage-2 commitment inputs: our r and the peer's r.  Zero for
    #: NC/JW, the passkey for Passkey Entry, the OOB randomizers for
    #: Out of Band (where they differ per side).
    local_r: bytes = b"\x00" * 16
    peer_r: bytes = b"\x00" * 16
    displays_passkey: bool = False
    passkey_round: int = 0
    rounds_started: bool = False
    round_local_nonce: Optional[bytes] = None
    round_peer_commitment: Optional[bytes] = None
    pending_round_pdu: Optional[object] = None

    @property
    def just_works(self) -> bool:
        """Just Works is selected when either side lacks IO capability."""
        return IoCapability.NO_INPUT_NO_OUTPUT in (
            IoCapability(self.local_io),
            IoCapability(self.remote_io),
        )

    def f1(self, u: bytes, v: bytes, x: bytes, z: bytes) -> bytes:
        return (f1_p256 if self.curve is P256 else f1_p192)(u, v, x, z)

    def f2(self, n1, n2, a1, a2) -> LinkKey:
        fn = f2_p256 if self.curve is P256 else f2_p192
        return fn(self.dhkey, n1, n2, KEY_ID_BTLK, a1, a2)

    def f3(self, n1, n2, r, io_cap, a1, a2) -> bytes:
        fn = f3_p256 if self.curve is P256 else f3_p192
        return fn(self.dhkey, n1, n2, r, io_cap, a1, a2)


@dataclass
class AuthSession:
    """State of one in-flight legacy authentication (challenge-response)."""

    role: str  # "verifier" | "prover"
    link_key: Optional[LinkKey] = None
    au_rand: Optional[bytes] = None
    timer: Optional[Event] = None
    # Secure Connections mutual authentication state.
    secure: bool = False
    local_rand: Optional[bytes] = None
    peer_rand: Optional[bytes] = None


@dataclass
class LegacyPairingSession:
    """State of one in-flight legacy (PIN / E22) pairing."""

    role: str  # "initiator" | "responder"
    pin: Optional[bytes] = None
    in_rand: Optional[bytes] = None
    k_init: Optional[LinkKey] = None
    local_lk_rand: Optional[bytes] = None
    peer_masked_rand: Optional[bytes] = None
    comb_sent: bool = False
    link_key: Optional[LinkKey] = None


@dataclass
class AclLink:
    """One ACL connection as the controller sees it."""

    handle: int
    peer_addr: BdAddr  # the peer's *claimed* BD_ADDR
    phys: PhysicalLink
    is_initiator: bool
    state: LinkState
    peer_cod: int = 0
    link_key: Optional[LinkKey] = None
    aco: Optional[bytes] = None
    encryption_enabled: bool = False
    kc: Optional[bytes] = None
    encryption_key_size: int = 16
    tx_seq: int = 0
    rx_seq: int = 0
    last_activity: float = 0.0
    auth: Optional[AuthSession] = None
    ssp: Optional[SspSession] = None
    legacy: Optional[LegacyPairingSession] = None
    accept_timer: Optional[Event] = None
    auth_requested_by_host: bool = False
    peer_ssp_supported: bool = True
    peer_secure_auth: bool = False
    sco_handle: Optional[int] = None


class Controller:
    """A complete simulated Bluetooth controller."""

    #: default page timeout (seconds; spec default is 5.12 s)
    PAGE_TIMEOUT = 5.12
    #: LMP response timeout — how long a verifier waits for SRES
    LMP_RESPONSE_TIMEOUT = 5.0
    #: how long we wait for the host to answer Connection_Request
    CONNECTION_ACCEPT_TIMEOUT = 5.0
    #: link supervision timeout (no traffic → link drop)
    SUPERVISION_TIMEOUT = 20.0

    def __init__(
        self,
        simulator: Simulator,
        medium: RadioMedium,
        transport: HciTransport,
        rng: RngRegistry,
        name: str,
        bd_addr: BdAddr,
        class_of_device: int = 0x5A020C,
        secure_connections: bool = True,
        tracer: Optional[Tracer] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.simulator = simulator
        self.medium = medium
        self.transport = transport
        self.name = name
        self._bd_addr = bd_addr
        self.class_of_device = class_of_device
        self.secure_connections = secure_connections
        self.tracer = tracer if tracer is not None else Tracer()
        self.obs = obs
        if obs is not None:
            metrics = obs.metrics
        else:
            from repro.obs.metrics import get_global_registry

            metrics = get_global_registry()
        self._m_events_emitted = metrics.counter("hci.events_emitted")
        self._m_commands = metrics.counter("hci.commands_dispatched")
        self._m_lmp_tx = metrics.counter("lmp.pdus_sent")
        self._m_lmp_rx = metrics.counter("lmp.pdus_received")
        self._m_auth_rounds = metrics.counter("lmp.auth_rounds")
        self._m_malformed = metrics.counter("hci.malformed_from_host")
        #: fault hook (controller.lmp_hang): incoming LMP PDUs are
        #: ignored while ``simulator.now`` is below this mark.
        self.lmp_silence_until = 0.0
        self._page_spans: Dict[BdAddr, "Span"] = {}
        self._rng = rng.stream(f"controller:{name}")

        self.local_name = name
        self.scan_enable = ScanEnable.NONE
        self.simple_pairing_mode = True
        self.authentication_enable = False
        self.page_timeout_s = self.PAGE_TIMEOUT
        self.page_scan_interval_slots = 0x0800  # 1.28 s
        self.page_scan_window_slots = 0x0012
        self.inquiry_scan_interval_slots = 0x1000
        self.inquiry_scan_window_slots = 0x0012
        self.supervision_timeout_s = self.SUPERVISION_TIMEOUT
        #: 0 = standard inquiry results, 2 = extended (EIR with names)
        self.inquiry_mode = 0
        #: encryption key size negotiation bounds (bytes).  The spec's
        #: floor is 1 — the KNOB attack surface; the post-KNOB erratum
        #: (and our mitigation tests) raise the minimum to 7.
        self.max_encryption_key_size = 16
        self.min_encryption_key_size = 1
        #: opt-in Secure Connections *mutual* authentication (h4/h5).
        #: Defaults off: the paper's device fleet authenticates with
        #: the legacy one-way E1 exchange, whose transcripts the
        #: figures show.  Used only when both link ends enable it.
        self.secure_auth_enabled = False

        self._links_by_handle: Dict[int, AclLink] = {}
        self._links_by_phys: Dict[int, AclLink] = {}
        self._next_handle = 1
        self._inquiry_active = False
        self._pending_key_req: Dict[BdAddr, Callable[[Optional[LinkKey]], None]] = {}
        self._pending_io_req: Dict[BdAddr, Callable[[int, int, int], None]] = {}
        self._pending_confirm: Dict[BdAddr, Callable[[bool], None]] = {}
        self._pending_passkey: Dict[BdAddr, Callable[[Optional[int]], None]] = {}
        self._pending_pin: Dict[BdAddr, Callable[[Optional[bytes]], None]] = {}
        self._pending_oob: Dict[
            BdAddr, Callable[[Optional[bytes], Optional[bytes]], None]
        ] = {}
        self._pending_create: Dict[BdAddr, bool] = {}
        # Long-lived SSP key pairs (regenerated per power cycle, like
        # real controllers) — also the anchor of the OOB commitment.
        self._ssp_keypairs: Dict[str, EccKeyPair] = {}
        self._local_oob_r: Optional[bytes] = None
        # The controller's own (tiny) link key store — the limited
        # storage the paper cites as the reason hosts manage keys.
        self.stored_link_keys: Dict[BdAddr, LinkKey] = {}
        self.stored_link_key_capacity = 2

        transport.attach_controller(self._on_host_bytes)
        medium.register(self)

    # ------------------------------------------------------------------ radio
    # Properties the medium needs (RadioPeer protocol).

    @property
    def bd_addr(self) -> BdAddr:
        return self._bd_addr

    @bd_addr.setter
    def bd_addr(self, value: BdAddr) -> None:
        """Direct BD_ADDR write — the spoofing hook (persist/bdaddr.txt)."""
        self._bd_addr = value
        # Pages resolve through the medium's address index; a spoofed
        # address must land there or the PLOC race never sees us.
        self.medium.notify_addr_changed(self)

    @property
    def inquiry_scan_enabled(self) -> bool:
        # Plain bit test: the radio asks every controller on every inquiry.
        return bool(self.scan_enable & 0x01)

    @property
    def page_scan_enabled(self) -> bool:
        return bool(self.scan_enable & 0x02)

    @property
    def page_scan_interval_s(self) -> float:
        return self.page_scan_interval_slots * 0.000625

    @property
    def class_of_device_value(self) -> int:
        return self.class_of_device

    # -------------------------------------------------------------- HCI: down

    def _on_host_bytes(self, raw: bytes) -> None:
        # A real controller drops junk off the transport instead of
        # dying: truncated or garbled deliveries (see repro.faults)
        # must never wedge the event loop.
        try:
            packet = parse_packet(raw[0], raw[1:]) if raw else None
        except (HciError, IndexError):
            packet = None
        if packet is None:
            self._m_malformed.inc()
            self.tracer.emit(
                self.simulator.now,
                self.name,
                "hci-err",
                f"malformed packet from host dropped ({len(raw)} bytes)",
            )
            return
        if isinstance(packet, HciCommand):
            self._dispatch_command(packet)
        elif isinstance(packet, HciAclData):
            self._handle_acl_from_host(packet)
        else:
            self._m_malformed.inc()
            self.tracer.emit(
                self.simulator.now,
                self.name,
                "hci-err",
                f"unexpected packet from host dropped: {packet!r}",
            )

    def _send_event(self, event: HciEvent) -> None:
        self._m_events_emitted.inc()
        self.tracer.emit(
            self.simulator.now, self.name, "hci-event", event.display_name
        )
        self.transport.send_from_controller(event)

    def _command_complete(self, opcode: int, return_params: bytes = b"\x00") -> None:
        self._send_event(
            evt.CommandComplete(
                num_hci_command_packets=1,
                command_opcode=opcode,
                return_parameters=return_params,
            )
        )

    def _command_status(self, opcode: int, status: int = 0) -> None:
        self._send_event(
            evt.CommandStatus(
                status=status, num_hci_command_packets=1, command_opcode=opcode
            )
        )

    # ------------------------------------------------------- command dispatch

    def _dispatch_command(self, command: HciCommand) -> None:
        self._m_commands.inc()
        self.tracer.emit(
            self.simulator.now, self.name, "hci-cmd", command.display_name
        )
        handler = self._COMMAND_HANDLERS.get(command.opcode)
        if handler is None:
            self._command_status(command.opcode, ErrorCode.UNKNOWN_HCI_COMMAND)
            return
        handler(self, command)

    # -- simple synchronous configuration commands

    def _cmd_reset(self, command: cmd.Reset) -> None:
        self.scan_enable = ScanEnable.NONE
        for link in list(self._links_by_handle.values()):
            self._teardown(link, ErrorCode.CONNECTION_TERMINATED_BY_LOCAL_HOST, emit=False)
        self._command_complete(command.opcode)

    def hard_reset(self) -> None:
        """Fault hook (controller.hard_reset): a firmware crash.

        Unlike the orderly ``HCI_Reset``, the host did not ask for
        this: every link dies mid-procedure *with* disconnection
        events (the host must observe its operations failing), all
        pending LMP/SSP state evaporates, and the controller-side key
        cache is wiped.  Scan configuration survives — the ROM
        defaults come back up almost immediately.
        """
        self.tracer.emit(
            self.simulator.now,
            self.name,
            "fault",
            f"controller hard reset ({len(self._links_by_handle)} links up)",
        )
        for link in list(self._links_by_handle.values()):
            self._teardown(link, ErrorCode.UNSPECIFIED_ERROR)
        for pending in (
            self._pending_key_req,
            self._pending_io_req,
            self._pending_confirm,
            self._pending_passkey,
            self._pending_pin,
            self._pending_oob,
            self._pending_create,
        ):
            pending.clear()
        self._ssp_keypairs.clear()
        self._local_oob_r = None
        self._inquiry_active = False
        self.stored_link_keys.clear()
        self.lmp_silence_until = 0.0

    def _cmd_write_scan_enable(self, command: cmd.WriteScanEnable) -> None:
        self.scan_enable = ScanEnable(command.scan_enable)
        self._command_complete(command.opcode)

    def _cmd_write_cod(self, command: cmd.WriteClassOfDevice) -> None:
        self.class_of_device = command.class_of_device
        self._command_complete(command.opcode)

    def _cmd_write_local_name(self, command: cmd.WriteLocalName) -> None:
        self.local_name = command.local_name
        self._command_complete(command.opcode)

    def _cmd_write_page_timeout(self, command: cmd.WritePageTimeout) -> None:
        self.page_timeout_s = command.page_timeout * 0.000625
        self._command_complete(command.opcode)

    def _cmd_write_page_scan_activity(
        self, command: cmd.WritePageScanActivity
    ) -> None:
        self.page_scan_interval_slots = command.page_scan_interval
        self.page_scan_window_slots = command.page_scan_window
        self._command_complete(command.opcode)

    def _cmd_write_inquiry_scan_activity(
        self, command: cmd.WriteInquiryScanActivity
    ) -> None:
        self.inquiry_scan_interval_slots = command.inquiry_scan_interval
        self.inquiry_scan_window_slots = command.inquiry_scan_window
        self._command_complete(command.opcode)

    def _cmd_write_auth_enable(self, command: cmd.WriteAuthenticationEnable) -> None:
        self.authentication_enable = bool(command.authentication_enable)
        self._command_complete(command.opcode)

    def _cmd_write_ssp_mode(self, command: cmd.WriteSimplePairingMode) -> None:
        self.simple_pairing_mode = bool(command.simple_pairing_mode)
        self._command_complete(command.opcode)

    def _cmd_write_sc_support(
        self, command: cmd.WriteSecureConnectionsHostSupport
    ) -> None:
        self.secure_connections = bool(command.secure_connections_host_support)
        self._command_complete(command.opcode)

    def _cmd_noop_complete(self, command: HciCommand) -> None:
        self._command_complete(command.opcode)

    def _cmd_read_bd_addr(self, command: cmd.ReadBdAddr) -> None:
        self._command_complete(
            command.opcode, b"\x00" + self._bd_addr.to_hci_bytes()
        )

    def _cmd_read_local_name(self, command: cmd.ReadLocalName) -> None:
        raw = self.local_name.encode("utf-8")[:247]
        self._command_complete(
            command.opcode, b"\x00" + raw + b"\x00" * (248 - len(raw))
        )

    # -- inquiry

    def _cmd_inquiry(self, command: cmd.Inquiry) -> None:
        if self._inquiry_active:
            self._command_status(command.opcode, ErrorCode.COMMAND_DISALLOWED)
            return
        self._command_status(command.opcode)
        self._inquiry_active = True
        duration = command.inquiry_length * 1.28
        self.medium.start_inquiry(
            self, duration, self._on_inquiry_response, self._on_inquiry_complete
        )

    def _cmd_write_inquiry_mode(self, command: cmd.WriteInquiryMode) -> None:
        self.inquiry_mode = command.inquiry_mode
        self._command_complete(command.opcode)

    def _on_inquiry_response(self, response) -> None:
        if not self._inquiry_active:
            return
        if self.inquiry_mode == 2:
            from repro.hci.eir import build_eir

            self._send_event(
                evt.ExtendedInquiryResult(
                    num_responses=1,
                    bd_addr=response.bd_addr,
                    page_scan_repetition_mode=1,
                    reserved=0,
                    class_of_device=response.class_of_device,
                    clock_offset=response.clock_offset,
                    rssi=0xC8,  # -56 dBm, two's complement
                    extended_inquiry_response=build_eir(name=response.name),
                )
            )
            return
        self._send_event(
            evt.InquiryResult(
                num_responses=1,
                bd_addr=response.bd_addr,
                page_scan_repetition_mode=1,
                reserved=b"\x00\x00",
                class_of_device=response.class_of_device,
                clock_offset=response.clock_offset,
            )
        )

    def _on_inquiry_complete(self) -> None:
        if not self._inquiry_active:
            return
        self._inquiry_active = False
        self._send_event(evt.InquiryComplete(status=0))

    def _cmd_inquiry_cancel(self, command: cmd.InquiryCancel) -> None:
        self._inquiry_active = False
        self._command_complete(command.opcode)

    # -- connection establishment

    def _cmd_create_connection(self, command: cmd.CreateConnection) -> None:
        target = command.bd_addr
        if self._link_for_addr(target) is not None:
            self._command_status(command.opcode, ErrorCode.CONNECTION_ALREADY_EXISTS)
            return
        self._command_status(command.opcode)
        self._pending_create[target] = True
        if self.obs is not None:
            self._page_spans[target] = self.obs.spans.begin(
                "page_procedure", source=self.name, target=str(target)
            )
        self.medium.page(
            self,
            target,
            self.page_timeout_s,
            lambda link: self._on_page_result(target, link),
        )

    def _finish_page_span(self, target: BdAddr, outcome: str) -> None:
        span = self._page_spans.pop(target, None)
        if span is not None and self.obs is not None:
            span.set_attr("outcome", outcome)
            self.obs.spans.finish(span)

    def _on_page_result(self, target: BdAddr, phys: Optional[PhysicalLink]) -> None:
        if not self._pending_create.pop(target, False):
            self._finish_page_span(target, "cancelled")
            return  # cancelled
        self._finish_page_span(
            target, "timeout" if phys is None else "connected"
        )
        if phys is None:
            self._send_event(
                evt.ConnectionComplete(
                    status=ErrorCode.PAGE_TIMEOUT,
                    connection_handle=0,
                    bd_addr=target,
                    link_type=LinkType.ACL,
                    encryption_enabled=0,
                )
            )
            return
        link = self._new_link(
            peer_addr=target,
            phys=phys,
            is_initiator=True,
            state=LinkState.AWAITING_ACCEPT,
        )
        link.accept_timer = self.simulator.schedule(
            self.CONNECTION_ACCEPT_TIMEOUT, self._accept_timeout, link
        )

    def _cmd_create_connection_cancel(
        self, command: cmd.CreateConnectionCancel
    ) -> None:
        self._pending_create.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )

    def _accept_timeout(self, link: AclLink) -> None:
        if link.state is LinkState.AWAITING_ACCEPT:
            self._send_event(
                evt.ConnectionComplete(
                    status=ErrorCode.CONNECTION_ACCEPT_TIMEOUT,
                    connection_handle=0,
                    bd_addr=link.peer_addr,
                    link_type=LinkType.ACL,
                    encryption_enabled=0,
                )
            )
            self._teardown(link, ErrorCode.CONNECTION_ACCEPT_TIMEOUT, emit=False)

    def on_page_reached(self, phys: PhysicalLink, initiator) -> None:
        """Radio callback: someone paged us and the medium picked us."""
        link = self._new_link(
            peer_addr=initiator.bd_addr,
            phys=phys,
            is_initiator=False,
            state=LinkState.PENDING_ACCEPT,
            peer_cod=initiator.class_of_device_value,
        )
        self._send_event(
            evt.ConnectionRequest(
                bd_addr=link.peer_addr,
                class_of_device=link.peer_cod,
                link_type=LinkType.ACL,
            )
        )
        link.accept_timer = self.simulator.schedule(
            self.CONNECTION_ACCEPT_TIMEOUT, self._host_accept_timeout, link
        )

    def _host_accept_timeout(self, link: AclLink) -> None:
        if link.state is LinkState.PENDING_ACCEPT:
            self._send_lmp(
                link, lmp.LmpConnectionRejected(ErrorCode.CONNECTION_ACCEPT_TIMEOUT)
            )
            self._teardown(link, ErrorCode.CONNECTION_ACCEPT_TIMEOUT, emit=False)

    def _cmd_accept_connection(self, command: cmd.AcceptConnectionRequest) -> None:
        link = self._link_for_addr(command.bd_addr, state=LinkState.PENDING_ACCEPT)
        if link is None:
            self._command_status(
                command.opcode, ErrorCode.UNKNOWN_CONNECTION_IDENTIFIER
            )
            return
        self._command_status(command.opcode)
        self._cancel_timer(link, "accept_timer")
        link.state = LinkState.CONNECTED
        self._send_lmp(link, lmp.LmpConnectionAccepted(self.class_of_device))
        self._send_lmp(
            link,
            lmp.LmpFeaturesInfo(
                self.simple_pairing_mode, secure_auth=self.secure_auth_enabled
            ),
        )
        self._send_event(
            evt.ConnectionComplete(
                status=0,
                connection_handle=link.handle,
                bd_addr=link.peer_addr,
                link_type=LinkType.ACL,
                encryption_enabled=0,
            )
        )
        self._start_supervision(link)

    def _cmd_reject_connection(self, command: cmd.RejectConnectionRequest) -> None:
        link = self._link_for_addr(command.bd_addr, state=LinkState.PENDING_ACCEPT)
        if link is None:
            self._command_status(
                command.opcode, ErrorCode.UNKNOWN_CONNECTION_IDENTIFIER
            )
            return
        self._command_status(command.opcode)
        self._send_lmp(link, lmp.LmpConnectionRejected(command.reason))
        self._teardown(link, command.reason, emit=False)

    def _cmd_disconnect(self, command: cmd.Disconnect) -> None:
        link = self._links_by_handle.get(command.connection_handle)
        if link is None:
            self._command_status(
                command.opcode, ErrorCode.UNKNOWN_CONNECTION_IDENTIFIER
            )
            return
        self._command_status(command.opcode)
        self._send_lmp(link, lmp.LmpDetach(command.reason))
        self._send_event(
            evt.DisconnectionComplete(
                status=0,
                connection_handle=link.handle,
                reason=ErrorCode.CONNECTION_TERMINATED_BY_LOCAL_HOST,
            )
        )
        self._teardown(link, command.reason, emit=False)

    # -- authentication & pairing entry points

    def _cmd_authentication_requested(
        self, command: cmd.AuthenticationRequested
    ) -> None:
        link = self._links_by_handle.get(command.connection_handle)
        if link is None or link.state is not LinkState.CONNECTED:
            self._command_status(
                command.opcode, ErrorCode.UNKNOWN_CONNECTION_IDENTIFIER
            )
            return
        self._command_status(command.opcode)
        link.auth_requested_by_host = True
        self._request_link_key(
            link.peer_addr, lambda key: self._auth_key_ready(link, key)
        )

    def _auth_key_ready(self, link: AclLink, key: Optional[LinkKey]) -> None:
        if link.state is not LinkState.CONNECTED:
            return
        if key is None:
            if self.simple_pairing_mode and link.peer_ssp_supported:
                self._start_ssp(link, role="initiator")
            else:
                self._start_legacy_pairing(link)
            return
        # Verifier path: challenge the peer.
        au_rand = bytes(self._rng.getrandbits(8) for _ in range(16))
        secure = self.secure_auth_enabled and link.peer_secure_auth
        link.auth = AuthSession(
            role="verifier",
            link_key=key,
            au_rand=au_rand,
            secure=secure,
            local_rand=au_rand,
        )
        link.link_key = key
        link.auth.timer = self.simulator.schedule(
            self.LMP_RESPONSE_TIMEOUT, self._lmp_response_timeout, link
        )
        self._m_auth_rounds.inc()
        if secure:
            self._send_lmp(link, lmp.LmpAuRandSC(au_rand))
        else:
            self._send_lmp(link, lmp.LmpAuRand(au_rand))

    def _lmp_response_timeout(self, link: AclLink) -> None:
        """The peer never answered our challenge — drop, *without* an
        authentication failure (the property the extraction attack
        relies on to keep the victim's stored key alive)."""
        if link.auth is None or link.auth.role != "verifier":
            return
        if link.auth_requested_by_host:
            self._send_event(
                evt.AuthenticationComplete(
                    status=ErrorCode.LMP_RESPONSE_TIMEOUT,
                    connection_handle=link.handle,
                )
            )
        self._send_lmp(link, lmp.LmpDetach(ErrorCode.LMP_RESPONSE_TIMEOUT))
        self._teardown(link, ErrorCode.LMP_RESPONSE_TIMEOUT)

    def _request_link_key(
        self, peer: BdAddr, continuation: Callable[[Optional[LinkKey]], None]
    ) -> None:
        """Ask the host for a stored key; continue when it answers."""
        self._pending_key_req[peer] = continuation
        self._send_event(evt.LinkKeyRequest(bd_addr=peer))

    def _cmd_link_key_reply(self, command: cmd.LinkKeyRequestReply) -> None:
        continuation = self._pending_key_req.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(command.link_key)

    def _cmd_link_key_negative_reply(
        self, command: cmd.LinkKeyRequestNegativeReply
    ) -> None:
        continuation = self._pending_key_req.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(None)

    def _ssp_keypair(self, curve: CurveParams) -> EccKeyPair:
        """The controller's persistent ECDH key pair for a curve."""
        pair = self._ssp_keypairs.get(curve.name)
        if pair is None:
            pair = generate_keypair(curve, self._rng)
            self._ssp_keypairs[curve.name] = pair
        return pair

    # -- legacy PIN pairing

    def _start_legacy_pairing(self, link: AclLink) -> None:
        """Begin E22/E21 PIN pairing (pre-2.1 peers, or SSP disabled)."""
        link.legacy = LegacyPairingSession(role="initiator")
        self._pending_pin[link.peer_addr] = (
            lambda pin: self._legacy_pin_ready(link, pin)
        )
        self._send_event(evt.PinCodeRequest(bd_addr=link.peer_addr))

    def _legacy_pin_ready(self, link: AclLink, pin: Optional[bytes]) -> None:
        session = link.legacy
        if session is None or link.state is not LinkState.CONNECTED:
            return
        if pin is None:
            link.legacy = None
            if link.auth_requested_by_host:
                self._send_event(
                    evt.AuthenticationComplete(
                        status=ErrorCode.PAIRING_NOT_ALLOWED,
                        connection_handle=link.handle,
                    )
                )
            return
        session.pin = pin
        if session.role == "initiator":
            session.in_rand = bytes(self._rng.getrandbits(8) for _ in range(16))
            # K_init binds the *responder's* address on both sides.
            session.k_init = e22(session.in_rand, pin, link.peer_addr)
            self._send_lmp(link, lmp.LmpInRand(session.in_rand))
        else:
            session.k_init = e22(session.in_rand, pin, self._bd_addr)
        self._legacy_send_comb(link)
        self._legacy_maybe_derive(link)

    def _legacy_send_comb(self, link: AclLink) -> None:
        session = link.legacy
        if session.comb_sent or session.k_init is None:
            return
        session.comb_sent = True
        session.local_lk_rand = bytes(
            self._rng.getrandbits(8) for _ in range(16)
        )
        masked = bytes(
            a ^ b
            for a, b in zip(session.local_lk_rand, session.k_init.value)
        )
        self._send_lmp(link, lmp.LmpCombKey(masked))

    def _lmp_in_rand(self, link: AclLink, pdu: lmp.LmpInRand) -> None:
        """Responder side: a legacy pairing is being initiated at us."""
        link.legacy = LegacyPairingSession(role="responder", in_rand=pdu.rand)
        self._pending_pin[link.peer_addr] = (
            lambda pin: self._legacy_responder_pin(link, pin)
        )
        self._send_event(evt.PinCodeRequest(bd_addr=link.peer_addr))

    def _legacy_responder_pin(self, link: AclLink, pin: Optional[bytes]) -> None:
        if pin is None:
            link.legacy = None
            self._send_lmp(
                link,
                lmp.LmpNotAccepted("LMP_in_rand", ErrorCode.PAIRING_NOT_ALLOWED),
            )
            return
        self._legacy_pin_ready(link, pin)

    def _lmp_comb_key(self, link: AclLink, pdu: lmp.LmpCombKey) -> None:
        session = link.legacy
        if session is None:
            return
        session.peer_masked_rand = pdu.masked_rand
        # Make sure our own contribution goes out (responder path).
        if session.k_init is not None:
            self._legacy_send_comb(link)
        self._legacy_maybe_derive(link)

    def _legacy_maybe_derive(self, link: AclLink) -> None:
        session = link.legacy
        if (
            session is None
            or session.k_init is None
            or session.local_lk_rand is None
            or session.peer_masked_rand is None
            or session.link_key is not None
        ):
            return
        peer_lk_rand = bytes(
            a ^ b
            for a, b in zip(session.peer_masked_rand, session.k_init.value)
        )
        local_part = e21(session.local_lk_rand, self._bd_addr)
        peer_part = e21(peer_lk_rand, link.peer_addr)
        session.link_key = LinkKey(
            bytes(a ^ b for a, b in zip(local_part.value, peer_part.value))
        )
        link.link_key = session.link_key
        if session.role == "initiator":
            # Verify the new key with a challenge before trusting it.
            au_rand = bytes(self._rng.getrandbits(8) for _ in range(16))
            link.auth = AuthSession(
                role="verifier", link_key=session.link_key, au_rand=au_rand
            )
            link.auth.timer = self.simulator.schedule(
                self.LMP_RESPONSE_TIMEOUT, self._lmp_response_timeout, link
            )
            self._m_auth_rounds.inc()
            self._send_lmp(link, lmp.LmpAuRand(au_rand))

    def _legacy_finalize(self, link: AclLink, notify_peer: bool) -> None:
        session = link.legacy
        if session is None or session.link_key is None:
            return
        if notify_peer:
            self._send_lmp(link, lmp.LmpLegacyComplete())
        self._send_event(
            evt.LinkKeyNotification(
                bd_addr=link.peer_addr,
                link_key=session.link_key,
                key_type=LinkKeyType.COMBINATION,
            )
        )
        if link.auth_requested_by_host:
            self._send_event(
                evt.AuthenticationComplete(status=0, connection_handle=link.handle)
            )
        link.legacy = None

    def _lmp_legacy_complete(self, link: AclLink, pdu: lmp.LmpLegacyComplete) -> None:
        self._legacy_finalize(link, notify_peer=False)

    def _cmd_pin_code_reply(self, command: cmd.PinCodeRequestReply) -> None:
        continuation = self._pending_pin.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(command.pin[: command.pin_length])

    def _cmd_pin_code_negative_reply(
        self, command: cmd.PinCodeRequestNegativeReply
    ) -> None:
        continuation = self._pending_pin.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(None)

    def _lmp_features_info(self, link: AclLink, pdu: lmp.LmpFeaturesInfo) -> None:
        link.peer_ssp_supported = pdu.ssp_supported
        link.peer_secure_auth = pdu.secure_auth

    # -- SSP

    def _start_ssp(self, link: AclLink, role: str) -> None:
        curve = P256 if self.secure_connections else P192
        link.ssp = SspSession(role=role, curve=curve)
        self._pending_io_req[link.peer_addr] = (
            lambda io, oob, auth: self._ssp_local_io_ready(link, io, oob, auth)
        )
        self._send_event(evt.IoCapabilityRequest(bd_addr=link.peer_addr))

    def _ssp_local_io_ready(self, link: AclLink, io: int, oob: int, auth: int) -> None:
        session = link.ssp
        if session is None:
            return
        session.local_io, session.local_oob, session.local_auth_req = io, oob, auth
        if session.role == "initiator":
            self._send_lmp(link, lmp.LmpIoCapabilityReq(io, oob, auth))
        else:
            self._send_lmp(link, lmp.LmpIoCapabilityRes(io, oob, auth))
            # Responder kicks off the public key exchange reply path on
            # receipt of the initiator's key (below).

    def _cmd_io_capability_reply(self, command: cmd.IoCapabilityRequestReply) -> None:
        continuation = self._pending_io_req.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(
                command.io_capability,
                command.oob_data_present,
                command.authentication_requirements,
            )

    def _cmd_io_capability_negative_reply(
        self, command: cmd.IoCapabilityRequestNegativeReply
    ) -> None:
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        link = self._link_for_addr(command.bd_addr)
        if link is not None and link.ssp is not None:
            self._ssp_fail(link, ErrorCode.PAIRING_NOT_ALLOWED)

    def _cmd_user_confirmation_reply(
        self, command: cmd.UserConfirmationRequestReply
    ) -> None:
        continuation = self._pending_confirm.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(True)

    def _cmd_user_confirmation_negative_reply(
        self, command: cmd.UserConfirmationRequestNegativeReply
    ) -> None:
        continuation = self._pending_confirm.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(False)

    def _cmd_user_passkey_reply(self, command: cmd.UserPasskeyRequestReply) -> None:
        continuation = self._pending_passkey.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(command.numeric_value)

    def _cmd_user_passkey_negative_reply(
        self, command: cmd.UserPasskeyRequestNegativeReply
    ) -> None:
        continuation = self._pending_passkey.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(None)

    # -- encryption

    def _cmd_set_connection_encryption(
        self, command: cmd.SetConnectionEncryption
    ) -> None:
        link = self._links_by_handle.get(command.connection_handle)
        if link is None:
            self._command_status(
                command.opcode, ErrorCode.UNKNOWN_CONNECTION_IDENTIFIER
            )
            return
        if command.encryption_enable and (link.link_key is None or link.aco is None):
            self._command_status(command.opcode, ErrorCode.INSUFFICIENT_SECURITY)
            return
        self._command_status(command.opcode)
        if not command.encryption_enable:
            link.encryption_enabled = False
            self._send_lmp(link, lmp.LmpStopEncryption())
            self._send_event(
                evt.EncryptionChange(
                    status=0, connection_handle=link.handle, encryption_enabled=0
                )
            )
            return
        # Negotiate the encryption key size first (the KNOB surface).
        proposal = min(16, self.max_encryption_key_size)
        self._send_lmp(link, lmp.LmpEncryptionKeySizeReq(proposal))

    def _lmp_encryption_key_size_req(
        self, link: AclLink, pdu: lmp.LmpEncryptionKeySizeReq
    ) -> None:
        size = min(pdu.size, self.max_encryption_key_size)
        if size < self.min_encryption_key_size:
            self._send_lmp(link, lmp.LmpEncryptionKeySizeRes(size, accepted=False))
            return
        link.encryption_key_size = size
        self._send_lmp(link, lmp.LmpEncryptionKeySizeRes(size, accepted=True))

    def _lmp_encryption_key_size_res(
        self, link: AclLink, pdu: lmp.LmpEncryptionKeySizeRes
    ) -> None:
        if not pdu.accepted or pdu.size < self.min_encryption_key_size:
            self._send_event(
                evt.EncryptionChange(
                    status=ErrorCode.INSUFFICIENT_SECURITY,
                    connection_handle=link.handle,
                    encryption_enabled=0,
                )
            )
            return
        link.encryption_key_size = pdu.size
        if link.link_key is None or link.aco is None:
            return
        en_rand = bytes(self._rng.getrandbits(8) for _ in range(16))
        kc = e3(link.link_key, en_rand, link.aco)
        link.kc = reduce_key_entropy(kc, link.encryption_key_size)
        link.encryption_enabled = True
        link.tx_seq = link.rx_seq = 0
        self._send_lmp(link, lmp.LmpStartEncryption(en_rand))
        self._send_event(
            evt.EncryptionChange(
                status=0, connection_handle=link.handle, encryption_enabled=1
            )
        )

    # -- stored link keys (the controller's tiny local cache)

    def _cmd_write_stored_link_key(self, command: cmd.WriteStoredLinkKey) -> None:
        written = 0
        if len(self.stored_link_keys) < self.stored_link_key_capacity or (
            command.bd_addr in self.stored_link_keys
        ):
            self.stored_link_keys[command.bd_addr] = command.link_key
            written = 1
        self._command_complete(command.opcode, b"\x00" + bytes([written]))

    def _cmd_read_stored_link_key(self, command: cmd.ReadStoredLinkKey) -> None:
        if command.read_all_flag:
            selected = dict(self.stored_link_keys)
        else:
            selected = {
                addr: key
                for addr, key in self.stored_link_keys.items()
                if addr == command.bd_addr
            }
        for addr, key in selected.items():
            self._send_event(
                evt.ReturnLinkKeys(num_keys=1, bd_addr=addr, link_key=key)
            )
        self._command_complete(
            command.opcode,
            b"\x00"
            + self.stored_link_key_capacity.to_bytes(2, "little")
            + len(selected).to_bytes(2, "little"),
        )

    def _cmd_delete_stored_link_key(self, command: cmd.DeleteStoredLinkKey) -> None:
        if command.delete_all_flag:
            deleted = len(self.stored_link_keys)
            self.stored_link_keys.clear()
        else:
            deleted = int(
                self.stored_link_keys.pop(command.bd_addr, None) is not None
            )
        self._command_complete(
            command.opcode, b"\x00" + deleted.to_bytes(2, "little")
        )

    # -- SCO audio channels

    def _cmd_setup_synchronous_connection(
        self, command: cmd.SetupSynchronousConnection
    ) -> None:
        link = self._links_by_handle.get(command.connection_handle)
        if link is None or link.state is not LinkState.CONNECTED:
            self._command_status(
                command.opcode, ErrorCode.UNKNOWN_CONNECTION_IDENTIFIER
            )
            return
        self._command_status(command.opcode)
        self._send_lmp(link, lmp.LmpScoSetup(accept=False))

    def _sco_complete_event(self, link: AclLink) -> None:
        link.sco_handle = link.handle | 0x0100
        self._send_event(
            evt.SynchronousConnectionComplete(
                status=0,
                connection_handle=link.sco_handle,
                bd_addr=link.peer_addr,
                link_type=LinkType.ESCO,
                transmission_interval=6,
                retransmission_window=1,
                rx_packet_length=60,
                tx_packet_length=60,
                air_mode=0x02,  # CVSD
            )
        )

    def _lmp_sco_setup(self, link: AclLink, pdu: lmp.LmpScoSetup) -> None:
        if not pdu.accept:
            # Request: confirm back and bring our side up.
            self._send_lmp(link, lmp.LmpScoSetup(accept=True))
        self._sco_complete_event(link)

    # -- remote name

    def _cmd_remote_name_request(self, command: cmd.RemoteNameRequest) -> None:
        self._command_status(command.opcode)
        target = command.bd_addr
        for peer in self.medium._controllers:  # noqa: SLF001 - simulation introspection
            if peer is self or peer.bd_addr != target:
                continue
            if not (peer.page_scan_enabled or peer.inquiry_scan_enabled):
                continue
            self.simulator.schedule(
                0.1,
                self._send_event,
                evt.RemoteNameRequestComplete(
                    status=0, bd_addr=target, remote_name=peer.local_name
                ),
            )
            return
        self.simulator.schedule(
            self.page_timeout_s,
            self._send_event,
            evt.RemoteNameRequestComplete(
                status=ErrorCode.PAGE_TIMEOUT, bd_addr=target, remote_name=""
            ),
        )

    _COMMAND_HANDLERS: Dict[int, Callable] = {}

    # ----------------------------------------------------------------- links

    def _new_link(
        self,
        peer_addr: BdAddr,
        phys: PhysicalLink,
        is_initiator: bool,
        state: LinkState,
        peer_cod: int = 0,
    ) -> AclLink:
        handle = self._next_handle
        self._next_handle += 1
        link = AclLink(
            handle=handle,
            peer_addr=peer_addr,
            phys=phys,
            is_initiator=is_initiator,
            state=state,
            peer_cod=peer_cod,
            last_activity=self.simulator.now,
        )
        self._links_by_handle[handle] = link
        self._links_by_phys[phys.link_id] = link
        return link

    def _link_for_addr(
        self, addr: BdAddr, state: Optional[LinkState] = None
    ) -> Optional[AclLink]:
        for link in self._links_by_handle.values():
            if link.peer_addr == addr and (state is None or link.state is state):
                return link
        return None

    def _cancel_timer(self, link: AclLink, attr: str) -> None:
        timer = getattr(link, attr)
        if timer is not None:
            timer.cancel()
            setattr(link, attr, None)

    def _teardown(self, link: AclLink, reason: int, emit: bool = True) -> None:
        if link.state is LinkState.CLOSED:
            return
        was_connected = link.state is LinkState.CONNECTED
        was_awaiting = link.state is LinkState.AWAITING_ACCEPT
        link.state = LinkState.CLOSED
        self._cancel_timer(link, "accept_timer")
        if link.auth is not None and link.auth.timer is not None:
            link.auth.timer.cancel()
        self._links_by_handle.pop(link.handle, None)
        self._links_by_phys.pop(link.phys.link_id, None)
        self.medium.drop_link(link.phys, reason)
        if not emit:
            return
        if was_connected:
            self._send_event(
                evt.DisconnectionComplete(
                    status=0, connection_handle=link.handle, reason=reason
                )
            )
        elif was_awaiting:
            # The peer (or the medium) killed a connection we were still
            # waiting on: surface the failed Create_Connection.
            self._send_event(
                evt.ConnectionComplete(
                    status=reason or ErrorCode.UNSPECIFIED_ERROR,
                    connection_handle=0,
                    bd_addr=link.peer_addr,
                    link_type=LinkType.ACL,
                    encryption_enabled=0,
                )
            )

    def on_link_dropped(self, phys: PhysicalLink, reason: int) -> None:
        """Radio callback: the physical link died underneath us."""
        link = self._links_by_phys.get(phys.link_id)
        if link is not None:
            self._teardown(link, reason)

    def _start_supervision(self, link: AclLink) -> None:
        link.last_activity = self.simulator.now
        self._supervision_tick(link)

    def _supervision_tick(self, link: AclLink) -> None:
        if link.state is not LinkState.CONNECTED:
            return
        idle = self.simulator.now - link.last_activity
        if idle >= self.supervision_timeout_s:
            self._teardown(link, ErrorCode.CONNECTION_TIMEOUT)
            return
        self.simulator.schedule(
            self.supervision_timeout_s / 4, self._supervision_tick, link
        )

    # ------------------------------------------------------------- air frames

    def _send_lmp(self, link: AclLink, pdu: lmp.LmpPdu) -> None:
        link.last_activity = self.simulator.now
        self._m_lmp_tx.inc()
        self.tracer.emit(self.simulator.now, self.name, "lmp-tx", pdu.name)
        self.medium.send_frame(link.phys, self, AirFrame(kind="lmp", payload=pdu))

    def on_air_frame(self, phys: PhysicalLink, frame: AirFrame) -> None:
        """Radio callback: a frame arrived on one of our links."""
        link = self._links_by_phys.get(phys.link_id)
        if link is None:
            return
        link.last_activity = self.simulator.now
        if frame.kind == "acl":
            self._handle_acl_from_air(link, frame)
            return
        pdu = frame.payload
        if self.simulator.now < self.lmp_silence_until:
            # controller.lmp_hang fault: the LMP engine is wedged, so
            # link-management PDUs fall on the floor until it recovers
            # (the peer's LMP response timeout does the cleanup).
            self.tracer.emit(
                self.simulator.now,
                self.name,
                "fault",
                f"lmp_hang: ignoring {pdu.name}",
            )
            return
        self._m_lmp_rx.inc()
        self.tracer.emit(self.simulator.now, self.name, "lmp-rx", pdu.name)
        handler = self._LMP_HANDLERS.get(type(pdu))
        if handler is not None:
            handler(self, link, pdu)

    # -- LMP: connection setup

    def _lmp_connection_accepted(
        self, link: AclLink, pdu: lmp.LmpConnectionAccepted
    ) -> None:
        if link.state is not LinkState.AWAITING_ACCEPT:
            return
        self._cancel_timer(link, "accept_timer")
        link.state = LinkState.CONNECTED
        link.peer_cod = pdu.responder_cod
        self._send_lmp(
            link,
            lmp.LmpFeaturesInfo(
                self.simple_pairing_mode, secure_auth=self.secure_auth_enabled
            ),
        )
        self._send_event(
            evt.ConnectionComplete(
                status=0,
                connection_handle=link.handle,
                bd_addr=link.peer_addr,
                link_type=LinkType.ACL,
                encryption_enabled=0,
            )
        )
        self._start_supervision(link)

    def _lmp_connection_rejected(
        self, link: AclLink, pdu: lmp.LmpConnectionRejected
    ) -> None:
        if link.state is not LinkState.AWAITING_ACCEPT:
            return
        self._cancel_timer(link, "accept_timer")
        self._send_event(
            evt.ConnectionComplete(
                status=pdu.reason,
                connection_handle=0,
                bd_addr=link.peer_addr,
                link_type=LinkType.ACL,
                encryption_enabled=0,
            )
        )
        self._teardown(link, pdu.reason, emit=False)

    def _lmp_detach(self, link: AclLink, pdu: lmp.LmpDetach) -> None:
        self._teardown(link, pdu.reason)

    # -- LMP: legacy authentication

    def _lmp_au_rand(self, link: AclLink, pdu: lmp.LmpAuRand) -> None:
        """We are the prover: fetch our key from the host and answer.

        On the victim accessory C this is the moment its host writes
        the plaintext link key into the HCI dump; on the patched
        attacker device the host never answers and the verifier's
        timer eventually kills the link.
        """
        link.auth = AuthSession(role="prover", au_rand=pdu.rand)
        if link.legacy is not None and link.legacy.link_key is not None:
            # Mid-pairing verification of the freshly derived combination
            # key: it never crosses HCI, so answer directly.
            self._prover_key_ready(link, pdu.rand, link.legacy.link_key)
            return
        self._request_link_key(
            link.peer_addr, lambda key: self._prover_key_ready(link, pdu.rand, key)
        )

    def _prover_key_ready(
        self, link: AclLink, au_rand: bytes, key: Optional[LinkKey]
    ) -> None:
        if link.state is not LinkState.CONNECTED:
            return
        if key is None:
            self._send_lmp(
                link,
                lmp.LmpNotAccepted("LMP_au_rand", ErrorCode.PIN_OR_KEY_MISSING),
            )
            return
        link.link_key = key
        sres, aco = e1(key, au_rand, self._bd_addr)
        link.aco = aco
        self._send_lmp(link, lmp.LmpSres(sres))

    def _lmp_sres(self, link: AclLink, pdu: lmp.LmpSres) -> None:
        auth = link.auth
        if auth is None or auth.role != "verifier":
            return
        if auth.timer is not None:
            auth.timer.cancel()
        expected, aco = e1(auth.link_key, auth.au_rand, link.peer_addr)
        if pdu.sres == expected:
            link.aco = aco
            if link.legacy is not None:
                # Legacy pairing verification succeeded: finish it (the
                # finalize path emits Authentication_Complete itself).
                link.auth = None
                self._legacy_finalize(link, notify_peer=True)
                return
            if link.auth_requested_by_host:
                self._send_event(
                    evt.AuthenticationComplete(
                        status=0, connection_handle=link.handle
                    )
                )
            link.auth = None
            return
        if link.auth_requested_by_host:
            self._send_event(
                evt.AuthenticationComplete(
                    status=ErrorCode.AUTHENTICATION_FAILURE,
                    connection_handle=link.handle,
                )
            )
        self._send_lmp(link, lmp.LmpDetach(ErrorCode.AUTHENTICATION_FAILURE))
        self._teardown(link, ErrorCode.AUTHENTICATION_FAILURE)

    # -- Secure Connections mutual authentication (h4/h5)

    def _sc_halves(self, link, key, local_rand, peer_rand):
        """Compute (my SRES half, peer's SRES half, ACO) for this link.

        The piconet master's address and nonce always come first, so
        both ends evaluate identical h4/h5 inputs.
        """
        if link.is_initiator:
            master_addr, slave_addr = self._bd_addr, link.peer_addr
            rand_master, rand_slave = local_rand, peer_rand
        else:
            master_addr, slave_addr = link.peer_addr, self._bd_addr
            rand_master, rand_slave = peer_rand, local_rand
        device_key = h4(key.value, master_addr, slave_addr)
        digest = h5(device_key, rand_master, rand_slave)
        if link.is_initiator:
            return digest[0:4], digest[4:8], digest[8:20]
        return digest[4:8], digest[0:4], digest[8:20]

    def _lmp_au_rand_sc(self, link: AclLink, pdu: lmp.LmpAuRandSC) -> None:
        """Prover side of a mutual authentication.

        The host round trip is identical to the legacy path — the link
        key still crosses HCI in plaintext, so the extraction attack is
        agnostic to which authentication algorithm runs afterwards.
        """
        link.auth = AuthSession(role="prover", secure=True, peer_rand=pdu.rand)
        self._request_link_key(
            link.peer_addr, lambda key: self._sc_prover_key_ready(link, key)
        )

    def _sc_prover_key_ready(self, link: AclLink, key: Optional[LinkKey]) -> None:
        auth = link.auth
        if auth is None or link.state is not LinkState.CONNECTED:
            return
        if key is None:
            self._send_lmp(
                link,
                lmp.LmpNotAccepted("LMP_au_rand", ErrorCode.PIN_OR_KEY_MISSING),
            )
            return
        auth.link_key = key
        link.link_key = key
        auth.local_rand = bytes(self._rng.getrandbits(8) for _ in range(16))
        my_sres, _, _ = self._sc_halves(
            link, key, auth.local_rand, auth.peer_rand
        )
        self._send_lmp(link, lmp.LmpScAuthResponse(auth.local_rand, my_sres))

    def _lmp_sc_auth_response(
        self, link: AclLink, pdu: lmp.LmpScAuthResponse
    ) -> None:
        auth = link.auth
        if auth is None or not auth.secure or auth.role != "verifier":
            return
        if auth.timer is not None:
            auth.timer.cancel()
        auth.peer_rand = pdu.rand
        my_sres, peer_sres, aco = self._sc_halves(
            link, auth.link_key, auth.local_rand, auth.peer_rand
        )
        if pdu.sres != peer_sres:
            if link.auth_requested_by_host:
                self._send_event(
                    evt.AuthenticationComplete(
                        status=ErrorCode.AUTHENTICATION_FAILURE,
                        connection_handle=link.handle,
                    )
                )
            self._send_lmp(link, lmp.LmpDetach(ErrorCode.AUTHENTICATION_FAILURE))
            self._teardown(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        link.aco = aco
        # Mutuality: hand the prover *our* half so it can verify us.
        self._send_lmp(link, lmp.LmpScAuthConfirm(my_sres))
        if link.auth_requested_by_host:
            self._send_event(
                evt.AuthenticationComplete(status=0, connection_handle=link.handle)
            )
        link.auth = None

    def _lmp_sc_auth_confirm(self, link: AclLink, pdu: lmp.LmpScAuthConfirm) -> None:
        auth = link.auth
        if auth is None or not auth.secure or auth.role != "prover":
            return
        _, peer_sres, aco = self._sc_halves(
            link, auth.link_key, auth.local_rand, auth.peer_rand
        )
        if pdu.sres != peer_sres:
            # The VERIFIER failed to prove key possession -- the check
            # one-way legacy authentication never performs (BIAS).
            self._send_lmp(link, lmp.LmpDetach(ErrorCode.AUTHENTICATION_FAILURE))
            self._teardown(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        link.aco = aco
        link.auth = None

    def _lmp_not_accepted(self, link: AclLink, pdu: lmp.LmpNotAccepted) -> None:
        if pdu.rejected == "LMP_au_rand" and link.auth is not None:
            if link.auth.timer is not None:
                link.auth.timer.cancel()
            # The peer has no key for us: fall back to pairing.
            if link.auth_requested_by_host:
                self._send_event(
                    evt.AuthenticationComplete(
                        status=ErrorCode.PIN_OR_KEY_MISSING,
                        connection_handle=link.handle,
                    )
                )
            link.auth = None
        elif pdu.rejected == "user_confirmation" and link.ssp is not None:
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE, notify_peer=False)
        elif pdu.rejected == "LMP_in_rand" and link.legacy is not None:
            # Peer refused the legacy pairing (no PIN entered).
            link.legacy = None
            if link.auth_requested_by_host:
                self._send_event(
                    evt.AuthenticationComplete(
                        status=pdu.reason, connection_handle=link.handle
                    )
                )

    # -- LMP: secure simple pairing

    def _lmp_io_capability_req(
        self, link: AclLink, pdu: lmp.LmpIoCapabilityReq
    ) -> None:
        self._start_ssp(link, role="responder")
        session = link.ssp
        session.remote_io = pdu.io_capability
        session.remote_oob = pdu.oob_data_present
        session.remote_auth_req = pdu.authentication_requirements
        self._send_event(
            evt.IoCapabilityResponse(
                bd_addr=link.peer_addr,
                io_capability=pdu.io_capability,
                oob_data_present=pdu.oob_data_present,
                authentication_requirements=pdu.authentication_requirements,
            )
        )

    def _lmp_io_capability_res(
        self, link: AclLink, pdu: lmp.LmpIoCapabilityRes
    ) -> None:
        session = link.ssp
        if session is None or session.role != "initiator":
            return
        session.remote_io = pdu.io_capability
        session.remote_oob = pdu.oob_data_present
        session.remote_auth_req = pdu.authentication_requirements
        self._send_event(
            evt.IoCapabilityResponse(
                bd_addr=link.peer_addr,
                io_capability=pdu.io_capability,
                oob_data_present=pdu.oob_data_present,
                authentication_requirements=pdu.authentication_requirements,
            )
        )
        session.keypair = self._ssp_keypair(session.curve)
        self._send_lmp(
            link,
            lmp.LmpEncapsulatedKey(
                session.keypair.public.to_bytes(), session.curve.name
            ),
        )

    def _lmp_encapsulated_key(
        self, link: AclLink, pdu: lmp.LmpEncapsulatedKey
    ) -> None:
        session = link.ssp
        if session is None:
            return
        curve = P256 if pdu.curve == "P-256" else P192
        if curve is not session.curve:
            # Curve mismatch: downgrade to the weaker one (both sides
            # converge because the initiator announced first).
            session.curve = curve
        try:
            session.peer_public = EccPoint.from_bytes(
                session.curve, pdu.public_key
            )
        except ValueError:
            # An off-curve or malformed peer key ends the pairing here:
            # no DHKey is ever computed against it.
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        session.association = self._ssp_association(session)
        if session.role == "responder":
            session.keypair = self._ssp_keypair(session.curve)
            self._send_lmp(
                link,
                lmp.LmpEncapsulatedKey(
                    session.keypair.public.to_bytes(), session.curve.name
                ),
            )
            if session.association is AssociationModel.PASSKEY_ENTRY:
                self._passkey_begin(link)
                return
            if session.association is AssociationModel.OUT_OF_BAND:
                self._oob_begin(link)
                return
            # Numeric Comparison / Just Works authentication stage 1:
            # responder commits to its nonce.
            session.local_nonce = bytes(
                self._rng.getrandbits(8) for _ in range(16)
            )
            commitment = session.f1(
                session.keypair.public.x_bytes(),
                session.peer_public.x_bytes(),
                session.local_nonce,
                b"\x00",
            )
            self._send_lmp(link, lmp.LmpSimplePairingConfirm(commitment))
        elif session.association is AssociationModel.PASSKEY_ENTRY:
            # Initiator has both public keys: start the passkey UI.
            self._passkey_begin(link)
        elif session.association is AssociationModel.OUT_OF_BAND:
            self._oob_begin(link)

    # -- Out of Band association (NFC-style side channel)

    def _cmd_read_local_oob_data(self, command: cmd.ReadLocalOobData) -> None:
        """Generate (C, R): C commits to our persistent public key."""
        curve = P256 if self.secure_connections else P192
        keypair = self._ssp_keypair(curve)
        self._local_oob_r = bytes(self._rng.getrandbits(8) for _ in range(16))
        f1 = f1_p256 if curve is P256 else f1_p192
        commitment = f1(
            keypair.public.x_bytes(),
            keypair.public.x_bytes(),
            self._local_oob_r,
            b"\x00",
        )
        self._command_complete(
            command.opcode, b"\x00" + commitment + self._local_oob_r
        )

    def _cmd_remote_oob_reply(
        self, command: cmd.RemoteOobDataRequestReply
    ) -> None:
        continuation = self._pending_oob.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(command.c, command.r)

    def _cmd_remote_oob_negative_reply(
        self, command: cmd.RemoteOobDataRequestNegativeReply
    ) -> None:
        continuation = self._pending_oob.pop(command.bd_addr, None)
        self._command_complete(
            command.opcode, b"\x00" + command.bd_addr.to_hci_bytes()
        )
        if continuation is not None:
            continuation(None, None)

    def _oob_begin(self, link: AclLink) -> None:
        """Ask the host for the peer's out-of-band (C, R)."""
        self._pending_oob[link.peer_addr] = (
            lambda c, r: self._oob_data_ready(link, c, r)
        )
        self._send_event(evt.RemoteOobDataRequest(bd_addr=link.peer_addr))

    def _oob_data_ready(
        self, link: AclLink, c: Optional[bytes], r: Optional[bytes]
    ) -> None:
        session = link.ssp
        if session is None:
            return
        if c is None or r is None:
            # We hold no OOB data for this peer: participate without
            # verifying (the side that *does* hold data still checks).
            session.peer_r = b"\x00" * 16
            session.local_r = self._local_oob_r or b"\x00" * 16
        else:
            # Verify the received public key against the OOB
            # commitment: the peer computed C over its OWN public key
            # with its own r.
            expected = session.f1(
                session.peer_public.x_bytes(),
                session.peer_public.x_bytes(),
                r,
                b"\x00",
            )
            if expected != c:
                # A MITM substituted its public key: the NFC-carried
                # commitment doesn't match what arrived over the air.
                self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
                return
            session.peer_r = r
            session.local_r = self._local_oob_r or b"\x00" * 16
        session.local_nonce = bytes(
            self._rng.getrandbits(8) for _ in range(16)
        )
        if session.role == "initiator":
            self._send_lmp(link, lmp.LmpSimplePairingNumber(session.local_nonce))

    # -- Passkey Entry (the 20-round commitment protocol)

    @staticmethod
    def _ssp_association(session: SspSession) -> AssociationModel:
        if session.local_oob or session.remote_oob:
            # Per spec, OOB is used when either side has received OOB
            # data; a side without data participates unverified (r=0).
            return AssociationModel.OUT_OF_BAND
        if session.role == "initiator":
            initiator_io = IoCapability(session.local_io)
            responder_io = IoCapability(session.remote_io)
        else:
            initiator_io = IoCapability(session.remote_io)
            responder_io = IoCapability(session.local_io)
        return select_association_model(initiator_io, responder_io)

    def _passkey_begin(self, link: AclLink) -> None:
        """Decide displayer/typist and collect the 6-digit passkey."""
        session = link.ssp
        if session.role == "initiator":
            initiator_io = IoCapability(session.local_io)
            responder_io = IoCapability(session.remote_io)
        else:
            initiator_io = IoCapability(session.remote_io)
            responder_io = IoCapability(session.local_io)
        displayer_is_init = passkey_displayer_is_initiator(
            initiator_io, responder_io
        )
        session.displays_passkey = (
            session.role == "initiator"
        ) == displayer_is_init
        if session.displays_passkey:
            self._passkey_set(link, self._rng.randrange(0, 1_000_000))
            self._send_event(
                evt.UserPasskeyNotification(
                    bd_addr=link.peer_addr, passkey=session.passkey
                )
            )
        else:
            self._pending_passkey[link.peer_addr] = (
                lambda value: self._passkey_entered(link, value)
            )
            self._send_event(evt.UserPasskeyRequest(bd_addr=link.peer_addr))

    def _passkey_set(self, link: AclLink, passkey: int) -> None:
        session = link.ssp
        session.passkey = passkey
        session.local_r = passkey.to_bytes(16, "little")
        session.peer_r = session.local_r
        self._passkey_maybe_start(link)
        if session.pending_round_pdu is not None:
            pdu = session.pending_round_pdu
            session.pending_round_pdu = None
            self._lmp_passkey_confirm(link, pdu)

    def _passkey_entered(self, link: AclLink, value: Optional[int]) -> None:
        if link.ssp is None:
            return
        if value is None:
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        self._passkey_set(link, value)

    def _passkey_maybe_start(self, link: AclLink) -> None:
        session = link.ssp
        if (
            session.role == "initiator"
            and session.passkey is not None
            and session.peer_public is not None
            and not session.rounds_started
        ):
            session.rounds_started = True
            self._passkey_send_commit(link)

    def _passkey_z(self, session: SspSession) -> bytes:
        bit = (session.passkey >> session.passkey_round) & 1
        return bytes([0x80 | bit])

    def _passkey_send_commit(self, link: AclLink) -> None:
        session = link.ssp
        session.round_local_nonce = bytes(
            self._rng.getrandbits(8) for _ in range(16)
        )
        commitment = session.f1(
            session.keypair.public.x_bytes(),
            session.peer_public.x_bytes(),
            session.round_local_nonce,
            self._passkey_z(session),
        )
        self._send_lmp(
            link, lmp.LmpPasskeyConfirm(session.passkey_round, commitment)
        )

    def _lmp_passkey_confirm(self, link: AclLink, pdu: lmp.LmpPasskeyConfirm) -> None:
        session = link.ssp
        if session is None or session.association is not AssociationModel.PASSKEY_ENTRY:
            return
        if session.passkey is None:
            # Our user hasn't typed the passkey yet: park the round.
            session.pending_round_pdu = pdu
            return
        if pdu.round_index != session.passkey_round:
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        session.round_peer_commitment = pdu.commitment
        if session.role == "responder":
            # Answer the initiator's Ca_i with our Cb_i.
            session.rounds_started = True
            self._passkey_send_commit(link)
        else:
            # Got Cb_i: reveal Na_i.
            self._send_lmp(
                link,
                lmp.LmpPasskeyNumber(
                    session.passkey_round, session.round_local_nonce
                ),
            )

    def _lmp_passkey_number(self, link: AclLink, pdu: lmp.LmpPasskeyNumber) -> None:
        session = link.ssp
        if session is None or session.association is not AssociationModel.PASSKEY_ENTRY:
            return
        if pdu.round_index != session.passkey_round:
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        expected = session.f1(
            session.peer_public.x_bytes(),
            session.keypair.public.x_bytes(),
            pdu.nonce,
            self._passkey_z(session),
        )
        if expected != session.round_peer_commitment:
            # A MITM (or a typo) guessed this passkey bit wrong.
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        session.peer_nonce = pdu.nonce
        session.local_nonce = session.round_local_nonce
        if session.role == "responder":
            self._send_lmp(
                link,
                lmp.LmpPasskeyNumber(
                    session.passkey_round, session.round_local_nonce
                ),
            )
            self._passkey_advance(link)
        else:
            self._passkey_advance(link)
            if link.ssp is not None and not link.ssp.stage2_started:
                if link.ssp.passkey_round < 20:
                    self._passkey_send_commit(link)

    def _passkey_advance(self, link: AclLink) -> None:
        session = link.ssp
        session.passkey_round += 1
        if session.passkey_round >= 20:
            # All 20 bits verified: stage 1 complete, no popup needed.
            session.local_confirmed = True
            session.peer_confirmed = True
            self._ssp_maybe_stage2(link)

    def _lmp_simple_pairing_confirm(
        self, link: AclLink, pdu: lmp.LmpSimplePairingConfirm
    ) -> None:
        session = link.ssp
        if session is None or session.role != "initiator":
            return
        session.peer_commitment = pdu.commitment
        session.local_nonce = bytes(self._rng.getrandbits(8) for _ in range(16))
        self._send_lmp(link, lmp.LmpSimplePairingNumber(session.local_nonce))

    def _lmp_simple_pairing_number(
        self, link: AclLink, pdu: lmp.LmpSimplePairingNumber
    ) -> None:
        session = link.ssp
        if session is None:
            return
        session.peer_nonce = pdu.nonce
        if session.association is AssociationModel.OUT_OF_BAND:
            # OOB stage 1: the commitment was verified via the side
            # channel; the nonce swap completes it with no user action.
            if session.role == "responder":
                if session.local_nonce is None:
                    return  # still waiting for our host's OOB reply
                self._send_lmp(
                    link, lmp.LmpSimplePairingNumber(session.local_nonce)
                )
            session.local_confirmed = True
            session.peer_confirmed = True
            self._ssp_maybe_stage2(link)
            return
        if session.peer_public is None or session.local_nonce is None:
            # The public-key exchange never completed (e.g. the PDU was
            # lost on a degraded channel) yet the peer advanced to the
            # nonce swap — the state machine cannot continue; fail the
            # pairing cleanly instead of wedging or crashing.
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        if session.role == "responder":
            # Got Na; reveal Nb, then both sides confirm.
            self._send_lmp(link, lmp.LmpSimplePairingNumber(session.local_nonce))
            self._ssp_request_confirmation(link)
        else:
            # Got Nb; verify the earlier commitment.
            expected = session.f1(
                session.peer_public.x_bytes(),
                session.keypair.public.x_bytes(),
                session.peer_nonce,
                b"\x00",
            )
            if expected != session.peer_commitment:
                self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
                return
            self._ssp_request_confirmation(link)

    def _ssp_request_confirmation(self, link: AclLink) -> None:
        session = link.ssp
        if session.role == "initiator":
            pka, pkb = session.keypair.public, session.peer_public
            na, nb = session.local_nonce, session.peer_nonce
        else:
            pka, pkb = session.peer_public, session.keypair.public
            na, nb = session.peer_nonce, session.local_nonce
        session.numeric_value = g_numeric(pka.x_bytes(), pkb.x_bytes(), na, nb)
        self._pending_confirm[link.peer_addr] = (
            lambda accepted: self._ssp_local_confirmation(link, accepted)
        )
        self._send_event(
            evt.UserConfirmationRequest(
                bd_addr=link.peer_addr, numeric_value=session.numeric_value
            )
        )

    def _ssp_local_confirmation(self, link: AclLink, accepted: bool) -> None:
        session = link.ssp
        if session is None:
            return
        if not accepted:
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        session.local_confirmed = True
        self._send_lmp(link, lmp.LmpStage1Confirmed())
        self._ssp_maybe_stage2(link)

    def _lmp_stage1_confirmed(
        self, link: AclLink, pdu: lmp.LmpStage1Confirmed
    ) -> None:
        session = link.ssp
        if session is None:
            return
        session.peer_confirmed = True
        self._ssp_maybe_stage2(link)

    def _ssp_maybe_stage2(self, link: AclLink) -> None:
        session = link.ssp
        if not (session.local_confirmed and session.peer_confirmed):
            return
        if session.stage2_started:
            return
        session.stage2_started = True
        session.dhkey = ecdh_shared_secret(
            session.keypair.private, session.peer_public
        )
        if session.pending_peer_check is not None:
            check = session.pending_peer_check
            session.pending_peer_check = None
            self._lmp_dhkey_check(link, lmp.LmpDhkeyCheck(check))
            return
        if session.role == "initiator":
            check = session.f3(
                session.local_nonce,
                session.peer_nonce,
                session.local_r,
                io_cap_bytes(
                    IoCapability(session.local_io),
                    bool(session.local_oob),
                    session.local_auth_req,
                ),
                self._bd_addr,
                link.peer_addr,
            )
            self._send_lmp(link, lmp.LmpDhkeyCheck(check))

    def _lmp_dhkey_check(self, link: AclLink, pdu: lmp.LmpDhkeyCheck) -> None:
        session = link.ssp
        if session is None:
            return
        if session.dhkey is None:
            # Stage 2 hasn't started locally (our user hasn't confirmed
            # yet); park the peer's check until it does.
            session.pending_peer_check = pdu.check
            return
        expected = session.f3(
            session.peer_nonce,
            session.local_nonce,
            session.peer_r,
            io_cap_bytes(
                IoCapability(session.remote_io),
                bool(session.remote_oob),
                session.remote_auth_req,
            ),
            link.peer_addr,
            self._bd_addr,
        )
        if pdu.check != expected:
            self._ssp_fail(link, ErrorCode.AUTHENTICATION_FAILURE)
            return
        if session.role == "responder":
            check = session.f3(
                session.local_nonce,
                session.peer_nonce,
                session.local_r,
                io_cap_bytes(
                    IoCapability(session.local_io),
                    bool(session.local_oob),
                    session.local_auth_req,
                ),
                self._bd_addr,
                link.peer_addr,
            )
            self._send_lmp(link, lmp.LmpDhkeyCheck(check))
        self._ssp_complete(link)

    def _ssp_complete(self, link: AclLink) -> None:
        session = link.ssp
        if session.role == "initiator":
            link_key = session.f2(
                session.local_nonce, session.peer_nonce, self._bd_addr, link.peer_addr
            )
        else:
            link_key = session.f2(
                session.peer_nonce, session.local_nonce, link.peer_addr, self._bd_addr
            )
        link.link_key = link_key
        # An authenticated key requires a MITM-protected association
        # model; Just Works always yields an unauthenticated key.
        unauthenticated = (
            session.association is AssociationModel.JUST_WORKS
            if session.association is not None
            else session.just_works
        )
        if session.curve is P256:
            key_type = (
                LinkKeyType.UNAUTHENTICATED_COMBINATION_P256
                if unauthenticated
                else LinkKeyType.AUTHENTICATED_COMBINATION_P256
            )
        else:
            key_type = (
                LinkKeyType.UNAUTHENTICATED_COMBINATION_P192
                if unauthenticated
                else LinkKeyType.AUTHENTICATED_COMBINATION_P192
            )
        # SSP also yields an ACO equivalent for encryption startup.
        link.aco = session.dhkey[:12]
        self._send_event(evt.SimplePairingComplete(status=0, bd_addr=link.peer_addr))
        self._send_event(
            evt.LinkKeyNotification(
                bd_addr=link.peer_addr, link_key=link_key, key_type=key_type
            )
        )
        if link.auth_requested_by_host:
            self._send_event(
                evt.AuthenticationComplete(status=0, connection_handle=link.handle)
            )
        link.ssp = None

    def _ssp_fail(
        self, link: AclLink, reason: int, notify_peer: bool = True
    ) -> None:
        if link.ssp is None:
            return
        link.ssp = None
        if notify_peer:
            self._send_lmp(link, lmp.LmpNotAccepted("user_confirmation", reason))
        self._send_event(
            evt.SimplePairingComplete(status=reason, bd_addr=link.peer_addr)
        )
        if link.auth_requested_by_host:
            self._send_event(
                evt.AuthenticationComplete(
                    status=reason, connection_handle=link.handle
                )
            )

    # -- LMP: encryption

    def _lmp_start_encryption(
        self, link: AclLink, pdu: lmp.LmpStartEncryption
    ) -> None:
        if link.link_key is None or link.aco is None:
            return
        kc = e3(link.link_key, pdu.en_rand, link.aco)
        link.kc = reduce_key_entropy(kc, link.encryption_key_size)
        link.encryption_enabled = True
        link.tx_seq = link.rx_seq = 0
        self._send_event(
            evt.EncryptionChange(
                status=0, connection_handle=link.handle, encryption_enabled=1
            )
        )

    def _lmp_stop_encryption(self, link: AclLink, pdu: lmp.LmpStopEncryption) -> None:
        link.encryption_enabled = False
        self._send_event(
            evt.EncryptionChange(
                status=0, connection_handle=link.handle, encryption_enabled=0
            )
        )

    # -- ACL data path

    def _master_addr(self, link: AclLink) -> BdAddr:
        """The piconet master's address keys the E0 clock input."""
        if link.is_initiator:
            return self._bd_addr
        return link.peer_addr

    def _handle_acl_from_host(self, packet: HciAclData) -> None:
        link = self._links_by_handle.get(packet.handle)
        if link is None or link.state is not LinkState.CONNECTED:
            return
        data = packet.data
        encrypted = False
        if link.encryption_enabled and link.kc is not None:
            clock = (1 if link.is_initiator else 2) << 24 | link.tx_seq
            data = e0_encrypt(link.kc, self._master_addr(link), clock, data)
            link.tx_seq += 1
            encrypted = True
        link.last_activity = self.simulator.now
        self.medium.send_frame(
            link.phys,
            self,
            AirFrame(kind="acl", payload=lmp.AclPayload(data), encrypted=encrypted),
        )

    def _handle_acl_from_air(self, link: AclLink, frame: AirFrame) -> None:
        data = frame.payload.data
        if frame.encrypted:
            if not link.encryption_enabled or link.kc is None:
                return  # cannot decrypt; drop
            clock = (2 if link.is_initiator else 1) << 24 | link.rx_seq
            data = e0_encrypt(link.kc, self._master_addr(link), clock, data)
            link.rx_seq += 1
        self.transport.send_from_controller(HciAclData(link.handle, data))

    _LMP_HANDLERS: Dict[type, Callable] = {}

    # ------------------------------------------------------------- inspection

    @property
    def connections(self) -> List[AclLink]:
        return list(self._links_by_handle.values())

    def link_by_handle(self, handle: int) -> Optional[AclLink]:
        return self._links_by_handle.get(handle)


Controller._COMMAND_HANDLERS = {
    Opcode.RESET: Controller._cmd_reset,
    Opcode.SET_EVENT_MASK: Controller._cmd_noop_complete,
    Opcode.WRITE_SCAN_ENABLE: Controller._cmd_write_scan_enable,
    Opcode.WRITE_CLASS_OF_DEVICE: Controller._cmd_write_cod,
    Opcode.WRITE_LOCAL_NAME: Controller._cmd_write_local_name,
    Opcode.READ_LOCAL_NAME: Controller._cmd_read_local_name,
    Opcode.WRITE_PAGE_TIMEOUT: Controller._cmd_write_page_timeout,
    Opcode.WRITE_PAGE_SCAN_ACTIVITY: Controller._cmd_write_page_scan_activity,
    Opcode.WRITE_INQUIRY_SCAN_ACTIVITY: Controller._cmd_write_inquiry_scan_activity,
    Opcode.WRITE_AUTHENTICATION_ENABLE: Controller._cmd_write_auth_enable,
    Opcode.WRITE_INQUIRY_MODE: Controller._cmd_write_inquiry_mode,
    Opcode.WRITE_EXTENDED_INQUIRY_RESPONSE: Controller._cmd_noop_complete,
    Opcode.WRITE_SIMPLE_PAIRING_MODE: Controller._cmd_write_ssp_mode,
    Opcode.WRITE_SECURE_CONNECTIONS_HOST_SUPPORT: Controller._cmd_write_sc_support,
    Opcode.READ_BD_ADDR: Controller._cmd_read_bd_addr,
    Opcode.READ_LOCAL_VERSION_INFORMATION: Controller._cmd_noop_complete,
    Opcode.READ_LOCAL_SUPPORTED_FEATURES: Controller._cmd_noop_complete,
    Opcode.INQUIRY: Controller._cmd_inquiry,
    Opcode.INQUIRY_CANCEL: Controller._cmd_inquiry_cancel,
    Opcode.CREATE_CONNECTION: Controller._cmd_create_connection,
    Opcode.CREATE_CONNECTION_CANCEL: Controller._cmd_create_connection_cancel,
    Opcode.ACCEPT_CONNECTION_REQUEST: Controller._cmd_accept_connection,
    Opcode.REJECT_CONNECTION_REQUEST: Controller._cmd_reject_connection,
    Opcode.DISCONNECT: Controller._cmd_disconnect,
    Opcode.AUTHENTICATION_REQUESTED: Controller._cmd_authentication_requested,
    Opcode.LINK_KEY_REQUEST_REPLY: Controller._cmd_link_key_reply,
    Opcode.LINK_KEY_REQUEST_NEGATIVE_REPLY: Controller._cmd_link_key_negative_reply,
    Opcode.IO_CAPABILITY_REQUEST_REPLY: Controller._cmd_io_capability_reply,
    Opcode.IO_CAPABILITY_REQUEST_NEGATIVE_REPLY: (
        Controller._cmd_io_capability_negative_reply
    ),
    Opcode.USER_CONFIRMATION_REQUEST_REPLY: Controller._cmd_user_confirmation_reply,
    Opcode.USER_CONFIRMATION_REQUEST_NEGATIVE_REPLY: (
        Controller._cmd_user_confirmation_negative_reply
    ),
    Opcode.USER_PASSKEY_REQUEST_REPLY: Controller._cmd_user_passkey_reply,
    Opcode.USER_PASSKEY_REQUEST_NEGATIVE_REPLY: (
        Controller._cmd_user_passkey_negative_reply
    ),
    Opcode.PIN_CODE_REQUEST_REPLY: Controller._cmd_pin_code_reply,
    Opcode.READ_LOCAL_OOB_DATA: Controller._cmd_read_local_oob_data,
    Opcode.REMOTE_OOB_DATA_REQUEST_REPLY: Controller._cmd_remote_oob_reply,
    Opcode.REMOTE_OOB_DATA_REQUEST_NEGATIVE_REPLY: (
        Controller._cmd_remote_oob_negative_reply
    ),
    Opcode.PIN_CODE_REQUEST_NEGATIVE_REPLY: Controller._cmd_pin_code_negative_reply,
    Opcode.SET_CONNECTION_ENCRYPTION: Controller._cmd_set_connection_encryption,
    Opcode.SETUP_SYNCHRONOUS_CONNECTION: (
        Controller._cmd_setup_synchronous_connection
    ),
    Opcode.WRITE_STORED_LINK_KEY: Controller._cmd_write_stored_link_key,
    Opcode.READ_STORED_LINK_KEY: Controller._cmd_read_stored_link_key,
    Opcode.DELETE_STORED_LINK_KEY: Controller._cmd_delete_stored_link_key,
    Opcode.REMOTE_NAME_REQUEST: Controller._cmd_remote_name_request,
}

Controller._LMP_HANDLERS = {
    lmp.LmpConnectionAccepted: Controller._lmp_connection_accepted,
    lmp.LmpConnectionRejected: Controller._lmp_connection_rejected,
    lmp.LmpDetach: Controller._lmp_detach,
    lmp.LmpAuRand: Controller._lmp_au_rand,
    lmp.LmpSres: Controller._lmp_sres,
    lmp.LmpAuRandSC: Controller._lmp_au_rand_sc,
    lmp.LmpScAuthResponse: Controller._lmp_sc_auth_response,
    lmp.LmpScAuthConfirm: Controller._lmp_sc_auth_confirm,
    lmp.LmpNotAccepted: Controller._lmp_not_accepted,
    lmp.LmpIoCapabilityReq: Controller._lmp_io_capability_req,
    lmp.LmpIoCapabilityRes: Controller._lmp_io_capability_res,
    lmp.LmpEncapsulatedKey: Controller._lmp_encapsulated_key,
    lmp.LmpSimplePairingConfirm: Controller._lmp_simple_pairing_confirm,
    lmp.LmpSimplePairingNumber: Controller._lmp_simple_pairing_number,
    lmp.LmpPasskeyConfirm: Controller._lmp_passkey_confirm,
    lmp.LmpPasskeyNumber: Controller._lmp_passkey_number,
    lmp.LmpFeaturesInfo: Controller._lmp_features_info,
    lmp.LmpInRand: Controller._lmp_in_rand,
    lmp.LmpCombKey: Controller._lmp_comb_key,
    lmp.LmpLegacyComplete: Controller._lmp_legacy_complete,
    lmp.LmpStage1Confirmed: Controller._lmp_stage1_confirmed,
    lmp.LmpDhkeyCheck: Controller._lmp_dhkey_check,
    lmp.LmpStartEncryption: Controller._lmp_start_encryption,
    lmp.LmpStopEncryption: Controller._lmp_stop_encryption,
    lmp.LmpEncryptionKeySizeReq: Controller._lmp_encryption_key_size_req,
    lmp.LmpEncryptionKeySizeRes: Controller._lmp_encryption_key_size_res,
    lmp.LmpScoSetup: Controller._lmp_sco_setup,
}
