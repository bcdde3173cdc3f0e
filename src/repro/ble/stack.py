"""The LE vertical slice: advertising, connections, SMP, link encryption.

One :class:`BleStack` per LE-capable device sits directly on the shared
:class:`~repro.phy.medium.RadioMedium` (there is no separate LE
controller model — the stack *is* the link layer plus host SMP), and
shares the device's :class:`~repro.host.security.SecurityManager` so LE
bonds land in the same persistent stores the BR/EDR attacks raid.

Determinism: every stack draws from its own named RNG streams
(``ble:<name>`` for link-layer material, ``ble-smp:<name>`` for pairing
keys and nonces), so adding LE devices to a world never perturbs
existing BR/EDR draws — the rule that keeps golden artifacts stable.

Timeout guard: :meth:`connect` mirrors ``Gap.CONNECT_TIMEOUT`` — when a
CONNECT_IND is garbled or blackholed by a fault plan nobody ever
answers, and the scheduled guard fails the operation instead of
hanging the trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.types import BdAddr, IoCapability, LinkKey
from repro.crypto.aes import aes_ccm_decrypt, aes_ccm_encrypt
from repro.crypto.smp import (
    bredr_link_key_from_le_ltk,
    le_ltk_from_bredr_link_key,
    le_session_key,
)
from repro.ble.pdus import (
    SMP_PDUS,
    AdvPayload,
    LeDataPdu,
    LlEncReq,
    LlEncRsp,
    LlRejectInd,
    LlStartEnc,
)
from repro.ble.smp import JUST_WORKS, NUMERIC_COMPARISON, SmpEngine
from repro.hci.constants import ErrorCode
from repro.host.operations import Operation
from repro.phy.medium import AirFrame, PhysicalLink, RadioMedium
from repro.sim.eventloop import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

if TYPE_CHECKING:
    from repro.host.security import SecurityManager


# BR/EDR link key types CTKD produces (P-256 derived material).
_CTKD_KEY_TYPE = {
    JUST_WORKS: 0x07,  # Unauthenticated Combination Key (P-256)
    NUMERIC_COMPARISON: 0x08,  # Authenticated Combination Key (P-256)
}


@dataclass
class LeConnection:
    """One live LE link, from this stack's point of view."""

    link: PhysicalLink
    peer_addr: BdAddr
    role: str  # "central" | "peripheral"
    smp: Optional[SmpEngine] = None
    encrypted: bool = False
    session_key: Optional[bytes] = None
    iv: bytes = b""
    tx_count: int = 0
    rx_count: int = 0
    pending_skd_m: bytes = b""
    pending_iv_m: bytes = b""
    enc_operation: Optional[Operation] = None
    ltk_origin: str = ""
    received: List[Tuple[float, bytes]] = field(default_factory=list)


class _StandaloneBonds:
    """Minimal in-memory bond store for stacks built without a host.

    Quacks like the slice of :class:`SecurityManager` the LE layer
    uses; LE-only devices (no BR/EDR host stack) get one of these.
    """

    def __init__(self) -> None:
        from repro.host.storage import BondingRecord

        self._record_cls = BondingRecord
        self.keys: Dict[BdAddr, Any] = {}

    def bond_for(self, addr: BdAddr):
        return self.keys.get(addr)

    def le_ltk_for(self, addr: BdAddr) -> Optional[LinkKey]:
        record = self.keys.get(addr)
        return record.ltk if record is not None else None

    def set_le_bond(self, addr, ltk, origin, association="", name=""):
        import dataclasses as _dc

        existing = self.keys.get(addr)
        if existing is not None:
            record = _dc.replace(
                existing, ltk=ltk, ltk_origin=origin,
                le_association=association or existing.le_association,
            )
        else:
            record = self._record_cls(
                addr=addr, link_key=None, name=name, ltk=ltk,
                ltk_origin=origin, le_association=association,
            )
        self.keys[addr] = record
        return record

    def add_bond(self, record) -> None:
        self.keys[record.addr] = record


class BleStack:
    """LE link layer + SMP for one device."""

    TRACE_SOURCE = "ble"

    #: mirrors Gap.CONNECT_TIMEOUT for the LE transport: how long a
    #: CONNECT_IND may go unanswered before the operation fails
    LE_CONNECT_TIMEOUT = 10.0

    def __init__(
        self,
        simulator: Simulator,
        medium: RadioMedium,
        rng: RngRegistry,
        name: str,
        addr: BdAddr,
        io_capability: IoCapability = IoCapability.DISPLAY_YES_NO,
        dual_mode: bool = False,
        security: Optional["SecurityManager"] = None,
        tracer: Optional[Tracer] = None,
        metrics=None,
    ) -> None:
        self.simulator = simulator
        self.medium = medium
        self.name = name
        self.io_capability = io_capability
        self.dual_mode = dual_mode
        self.security = security if security is not None else _StandaloneBonds()
        self.tracer = tracer if tracer is not None else Tracer()
        self._rng = rng.stream(f"ble:{name}")
        self._smp_rng = rng.stream(f"ble-smp:{name}")
        if metrics is None:
            from repro.obs.metrics import get_global_registry

            metrics = get_global_registry()
        self._m_pairings = metrics.counter("ble.pairings")
        self._m_pairing_failures = metrics.counter("ble.pairing_failures")
        self._m_sessions = metrics.counter("ble.encrypted_sessions")
        self._m_ctkd = metrics.counter("ble.ctkd_derivations")
        self._le_addr = addr
        self.powered = False
        self.le_scan_enabled = False
        self.le_connectable = False
        self.adv_interval_s = 0.16
        self.adv_payload: Optional[AdvPayload] = None
        self._adv_event = None
        #: pairing policy knobs
        self.accept_pairing = True
        self.numeric_comparison_autoconfirm = True
        #: distribute the LinkKey bit (request CTKD) — defaults to
        #: dual-mode devices, which are the only ones it helps
        self.ctkd_enabled = dual_mode
        self.ct2 = True
        #: (time, advertiser addr, payload) seen while scanning
        self.observed_advertisements: List[Tuple[float, BdAddr, AdvPayload]] = []
        self._conns: Dict[BdAddr, LeConnection] = {}
        self._by_link: Dict[int, LeConnection] = {}
        self._pair_ops: Dict[BdAddr, Operation] = {}

    # -- identity ----------------------------------------------------------

    @property
    def le_addr(self) -> BdAddr:
        return self._le_addr

    def set_le_addr(self, addr: BdAddr) -> None:
        """Change the advertising address (spoofing); reindexes the medium."""
        self._le_addr = addr
        self.medium.notify_le_addr_changed(self)

    # -- power / advertising / scanning ------------------------------------

    def power_on(
        self,
        advertise: bool = True,
        scan: bool = False,
        adv_interval_s: float = 0.16,
    ) -> None:
        self.powered = True
        self.medium.register_le(self)
        self.le_scan_enabled = scan
        self.le_connectable = advertise
        self.adv_interval_s = adv_interval_s
        self.adv_payload = AdvPayload(
            name=self.name, connectable=advertise, dual_mode=self.dual_mode
        )
        if advertise and self._adv_event is None:
            # Desynchronise advertisers with a random initial phase.
            self._adv_event = self.simulator.schedule(
                self._rng.uniform(0.0, adv_interval_s), self._advertise_tick
            )

    def _advertise_tick(self) -> None:
        if not self.powered or not self.le_connectable:
            self._adv_event = None
            return
        self.medium.le_advertise(self, self.adv_payload)
        self._adv_event = self.simulator.schedule(
            self.adv_interval_s, self._advertise_tick
        )

    def on_le_advertisement(self, advertiser: BdAddr, payload: AdvPayload) -> None:
        self.observed_advertisements.append(
            (self.simulator.now, advertiser, payload)
        )

    # -- connections -------------------------------------------------------

    def connect(self, addr: BdAddr) -> Operation:
        """Initiate an LE connection; guarded like ``Gap.connect``."""
        operation = Operation("le-connect")
        if addr in self._conns:
            operation.complete(result=self._conns[addr])
            return operation
        guard = self.simulator.schedule(
            self.LE_CONNECT_TIMEOUT, self._connect_guard, addr, operation
        )
        operation.on_done(lambda _op: guard.cancel())
        self.medium.le_connect(
            self, addr, lambda link: self._on_connect_result(addr, link, operation)
        )
        return operation

    def _connect_guard(self, addr: BdAddr, operation: Operation) -> None:
        if operation.done:
            return
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-conn",
            f"{self.name}: LE connect to {addr} timed out",
            peer=str(addr),
        )
        operation.fail(ErrorCode.CONNECTION_TIMEOUT)

    def _on_connect_result(
        self, addr: BdAddr, link: Optional[PhysicalLink], operation: Operation
    ) -> None:
        if operation.done:
            return
        if link is None:
            operation.fail(ErrorCode.CONNECTION_TIMEOUT)
            return
        conn = LeConnection(link=link, peer_addr=addr, role="central")
        self._conns[addr] = conn
        self._by_link[link.link_id] = conn
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-conn",
            f"{self.name}: LE link {link.link_id} up to {addr} (central)",
            peer=str(addr),
            role="central",
        )
        operation.complete(result=conn)

    def on_le_connect(self, link: PhysicalLink, initiator) -> None:
        conn = LeConnection(
            link=link, peer_addr=initiator.le_addr, role="peripheral"
        )
        self._conns[conn.peer_addr] = conn
        self._by_link[link.link_id] = conn
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-conn",
            f"{self.name}: LE link {link.link_id} up from {conn.peer_addr} "
            "(peripheral)",
            peer=str(conn.peer_addr),
            role="peripheral",
        )

    def disconnect(self, addr: BdAddr) -> None:
        conn = self._conns.get(addr)
        if conn is not None:
            self.medium.drop_link(conn.link, 0x13)

    def connection_for(self, addr: BdAddr) -> Optional[LeConnection]:
        return self._conns.get(addr)

    def on_link_dropped(self, link: PhysicalLink, reason: int) -> None:
        conn = self._by_link.pop(link.link_id, None)
        if conn is None:
            return
        self._conns.pop(conn.peer_addr, None)
        operation = self._pair_ops.pop(conn.peer_addr, None)
        if operation is not None and not operation.done:
            operation.fail(reason)
        if conn.enc_operation is not None and not conn.enc_operation.done:
            conn.enc_operation.fail(reason)

    # -- pairing -----------------------------------------------------------

    def pair(self, addr: BdAddr) -> Operation:
        operation = Operation("le-pair")
        conn = self._conns.get(addr)
        if conn is None:
            operation.fail(ErrorCode.UNKNOWN_CONNECTION_IDENTIFIER)
            return operation
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-smp",
            f"{self.name}: SMP pairing with {addr} started",
            peer=str(addr),
        )
        conn.smp = SmpEngine(self, conn, initiator=True, operation=operation)
        self._pair_ops[addr] = operation
        conn.smp.start()
        return operation

    def _confirm_numeric_comparison(self, addr: BdAddr, value: int) -> bool:
        """Policy hook: the user compares the 6-digit values."""
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-smp",
            f"{self.name}: numeric comparison {value:06d} with {addr}",
            peer=str(addr),
            value=value,
        )
        return self.numeric_comparison_autoconfirm

    def _send_smp(self, conn: LeConnection, pdu) -> None:
        self.medium.send_frame(
            conn.link, self, AirFrame(kind="smp", payload=pdu)
        )

    def _pairing_failed(self, conn: LeConnection, engine: SmpEngine, reason: int) -> None:
        self._m_pairing_failures.inc()
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-smp",
            f"{self.name}: SMP pairing with {conn.peer_addr} failed "
            f"(reason={reason:#04x})",
            peer=str(conn.peer_addr),
            reason=reason,
        )
        operation = self._pair_ops.pop(conn.peer_addr, None)
        if operation is not None and not operation.done:
            operation.fail(reason)

    def _pairing_complete(self, conn: LeConnection, engine: SmpEngine) -> None:
        self._m_pairings.inc()
        ltk = LinkKey(engine.ltk)
        self.security.set_le_bond(
            conn.peer_addr,
            ltk,
            origin="smp",
            association=engine.method,
        )
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-smp",
            f"{self.name}: SMP pairing with {conn.peer_addr} complete "
            f"({engine.method})",
            peer=str(conn.peer_addr),
            association=engine.method,
            initiator=engine.initiator,
        )
        if engine.ctkd_negotiated:
            self.derive_bredr_from_le(
                conn.peer_addr, ltk, engine.method, engine.ct2_negotiated
            )
        operation = self._pair_ops.pop(conn.peer_addr, None)
        if operation is not None and not operation.done:
            operation.complete(result=engine.method)

    # -- cross-transport key derivation ------------------------------------

    def adopt_bredr_bond(self, peer_addr: BdAddr, ct2: bool = True) -> LinkKey:
        """BR/EDR→LE CTKD: convert our bonded link key into an LE LTK.

        Models what a dual-mode stack does after BR/EDR SSP with the
        LinkKey distribution bit negotiated (Vol 3 Part H §2.4.2.4).
        """
        record = self.security.bond_for(peer_addr)
        if record is None or record.link_key is None:
            raise ValueError(f"{self.name}: no BR/EDR bond with {peer_addr}")
        ltk = LinkKey(le_ltk_from_bredr_link_key(record.link_key.value, ct2=ct2))
        prior = self.security.le_ltk_for(peer_addr)
        overwrote = prior is not None and prior != ltk
        self.security.set_le_bond(peer_addr, ltk, origin="ctkd")
        self._m_ctkd.inc()
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-ctkd",
            f"{self.name}: derived LE LTK from BR/EDR link key for {peer_addr}",
            peer=str(peer_addr),
            direction="bredr-to-le",
            overwrote=overwrote,
            ct2=ct2,
            source_key_type=record.key_type,
        )
        return ltk

    def derive_bredr_from_le(
        self, peer_addr: BdAddr, ltk: LinkKey, association: str, ct2: bool
    ) -> LinkKey:
        """LE→BR/EDR CTKD: convert a fresh LTK into a BR/EDR link key.

        This is the BLURtooth overwrite: a Just Works LE pairing can
        replace an *authenticated* BR/EDR combination key with
        unauthenticated cross-derived material.
        """
        import dataclasses as _dc

        link_key = LinkKey(bredr_link_key_from_le_ltk(ltk.value, ct2=ct2))
        prior = self.security.bond_for(peer_addr)
        prior_key = prior.link_key if prior is not None else None
        overwrote = prior_key is not None and prior_key != link_key
        prior_key_type = prior.key_type if prior is not None else 0
        key_type = _CTKD_KEY_TYPE.get(association, 0x07)
        record = self.security.bond_for(peer_addr)
        if record is not None:
            self.security.add_bond(
                _dc.replace(record, link_key=link_key, key_type=key_type)
            )
        else:
            from repro.host.storage import BondingRecord

            self.security.add_bond(
                BondingRecord(
                    addr=peer_addr, link_key=link_key, key_type=key_type
                )
            )
        self._m_ctkd.inc()
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-ctkd",
            f"{self.name}: derived BR/EDR link key from LE LTK for {peer_addr}",
            peer=str(peer_addr),
            direction="le-to-bredr",
            association=association,
            overwrote=overwrote,
            prior_key_type=prior_key_type,
            new_key_type=key_type,
            ct2=ct2,
        )
        return link_key

    # -- link encryption ---------------------------------------------------

    def start_encryption(self, addr: BdAddr) -> Operation:
        """Central-initiated LL encryption start using the bonded LTK."""
        operation = Operation("le-encrypt")
        conn = self._conns.get(addr)
        if conn is None:
            operation.fail(ErrorCode.UNKNOWN_CONNECTION_IDENTIFIER)
            return operation
        ltk = self.security.le_ltk_for(addr)
        if ltk is None:
            operation.fail(ErrorCode.PIN_OR_KEY_MISSING)
            return operation
        conn.pending_skd_m = bytes(self._rng.getrandbits(8) for _ in range(8))
        conn.pending_iv_m = bytes(self._rng.getrandbits(8) for _ in range(4))
        conn.enc_operation = operation
        self.medium.send_frame(
            conn.link,
            self,
            AirFrame(
                kind="le-control",
                payload=LlEncReq(skd_m=conn.pending_skd_m, iv_m=conn.pending_iv_m),
            ),
        )
        return operation

    def _session_up(self, conn: LeConnection, ltk: LinkKey, skd_m: bytes, iv_m: bytes, skd_s: bytes, iv_s: bytes) -> None:
        conn.session_key = le_session_key(ltk.value, skd_m, skd_s)
        conn.iv = iv_m + iv_s
        conn.tx_count = 0
        conn.rx_count = 0
        conn.encrypted = True
        record = self.security.bond_for(conn.peer_addr)
        conn.ltk_origin = record.ltk_origin if record is not None else ""
        self._m_sessions.inc()
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "ble-enc",
            f"{self.name}: LE link to {conn.peer_addr} now encrypted",
            peer=str(conn.peer_addr),
            role=conn.role,
            ltk_origin=conn.ltk_origin,
        )

    def _on_ll_control(self, conn: LeConnection, pdu) -> None:
        if isinstance(pdu, LlEncReq):
            ltk = self.security.le_ltk_for(conn.peer_addr)
            if ltk is None:
                self.medium.send_frame(
                    conn.link, self, AirFrame(kind="le-control", payload=LlRejectInd())
                )
                return
            skd_s = bytes(self._rng.getrandbits(8) for _ in range(8))
            iv_s = bytes(self._rng.getrandbits(8) for _ in range(4))
            self.medium.send_frame(
                conn.link,
                self,
                AirFrame(kind="le-control", payload=LlEncRsp(skd_s=skd_s, iv_s=iv_s)),
            )
            self._session_up(conn, ltk, pdu.skd_m, pdu.iv_m, skd_s, iv_s)
        elif isinstance(pdu, LlEncRsp):
            ltk = self.security.le_ltk_for(conn.peer_addr)
            if ltk is None or not conn.pending_skd_m:
                return
            self._session_up(
                conn, ltk, conn.pending_skd_m, conn.pending_iv_m, pdu.skd_s, pdu.iv_s
            )
            self.medium.send_frame(
                conn.link, self, AirFrame(kind="le-control", payload=LlStartEnc())
            )
            operation = conn.enc_operation
            conn.enc_operation = None
            if operation is not None and not operation.done:
                operation.complete()
        elif isinstance(pdu, LlRejectInd):
            operation = conn.enc_operation
            conn.enc_operation = None
            if operation is not None and not operation.done:
                operation.fail(pdu.reason)

    # -- data --------------------------------------------------------------

    def _nonce(self, conn: LeConnection, counter: int, direction_central: bool) -> bytes:
        # 13-byte CCM nonce: 4-byte counter || direction || 8-byte IV.
        return (
            counter.to_bytes(4, "big")
            + (b"\x01" if direction_central else b"\x00")
            + conn.iv
        )

    def send_data(self, addr: BdAddr, payload: bytes) -> bool:
        conn = self._conns.get(addr)
        if conn is None:
            return False
        if conn.encrypted:
            nonce = self._nonce(conn, conn.tx_count, conn.role == "central")
            ciphertext = aes_ccm_encrypt(conn.session_key, nonce, payload)
            conn.tx_count += 1
            frame = AirFrame(
                kind="le-data",
                payload=LeDataPdu(payload=ciphertext, encrypted=True),
                encrypted=True,
            )
        else:
            frame = AirFrame(
                kind="le-data", payload=LeDataPdu(payload=payload, encrypted=False)
            )
        self.medium.send_frame(conn.link, self, frame)
        return True

    def _on_le_data(self, conn: LeConnection, pdu: LeDataPdu) -> None:
        if pdu.encrypted:
            if not conn.encrypted:
                return
            nonce = self._nonce(conn, conn.rx_count, conn.role != "central")
            plaintext = aes_ccm_decrypt(conn.session_key, nonce, pdu.payload)
            conn.rx_count += 1
            if plaintext is None:
                self.tracer.emit(
                    self.simulator.now,
                    self.TRACE_SOURCE,
                    "ble-enc",
                    f"{self.name}: MIC failure on LE link from {conn.peer_addr}",
                    peer=str(conn.peer_addr),
                )
                return
            conn.received.append((self.simulator.now, plaintext))
        else:
            conn.received.append((self.simulator.now, pdu.payload))

    def received_payloads(self, addr: BdAddr) -> List[bytes]:
        conn = self._conns.get(addr)
        if conn is None:
            return []
        return [payload for _, payload in conn.received]

    # -- medium callback ---------------------------------------------------

    def on_air_frame(self, link: PhysicalLink, frame: AirFrame) -> None:
        conn = self._by_link.get(link.link_id)
        if conn is None:
            return
        if frame.kind == "smp":
            if conn.smp is None and isinstance(frame.payload, SMP_PDUS):
                conn.smp = SmpEngine(self, conn, initiator=False)
            if conn.smp is not None:
                conn.smp.handle(frame.payload)
        elif frame.kind == "le-control":
            self._on_ll_control(conn, frame.payload)
        elif frame.kind == "le-data":
            self._on_le_data(conn, frame.payload)
