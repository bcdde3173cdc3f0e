"""The Security Manager Protocol engine: LE Secure Connections pairing.

One :class:`SmpEngine` drives one pairing attempt over one LE
connection — the initiator role is created by
:meth:`repro.ble.stack.BleStack.pair`, the responder role lazily on the
first ``SmpPairingRequest`` that arrives.  The flow is the Secure
Connections (P-256 ECDH) flavour of Vol 3 Part H §2.3.5.6:

1. Pairing feature exchange (request/response) selects the association
   model: *numeric comparison* when both sides can display and confirm,
   *Just Works* as soon as either side is NoInputNoOutput.
2. P-256 public key exchange, responder commitment
   ``Cb = f4(PKbx, PKax, Nb, 0)``, nonce exchange, commitment check.
3. DHKey checks ``Ea``/``Eb`` via f5/f6 bind the keys, nonces,
   addresses and IO capabilities; both sides now share the LTK.
4. When both sides negotiated the LinkKey distribution bit, h6/h7
   Cross-Transport Key Derivation converts the fresh LTK into a BR/EDR
   link key — the step BLURtooth abuses, since a Just Works LE pairing
   can overwrite an *authenticated* BR/EDR bond.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.types import BdAddr, IoCapability
from repro.crypto.ecc import P256, EccPoint, ecdh_shared_secret, generate_keypair
from repro.crypto.smp import f4, f5, f6, g2
from repro.ble.pdus import (
    AUTH_BONDING,
    AUTH_CT2,
    AUTH_MITM,
    AUTH_SC,
    KEYDIST_ENC_KEY,
    KEYDIST_LINK_KEY,
    REASON_CONFIRM_FAILED,
    REASON_DHKEY_CHECK_FAILED,
    REASON_NUMERIC_COMPARISON_FAILED,
    REASON_PAIRING_NOT_SUPPORTED,
    SmpDhKeyCheck,
    SmpPairingConfirm,
    SmpPairingFailed,
    SmpPairingRandom,
    SmpPairingRequest,
    SmpPairingResponse,
    SmpPublicKey,
)

if TYPE_CHECKING:
    from repro.host.operations import Operation

JUST_WORKS = "just_works"
NUMERIC_COMPARISON = "numeric_comparison"


def addr7(addr: BdAddr, addr_type: int = 0) -> bytes:
    """The 7-byte address form f5/f6 consume: type || BD_ADDR (MSB first)."""
    return bytes([addr_type]) + addr.value


def _nonce(rng) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(16))


class SmpEngine:
    """State machine for one LE SC pairing attempt."""

    def __init__(self, stack, conn, initiator: bool, operation: Optional["Operation"] = None) -> None:
        self.stack = stack
        self.conn = conn
        self.initiator = initiator
        self.operation = operation
        self.request: Optional[SmpPairingRequest] = None
        self.response: Optional[SmpPairingResponse] = None
        self.keypair = None
        self.remote_point: Optional[EccPoint] = None
        self.local_nonce: Optional[bytes] = None
        self.remote_nonce: Optional[bytes] = None
        self.remote_confirm: Optional[bytes] = None
        self.method = JUST_WORKS
        self.mac_key: Optional[bytes] = None
        self.ltk: Optional[bytes] = None
        self.failed_reason: Optional[int] = None
        self.complete = False

    # -- helpers -----------------------------------------------------------

    def _auth_req(self) -> int:
        auth = AUTH_BONDING | AUTH_SC
        if self.stack.ct2:
            auth |= AUTH_CT2
        if int(self.stack.io_capability) != int(IoCapability.NO_INPUT_NO_OUTPUT):
            auth |= AUTH_MITM
        return auth

    def _key_dist(self) -> int:
        dist = KEYDIST_ENC_KEY
        if self.stack.ctkd_enabled:
            dist |= KEYDIST_LINK_KEY
        return dist

    def _select_method(self) -> None:
        nino = int(IoCapability.NO_INPUT_NO_OUTPUT)
        local = int(self.stack.io_capability)
        remote = int(
            self.response.io_capability if self.initiator else self.request.io_capability
        )
        if local == nino or remote == nino:
            self.method = JUST_WORKS
        else:
            self.method = NUMERIC_COMPARISON

    def _iocap_bytes(self, auth_req: int, io_capability: int) -> bytes:
        return bytes([auth_req, 0x00, io_capability])

    def _send(self, pdu) -> None:
        self.stack._send_smp(self.conn, pdu)

    def _fail(self, reason: int, notify_peer: bool = True) -> None:
        self.failed_reason = reason
        if notify_peer:
            self._send(SmpPairingFailed(reason=reason))
        self.stack._pairing_failed(self.conn, self, reason)

    # -- initiator entry ---------------------------------------------------

    def start(self) -> None:
        self.request = SmpPairingRequest(
            io_capability=int(self.stack.io_capability),
            auth_req=self._auth_req(),
            initiator_key_dist=self._key_dist(),
            responder_key_dist=self._key_dist(),
        )
        self._send(self.request)

    # -- dispatch ----------------------------------------------------------

    def handle(self, pdu) -> None:
        if self.complete or self.failed_reason is not None:
            return
        if isinstance(pdu, SmpPairingFailed):
            self.failed_reason = pdu.reason
            self.stack._pairing_failed(self.conn, self, pdu.reason)
            return
        handler = {
            SmpPairingRequest: self._on_request,
            SmpPairingResponse: self._on_response,
            SmpPublicKey: self._on_public_key,
            SmpPairingConfirm: self._on_confirm,
            SmpPairingRandom: self._on_random,
            SmpDhKeyCheck: self._on_dhkey_check,
        }.get(type(pdu))
        if handler is not None:
            handler(pdu)

    # -- responder side ----------------------------------------------------

    def _on_request(self, pdu: SmpPairingRequest) -> None:
        if self.initiator:
            return
        if not self.stack.accept_pairing:
            self._fail(REASON_PAIRING_NOT_SUPPORTED)
            return
        self.request = pdu
        self.response = SmpPairingResponse(
            io_capability=int(self.stack.io_capability),
            auth_req=self._auth_req(),
            initiator_key_dist=pdu.initiator_key_dist & self._key_dist(),
            responder_key_dist=pdu.responder_key_dist & self._key_dist(),
        )
        self._select_method()
        self._send(self.response)

    def _on_response(self, pdu: SmpPairingResponse) -> None:
        if not self.initiator:
            return
        self.response = pdu
        self._select_method()
        self.keypair = generate_keypair(P256, self.stack._smp_rng)
        self._send(SmpPublicKey(point=self.keypair.public.to_bytes()))

    def _on_public_key(self, pdu: SmpPublicKey) -> None:
        try:
            self.remote_point = EccPoint.from_bytes(P256, pdu.point)
        except ValueError:
            # An off-curve or malformed peer key ends the pairing here:
            # no DHKey is ever computed against it.
            self._fail(REASON_DHKEY_CHECK_FAILED)
            return
        if self.initiator:
            return
        # Responder: reply with our key, then commit to our nonce.
        self.keypair = generate_keypair(P256, self.stack._smp_rng)
        self._send(SmpPublicKey(point=self.keypair.public.to_bytes()))
        self.local_nonce = _nonce(self.stack._smp_rng)
        confirm = f4(
            self.keypair.public.x_bytes(),
            self.remote_point.x_bytes(),
            self.local_nonce,
            0x00,
        )
        self._send(SmpPairingConfirm(value=confirm))

    def _on_confirm(self, pdu: SmpPairingConfirm) -> None:
        if not self.initiator:
            return
        self.remote_confirm = pdu.value
        self.local_nonce = _nonce(self.stack._smp_rng)
        self._send(SmpPairingRandom(value=self.local_nonce))

    def _on_random(self, pdu: SmpPairingRandom) -> None:
        self.remote_nonce = pdu.value
        if self.initiator:
            # Authentication stage 1 check: the responder committed to
            # this nonce before seeing ours.
            expected = f4(
                self.remote_point.x_bytes(),
                self.keypair.public.x_bytes(),
                self.remote_nonce,
                0x00,
            )
            if expected != self.remote_confirm:
                self._fail(REASON_CONFIRM_FAILED)
                return
            if not self._user_confirms():
                self._fail(REASON_NUMERIC_COMPARISON_FAILED)
                return
            self._derive_keys()
            ea = f6(
                self.mac_key,
                self.local_nonce,
                self.remote_nonce,
                b"\x00" * 16,
                self._iocap_bytes(self.request.auth_req, self.request.io_capability),
                addr7(self.stack.le_addr),
                addr7(self.conn.peer_addr),
            )
            self._send(SmpDhKeyCheck(value=ea))
        else:
            # Responder: the initiator's nonce arrived; answer with ours.
            self._send(SmpPairingRandom(value=self.local_nonce))

    def _on_dhkey_check(self, pdu: SmpDhKeyCheck) -> None:
        if self.initiator:
            # Eb from the responder.
            eb = f6(
                self.mac_key,
                self.remote_nonce,
                self.local_nonce,
                b"\x00" * 16,
                self._iocap_bytes(
                    self.response.auth_req, self.response.io_capability
                ),
                addr7(self.conn.peer_addr),
                addr7(self.stack.le_addr),
            )
            if eb != pdu.value:
                self._fail(REASON_DHKEY_CHECK_FAILED)
                return
            self._finish()
        else:
            if not self._user_confirms():
                self._fail(REASON_NUMERIC_COMPARISON_FAILED)
                return
            self._derive_keys()
            # Ea from the initiator; initiator nonce is remote here.
            ea = f6(
                self.mac_key,
                self.remote_nonce,
                self.local_nonce,
                b"\x00" * 16,
                self._iocap_bytes(self.request.auth_req, self.request.io_capability),
                addr7(self.conn.peer_addr),
                addr7(self.stack.le_addr),
            )
            if ea != pdu.value:
                self._fail(REASON_DHKEY_CHECK_FAILED)
                return
            eb = f6(
                self.mac_key,
                self.local_nonce,
                self.remote_nonce,
                b"\x00" * 16,
                self._iocap_bytes(
                    self.response.auth_req, self.response.io_capability
                ),
                addr7(self.stack.le_addr),
                addr7(self.conn.peer_addr),
            )
            self._send(SmpDhKeyCheck(value=eb))
            self._finish()

    # -- stage 2 helpers ---------------------------------------------------

    def _user_confirms(self) -> bool:
        if self.method != NUMERIC_COMPARISON:
            return True
        if self.initiator:
            value = g2(
                self.keypair.public.x_bytes(),
                self.remote_point.x_bytes(),
                self.local_nonce,
                self.remote_nonce,
            )
        else:
            value = g2(
                self.remote_point.x_bytes(),
                self.keypair.public.x_bytes(),
                self.remote_nonce,
                self.local_nonce,
            )
        return self.stack._confirm_numeric_comparison(self.conn.peer_addr, value)

    def _derive_keys(self) -> None:
        dhkey = ecdh_shared_secret(self.keypair.private, self.remote_point)
        if self.initiator:
            n1, n2 = self.local_nonce, self.remote_nonce
            a1, a2 = addr7(self.stack.le_addr), addr7(self.conn.peer_addr)
        else:
            n1, n2 = self.remote_nonce, self.local_nonce
            a1, a2 = addr7(self.conn.peer_addr), addr7(self.stack.le_addr)
        self.mac_key, self.ltk = f5(dhkey, n1, n2, a1, a2)

    @property
    def ctkd_negotiated(self) -> bool:
        """Both sides set the LinkKey distribution bit → CTKD runs."""
        if self.request is None or self.response is None:
            return False
        return bool(
            self.request.initiator_key_dist
            & self.request.responder_key_dist
            & self.response.initiator_key_dist
            & self.response.responder_key_dist
            & KEYDIST_LINK_KEY
        )

    @property
    def ct2_negotiated(self) -> bool:
        if self.request is None or self.response is None:
            return False
        return bool(self.request.auth_req & self.response.auth_req & AUTH_CT2)

    def _finish(self) -> None:
        self.complete = True
        self.stack._pairing_complete(self.conn, self)
