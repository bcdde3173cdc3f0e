"""Mitigation 2 (§VII-A): encrypt link-key-bearing HCI payloads.

The dump filter cannot stop a hardware tap on the UART/USB lines.  If
the host and controller share a provisioned transport key, however,
the payload of key-carrying packets travels as ciphertext and neither
the dump nor a physical sniffer learns anything.

The paper notes this "may require major updates or revision of current
specifications"; we implement it as a drop-in transport: endpoints see
plaintext HCI, while every tap and sniffer sees the protected wire
image.  The cipher is a SHA-256-keystream XOR with a per-packet nonce
(the packet counter) — a stand-in for whatever AEAD a spec revision
would mandate; the experiment only needs confidentiality against a
passive tap.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.core.errors import TransportError
from repro.hci.constants import EventCode, Opcode, PacketIndicator
from repro.sim.eventloop import Simulator
from repro.transport.base import Direction
from repro.transport.uart import UartH4Transport
from repro.transport.usb import UsbTransport

#: wire prefixes of the packets whose payload must be protected
PROTECTED_SIGNATURES = (
    "HCI_Link_Key_Request_Reply",
    "HCI_Link_Key_Notification",
)

_COMMAND_OPCODE = Opcode.LINK_KEY_REQUEST_REPLY.to_bytes(2, "little")


class HciPayloadCipher:
    """XOR keystream cipher keyed by a host↔controller shared secret."""

    def __init__(self, transport_key: bytes) -> None:
        if len(transport_key) < 16:
            raise TransportError("transport key must be at least 16 bytes")
        self.transport_key = transport_key

    def _keystream(self, nonce: int, length: int) -> bytes:
        stream = bytearray()
        counter = 0
        while len(stream) < length:
            stream += hashlib.sha256(
                self.transport_key
                + nonce.to_bytes(8, "big")
                + counter.to_bytes(4, "big")
            ).digest()
            counter += 1
        return bytes(stream[:length])

    def process(self, nonce: int, payload: bytes) -> bytes:
        """Encrypt/decrypt (XOR is symmetric)."""
        stream = self._keystream(nonce, len(payload))
        return bytes(p ^ s for p, s in zip(payload, stream))


def _protected_span(raw: bytes) -> Optional[int]:
    """Offset where the protected payload starts, or None."""
    if not raw:
        return None
    if raw[0] == PacketIndicator.COMMAND and raw[1:3] == _COMMAND_OPCODE:
        return 4  # indicator + opcode(2) + length(1)
    if (
        raw[0] == PacketIndicator.EVENT
        and len(raw) >= 2
        and raw[1] == EventCode.LINK_KEY_NOTIFICATION
    ):
        return 3  # indicator + code(1) + length(1)
    return None


class SecureUsbTransport(UsbTransport):
    """USB transport with encrypted link-key payloads on the bus.

    This is the configuration the dump filter cannot provide: the
    paper's Windows victims leak keys to *physical* USB analyzers, and
    only wire-level payload encryption closes that channel.  Sniffers
    attached to this transport capture ciphertext for the protected
    packets (the packet bytes have no H4 indicator on USB, so the
    protected span shifts by one byte).
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str = "secure-usb0",
        idle_null_transfers: bool = True,
        transport_key: bytes = b"provisioned-transport-key-32byte",
    ) -> None:
        super().__init__(
            simulator, name=name, idle_null_transfers=idle_null_transfers
        )
        self.cipher = HciPayloadCipher(transport_key)
        self._nonce = 0
        self.protected_packets = 0

    def bus_image(self, h4: bytes) -> bytes:
        raw = h4[1:]
        offset = _protected_span(h4)
        if offset is None:
            return raw
        self.protected_packets += 1
        nonce = self._nonce
        self._nonce += 1
        body_offset = offset - 1  # USB payloads carry no indicator
        return raw[:body_offset] + self.cipher.process(nonce, raw[body_offset:])


class SecureUartTransport(UartH4Transport):
    """UART transport with encrypted link-key payloads on the wire.

    Endpoints (host and controller) exchange plaintext HCI exactly as
    before; taps and sniffers observe the wire image, in which the
    payload of protected packets is ciphertext.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str = "secure-uart0",
        baud_rate: int = 3_000_000,
        transport_key: bytes = b"provisioned-transport-key-32byte",
    ) -> None:
        super().__init__(simulator, name=name, baud_rate=baud_rate)
        self.cipher = HciPayloadCipher(transport_key)
        self._nonce = 0
        self.protected_packets = 0

    def _wire_image(self, raw: bytes) -> bytes:
        offset = _protected_span(raw)
        if offset is None:
            return raw
        self.protected_packets += 1
        nonce = self._nonce
        self._nonce += 1
        protected = raw[:offset] + self.cipher.process(nonce, raw[offset:])
        return protected

    # Taps see the encrypted wire image; the receiving endpoint gets
    # plaintext (it holds the transport key and decrypts on arrival).

    def wire_image(self, direction: Direction, raw: bytes) -> bytes:
        return self._wire_image(raw)
