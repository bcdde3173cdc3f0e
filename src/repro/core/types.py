"""Fundamental Bluetooth value types.

The byte-level conventions follow the Bluetooth Core Specification:
BD_ADDRs and link keys travel over HCI in little-endian byte order,
while humans read addresses as colon-separated big-endian hex.  The
types here own those conversions so the rest of the code never has to
think about endianness.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Union


_ADDR_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")


@dataclass(frozen=True, order=True)
class BdAddr:
    """A 48-bit Bluetooth device address.

    Internally stored as 6 big-endian bytes (NAP:UAP:LAP, the human
    display order).  :meth:`to_hci_bytes` gives the little-endian wire
    order used inside HCI packets.
    """

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != 6:
            raise ValueError(f"BD_ADDR must be 6 bytes, got {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "BdAddr":
        """Parse ``aa:bb:cc:dd:ee:ff`` (or ``-`` separated) notation."""
        if not _ADDR_RE.match(text):
            raise ValueError(f"malformed BD_ADDR string: {text!r}")
        return cls(bytes(int(part, 16) for part in re.split(r"[:\-]", text)))

    @classmethod
    def from_hci_bytes(cls, raw: bytes) -> "BdAddr":
        """Build from the 6 little-endian bytes of an HCI packet."""
        if len(raw) != 6:
            raise ValueError(f"BD_ADDR wire form must be 6 bytes, got {len(raw)}")
        return cls(bytes(raw[::-1]))

    def to_hci_bytes(self) -> bytes:
        """Little-endian wire order used inside HCI packets."""
        return self.value[::-1]

    @property
    def lap(self) -> int:
        """Lower Address Part — lowest 24 bits, used in page/inquiry trains."""
        return int.from_bytes(self.value[3:6], "big")

    @property
    def uap(self) -> int:
        """Upper Address Part — 8 bits."""
        return self.value[2]

    @property
    def nap(self) -> int:
        """Non-significant Address Part — top 16 bits."""
        return int.from_bytes(self.value[0:2], "big")

    def __str__(self) -> str:
        return ":".join(f"{byte:02x}" for byte in self.value)

    def __repr__(self) -> str:
        return f"BdAddr({str(self)!r})"


@dataclass(frozen=True)
class LinkKey:
    """A 128-bit Bluetooth link key.

    This is *the* secret the paper's first attack extracts: the only
    hidden input to LMP authentication and encryption key generation.
    """

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != 16:
            raise ValueError(f"link key must be 16 bytes, got {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "LinkKey":
        """Parse 32 hex characters (the bt_config.conf text form)."""
        cleaned = text.strip().replace(" ", "")
        if len(cleaned) != 32:
            raise ValueError(f"link key hex must be 32 chars, got {text!r}")
        return cls(bytes.fromhex(cleaned))

    def hex(self) -> str:
        """32 lowercase hex characters (display / config-file form)."""
        return self.value.hex()

    def to_hci_bytes(self) -> bytes:
        """Little-endian wire order used inside HCI packets."""
        return self.value[::-1]

    @classmethod
    def from_hci_bytes(cls, raw: bytes) -> "LinkKey":
        """Build from the 16 little-endian bytes of an HCI packet."""
        if len(raw) != 16:
            raise ValueError(f"link key wire form must be 16 bytes, got {len(raw)}")
        return cls(bytes(raw[::-1]))

    def __str__(self) -> str:
        return self.hex()

    def __repr__(self) -> str:
        return f"LinkKey({self.hex()!r})"


class LinkKeyType(enum.IntEnum):
    """Link key type reported in HCI_Link_Key_Notification (spec Vol 4 E 7.7.24)."""

    COMBINATION = 0x00
    LOCAL_UNIT = 0x01
    REMOTE_UNIT = 0x02
    DEBUG_COMBINATION = 0x03
    UNAUTHENTICATED_COMBINATION_P192 = 0x04
    AUTHENTICATED_COMBINATION_P192 = 0x05
    CHANGED_COMBINATION = 0x06
    UNAUTHENTICATED_COMBINATION_P256 = 0x07
    AUTHENTICATED_COMBINATION_P256 = 0x08


@dataclass(frozen=True)
class ClassOfDevice:
    """24-bit Class of Device / Service field.

    The paper's attacker rewrites this from smartphone (0x5A020C) to
    hands-free (0x3C0404) when impersonating a car-kit (Fig. 8).
    """

    value: int

    SMARTPHONE = 0x5A020C
    HANDSFREE = 0x3C0404
    HEADSET = 0x240404
    COMPUTER = 0x1C010C

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFF:
            raise ValueError(f"COD must fit in 24 bits, got {self.value:#x}")

    @property
    def major_device_class(self) -> int:
        """Bits 8..12 — phone, audio/video, computer, ..."""
        return (self.value >> 8) & 0x1F

    @property
    def minor_device_class(self) -> int:
        """Bits 2..7 — subtype within the major class."""
        return (self.value >> 2) & 0x3F

    @property
    def major_service_classes(self) -> int:
        """Bits 13..23 — networking, audio, telephony, ..."""
        return (self.value >> 13) & 0x7FF

    def to_hci_bytes(self) -> bytes:
        """Three little-endian bytes as carried in HCI events."""
        return self.value.to_bytes(3, "little")

    @classmethod
    def from_hci_bytes(cls, raw: bytes) -> "ClassOfDevice":
        if len(raw) != 3:
            raise ValueError("COD wire form must be 3 bytes")
        return cls(int.from_bytes(raw, "little"))

    def describe(self) -> str:
        """Human-oriented major class name."""
        names = {
            0x01: "Computer",
            0x02: "Phone",
            0x03: "LAN/Network Access Point",
            0x04: "Audio/Video",
            0x05: "Peripheral",
            0x06: "Imaging",
        }
        return names.get(self.major_device_class, "Miscellaneous")

    def __str__(self) -> str:
        return f"{self.value:#08x} ({self.describe()})"


class IoCapability(enum.IntEnum):
    """IO capability values from the IO_Capability_Request_Reply command."""

    DISPLAY_ONLY = 0x00
    DISPLAY_YES_NO = 0x01
    KEYBOARD_ONLY = 0x02
    NO_INPUT_NO_OUTPUT = 0x03

    def describe(self) -> str:
        return {
            IoCapability.DISPLAY_ONLY: "DisplayOnly",
            IoCapability.DISPLAY_YES_NO: "DisplayYesNo",
            IoCapability.KEYBOARD_ONLY: "KeyboardOnly",
            IoCapability.NO_INPUT_NO_OUTPUT: "NoInputNoOutput",
        }[self]


class AssociationModel(enum.Enum):
    """The four SSP association models (plus legacy PIN pairing)."""

    NUMERIC_COMPARISON = "numeric_comparison"
    JUST_WORKS = "just_works"
    PASSKEY_ENTRY = "passkey_entry"
    OUT_OF_BAND = "out_of_band"
    LEGACY_PIN = "legacy_pin"

    @property
    def mitm_resistant(self) -> bool:
        """Just Works (and legacy PIN) give no MITM protection — the
        property the page blocking attack's downgrade exploits."""
        return self not in (AssociationModel.JUST_WORKS, AssociationModel.LEGACY_PIN)


class AuthenticationRequirements(enum.IntEnum):
    """Authentication_Requirements byte of IO_Capability exchange."""

    NO_MITM_NO_BONDING = 0x00
    MITM_NO_BONDING = 0x01
    NO_MITM_DEDICATED_BONDING = 0x02
    MITM_DEDICATED_BONDING = 0x03
    NO_MITM_GENERAL_BONDING = 0x04
    MITM_GENERAL_BONDING = 0x05

    @property
    def mitm_required(self) -> bool:
        return bool(self.value & 0x01)

    @property
    def bonding(self) -> bool:
        return self.value >= 0x02


class BluetoothVersion(enum.Enum):
    """Core specification versions relevant to the paper.

    The split that matters for the page blocking attack's downgrade is
    4.2-and-lower versus 5.0-and-higher: only the latter mandates a
    Yes/No confirmation popup on DisplayYesNo devices during Just Works
    (paper Fig. 7).
    """

    V2_1 = "2.1"
    V4_0 = "4.0"
    V4_1 = "4.1"
    V4_2 = "4.2"
    V5_0 = "5.0"
    V5_1 = "5.1"
    V5_2 = "5.2"

    @property
    def numeric(self) -> float:
        return float(self.value)

    @property
    def mandates_justworks_popup(self) -> bool:
        """True for 5.0+: DisplayYesNo devices must show a confirmation."""
        return self.numeric >= 5.0


class LinkType(enum.IntEnum):
    """Link type in HCI_Connection_Request / _Complete events."""

    SCO = 0x00
    ACL = 0x01
    ESCO = 0x02


AddressLike = Union[BdAddr, str]


def as_bdaddr(value: AddressLike) -> BdAddr:
    """Coerce a string or BdAddr to a BdAddr."""
    if isinstance(value, BdAddr):
        return value
    return BdAddr.parse(value)
