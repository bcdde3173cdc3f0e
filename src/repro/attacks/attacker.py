"""The attacker toolkit — everything the paper's A can do.

Mirrors the implementation surface of §VI-A: the attacker owns a
rooted device (Nexus 5x with a locally-built boot.img in the paper),
so they can rewrite the BD_ADDR file, the Class-of-Device definition,
and the bluedroid host stack library.  Everything here stays **above
the controller layer** — the property the paper emphasises versus
BIAS/KNOB, which need firmware changes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.types import BdAddr, IoCapability, LinkKey
from repro.devices.device import Device
from repro.host.storage import BondingRecord


class Attacker:
    """Wraps the attacker's device with the paper's capabilities."""

    def __init__(self, device: Device) -> None:
        self.device = device

    # ------------------------------------------------------------- spoofing

    def spoof_identity(
        self,
        addr: BdAddr,
        class_of_device: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        """Assume another device's Bluetooth identity.

        Rewrites ``/persist/bdaddr.txt`` (BD_ADDR), ``bt_target.h``
        (COD, Fig. 8) and the advertised name.
        """
        self.device.set_bd_addr(addr)
        if class_of_device is not None:
            self.device.set_class_of_device(class_of_device)
        if name is not None:
            self.device.controller.local_name = name

    def spoof_device(self, victim: Device) -> None:
        """Clone a victim device's visible identity."""
        self.spoof_identity(
            victim.bd_addr,
            class_of_device=victim.controller.class_of_device,
            name=victim.controller.local_name,
        )

    # --------------------------------------------------------- stack patches

    def patch_drop_link_key_requests(self, enabled: bool = True) -> None:
        """The Fig. 9 patch: comment out btu_hcif_link_key_request_evt.

        With the handler gone the attacker's host never answers the
        controller's key request, so the LMP authentication the victim
        accessory started stalls and the link dies by *timeout* — no
        authentication failure, no key deletion on the victim.
        """
        self.device.host.drop_link_key_requests = enabled

    def set_io_capability(self, io_capability: IoCapability) -> None:
        """SSP downgrade knob: NoInputNoOutput forces Just Works."""
        self.device.host.io_capability = io_capability

    def enter_ploc(self, hold_seconds: float = 10.0) -> None:
        """The Fig. 13 PoC: postpone host event processing.

        The controller-level connection completes normally while the
        host never advances to the host-layer connection — the
        'Physical Layer Only Connection' of §V-B.
        """
        self.device.host.hold_events(hold_seconds)

    # ------------------------------------------------------ bonding forgery

    def install_fake_bonding(
        self,
        target_addr: BdAddr,
        link_key: LinkKey,
        name: str = "",
        services: Optional[List[int]] = None,
    ) -> None:
        """Write the Fig. 10 fake bonding entry and reload the stack.

        ``services`` defaults to the PAN UUIDs (0x1115/0x1116) the
        paper uses to trigger LMP authentication via tethering.
        """
        record = BondingRecord(
            addr=target_addr,
            link_key=link_key,
            name=name,
            services=services if services is not None else [0x1115, 0x1116],
        )
        self.device.install_bonding(record, su=True)
        self.device.power_cycle_bluetooth()

    # -------------------------------------------------------------- posture

    def go_connectable(self) -> None:
        """Enter page scan so pages for the spoofed address reach us."""
        self.device.host.gap.set_scan_mode(connectable=True, discoverable=False)

