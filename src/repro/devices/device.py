"""One fully assembled simulated Bluetooth device.

The device exposes exactly the handles the paper's attacker uses:

* ``enable_hci_snoop()`` — Android's hidden 'Bluetooth HCI snoop log'
  developer option (or installing bluez-hcidump on Linux, which needs
  root).
* ``pull_bugreport()`` — the Android bug report that copies the
  SU-protected snoop file out **without** system permissions.
* ``attach_usb_sniffer()`` — clamp a USB analyzer onto a dongle-type
  controller's bus.
* ``set_bd_addr()`` / ``set_class_of_device()`` — the spoofing writes
  to ``/persist/bdaddr.txt`` and ``bt_target.h`` (Figs. 8).
* ``install_bonding()`` / ``power_cycle_bluetooth()`` — edit
  ``bt_config.conf`` and bounce Bluetooth so the stack reloads it
  (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.obs import Observability

from repro.core.errors import AttackError
from repro.core.filesystem import VirtualFilesystem
from repro.core.types import BdAddr, BluetoothVersion, IoCapability, LinkKey
from repro.controller.controller import Controller
from repro.host.stack import HostStack, StackProfile
from repro.host.storage import (
    BluezInfoStore,
    BondingRecord,
    BondingStore,
    BtConfigStore,
    RegistryStore,
)
from repro.host.ui import UserModel
from repro.phy.medium import RadioMedium
from repro.sim.eventloop import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.snoop.hcidump import HciDump
from repro.transport.base import HciTransport
from repro.transport.uart import UartH4Transport
from repro.transport.usb import UsbSniffer, UsbTransport

_STORAGE_PATHS = {
    "bt_config": "/data/misc/bluedroid/bt_config.conf",
    "bluez_info": "/var/lib/bluetooth/bonds",
    "registry": "HKLM/SYSTEM/CurrentControlSet/Services/BTHPORT/Parameters/Keys",
}
_SNOOP_PATHS = {
    "bluedroid": "/data/misc/bluetooth/logs/btsnoop_hci.log",
    "bluez": "/var/log/hcidump.log",
}
_BDADDR_PATH = "/persist/bdaddr.txt"


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a device model (one catalog row)."""

    key: str
    marketing_name: str
    os: str
    stack_profile: StackProfile
    bt_version: BluetoothVersion
    io_capability: IoCapability
    transport_kind: str  # "uart" | "usb"
    class_of_device: int
    controller_model: str = "integrated"
    #: §VII-A long-term mitigation deployed: encrypt link-key-bearing
    #: HCI payloads on the wire (derive hardened variants with
    #: ``dataclasses.replace(spec, secure_hci=True)``)
    secure_hci: bool = False
    #: device has an LE stack too (dual-mode, CTKD candidate); derive
    #: variants with ``dataclasses.replace(spec, le_capable=True)``
    le_capable: bool = False
    #: LE-only device (tracker, earbuds): no BR/EDR host/controller
    #: activity — only the :class:`repro.ble.stack.BleStack` runs
    le_only: bool = False

    @property
    def is_android(self) -> bool:
        return self.os.startswith("Android")

    @property
    def has_le(self) -> bool:
        return self.le_capable or self.le_only


class Device:
    """host + controller + transport + filesystem + user."""

    def __init__(
        self,
        simulator: Simulator,
        medium: RadioMedium,
        rng: RngRegistry,
        spec: DeviceSpec,
        name: str,
        bd_addr: BdAddr,
        tracer: Optional[Tracer] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.simulator = simulator
        self.medium = medium
        self.spec = spec
        self.name = name
        self.tracer = tracer if tracer is not None else Tracer()
        self.obs = obs
        self.filesystem = VirtualFilesystem()

        self.transport: HciTransport
        if spec.secure_hci:
            from repro.mitigations.hci_encryption import (
                SecureUartTransport,
                SecureUsbTransport,
            )

            if spec.transport_kind == "usb":
                self.transport = SecureUsbTransport(
                    simulator, name=f"{name}-usb"
                )
            else:
                self.transport = SecureUartTransport(
                    simulator, name=f"{name}-uart"
                )
        elif spec.transport_kind == "usb":
            self.transport = UsbTransport(simulator, name=f"{name}-usb")
        else:
            self.transport = UartH4Transport(simulator, name=f"{name}-uart")

        store = self._make_store(spec.stack_profile)
        self.user = UserModel(rng.stream(f"user:{name}"))
        self.host = HostStack(
            simulator=simulator,
            transport=self.transport,
            profile=spec.stack_profile,
            name=name,
            version=spec.bt_version,
            io_capability=spec.io_capability,
            user=self.user,
            store=store,
            tracer=self.tracer,
            obs=obs,
        )
        self.controller = Controller(
            simulator=simulator,
            medium=medium,
            transport=self.transport,
            rng=rng,
            name=name,
            bd_addr=bd_addr,
            class_of_device=spec.class_of_device,
            secure_connections=spec.bt_version.numeric >= 4.1,
            tracer=self.tracer,
            obs=obs,
        )
        self.filesystem.write_text(_BDADDR_PATH, str(bd_addr), requires_su=True)
        self.ble = None
        if spec.has_le:
            from repro.ble.stack import BleStack

            # LE shares the BR/EDR public identity address and the
            # host's bond database, so CTKD-derived keys land in the
            # same persistent store the BR/EDR attacks raid.
            self.ble = BleStack(
                simulator=simulator,
                medium=medium,
                rng=rng,
                name=name,
                addr=bd_addr,
                io_capability=spec.io_capability,
                dual_mode=not spec.le_only,
                security=self.host.security,
                tracer=self.tracer,
            )
        self._hci_dump: Optional[HciDump] = None
        self._usb_sniffer: Optional[UsbSniffer] = None

    # ------------------------------------------------------------ lifecycle

    def power_on(self, connectable: bool = True, discoverable: bool = True) -> None:
        """Boot the Bluetooth subsystem (both transports if dual-mode)."""
        if not self.spec.le_only:
            self.host.initialize(
                local_name=self.spec.marketing_name,
                class_of_device=self.spec.class_of_device,
                connectable=connectable,
                discoverable=discoverable,
            )
        if self.ble is not None:
            self.ble.power_on(advertise=connectable)

    def power_cycle_bluetooth(self) -> None:
        """Toggle Bluetooth off/on: the stack reloads bonding storage —
        how the attacker's fake bonding info becomes live (Fig. 10)."""
        self.host.security.reload_from_store()

    # -------------------------------------------------------------- address

    @property
    def bd_addr(self) -> BdAddr:
        return self.controller.bd_addr

    def set_bd_addr(self, addr: BdAddr) -> None:
        """Rewrite /persist/bdaddr.txt — the spoofing primitive."""
        self.controller.bd_addr = addr
        self.filesystem.write_text(_BDADDR_PATH, str(addr), requires_su=True)

    def set_class_of_device(self, cod: int) -> None:
        """The bt_target.h COD rewrite of Fig. 8."""
        self.controller.class_of_device = cod

    # ------------------------------------------------------------- HCI dump

    @property
    def snoop_path(self) -> Optional[str]:
        return _SNOOP_PATHS.get(self.spec.stack_profile.name)

    def enable_hci_snoop(self, su: bool = False) -> HciDump:
        """Start background HCI logging.

        * Android: the 'Bluetooth HCI snoop log' developer option —
          reachable by anyone who can tap the settings app.
        * Linux: running bluez-hcidump needs root.
        * Windows / CSR Harmony / iOS: not available at all.
        """
        profile = self.spec.stack_profile
        if not profile.hci_snoop_supported:
            raise AttackError(
                f"{self.name}: {profile.name} host stack provides no HCI dump"
            )
        if profile.name == "bluez" and not su:
            raise PermissionError(
                f"{self.name}: running hcidump on BlueZ requires superuser"
            )
        if self._hci_dump is None:
            self._hci_dump = HciDump(name=f"{self.name}-snoop").attach(
                self.transport
            )
        return self._hci_dump

    def _flush_snoop_to_fs(self) -> None:
        if self._hci_dump is None or self.snoop_path is None:
            return
        self.filesystem.write(
            self.snoop_path,
            self._hci_dump.to_btsnoop_bytes(),
            requires_su=self.spec.stack_profile.snoop_requires_su,
        )

    def read_snoop_log(self, su: bool = False) -> bytes:
        """Read the snoop file directly — SU-gated on every platform."""
        if self._hci_dump is None or self.snoop_path is None:
            raise FileNotFoundError("HCI snoop logging is not active")
        self._flush_snoop_to_fs()
        return self.filesystem.read(self.snoop_path, su=su)

    def pull_bugreport(self) -> bytes:
        """Android bug report: exports the snoop log without SU.

        This is the paper's §IV-A extraction path — the log file lives
        in a protected directory, but the developer-options bug report
        hands a copy to any user of the unlocked device.
        """
        if not self.spec.stack_profile.snoop_extractable_without_su:
            raise AttackError(
                f"{self.name}: no unprivileged bug-report path on {self.spec.os}"
            )
        if self._hci_dump is None:
            raise FileNotFoundError("HCI snoop logging is not active")
        return self._hci_dump.to_btsnoop_bytes()

    # ----------------------------------------------------------- USB sniffing

    def attach_usb_sniffer(self, su: bool = False) -> UsbSniffer:
        """Clamp a USB analyzer onto a dongle-type controller's bus.

        Windows analyzers run unprivileged; Linux usbmon needs root
        (the paper's Table I 'SU privilege' column for Ubuntu).
        """
        if not isinstance(self.transport, UsbTransport):
            raise AttackError(
                f"{self.name}: controller is not USB-attached "
                f"({self.spec.transport_kind} transport)"
            )
        if self.spec.os.startswith("Ubuntu") and not su:
            raise PermissionError(
                f"{self.name}: USB capture on Linux requires superuser"
            )
        if self._usb_sniffer is None:
            self._usb_sniffer = UsbSniffer(
                name=f"{self.name}-usb-analyzer"
            ).attach(self.transport)
        return self._usb_sniffer

    # -------------------------------------------------------------- bonding

    def install_bonding(self, record: BondingRecord, su: bool = True) -> None:
        """Write a bonding record straight into the storage file.

        With physical control of the device (the attack model's A, or a
        manipulated C) the attacker edits bt_config.conf directly; the
        entry becomes live after :meth:`power_cycle_bluetooth`.
        """
        if not su:
            raise PermissionError("editing bonding storage requires superuser")
        records = self.host.security.keys.copy()
        records[record.addr] = record
        if self.host.store is not None:
            self.host.store.save(records)

    def bonded_key_for(self, addr: BdAddr) -> Optional[LinkKey]:
        record = self.host.security.bond_for(addr)
        return record.link_key if record else None

    def _make_store(self, profile: StackProfile) -> BondingStore:
        path = _STORAGE_PATHS[profile.storage_format]
        cls = {
            "bt_config": BtConfigStore,
            "bluez_info": BluezInfoStore,
            "registry": RegistryStore,
        }[profile.storage_format]
        return cls(
            self.filesystem, path, requires_su=profile.storage_requires_su
        )

    def __repr__(self) -> str:
        return (
            f"Device({self.name}: {self.spec.marketing_name}, {self.spec.os}, "
            f"addr={self.bd_addr})"
        )
