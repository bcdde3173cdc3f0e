"""The injector registry: wires fault specs into a live world.

One :class:`InjectorRegistry` per world.  At attach time each spec
gets its own child RNG stream (``faults:<index>:<point>``) derived
from the world's seeded :class:`~repro.sim.rng.RngRegistry`, so

* the same (seed, plan) pair replays the identical fault sequence —
  including after a campaign retry rebuilds the world from scratch;
* adding a spec never perturbs the draws of any other stream.

Every injected fault is emitted on the shared tracer (source
``"faults"``, category ``"fault"``) and counted in the metrics
registry, so ``blap timeline`` interleaves faults with attack traffic
and campaign snapshots stay comparable.  Window faults additionally
open a span for the timeline's duration view.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.controller import lmp
from repro.faults.catalog import get_point
from repro.faults.spec import FaultPlan, FaultSpec
from repro.phy.medium import FrameFate
from repro.transport.base import Direction, TransportFate

if TYPE_CHECKING:
    from repro.devices.device import Device
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanTracker
    from repro.phy.medium import AirFrame, PhysicalLink, RadioMedium, RadioPeer
    from repro.sim.eventloop import Simulator
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import Tracer

#: trace source name for fault events in merged timelines
TRACE_SOURCE = "faults"

_DIRECTIONS = {
    "h2c": (Direction.HOST_TO_CONTROLLER,),
    "c2h": (Direction.CONTROLLER_TO_HOST,),
    "both": (Direction.HOST_TO_CONTROLLER, Direction.CONTROLLER_TO_HOST),
}

_DELIVER = FrameFate()
_PASS = TransportFate()


def _flip_bits(data: bytes, flips: int, rng) -> bytes:
    """Flip ``flips`` random bits of ``data`` (empty data unchanged)."""
    if not data:
        return data
    out = bytearray(data)
    for _ in range(max(1, flips)):
        position = rng.randrange(len(out) * 8)
        out[position // 8] ^= 1 << (position % 8)
    return bytes(out)


class _TransportInjector:
    """Per-device transport fault hook (``HciTransport.fault_injector``)."""

    def __init__(self, registry: "InjectorRegistry", role: str) -> None:
        self.registry = registry
        self.role = role
        self.indices: List[int] = []

    def __call__(
        self, now: float, name: str, direction: Direction, raw: bytes
    ) -> TransportFate:
        return self.registry._on_transport_packet(
            self, now, name, direction, raw
        )


class InjectorRegistry:
    """Wires a :class:`FaultPlan` into medium, transports and devices."""

    def __init__(
        self,
        simulator: "Simulator",
        rng: "RngRegistry",
        tracer: "Tracer",
        metrics: Optional["MetricsRegistry"] = None,
        spans: Optional["SpanTracker"] = None,
    ) -> None:
        self.simulator = simulator
        self.rng = rng
        self.tracer = tracer
        self.spans = spans
        if metrics is None:
            from repro.obs.metrics import get_global_registry

            metrics = get_global_registry()
        self._m_injected = metrics.counter("faults.injected")
        self.specs: List[FaultSpec] = []
        self._streams: List[Any] = []
        #: per-point injection counts (JSON-stable summary material)
        self.counts: Dict[str, int] = {}
        #: discrete fault events: oneshot firings and window edges
        self.events: List[Dict[str, Any]] = []
        self._phy_indices: List[int] = []
        self._device_indices: List[int] = []
        self._media: List["RadioMedium"] = []
        self._devices: Dict[str, "Device"] = {}
        self._wired: set = set()  # (spec_index, role) pairs already armed
        self._transport_injectors: Dict[str, _TransportInjector] = {}
        self._window_spans: Dict[int, Any] = {}

    # ------------------------------------------------------------- wiring

    def extend(self, plan: FaultPlan) -> None:
        """Add every spec of ``plan``; streams are index-derived."""
        for spec in plan:
            index = len(self.specs)
            self.specs.append(spec)
            self._streams.append(
                self.rng.stream(f"faults:{index}:{spec.point}")
            )
            point = get_point(spec.point)
            if point.scope == "medium":
                self._phy_indices.append(index)
                if spec.mode == "window":
                    self._schedule_window_marks(index)
            else:
                self._device_indices.append(index)
                for role, device in self._devices.items():
                    self._wire_device_spec(index, role, device)

    def attach_medium(self, medium: "RadioMedium") -> None:
        if medium not in self._media:
            self._media.append(medium)
            medium.add_frame_fault_filter(self._on_air_frame)

    def on_device_added(self, role: str, device: "Device") -> None:
        """World callback: arm device-scope specs for a new device."""
        self._devices[role] = device
        for index in self._device_indices:
            self._wire_device_spec(index, role, device)

    def _wire_device_spec(
        self, index: int, role: str, device: "Device"
    ) -> None:
        spec = self.specs[index]
        if spec.target is not None and spec.target != role:
            return
        if (index, role) in self._wired:
            return
        self._wired.add((index, role))
        layer = get_point(spec.point).layer
        if layer == "transport":
            injector = self._transport_injectors.get(role)
            if injector is None:
                injector = _TransportInjector(self, role)
                device.transport.fault_injector = injector
                self._transport_injectors[role] = injector
            injector.indices.append(index)
            if spec.mode == "window":
                self._schedule_window_marks(index, role=role)
            return
        now = self.simulator.now
        if spec.point == "controller.hard_reset":
            self.simulator.schedule(
                max(0.0, spec.at_s - now), self._fire_hard_reset, index, role
            )
        elif spec.point == "controller.lmp_hang":
            self.simulator.schedule(
                max(0.0, spec.start_s - now), self._open_lmp_hang, index, role
            )
        elif spec.point in ("host.bond_corrupt", "host.bond_loss",
                            "host.stack_restart"):
            self.simulator.schedule(
                max(0.0, spec.at_s - now), self._fire_host_fault, index, role
            )

    # ---------------------------------------------------------- recording

    def _record(
        self,
        point: str,
        message: str,
        target: str = "",
        event: bool = False,
        **detail: Any,
    ) -> None:
        self.counts[point] = self.counts.get(point, 0) + 1
        self._m_injected.inc()
        now = self.simulator.now
        self.tracer.emit(
            now,
            TRACE_SOURCE,
            "fault",
            message,
            point=point,
            **({"target": target} if target else {}),
        )
        if event:
            entry: Dict[str, Any] = {"t": now, "point": point, "info": message}
            if target:
                entry["target"] = target
            entry.update(detail)
            self.events.append(entry)

    def summary(self) -> Dict[str, Any]:
        """JSON-stable digest for ``TrialResult.detail``."""
        return {
            "counts": {point: self.counts[point] for point in sorted(self.counts)},
            "events": [dict(entry) for entry in self.events],
        }

    # ------------------------------------------------------- window marks

    def _schedule_window_marks(self, index: int, role: str = "") -> None:
        spec = self.specs[index]
        now = self.simulator.now
        if spec.end_s is not None and spec.end_s <= now:
            return  # the whole window is already in the past
        self.simulator.schedule(
            max(0.0, spec.start_s - now), self._open_window, index, role
        )
        if spec.end_s is not None:
            self.simulator.schedule(
                spec.end_s - now, self._close_window, index, role
            )

    def _open_window(self, index: int, role: str) -> None:
        spec = self.specs[index]
        until = "forever" if spec.end_s is None else f"until {spec.end_s:.3f}s"
        self._record(
            spec.point,
            f"{spec.point} window opens ({until})",
            target=role,
            event=True,
            edge="open",
        )
        if self.spans is not None and spec.end_s is not None:
            self._window_spans[(index, role)] = self.spans.begin(
                f"fault:{spec.point}",
                source=TRACE_SOURCE,
                **({"target": role} if role else {}),
            )

    def _close_window(self, index: int, role: str) -> None:
        spec = self.specs[index]
        self._record(
            spec.point,
            f"{spec.point} window closes",
            target=role,
            event=True,
            edge="close",
        )
        span = self._window_spans.pop((index, role), None)
        if span is not None and self.spans is not None:
            self.spans.finish(span)

    # ------------------------------------------------------------ phy hook

    def _on_air_frame(
        self,
        now: float,
        link: "PhysicalLink",
        sender: "RadioPeer",
        frame: "AirFrame",
    ) -> FrameFate:
        extra = 0.0
        payload = None
        for index in self._phy_indices:
            spec = self.specs[index]
            stream = self._streams[index]
            if not spec.fires(now, stream):
                continue
            point = spec.point
            if point == "phy.blackout":
                self._record(point, f"blackout swallows {frame.kind} frame")
                return FrameFate(action="drop")
            if point == "phy.frame_loss":
                self._record(point, f"{frame.kind} frame lost on the air")
                return FrameFate(action="drop")
            if point == "phy.bit_flip":
                flips = int(spec.params.get("flips", 1))
                raw = frame.payload
                if isinstance(raw, bytes):
                    payload = _flip_bits(raw, flips, stream)
                    self._record(point, f"{flips}-bit corruption in {frame.kind} frame")
                elif isinstance(raw, lmp.AclPayload):
                    payload = lmp.AclPayload(_flip_bits(raw.data, flips, stream))
                    self._record(point, f"{flips}-bit corruption in ACL payload")
                else:
                    # Structured LMP PDUs have no byte image to flip; a
                    # corrupted PDU fails the baseband CRC and is lost.
                    self._record(
                        point, f"corrupted {frame.kind} frame dropped (CRC)"
                    )
                    return FrameFate(action="drop")
            elif point == "phy.latency_jitter":
                jitter = float(spec.params.get("jitter_s", 0.001))
                delay = stream.uniform(0.0, jitter)
                extra += delay
                self._record(
                    point, f"+{delay * 1000:.3f}ms jitter on {frame.kind} frame"
                )
        if payload is not None:
            return FrameFate(action="mutate", payload=payload, extra_delay_s=extra)
        if extra > 0.0:
            return FrameFate(extra_delay_s=extra)
        return _DELIVER

    # ------------------------------------------------------ transport hook

    def _spec_directions(self, spec: FaultSpec) -> Tuple[Direction, ...]:
        return _DIRECTIONS[str(spec.params.get("direction", "both"))]

    def _on_transport_packet(
        self,
        injector: _TransportInjector,
        now: float,
        name: str,
        direction: Direction,
        raw: bytes,
    ) -> TransportFate:
        extra = 0.0
        mutated: Optional[bytes] = None
        for index in injector.indices:
            spec = self.specs[index]
            stream = self._streams[index]
            if direction not in self._spec_directions(spec):
                continue
            if not spec.fires(now, stream):
                continue
            point = spec.point
            data = raw if mutated is None else mutated
            if point == "transport.stall":
                if spec.end_s is None:
                    self._record(
                        point,
                        f"{name}: bus dead, {direction.value} packet lost",
                        target=injector.role,
                    )
                    return TransportFate(action="drop")
                extra = max(extra, spec.end_s - now)
                self._record(
                    point,
                    f"{name}: {direction.value} packet stalled "
                    f"until {spec.end_s:.3f}s",
                    target=injector.role,
                )
            elif point == "transport.truncate":
                keep = int(spec.params.get("keep_bytes", 2))
                mutated = data[: max(0, keep)]
                self._record(
                    point,
                    f"{name}: {direction.value} packet cut to "
                    f"{len(mutated)}/{len(raw)} bytes",
                    target=injector.role,
                )
            elif point == "transport.garble":
                flips = int(spec.params.get("flips", 8))
                mutated = _flip_bits(data, flips, stream)
                self._record(
                    point,
                    f"{name}: {flips} bits flipped in {direction.value} packet",
                    target=injector.role,
                )
        if mutated is not None:
            return TransportFate(
                action="mutate", raw=mutated, extra_delay_s=extra
            )
        if extra > 0.0:
            return TransportFate(extra_delay_s=extra)
        return _PASS

    # ------------------------------------------------- controller / host

    def _fire_hard_reset(self, index: int, role: str) -> None:
        spec = self.specs[index]
        device = self._devices.get(role)
        if device is None:
            return
        links = len(device.controller._links_by_handle)
        self._record(
            spec.point,
            f"{role}: controller firmware crash ({links} links torn down)",
            target=role,
            event=True,
        )
        device.controller.hard_reset()

    def _open_lmp_hang(self, index: int, role: str) -> None:
        spec = self.specs[index]
        device = self._devices.get(role)
        if device is None:
            return
        until = spec.end_s if spec.end_s is not None else math.inf
        device.controller.lmp_silence_until = until
        label = "forever" if until == math.inf else f"until {until:.3f}s"
        self._record(
            spec.point,
            f"{role}: LMP engine hangs ({label})",
            target=role,
            event=True,
            edge="open",
        )
        if self.spans is not None and spec.end_s is not None:
            self._window_spans[(index, role)] = self.spans.begin(
                "fault:controller.lmp_hang", source=TRACE_SOURCE, target=role
            )
        if spec.end_s is not None:
            self.simulator.schedule(
                spec.end_s - self.simulator.now, self._close_window, index, role
            )

    def _fire_host_fault(self, index: int, role: str) -> None:
        spec = self.specs[index]
        device = self._devices.get(role)
        if device is None:
            return
        stream = self._streams[index]
        if spec.point == "host.bond_corrupt":
            touched = device.host.security.corrupt_bonds(stream)
            message = f"{role}: bond storage corrupted ({touched} keys trashed)"
        elif spec.point == "host.bond_loss":
            dropped = device.host.security.drop_all_bonds()
            message = f"{role}: bond storage lost ({dropped} bonds forgotten)"
        else:  # host.stack_restart
            device.host.restart()
            message = f"{role}: host stack restarted (bonds reloaded)"
        self._record(spec.point, message, target=role, event=True)
