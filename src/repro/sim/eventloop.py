"""A deterministic discrete-event scheduler.

The scheduler is a classic heap-based event loop.  Determinism matters
here: the page-blocking experiments compare success rates over hundreds
of seeded trials, so two runs with the same seed must interleave events
identically.  Ties on the timestamp are broken by insertion order.

The loop keeps a live-event count maintained on schedule/cancel/pop so
:attr:`Simulator.pending` — polled inside trial loops — is O(1) rather
than a heap scan, and optionally reports into a
:class:`~repro.obs.metrics.MetricsRegistry` (events processed, queue
depth, per-callback wall time).  Instrumentation is gated on a single
check per :meth:`run`, so a simulator without metrics (or with a
disabled registry) pays nothing measurable.
"""

from __future__ import annotations

import itertools
import time as _time
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (e.g. scheduling in the past)."""


class Event:
    """A single scheduled callback: the handle ``schedule`` returns.

    Events no longer carry a hand-rolled ``__lt__`` (or ``__eq__``):
    the simulator's heap holds ``(time, sequence, event)`` tuples, so
    the heap compares floats and ints in C and pops equal timestamps in
    schedule order, and the unique sequence number means two entries
    never tie far enough to compare the events themselves.  A
    ``__slots__`` class because scheduling is *the* allocation hot path
    once worlds hold hundreds of ambient devices.
    """

    __slots__ = (
        "time", "sequence", "callback", "args",
        "cancelled", "popped", "_owner",
    )

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        _owner: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: set once the loop has popped the event (fired or skipped) —
        #: late cancels must not disturb the live count.
        self.popped = False
        self._owner = _owner

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        if self.cancelled or self.popped:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._live -= 1


class Simulator:
    """Heap-based discrete event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, metrics: Optional["MetricsRegistry"] = None) -> None:
        self._now = 0.0
        #: heap of ``(time, sequence, event)``
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._running = False
        self._processed = 0
        self._live = 0
        self.metrics = metrics

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)."""
        return self._live

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        # Inlined schedule_at: this is the hottest call in fleet-scale
        # worlds, and the extra frame was measurable.
        when = self._now + delay
        sequence = next(self._sequence)
        event = Event(when, sequence, callback, args, self)
        heappush(self._queue, (when, sequence, event))
        self._live += 1
        return event

    def schedule_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before now={self._now}"
            )
        sequence = next(self._sequence)
        event = Event(when, sequence, callback, args, self)
        heappush(self._queue, (when, sequence, event))
        self._live += 1
        return event

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run events until the queue drains or simulated time passes ``until``.

        ``max_events`` is a runaway guard — a stuck protocol loop in a
        simulated stack should fail loudly rather than spin forever.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        metrics = self.metrics
        instrumented = metrics is not None and metrics.enabled
        # The counter and gauge are flushed once after the loop (their
        # per-event deltas are reconstructible from locals); only the
        # wall-time histogram must observe per event.  Binding the
        # observe method and the clock to locals skips two attribute
        # lookups per event on the hot path.
        executed = 0
        max_depth = 0
        if instrumented:
            observe_wall = metrics.histogram(
                "sim.callback_wall_s",
                buckets=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0),
            ).observe
            clock = _time.perf_counter
        queue = self._queue
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                when, _, event = heappop(queue)
                event.popped = True
                if event.cancelled:
                    continue
                self._live -= 1
                self._now = when
                if instrumented:
                    if self._live > max_depth:
                        max_depth = self._live
                    started = clock()
                    event.callback(*event.args)
                    observe_wall(clock() - started)
                else:
                    event.callback(*event.args)
                self._processed += 1
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            if instrumented and executed:
                metrics.counter("sim.events_processed").inc(executed)
                depth = metrics.gauge("sim.queue_depth")
                depth.set(max_depth)
                depth.set(self._live)

    def run_for(self, duration: float, max_events: int = 10_000_000) -> None:
        """Run for ``duration`` simulated seconds from the current time."""
        self.run(until=self._now + duration, max_events=max_events)
