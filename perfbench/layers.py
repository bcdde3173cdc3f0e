"""Per-layer wall-time attribution from spans recorded around layer calls.

The traced run installs a wrapper around every function and method the
``repro.*`` modules define, except dunder methods other than those in
``_DUNDER_ENTRIES``: the time of a comparison, ``__len__``, ``__repr__``
and the like counts to the layer that called it.  A wrapper opens a span only when the call
crosses into another layer (the caller's layer differs from the
callee's), so a layer's nested internal calls add one cheap frame and
no span.  Each span records its name, parent, start and end; self time
is a span's duration minus the part of it that child spans cover, and
per-layer self time is the sum over the layer's spans.

Coroutine and generator functions are wrapped per step: each resumption
is timed as a span of its own, because the body of a coroutine does
not run nested inside the call that created it.

Everything here assumes a single thread: the tracer keeps one span
stack.  ``install`` returns a :class:`Patches` object whose ``remove``
puts every original attribute back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: sub-layers for the packages whose modules differ in cost profile
_MODULE_LAYERS = {
    "repro.crypto.ecc": "crypto.ecc",
    "repro.crypto.aes": "crypto.aes",
    "repro.crypto.safer": "crypto.safer",
    "repro.service.websocket": "service.ws",
    "repro.service.protocol": "service.protocol",
    "repro.service.session": "service.session",
}

#: dunder methods that are layer entry points; all others are skipped
_DUNDER_ENTRIES = frozenset({
    "__init__", "__post_init__", "__mul__", "__rmul__", "__call__", "__iter__",
})

#: attribute set on every wrapper, so leftovers can be found
_MARK = "__perfbench_traced__"

#: counters: metric name -> predicate over (layer, module, qualname)
COUNTED: Dict[str, Callable[[str, str, str], bool]] = {
    "crypto.ecc.scalar_mults": lambda layer, mod, qual: qual
    in ("EccPoint.__mul__", "EccPoint.__rmul__"),
    "crypto.aes.blocks": lambda layer, mod, qual: qual == "aes128_encrypt",
    "crypto.safer.blocks": lambda layer, mod, qual: qual == "SaferPlus._run",
    "hci.packets_encoded": lambda layer, mod, qual: layer == "hci"
    and qual.endswith(".to_bytes"),
    "hci.packets_parsed": lambda layer, mod, qual: mod == "repro.hci.parser"
    and qual == "parse_packet",
    "phy.pages": lambda layer, mod, qual: qual == "RadioMedium.page",
    "service.frames": lambda layer, mod, qual: mod == "repro.service.websocket"
    and qual == "read_frame",
}


def layer_of(module: str) -> str:
    """The layer name of a ``repro.*`` module."""
    if module in _MODULE_LAYERS:
        return _MODULE_LAYERS[module]
    parts = module.split(".")
    if len(parts) < 2:
        return "other"
    if parts[1] == "crypto":
        return "crypto.other"
    if parts[1] == "service":
        return "service.server"
    return parts[1]


class Tracer:
    """Span storage: four parallel arrays, appended in start order."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: Dict[str, List[int]] = {name: [0] for name in COUNTED}
        #: index of the innermost open span, -1 outside any span
        self.current = -1
        #: layer id of the innermost open span, -1 outside any span
        self.layer = -1

    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(self.layer_id(layer))
        return len(self.names) - 1

    def reset(self) -> None:
        """Drop recorded spans and counts, keep names (wrappers hold ids)."""
        for column in (self.name_ids, self.parents, self.starts, self.ends):
            del column[:]
        for count in self.counts.values():
            count[0] = 0
        self.current = -1
        self.layer = -1

    def spans(self) -> List[Tuple[str, int, int, int]]:
        """``(name, parent, start_ns, end_ns)`` for every recorded span."""
        names = self.names
        return [
            (names[n], p, s, e)
            for n, p, s, e in zip(
                self.name_ids, self.parents, self.starts, self.ends
            )
        ]

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line (name, parent, start, end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, parent, start, end in self.spans():
                handle.write(f"{name}\t{parent}\t{start}\t{end}\n")


# ----------------------------------------------------------------- wrappers


def _sync_wrapper(tracer: Tracer, fn: Callable, layer: int, name: int,
                  count: Optional[List[int]]) -> Callable:
    clock = tracer.clock
    name_ids, parents = tracer.name_ids, tracer.parents
    starts, ends = tracer.starts, tracer.ends

    def traced(*args: Any, **kwargs: Any) -> Any:
        if count is not None:
            count[0] += 1
        outer = tracer.layer
        if outer == layer:
            return fn(*args, **kwargs)
        parent = tracer.current
        index = len(starts)
        name_ids.append(name)
        parents.append(parent)
        ends.append(0)
        tracer.current = index
        tracer.layer = layer
        starts.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = clock()
            tracer.current = parent
            tracer.layer = outer

    return functools.wraps(fn)(traced)


class _Step:
    """Open/close one span around a resumption of a coroutine or generator."""

    __slots__ = ("tracer", "layer", "name", "index", "parent", "outer")

    def __init__(self, tracer: Tracer, layer: int, name: int) -> None:
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.index = -1

    def open(self) -> None:
        tracer = self.tracer
        self.outer = tracer.layer
        if self.outer == self.layer:
            self.index = -1
            return
        self.parent = tracer.current
        self.index = len(tracer.starts)
        tracer.name_ids.append(self.name)
        tracer.parents.append(self.parent)
        tracer.ends.append(0)
        tracer.current = self.index
        tracer.layer = self.layer
        tracer.starts.append(tracer.clock())

    def close(self) -> None:
        if self.index < 0:
            return
        tracer = self.tracer
        tracer.ends[self.index] = tracer.clock()
        tracer.current = self.parent
        tracer.layer = self.outer


class _TracedAwaitable:
    """Drive a coroutine, timing every step it runs synchronously."""

    def __init__(self, coro: Any, step: _Step) -> None:
        self.coro = coro
        self.step = step

    def __await__(self) -> Any:
        coro, step = self.coro, self.step
        send_value: Any = None
        error: Optional[BaseException] = None
        while True:
            step.open()
            try:
                if error is not None:
                    pending, error = error, None
                    yielded = coro.throw(pending)
                else:
                    yielded = coro.send(send_value)
            except StopIteration as stop:
                return stop.value
            finally:
                step.close()
            try:
                send_value = yield yielded
            except BaseException as exc:  # noqa: BLE001 - forwarded into coro
                error = exc
                send_value = None


def _coroutine_wrapper(tracer: Tracer, fn: Callable, layer: int, name: int,
                       count: Optional[List[int]]) -> Callable:
    async def traced(*args: Any, **kwargs: Any) -> Any:
        if count is not None:
            count[0] += 1
        return await _TracedAwaitable(
            fn(*args, **kwargs), _Step(tracer, layer, name)
        )

    return functools.wraps(fn)(traced)


def _generator_wrapper(tracer: Tracer, fn: Callable, layer: int, name: int,
                       count: Optional[List[int]]) -> Callable:
    def traced(*args: Any, **kwargs: Any) -> Any:
        if count is not None:
            count[0] += 1
        step = _Step(tracer, layer, name)
        iterator = fn(*args, **kwargs)
        try:
            while True:
                step.open()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    step.close()
                yield item
        finally:
            iterator.close()

    return functools.wraps(fn)(traced)


def wrap(tracer: Tracer, fn: Callable, layer: str, qualname: str,
         count: Optional[List[int]] = None) -> Callable:
    """A traced stand-in for ``fn`` attributed to ``layer``."""
    layer_id = tracer.layer_id(layer)
    name_id = tracer.name_id(qualname, layer)
    if inspect.iscoroutinefunction(fn):
        factory = _coroutine_wrapper
    elif inspect.isgeneratorfunction(fn):
        factory = _generator_wrapper
    else:
        factory = _sync_wrapper
    traced = factory(tracer, fn, layer_id, name_id, count)
    setattr(traced, _MARK, True)
    return traced


# ------------------------------------------------------------ installation


class Patches:
    """Every attribute ``install`` replaced, with its original object."""

    def __init__(self) -> None:
        self.entries: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        self.entries.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.entries):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute ``is`` its original again."""
        return all(
            vars(owner).get(attr) is original
            for owner, attr, original in self.entries
        )


def leftover_wrappers(prefix: str = "repro.") -> List[str]:
    """Names of traced wrappers still reachable from loaded modules."""
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith(prefix) or module is None:
            continue
        owners = [module] + [
            obj for obj in vars(module).values() if isinstance(obj, type)
        ]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                fn = getattr(obj, "__func__", obj)
                if getattr(fn, _MARK, None) is True:
                    found.append(f"{name}:{getattr(owner, '__name__', '')}.{attr}")
    return found


def _counter(tracer: Tracer, layer: str, module: str, qualname: str
             ) -> Optional[List[int]]:
    for metric, matches in COUNTED.items():
        if matches(layer, module, qualname):
            return tracer.counts[metric]
    return None


def _traceable(attr: str) -> bool:
    return not (attr.startswith("__") and attr.endswith("__")) or (
        attr in _DUNDER_ENTRIES
    )


def install(tracer: Tracer, prefix: str = "repro.") -> Patches:
    """Wrap the functions and methods defined in loaded ``prefix`` modules.

    Dunder methods are wrapped only when listed in ``_DUNDER_ENTRIES``.

    Module-level functions are replaced at every place a loaded module
    imported them by name.  Returns the patches to remove afterwards.
    """
    patches = Patches()
    modules = [
        module for name, module in sorted(sys.modules.items())
        if name.startswith(prefix) and module is not None
    ]
    replacements: Dict[int, Tuple[Any, Any]] = {}
    for module in modules:
        modname = module.__name__
        layer = layer_of(modname)
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == modname:
                count = _counter(tracer, layer, modname, obj.__qualname__)
                replacements[id(obj)] = (
                    obj, wrap(tracer, obj, layer,
                              f"{modname}.{obj.__qualname__}", count)
                )
            elif isinstance(obj, type) and obj.__module__ == modname:
                _install_class(tracer, patches, obj, layer, modname)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            entry = replacements.get(id(obj))
            if entry is not None and entry[0] is obj:
                patches.set(module, attr, obj, entry[1])
    return patches


def _install_class(tracer: Tracer, patches: Patches, cls: type, layer: str,
                   modname: str) -> None:
    if issubclass(cls, BaseException):
        return
    for attr, raw in list(vars(cls).items()):
        if not _traceable(attr):
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            rewrap: Callable[[Callable], Any] = type(raw)
        elif inspect.isfunction(raw):
            fn = raw
            rewrap = _identity
        else:
            continue
        qualname = f"{cls.__qualname__}.{attr}"
        count = _counter(tracer, layer, modname, qualname)
        traced = wrap(tracer, fn, layer, f"{modname}.{qualname}", count)
        patches.set(cls, attr, raw, rewrap(traced))


def _identity(fn: Callable) -> Callable:
    return fn


# ----------------------------------------------------------------- analysis


def self_times(
    parents: Sequence[int], starts: Sequence[int], ends: Sequence[int]
) -> List[int]:
    """Each span's duration minus the union of its children's intervals.

    Spans must be listed in start order (the order a tracer appends
    them); children are clipped to their parent's interval.
    """
    count = len(starts)
    covered = [0] * count
    reach = list(starts)
    for index in range(count):
        parent = parents[index]
        if parent < 0:
            continue
        lo = max(starts[index], reach[parent])
        hi = min(ends[index], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


def root_coverage(
    parents: Sequence[int], starts: Sequence[int], ends: Sequence[int],
    window: Tuple[int, int],
) -> int:
    """Nanoseconds of ``window`` covered by top-level spans."""
    reach, total = window[0], 0
    for index in range(len(starts)):
        if parents[index] >= 0:
            continue
        lo = max(starts[index], reach)
        hi = min(ends[index], window[1])
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_report(tracer: Tracer, window: Tuple[int, int]) -> Dict[str, Any]:
    """Per-layer self time over ``window`` plus the unattributed rest.

    Returns ``{"self_ns": {layer: ns}, "other_ns", "wall_ns",
    "nested"}``; ``nested`` is true when the layers' self time and the
    rest add up to the window exactly, as well-nested spans must.
    """
    selfs = self_times(tracer.parents, tracer.starts, tracer.ends)
    per_layer: Dict[str, int] = {layer: 0 for layer in tracer.layers}
    name_layer, layers = tracer.name_layer, tracer.layers
    for name, value in zip(tracer.name_ids, selfs):
        per_layer[layers[name_layer[name]]] += value
    wall = window[1] - window[0]
    other = wall - root_coverage(
        tracer.parents, tracer.starts, tracer.ends, window
    )
    return {
        "self_ns": per_layer,
        "other_ns": other,
        "wall_ns": wall,
        "nested": sum(per_layer.values()) + other == wall,
    }


def inclusive_ns(tracer: Tracer, suffixes: Iterable[str]) -> int:
    """Total duration of the spans whose name ends with one of ``suffixes``."""
    wanted = {
        index for index, name in enumerate(tracer.names)
        if name.endswith(tuple(suffixes))
    }
    return sum(
        end - start
        for name, start, end in zip(tracer.name_ids, tracer.starts, tracer.ends)
        if name in wanted
    )
