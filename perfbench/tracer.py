"""Layer-attributed host-time accounting for the benchmark's traced run.

The simulator is not instrumented from the inside.  Instead
:func:`install` replaces, on their classes, the public entry points of
every layer (plus ``Simulator.schedule``/``schedule_at``, so each
dispatched callback runs inside a frame of the layer whose module owns
it) with thin wrappers that push and pop a frame on a :class:`LayerClock`.
:meth:`Installation.uninstall` puts every original object back.

Accounting is exclusive: the clock is read at each frame boundary and
the interval since the previous reading is charged to the frame on top
of the stack.  A nested call therefore never counts towards its caller,
and the layer self times telescope to exactly the wall time between the
first push and the last pop.  Garbage collection runs inside an
``other`` frame (via ``gc.callbacks``), so it is charged to ``other``
rather than to whichever layer happened to allocate.

:func:`cprofile_shares` groups a cProfile run's self time by the same
rule, for the cross-check against an independent profiler.
"""

from __future__ import annotations

import enum
import functools
import gc
import inspect
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: every layer, in report order; ``other`` is the unattributed residual
LAYERS = ("engine", "cpu", "workload", "l1", "ics", "chip", "l2",
          "dup_tags", "directory", "rdram", "protocol_engine",
          "interconnect", "warm", "harness", "other")
LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}
OTHER = LAYER_INDEX["other"]
ENGINE = LAYER_INDEX["engine"]
HARNESS = LAYER_INDEX["harness"]

#: module (or package) name -> layer; the longest matching prefix wins
MODULE_LAYERS = {
    "repro.sim.engine": "engine",
    "repro.core.cpu": "cpu",
    "repro.core.tlb": "cpu",
    "repro.workloads": "workload",
    "repro.core.l1": "l1",
    "repro.core.ics": "ics",
    "repro.core.chip": "chip",
    "repro.core.l2": "l2",
    "repro.core.dup_tags": "dup_tags",
    "repro.core.directory": "directory",
    "repro.core.rdram": "rdram",
    "repro.core.protocol_engine": "protocol_engine",
    "repro.core.microcode": "protocol_engine",
    "repro.core.microprograms": "protocol_engine",
    "repro.core.tsrf": "protocol_engine",
    "repro.interconnect": "interconnect",
    "repro.fastforward": "warm",
    "repro.harness.runner": "harness",
}

#: entry points outside the layer modules (or not public), with the
#: layer they are charged to.  ``MemRequest.complete`` resumes the
#: issuing CPU inline, so it belongs to ``cpu``, not to its caller.
EXTRA_ENTRY_POINTS = (
    ("repro.core.messages", "MemRequest", "complete", "cpu"),
    ("repro.workloads.base", "WorkloadThread", "__next__", "workload"),
)

#: engine methods handled specially: they wrap the callback they queue
SCHEDULERS = ("schedule", "schedule_at")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer that owns *module*, or None for unattributed modules."""
    if not module:
        return None
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return None


class LayerClock:
    """A stack of layer frames with exclusive time per layer.

    ``enter``/``exit`` and the frame wrappers are closures over plain
    lists, which keeps the per-frame cost as low as the interpreter
    allows.  What remains is measured by :meth:`calibrate` and taken out
    again by :meth:`report`: each frame charges a fixed cost to its own
    layer (``cost_in``) and another to the layer that opened it
    (``cost_out``), and each queued event a further ``cost_schedule`` to
    ``engine``.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        n = len(LAYERS)
        self.self_ns: List[int] = [0] * n
        self.calls: List[int] = [0] * n
        #: frames opened while each layer was on top
        self.children: List[int] = [0] * n
        self.scheduled = 0
        self.gc_ns = 0
        self._gc_start = 0
        self.stack: List[int] = []
        self.cost_in = self.cost_out = self.cost_schedule = 0.0
        self_ns, calls, children = self.self_ns, self.calls, self.children
        stack = self.stack
        last = [0]

        def enter(layer: int) -> None:
            now = clock()
            if stack:
                top = stack[-1]
                self_ns[top] += now - last[0]
                children[top] += 1
            last[0] = now
            stack.append(layer)
            calls[layer] += 1

        def exit_() -> None:
            now = clock()
            self_ns[stack.pop()] += now - last[0]
            last[0] = now

        def framed(fn: Callable, layer: int) -> Callable:
            """*fn* run in a frame of *layer* (no new frame when that
            layer is already on top: exclusive time is the same)."""

            def wrapper(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                top = stack[-1]
                if top == layer:
                    return fn(*args, **kwargs)
                # enter() and exit_() inlined: this runs on every call
                now = clock()
                self_ns[top] += now - last[0]
                children[top] += 1
                last[0] = now
                stack.append(layer)
                calls[layer] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_ns[stack.pop()] += now - last[0]
                    last[0] = now

            return wrapper

        self.enter = enter
        self.exit = exit_
        self.framed = framed

    def on_gc(self, phase: str, _info: dict) -> None:
        """``gc.callbacks`` hook: collections run in an ``other`` frame."""
        if not self.stack:
            return
        if phase == "start":
            self._gc_start = self.self_ns[OTHER]
            self.enter(OTHER)
        elif self.stack[-1] == OTHER:
            self.exit()
            self.gc_ns += self.self_ns[OTHER] - self._gc_start

    def calibrate(self, loops: int = 20000, trials: int = 5) -> None:
        """Measure the per-frame and per-queued-event costs on scratch
        clocks (best of *trials*)."""

        def noop():
            pass

        best_in = best_out = float("inf")
        for _ in range(trials):
            scratch = LayerClock()
            wrapped = scratch.framed(noop, 1)
            t0 = time.perf_counter_ns()
            for _ in range(loops):
                noop()
            base = time.perf_counter_ns() - t0
            scratch.enter(0)
            for _ in range(loops):
                wrapped()
            scratch.exit()
            best_in = min(best_in, (scratch.self_ns[1] - base) / loops)
            best_out = min(best_out, scratch.self_ns[0] / loops)
        self.cost_in = max(best_in, 0.0)
        self.cost_out = max(best_out, 0.0)
        self.cost_schedule = max(
            _schedule_cost(loops, trials) - self.cost_in - self.cost_out, 0.0)

    def report(self, wall_s: float) -> Dict[str, Dict[str, float]]:
        """Per-layer self time, share, calls and ns per call.

        Self times are net of the calibrated tracing cost, and shares are
        of their total; *wall_s* is the traced wall.  ``other`` is
        garbage collection plus any part of the wall no frame covered, so
        the shares sum to one."""
        n = len(LAYERS)
        cost = [self.calls[i] * self.cost_in + self.children[i] * self.cost_out
                for i in range(n)]
        cost[ENGINE] += self.scheduled * self.cost_schedule
        net = [max(self.self_ns[i] - cost[i], 0.0) for i in range(n)]
        uncovered = wall_s * 1e9 - sum(self.self_ns)
        net[OTHER] = max(self.gc_ns + uncovered, 0.0)
        total = sum(net)
        out = {}
        for i, name in enumerate(LAYERS):
            calls = self.calls[i]
            out[name] = {
                "self_share": net[i] / total if total else 0.0,
                "self_s": net[i] / 1e9,
                "calls": float(calls),
                "ns_per_call": net[i] / calls if calls else 0.0,
            }
        return out


def _import(module: str):
    __import__(module)
    return sys.modules[module]


def _module_classes(module):
    for obj in vars(module).values():
        if (inspect.isclass(obj) and obj.__module__ == module.__name__
                and not issubclass(obj, (enum.Enum, BaseException))):
            yield obj


@functools.lru_cache(maxsize=None)
def entry_points() -> Tuple[Tuple[type, str, str], ...]:
    """Every ``(class, method name, layer)`` the traced run wraps: the
    public methods of each class defined in a layer module, plus
    :data:`EXTRA_ENTRY_POINTS`.  The schedulers are listed separately."""
    points = []
    for module_name in sorted(_layer_modules()):
        layer = layer_of_module(module_name)
        for cls in _module_classes(_import(module_name)):
            for name, obj in sorted(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if module_name == "repro.sim.engine" and name in SCHEDULERS:
                    continue
                points.append((cls, name, layer))
    for module_name, cls_name, name, layer in EXTRA_ENTRY_POINTS:
        points.append((getattr(_import(module_name), cls_name), name, layer))
    return tuple(points)


def _layer_modules() -> List[str]:
    """Every imported-or-importable module that maps to a layer."""
    import pkgutil

    names = set()
    for prefix in MODULE_LAYERS:
        module = _import(prefix)
        names.add(prefix)
        path = getattr(module, "__path__", None)
        if path is not None:
            for info in pkgutil.iter_modules(path, prefix + "."):
                names.add(info.name)
    return [n for n in names if layer_of_module(n) is not None]


class Installation:
    """The wrappers one :func:`install` put in place, for undoing."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        #: (owner, attribute name, original object)
        self.originals: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, new) -> None:
        self.originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.originals):
            setattr(owner, name, original)
        if self.clock.on_gc in gc.callbacks:
            gc.callbacks.remove(self.clock.on_gc)
        self.originals = []


def _scheduler(clock: LayerClock, original: Callable) -> Callable:
    """``Simulator.schedule``-shaped wrapper: the queueing itself is
    charged to ``engine``, and the callback is queued inside a frame of
    the layer whose module defines it (unattributed modules get no frame,
    so their callbacks count towards the dispatching engine).

    A bound method is queued as its function wrapped once per function,
    with the instance as the first argument, so the common case creates
    no wrapper per event."""
    enter, exit_, framed = clock.enter, clock.exit, clock.framed
    wrapped_funcs: Dict[Callable, Optional[Callable]] = {}
    layers: Dict[Optional[str], Optional[int]] = {}

    def layer_of(obj) -> Optional[int]:
        module = getattr(obj, "__module__", None)
        try:
            return layers[module]
        except KeyError:
            name = layer_of_module(module)
            layers[module] = LAYER_INDEX[name] if name else None
            return layers[module]

    def schedule(self, when, fn, *args):
        enter(ENGINE)
        clock.scheduled += 1
        try:
            func = getattr(fn, "__func__", None)
            if func is not None:
                try:
                    wrapped = wrapped_funcs[func]
                except KeyError:
                    layer = layer_of(func)
                    wrapped = wrapped_funcs[func] = (
                        None if layer is None else framed(func, layer))
                if wrapped is not None:
                    return original(self, when, wrapped, fn.__self__, *args)
                return original(self, when, fn, *args)
            layer = layer_of(fn)
            if layer is not None:
                fn = framed(fn, layer)
            return original(self, when, fn, *args)
        finally:
            exit_()

    return functools.wraps(original)(schedule)


def _schedule_cost(loops: int, trials: int) -> float:
    """Extra ns per queued event of the wrapped scheduler (best of
    *trials*), frame included, for the common bound-method callback."""
    from repro.sim.engine import Clock, Simulator

    original = Simulator.__dict__["schedule"]
    callback = Clock(1000.0).next_edge
    best = float("inf")
    for _ in range(trials):
        sim = Simulator()
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            original(sim, 5, callback, 1)
        plain = time.perf_counter_ns() - t0
        scratch = LayerClock()
        wrapped = _scheduler(scratch, original)
        sim = Simulator()
        scratch.enter(HARNESS)
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            wrapped(sim, 5, callback, 1)
        traced = time.perf_counter_ns() - t0
        scratch.exit()
        best = min(best, (traced - plain) / loops)
    return best


def install(clock: LayerClock) -> Installation:
    """Calibrate *clock*, then wrap every entry point on its class;
    returns the undo record."""
    from repro.sim.engine import Simulator

    clock.calibrate()
    inst = Installation(clock)
    for cls, name, layer in entry_points():
        original = cls.__dict__[name]
        inst.replace(cls, name, functools.wraps(original)(
            clock.framed(original, LAYER_INDEX[layer])))
    for name in SCHEDULERS:
        inst.replace(Simulator, name,
                     _scheduler(clock, Simulator.__dict__[name]))
    gc.callbacks.append(clock.on_gc)
    return inst


def snapshot_targets() -> Dict[Tuple[type, str], object]:
    """The current object behind every attribute :func:`install` wraps;
    equal snapshots before and after a run prove it ran unwrapped."""
    from repro.sim.engine import Simulator

    snap = {(cls, name): cls.__dict__[name]
            for cls, name, _layer in entry_points()}
    for name in SCHEDULERS:
        snap[(Simulator, name)] = Simulator.__dict__[name]
    return snap


# -- cProfile cross-check ------------------------------------------------


def _module_of_file(filename: str, src_root: str) -> Optional[str]:
    try:
        rel = os.path.relpath(filename, src_root)
    except ValueError:
        return None
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    rel = rel[:-3].replace(os.sep, ".")
    return rel[:-len(".__init__")] if rel.endswith(".__init__") else rel


def _code_key(fn) -> Tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def cprofile_shares(stats: dict, src_root: str,
                    roots: Tuple[Callable, ...] = ()) -> Dict[str, float]:
    """Group cProfile self time into layers by the traced run's rule.

    *stats* is ``pstats.Stats(...).stats``.  A function the tracer wraps
    (an entry point, one of *roots*, or a callback the engine dispatched
    from a layer module) is charged to its own layer; any other function — helpers, properties, builtins — is
    charged to the layers its callers are charged to, in proportion to
    the self time each caller edge recorded.  Returns each layer's share
    of the total, with ``other`` (garbage collection, which cProfile
    cannot see apart) left at zero.
    """
    from repro.sim.engine import Simulator

    framed: Dict[Tuple[str, int, str], str] = {}
    for cls, name, layer in entry_points():
        framed[_code_key(inspect.unwrap(cls.__dict__[name]))] = layer
    for name in SCHEDULERS:
        framed[_code_key(inspect.unwrap(Simulator.__dict__[name]))] = "engine"
    for fn in roots:
        module = _module_of_file(fn.__code__.co_filename, src_root)
        framed[_code_key(fn)] = layer_of_module(module) or "other"
    dispatchers = {_code_key(Simulator.run), _code_key(Simulator.step)}

    memo: Dict[tuple, Dict[str, float]] = {}

    def own_layer(key) -> Optional[str]:
        return layer_of_module(_module_of_file(key[0], src_root))

    def dist(key) -> Dict[str, float]:
        if key in memo:
            return memo[key]
        if key in framed:
            memo[key] = {framed[key]: 1.0}
            return memo[key]
        memo[key] = {}  # recursion guard: a cycle contributes nothing
        callers = stats[key][4] if key in stats else {}
        total = sum(edge[2] for edge in callers.values())
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[2] / total if total > 0 else 1.0 / len(callers)
            layer = own_layer(key) if caller in dispatchers else None
            sub = {layer: 1.0} if layer else dist(caller)
            for name, frac in sub.items():
                out[name] = out.get(name, 0.0) + weight * frac
        norm = sum(out.values())
        memo[key] = ({k: v / norm for k, v in out.items()} if norm
                     else {"other": 1.0})
        return memo[key]

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000))
    totals = {name: 0.0 for name in LAYERS}
    for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for name, frac in dist(key).items():
            totals[name] += tt * frac
    grand = sum(totals.values()) or 1.0
    return {name: v / grand for name, v in totals.items()}
