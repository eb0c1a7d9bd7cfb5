"""Host profiler: where does the *simulator's* own host time go?

A statistical stack sampler that sits outside the simulation::

    with HostProfiler() as prof:
        system.run_to_completion()
    print(prof.render())

While the block runs, ``setitimer(ITIMER_PROF)`` delivers ``SIGPROF``
every :data:`INTERVAL` of process CPU time.  The handler walks from the
interrupted frame outwards to the first frame whose module owns a layer
(:data:`MODULE_LAYERS`, the table ``perfbench/README.md`` documents) and
counts one sample under that layer and the frame's function name.  Code
in modules outside the table (``core/messages.py``, ``core/system.py``,
the stats helpers, ...) is therefore charged to the layer that called
it, and a sample with no layer frame on the stack goes to ``other``.

Because it walks the real stack, the sampler charges work to the frame
that is doing it: the CPU and workload-generator work that
``L2Bank._fill`` resumes inline through ``MemRequest.complete`` lands on
``cpu`` and ``workload``, not on the L2 event that dispatched it.
Garbage collection cannot be interrupted by a Python-level handler, so
a signal that arrives during a collection is handled right after it; a
``gc.callbacks`` hook marks collections so those samples go to
``other``, as in the benchmark's traced run.

The simulator carries no profiling hook at all, so a profiled run is
bit-identical to an unprofiled one by construction.  Samples are
statistical: at the kernel's tick rate (often 250 Hz, whatever
:data:`INTERVAL` asks for) a one-second run collects a few hundred.
"""

from __future__ import annotations

import gc
import signal
import threading
import time
from typing import Dict, List, Optional, Tuple

#: requested seconds of process CPU time between samples; the kernel
#: rounds it up to its timer tick
INTERVAL = 0.001

#: every layer, in report order; ``other`` is garbage collection plus any
#: sample with no layer frame on the stack
LAYERS = ("engine", "cpu", "workload", "l1", "ics", "chip", "l2",
          "dup_tags", "directory", "rdram", "protocol_engine",
          "interconnect", "warm", "harness", "other")

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


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer that owns *module*, or None for unattributed modules."""
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return None


class HostProfiler:
    """Sampled host-time attribution over ``(layer, function)`` pairs.

    A context manager; it may be entered more than once, and the samples
    add up.  Only the main thread can take ``SIGPROF``, so entering from
    another thread, or on a platform without ``setitimer``, raises
    RuntimeError.
    """

    def __init__(self) -> None:
        #: (layer, function name) -> samples
        self.samples: Dict[Tuple[str, str], int] = {}
        #: process CPU seconds spent inside the ``with`` blocks
        self.cpu_s = 0.0
        self._layers: Dict[object, Optional[str]] = {}  # code -> layer
        self._in_gc = False
        self._previous = None
        self._cpu0 = 0.0

    # -- sampling --------------------------------------------------------

    def __enter__(self) -> "HostProfiler":
        if not hasattr(signal, "setitimer"):
            raise RuntimeError("host profiling needs signal.setitimer, "
                               "which this platform lacks")
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("host profiling must run in the main thread "
                               "(only it receives SIGPROF)")
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        gc.callbacks.append(self._on_gc)
        self._cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.cpu_s += time.process_time() - self._cpu0
        gc.callbacks.remove(self._on_gc)
        signal.signal(signal.SIGPROF, self._previous)

    def _on_gc(self, phase: str, _info: dict) -> None:
        self._in_gc = phase == "start"

    def _sample(self, _signum, frame) -> None:
        if self._in_gc:
            key = ("other", "<gc>")
        else:
            key = ("other", frame.f_code.co_name if frame else "?")
            layers = self._layers
            while frame is not None:
                code = frame.f_code
                try:
                    layer = layers[code]
                except KeyError:
                    layer = layers[code] = layer_of_module(
                        frame.f_globals.get("__name__"))
                if layer is not None:
                    key = (layer, code.co_name)
                    break
                frame = frame.f_back
        self.samples[key] = self.samples.get(key, 0) + 1

    # -- report ----------------------------------------------------------

    @property
    def total(self) -> int:
        return sum(self.samples.values())

    def shares(self) -> Dict[str, float]:
        """Fraction of samples per layer, every layer listed; they sum
        to 1 once any sample was taken."""
        counts = dict.fromkeys(LAYERS, 0)
        for (layer, _fn), n in self.samples.items():
            counts[layer] += n
        total = self.total
        return {layer: n / total if total else 0.0
                for layer, n in counts.items()}

    def hottest(self, limit: int = 20) -> List[Dict[str, object]]:
        """The *limit* most-sampled ``(layer, function)`` rows."""
        total = self.total or 1
        rows = sorted(self.samples.items(), key=lambda kv: (-kv[1], kv[0]))
        return [{"layer": layer, "function": fn, "samples": n,
                 "share": n / total}
                for (layer, fn), n in rows[:limit]]

    def as_dict(self, limit: int = 20) -> Dict[str, object]:
        return {
            "samples": self.total,
            "cpu_s": self.cpu_s,
            "shares": self.shares(),
            "hottest": self.hottest(limit),
        }

    def render(self, limit: int = 20) -> str:
        """The layer table and the hottest functions, for the terminal."""
        lines = [f"host profile: {self.total} samples over "
                 f"{self.cpu_s:.2f} s of process CPU time",
                 f"{'layer':<16} {'share':>6}"]
        for layer, share in sorted(self.shares().items(),
                                   key=lambda kv: -kv[1]):
            if share:
                lines.append(f"{layer:<16} {share * 100:>5.1f}%")
        lines.append(f"{'layer':<16} {'function':<36} {'share':>6} "
                     f"{'samples':>8}")
        for row in self.hottest(limit):
            lines.append(f"{row['layer']:<16} {row['function']:<36} "
                         f"{row['share'] * 100:>5.1f}% {row['samples']:>8}")
        return "\n".join(lines)
