"""Whole-machine snapshot and restore.

A snapshot is one stock :mod:`pickle` of the live simulation graph
rooted at the :class:`~repro.core.system.PiranhaSystem`: the event queue
(with every pending continuation — CPU callbacks, MSHR fills,
protocol-thread wake-ups, the sampler/audit tickers), every cache,
directory, TSRF and router, the attached workload, and the
process-global memory-transaction counter.  The pickle memo preserves
shared-object identity across the graph, so a restored bound method of
an L2 bank re-links to the *restored* bank.  No closure or lambda is
stored on a component or placed in the event queue: continuations are
bound methods whose state rides in their TSRF entry or their
``schedule(fn, *args)`` arguments, which is what lets stock pickle
serialise the whole machine.

Capture timing matters: a snapshot taken mid-event would freeze a
half-executed handler.  Every capture path here runs *between* events —
:class:`WarmCapture` rides the system's ``on_warm_boundary`` hook (which
the system schedules as its own 0-delay event), and
:class:`PeriodicCheckpointer` ticks through ``schedule_every``.

Restores never call :meth:`~repro.core.system.PiranhaSystem.start` —
the restored event queue already holds the CPU continuations and
periodic tickers; ``start()`` is idempotent so
``run_to_completion()`` on a restored system degenerates to
:meth:`~repro.core.system.PiranhaSystem.resume`.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import Any, Dict, Optional, Tuple

from ..core import messages

__all__ = [
    "snapshot_bytes", "restore_system",
    "WarmCapture", "PeriodicCheckpointer", "WindowHandoff",
]


def snapshot_bytes(system) -> bytes:
    """Serialise a whole simulated machine to a payload byte string.

    Must be called between events (see the module docstring).  Alongside
    the system graph the payload carries the module-global transaction-id
    counter (:data:`repro.core.messages._txn_ids`), so restored runs draw
    the same txn ids as the uninterrupted run — ``itertools.count``
    pickles to its next value without being consumed.
    """
    state = {
        "system": system,
        "txn_counter": messages._txn_ids,
    }
    return pickle.dumps(state, protocol=4)


def restore_system(payload: bytes):
    """Rebuild the simulated machine from a payload byte string.

    Reassigns the module-global transaction-id counter as a side effect
    (one simulation runs per process, so the global is unambiguous).
    Returns the restored :class:`~repro.core.system.PiranhaSystem`; its
    workload is reachable as ``system.workload``.
    """
    state = pickle.loads(payload)
    messages._txn_ids = state["txn_counter"]
    return state["system"]


class WarmCapture:
    """Capture one snapshot at the system's warm-up boundary.

    Installs itself as the one-shot ``on_warm_boundary`` callback; the
    system schedules it as a 0-delay event right after
    ``reset_module_stats()``, so the snapshot lands between events with
    all measurement counters freshly zeroed — the canonical point to
    fan measurement runs out from.

    With ``halt=True`` the remaining event queue is discarded after the
    capture (the ``repro checkpoint save`` verb wants the snapshot, not
    the measurement phase).  The capture object itself is unreachable
    from the system at capture time (the hook was cleared before the
    event fired), so the snapshot never contains its own bytes.

    *sink*, when given, is called as ``sink(payload, sim_now)`` right at
    the boundary — the warm store uses it to persist the snapshot
    *before* the measurement phase runs, so a run killed mid-measurement
    still leaves its warm state behind for the re-run.
    """

    def __init__(self, system, halt: bool = False, sink=None) -> None:
        self.system = system
        self.halt = halt
        self.sink = sink
        self.payload: Optional[bytes] = None
        self.sim_now: Optional[int] = None
        system.on_warm_boundary = self._capture

    def _capture(self) -> None:
        self.payload = snapshot_bytes(self.system)
        self.sim_now = self.system.sim.now
        if self.sink is not None:
            self.sink(self.payload, self.sim_now)
        if self.halt:
            self.system.sim.halt()

    @property
    def captured(self) -> bool:
        return self.payload is not None


class WindowHandoff:
    """Snapshot/restore hand-off at sampled-simulation phase boundaries.

    The fast-forward orchestrator calls :meth:`handoff` between phases —
    the event queue drained and every CPU parked, so the capture-timing
    contract holds trivially.  The machine is serialised through the
    standard snapshot path and immediately rebuilt from its own payload:
    every detailed measurement window then runs on a machine that
    provably round-tripped the checkpoint subsystem, which is what the
    bit-identity gate checks.

    ``reuse_generators=True`` short-circuits the one expensive part of
    an in-process restore: a restored workload thread normally rebuilds
    its generator by replaying ``emitted`` items from the seed, which is
    O(stream position) per window.  Since the pre-snapshot threads are
    still live in this process and their generators sit at exactly the
    emitted counts the snapshot recorded, the live generators can be
    moved onto the restored threads — the streams are identical either
    way (replay is deterministic), replay is just the slow fully
    self-contained path.
    """

    def __init__(self, reuse_generators: bool = True) -> None:
        self.reuse_generators = reuse_generators
        self.captures = 0
        self.bytes_total = 0

    def handoff(self, system):
        """Snapshot *system* and return the machine restored from it."""
        payload = snapshot_bytes(system)
        self.captures += 1
        self.bytes_total += len(payload)
        restored = restore_system(payload)
        if self.reuse_generators:
            old = {(node.node_id, cpu.cpu_id): cpu.thread
                   for node in system.nodes for cpu in node.cpus
                   if cpu.thread is not None}
            for node in restored.nodes:
                for cpu in node.cpus:
                    thread = cpu.thread
                    prev = old.get((node.node_id, cpu.cpu_id))
                    if (thread is not None and prev is not None
                            and getattr(thread, "_gen", None) is None
                            and getattr(prev, "_gen", None) is not None
                            and not getattr(thread, "_exhausted", False)
                            and prev.emitted == thread.emitted):
                        thread._gen = prev._gen
                        prev._gen = None
        return restored


class PeriodicCheckpointer:
    """Keep the last *keep* snapshots on a fixed simulated-time period.

    The fuzz/sanitizer flows use this as a flight recorder: when a run
    dies with a violation, the most recent pre-violation snapshot is
    restored, the protocol trace is armed at full capacity, and only the
    final window is replayed — seconds instead of the whole run, with
    the interesting history guaranteed to fit the trace ring.

    The ticker rides ``schedule_every``, which means the pending tick is
    itself part of every snapshot (it is an event in the pickled queue).
    Two consequences are handled here:

    * the blob buffer is swapped out during capture so snapshots never
      snowball their predecessors into themselves;
    * a *restored* checkpointer wakes with an empty buffer (its buffer
      was ``None`` inside its own snapshot) and simply starts refilling.
    """

    def __init__(self, system, every_ps: int, keep: int = 2,
                 on_capture=None) -> None:
        if every_ps <= 0:
            raise ValueError("checkpoint period must be positive")
        if keep < 1:
            raise ValueError("must keep at least one snapshot")
        self.system = system
        self.every_ps = int(every_ps)
        self.keep = keep
        self.snapshots: Optional[deque] = deque(maxlen=keep)
        self.captures = 0
        #: optional ``cb(sim_now_ps, payload_bytes_len)`` after each
        #: capture — live telemetry hangs here.  Host-side observer: it
        #: is *on* the checkpointer, which is never inside its own
        #: snapshots, so payloads stay free of open stream handles.
        self.on_capture = on_capture

    def start(self) -> None:
        """Arm the periodic ticker (call once, before the run)."""
        self.system.sim.schedule_every(self.every_ps, self.tick)

    def tick(self) -> bool:
        """Capture one snapshot; stays scheduled while CPUs run."""
        saved, self.snapshots = self.snapshots, None
        try:
            payload = snapshot_bytes(self.system)
            now = self.system.sim.now
        finally:
            self.snapshots = (saved if saved is not None
                              else deque(maxlen=self.keep))
        self.snapshots.append((now, payload))
        self.captures += 1
        cb = getattr(self, "on_capture", None)
        if cb is not None:
            cb(now, len(payload))
        return self.system.has_running_cpus()

    def __getstate__(self) -> Dict[str, Any]:
        # The pending tick (a bound method in the pickled event queue)
        # drags the checkpointer itself into every snapshot; strip the
        # host-side capture hook so open telemetry handles never try to
        # ride a snapshot.  (The buffer is already None during capture.)
        state = dict(self.__dict__)
        state["on_capture"] = None
        return state

    def latest(self) -> Optional[Tuple[int, bytes]]:
        """Most recent ``(sim_now_ps, payload)``, or None."""
        if not self.snapshots:
            return None
        return self.snapshots[-1]

    def telemetry(self) -> Dict[str, Any]:
        return {
            "checkpoint_every_ps": self.every_ps,
            "checkpoint_captures": self.captures,
            "checkpoint_buffered": len(self.snapshots or ()),
        }
