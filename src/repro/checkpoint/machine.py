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

After a violation, :func:`replay_final_window` restores a
:class:`PeriodicCheckpointer`'s last snapshot and replays the final
window with the protocol trace armed; ``repro run`` and ``repro fuzz``
both bisect through it.

Restores never call :meth:`~repro.core.system.PiranhaSystem.start` —
the restored event queue already holds the CPU continuations and
periodic tickers; ``start()`` is idempotent so
``run_to_completion()`` on a restored system degenerates to
:meth:`~repro.core.system.PiranhaSystem.resume`.
"""

from __future__ import annotations

import pickle
from collections import deque
from types import SimpleNamespace
from typing import Any, Dict, Optional, Tuple

from ..core import messages
from ..core.checker import violation_signature

__all__ = [
    "snapshot_bytes", "restore_system",
    "WarmCapture", "PeriodicCheckpointer", "replay_final_window",
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


class PeriodicCheckpointer:
    """Keep the last *keep* snapshots on a fixed simulated-time period.

    The fuzz/sanitizer flows use this as a flight recorder: when a run
    dies with a violation, :func:`replay_final_window` restores the most
    recent pre-violation snapshot, arms the protocol trace at full
    capacity and replays only the final window — seconds instead of the
    whole run, with the interesting history guaranteed to fit the ring.

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
        cb = self.on_capture
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


def replay_final_window(checkpointer: Optional[PeriodicCheckpointer],
                        trace_capacity: int = 0,
                        tail: int = 48) -> Dict[str, Any]:
    """Restore *checkpointer*'s most recent snapshot and replay the
    final window with the protocol trace armed.

    The snapshot lies strictly before the violation (the capturing tick
    ran to completion), and the replay arms a fresh ring of at least 512
    events, so the run's interesting history fits it.  The replay runs
    the same end-of-run checks as a measurement: the quiesce audit and
    the workload's ``post_run`` (the fuzz residue check).

    Returns ``{}`` when no snapshot was buffered; otherwise
    ``restored_from_ps``, ``captures``, ``recurred``, ``trace_window``
    (the last *tail* events of the replayed window, formatted) and, when
    the violation recurred, its ``replay_signature`` and
    ``replay_message``.  A violation that does not recur means the
    simulation is not a pure function of its state; callers report it.
    """
    snap = checkpointer.latest() if checkpointer is not None else None
    if snap is None:
        return {}
    restored_ps, payload = snap
    info: Dict[str, Any] = {
        "restored_from_ps": restored_ps,
        "captures": checkpointer.captures,
        "recurred": False,
    }
    system = restore_system(payload)
    if system.checker is not None:
        system.arm_trace(max(trace_capacity, 512))
    try:
        system.run_to_completion()
        system.verify()
        post_run = getattr(system.workload, "post_run", None)
        if post_run is not None:
            post_run(system, SimpleNamespace(extras={}))
    except (AssertionError, RuntimeError) as exc:
        info.update(recurred=True, replay_signature=violation_signature(exc),
                    replay_message=str(exc))
    trace = system.checker.trace if system.checker is not None else None
    info["trace_window"] = ([ev.format() for ev in trace.events(last=tail)]
                            if trace is not None else [])
    return info
