"""Interval time-series sampler.

Snapshots a flat dictionary of monotonic counters on a fixed simulated-time
period and emits per-interval *deltas* plus instantaneous gauges.  The
series is the raw material for warm-up detection and phase plots: a run
that has reached steady state shows flat per-interval IPC / miss-rate
curves, while the cold-cache ramp is clearly visible in the first
intervals.

Design notes:

* The sampler never resets its own history at the warm-up boundary — the
  whole point of the series is to *see* the warm-up transient.  Instead,
  :meth:`note_reset` re-baselines the counter snapshot and flags the
  interval that contains the reset, so downstream consumers can mark it.
* Deltas are clamped at zero.  Per-CPU accounting (instructions, stall
  time) is zeroed at each CPU's own warm-up point rather than the global
  module-stats reset, so an interval that straddles those per-CPU resets
  can observe a counter moving backwards; the clamp keeps the series sane
  and the ``reset`` flag marks the global boundary.
* :meth:`tick` returns True while the workload is still running, which is
  exactly the contract of :meth:`Simulator.schedule_every` — the sampler
  stops rescheduling itself once the last CPU finishes so the event queue
  can drain.
* :meth:`finalize` emits one final partial interval so even runs shorter
  than two periods produce a usable (>= 2 point) series.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

CounterFn = Callable[[], Dict[str, float]]
GaugeFn = Callable[[], Dict[str, float]]
DeriveFn = Callable[[Dict[str, float], int], Dict[str, float]]


class IntervalSampler:
    """Periodic delta sampler over a flat counter dictionary."""

    #: optional ``cb(record)`` invoked after each interval record is
    #: appended — the live-telemetry stream hangs here.  Host-side
    #: observer, set per instance and stripped from checkpoints (see
    #: :meth:`__getstate__`).
    on_record: Optional[Callable[[Dict[str, object]], None]] = None

    def __init__(
        self,
        sim,
        interval_ps: int,
        collect_counters: CounterFn,
        collect_gauges: Optional[GaugeFn] = None,
        derive: Optional[DeriveFn] = None,
        running: Optional[Callable[[], bool]] = None,
    ) -> None:
        if interval_ps <= 0:
            raise ValueError("sample interval must be positive")
        self.sim = sim
        self.interval_ps = int(interval_ps)
        self._collect = collect_counters
        self._gauges = collect_gauges
        self._derive = derive
        self._running = running
        self.intervals: List[Dict[str, object]] = []
        self._prev: Optional[Dict[str, float]] = None
        self._prev_time = 0
        self._reset_pending = False
        self._started = False
        self._finalized = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Baseline the counters and begin periodic sampling."""
        if self._started:
            return
        self._started = True
        self._prev = dict(self._collect())
        self._prev_time = self.sim.now
        self.sim.schedule_every(self.interval_ps, self.tick)

    def tick(self) -> bool:
        """Record one interval; return True to stay scheduled."""
        self._record(self.sim.now)
        if self._running is not None and not self._running():
            return False
        return True

    def flush(self) -> None:
        """Emit the current partial interval (if any time has elapsed).
        Call *before* zeroing counters so the record sees true deltas."""
        if self._started and self.sim.now > self._prev_time:
            self._record(self.sim.now)

    def note_reset(self) -> None:
        """The system zeroed its module statistics (warm-up boundary).

        Call :meth:`flush` before the zeroing and this after: the
        baseline restarts at the reset instant and the next interval —
        the one beginning at the reset — carries the ``reset`` flag
        (and, when the reset landed mid-interval, the ``partial`` flag,
        so its deltas are never attributed to a full period).  The
        series itself is never discarded (warm-up detection needs the
        ramp).
        """
        if not self._started:
            return
        self._prev = dict(self._collect())
        self._prev_time = self.sim.now
        self._reset_pending = True

    def finalize(self) -> None:
        """Emit the final partial interval (if any time has elapsed).

        Idempotent at a fixed time via :meth:`_record`'s zero-width skip
        rather than a latch, so an early-terminated run (max-events
        bound, operator interrupt) that later *resumes* still flushes
        the true tail: each finalize emits whatever partial interval has
        accumulated since the last record, flagged ``partial``.
        """
        if not self._started:
            return
        self._finalized = True
        if self.sim.now > self._prev_time:
            self._record(self.sim.now)

    # -- internals -------------------------------------------------------

    def _record(self, now_ps: int) -> None:
        dt = now_ps - self._prev_time
        if dt <= 0:
            # A tick (or flush/finalize race) landing exactly on the
            # previous anchor — e.g. a sampling-window boundary at a
            # snapshot/reset timestamp — must not emit a zero-width
            # record: downstream rate computations would divide by a
            # zero interval, and a pending ``reset`` flag would be
            # consumed by an interval no time ever passed through.
            # Skip without re-baselining so the flag survives to the
            # first real interval.
            return
        cur = dict(self._collect())
        prev = self._prev or {}
        deltas = {
            key: max(0.0, value - prev.get(key, 0.0))
            for key, value in cur.items()
        }
        record: Dict[str, object] = {
            "index": len(self.intervals),
            "t0_ps": self._prev_time,
            "t1_ps": now_ps,
            "reset": self._reset_pending,
            # Intervals whose width differs from the period (the flush
            # before a module-stats reset, the re-baselined interval
            # after it, the final finalize() tail) carry a ``partial``
            # marker so consumers never attribute their deltas to a
            # full period.
            "partial": dt != self.interval_ps,
            "deltas": deltas,
        }
        if self._gauges is not None:
            record["gauges"] = dict(self._gauges())
        if self._derive is not None:
            record["derived"] = dict(self._derive(deltas, dt))
        self.intervals.append(record)
        self._prev = cur
        self._prev_time = now_ps
        self._reset_pending = False
        cb = self.on_record
        if cb is not None:
            cb(record)

    # -- checkpoint/restore ------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Everything except ``on_record``.  The collector callables are
        bound methods of the system graph, so a restored sampler keeps
        collecting from the restored components, and its pending
        ``schedule_every`` tick rides the simulator's pickled event queue
        (no re-arming).  ``on_record`` points at host-side sinks (an open
        telemetry file handle) that can neither pickle nor transfer
        across processes: a restored sampler reads the class default
        None until the harness re-attaches its stream."""
        state = dict(self.__dict__)
        state.pop("on_record", None)
        return state

    # -- export ----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "interval_ps": self.interval_ps,
            "count": len(self.intervals),
            "intervals": self.intervals,
        }
