"""Discrete-event simulation engine.

The whole library runs on a single global-time event queue with an integer
picosecond clock.  Integer picoseconds make every clock domain in the paper
exact: the 500 MHz ASIC Piranha core has a 2000 ps cycle, the 1 GHz
out-of-order baseline a 1000 ps cycle, and the 1.25 GHz full-custom Piranha
an 800 ps cycle.  Using integers (rather than float nanoseconds) keeps event
ordering deterministic and reproducible across platforms.

The engine is deliberately minimal: modules interact by scheduling plain
callbacks.  Higher-level abstractions (transactional ports, pipelined
resources) live in :mod:`repro.sim.ports`.

``schedule`` and ``run`` are the two hottest functions in the whole
library (every simulated L1 miss, DRAM access and CPU batch goes through
both), so they trade a little repetition for flat, single-frame code
paths: ``run`` pops the heap directly instead of delegating to
:meth:`Simulator.step`, and ``schedule`` builds the heap entry inline
instead of delegating to :meth:`Simulator.schedule_at`.

A queued event is the bare heap entry ``(time, seq, fn, args)``: no
handle object is allocated and nothing can be cancelled.  An event, once
scheduled, fires; a module that may not want its callback any more
checks its own state when the callback runs (the periodic observers of
:meth:`Simulator.schedule_every` stop by returning a falsy value).
``(time, seq)`` is unique, so the heap never compares callbacks.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

#: Picoseconds per nanosecond; all latency constants in the config are
#: expressed in nanoseconds and converted once at configuration time.
PS_PER_NS = 1000


def ns(value: float) -> int:
    """Convert a nanosecond quantity into integer picoseconds."""
    return int(round(value * PS_PER_NS))


class Clock:
    """A clock domain.

    Piranha is explicitly organised around per-module clock domains with
    transactional interfaces between them (Section 2 of the paper); this
    class provides cycle/time conversion for one such domain.
    """

    def __init__(self, freq_mhz: float) -> None:
        if freq_mhz <= 0:
            raise ValueError(f"clock frequency must be positive, got {freq_mhz}")
        self.freq_mhz = freq_mhz
        #: period in integer picoseconds (1e12 ps/s divided by freq in Hz)
        self.period_ps = int(round(1e6 / freq_mhz))

    def cycles(self, n: float) -> int:
        """Return the duration of *n* cycles in picoseconds."""
        return int(round(n * self.period_ps))

    def next_edge(self, now_ps: int) -> int:
        """Return the first clock-edge time at or after *now_ps*."""
        rem = now_ps % self.period_ps
        if rem == 0:
            return now_ps
        return now_ps + (self.period_ps - rem)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock({self.freq_mhz} MHz, {self.period_ps} ps)"


class Simulator:
    """The event queue and global simulated time.

    Events at equal times fire in scheduling order (FIFO), which the
    coherence protocol relies on for the ordering properties the intra-chip
    switch guarantees in hardware.
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: heap of ``(time, seq, fn, args)`` entries
        self._queue: List[tuple] = []
        self._seq: int = 0
        self._events_fired: int = 0

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ps`` picoseconds from now."""
        if delay_ps < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ps})")
        heappush(self._queue, (self.now + delay_ps, self._seq, fn, args))
        self._seq += 1

    def schedule_every(self, interval_ps: int,
                       fn: Callable[[], Any]) -> None:
        """Run ``fn()`` every *interval_ps*, starting one interval from
        now, for as long as it returns a truthy value.

        Used for periodic observers (the interval telemetry sampler, the
        continuous protocol audit) that must stop rescheduling once the
        simulation goes quiescent — a perpetual timer would keep the
        event queue alive forever under run-to-drain.  Queued events
        cannot be cancelled, so returning a falsy value is the only way
        to stop the timer.

        The ticker is a :class:`_PeriodicTick` instance rather than a
        closure so a pending tick can ride a checkpoint: a restored event
        queue re-registers the periodic chain by simply firing the queued
        tick — no re-arming, no duplicate tickers.
        """
        if interval_ps <= 0:
            raise ValueError(
                f"repeat interval must be positive, got {interval_ps}")
        self.schedule(interval_ps, _PeriodicTick(self, interval_ps, fn))

    def schedule_at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time_ps}, now={self.now})"
            )
        heappush(self._queue, (time_ps, self._seq, fn, args))
        self._seq += 1

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        time_ps, _seq, fn, args = heappop(self._queue)
        self.now = time_ps
        self._events_fired += 1
        fn(*args)
        return True

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, *until_ps* passes, or
        *max_events* fire.  Returns the number of events fired."""
        q = self._queue
        pop = heappop
        start = self._events_fired
        if until_ps is None and max_events is None:
            # Hot path: run-to-drain (what every workload simulation uses).
            # No bound checks, locals bound outside the loop.
            while q:
                time_ps, _seq, fn, args = pop(q)
                self.now = time_ps
                self._events_fired += 1
                fn(*args)
            return self._events_fired - start
        # Bounded path.  The until_ps check only needs the head timestamp;
        # once an event at time T is admitted, every other event at exactly
        # T is admissible too, so the inner loop drains the whole timestamp
        # batch without re-checking the bound.
        limit = None if max_events is None else start + max_events
        while q:
            if until_ps is not None and q[0][0] > until_ps:
                self.now = until_ps
                break
            if limit is not None and self._events_fired >= limit:
                break
            time_ps, _seq, fn, args = pop(q)
            self.now = time_ps
            self._events_fired += 1
            fn(*args)
            while q and q[0][0] == time_ps:
                if limit is not None and self._events_fired >= limit:
                    break
                _t, _s, fn, args = pop(q)
                self._events_fired += 1
                fn(*args)
        return self._events_fired - start

    def halt(self) -> None:
        """Discard every pending event (the queue drains immediately).

        Used by checkpoint capture when the caller only needs the system
        state up to the snapshot point and not the rest of the run; the
        simulator itself stays usable (new events can be scheduled)."""
        self._queue = []

    def advance_to(self, time_ps: int) -> None:
        """Jump the clock to *time_ps* without firing anything.

        Statistical fast-forward phases advance machine state outside the
        event queue and then use this to move simulated time by their
        estimate.  Jumping over pending work would make those events fire
        in their own past, so every event earlier than the target must be
        drained (``run()``) first; this raises otherwise.
        """
        if time_ps < self.now:
            raise ValueError(
                f"cannot advance into the past (t={time_ps}, now={self.now})"
            )
        q = self._queue
        if q and q[0][0] < time_ps:
            raise RuntimeError(
                f"cannot fast-forward to {time_ps} ps past a pending "
                f"event at {q[0][0]} ps; drain the queue first"
            )
        self.now = time_ps

    @property
    def pending(self) -> int:
        """Number of events currently queued."""
        return len(self._queue)

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now} ps, pending={self.pending})"


class _PeriodicTick:
    """Picklable self-rescheduling callback behind
    :meth:`Simulator.schedule_every`.

    A plain class (not a closure) so a pending tick serialises with the
    event queue: after a restore the queued tick keeps the periodic chain
    alive on its original phase, with no re-registration step and no way
    to end up with duplicate tickers or a dropped interval.
    """

    __slots__ = ("sim", "interval_ps", "fn")

    def __init__(self, sim: Simulator, interval_ps: int,
                 fn: Callable[[], Any]) -> None:
        self.sim = sim
        self.interval_ps = interval_ps
        self.fn = fn

    def __call__(self) -> None:
        if self.fn():
            self.sim.schedule(self.interval_ps, self)


class Component:
    """Base class for simulated hardware modules.

    Gives every module a reference to the simulator, a hierarchical name,
    and a stats group.  Matches the paper's strict hierarchical
    decomposition: modules communicate exclusively through explicit
    interfaces, never by reaching into each other's internals.

    ``self.schedule`` is bound directly to :meth:`Simulator.schedule` (an
    instance attribute, not a wrapper method): every simulated event is
    scheduled through it, and the extra delegating frame showed up as
    measurable overhead in profiles.

    A component's checkpoint state is its instance dictionary: every
    module keeps its complete mutable state in instance attributes
    (DESIGN.md "Determinism") and none uses ``__slots__``, so stock
    pickle's default serialises it and no component defines pickling
    hooks.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        from .stats import StatGroup

        self.sim = sim
        self.name = name
        self.stats = StatGroup(name)
        self.schedule: Callable[..., None] = sim.schedule

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
