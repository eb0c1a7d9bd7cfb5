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

Cancellation is lazy: :meth:`EventHandle.cancel` only flags the handle,
and the dead heap entry is discarded when it surfaces.  The simulator
keeps an exact count of dead entries so :attr:`Simulator.pending` reports
live events only, and compacts the heap when dead entries outnumber live
ones, so long-lived simulations that cancel heavily (timeout patterns)
don't accumulate an ever-growing queue.
"""

from __future__ import annotations

import heapq
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


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled", "sim")

    def __init__(self, time: int, fn: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: owning simulator while the event is pending; cleared when the
        #: event fires so a late ``cancel()`` cannot corrupt the
        #: simulator's dead-entry accounting.
        self.sim = sim

    def cancel(self) -> None:
        """Cancel the event; a cancelled event is skipped when it fires.

        Cancelling an event that already fired (or cancelling twice) is a
        harmless no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancelled()


class Simulator:
    """The event queue and global simulated time.

    Events at equal times fire in scheduling order (FIFO), which the
    coherence protocol relies on for the ordering properties the intra-chip
    switch guarantees in hardware.
    """

    #: minimum number of dead (cancelled-but-queued) entries before the
    #: heap is considered for compaction; below this, scanning the heap
    #: costs more than lazily discarding the entries.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[tuple] = []
        self._seq: int = 0
        self._events_fired: int = 0
        self._dead: int = 0              # cancelled entries still queued
        self._events_cancelled: int = 0  # cumulative cancel() count

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay_ps`` picoseconds from now."""
        if delay_ps < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ps})")
        time_ps = self.now + delay_ps
        handle = EventHandle(time_ps, fn, args, self)
        heapq.heappush(self._queue, (time_ps, self._seq, handle))
        self._seq += 1
        return handle

    def schedule_every(self, interval_ps: int,
                       fn: Callable[[], Any]) -> EventHandle:
        """Run ``fn()`` every *interval_ps*, starting one interval from
        now, for as long as it returns a truthy value.

        Used for periodic observers (the interval telemetry sampler, the
        continuous protocol audit) that must stop rescheduling once the
        simulation goes quiescent — a perpetual timer would keep the
        event queue alive forever under run-to-drain.  Returns the handle
        for the first tick; cancelling it stops the timer only until the
        next reschedule, so observers should stop via their return value.

        The ticker is a :class:`_PeriodicTick` instance rather than a
        closure so a pending tick can ride a checkpoint: a restored event
        queue re-registers the periodic chain by simply firing the queued
        tick — no re-arming, no duplicate tickers.
        """
        if interval_ps <= 0:
            raise ValueError(
                f"repeat interval must be positive, got {interval_ps}")
        return self.schedule(interval_ps, _PeriodicTick(self, interval_ps, fn))

    def schedule_at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time_ps}, now={self.now})"
            )
        handle = EventHandle(time_ps, fn, args, self)
        heapq.heappush(self._queue, (time_ps, self._seq, handle))
        self._seq += 1
        return handle

    # -- cancellation bookkeeping ---------------------------------------

    def _note_cancelled(self) -> None:
        """Record one cancellation; compact the heap when dead entries
        outnumber live ones."""
        self._events_cancelled += 1
        self._dead += 1
        if self._dead >= self.COMPACT_MIN_DEAD and self._dead * 2 >= len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        ``(time, seq)`` keys are unique, so heapify preserves the exact
        FIFO-within-timestamp firing order.
        """
        self._queue = [e for e in self._queue if not e[2].cancelled]
        heapq.heapify(self._queue)
        self._dead = 0

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        q = self._queue
        while q:
            time_ps, _seq, handle = heapq.heappop(q)
            if handle.cancelled:
                self._dead -= 1
                continue
            handle.sim = None
            self.now = time_ps
            self._events_fired += 1
            handle.fn(*handle.args)
            return True
        return False

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, *until_ps* passes, or
        *max_events* fire.  Returns the number of events fired."""
        q = self._queue
        pop = heapq.heappop
        fired = 0
        if until_ps is None and max_events is None:
            # Hot path: run-to-drain (what every workload simulation uses).
            # No bound checks, locals bound outside the loop.
            while q:
                time_ps, _seq, handle = pop(q)
                if handle.cancelled:
                    self._dead -= 1
                    continue
                handle.sim = None
                self.now = time_ps
                self._events_fired += 1
                handle.fn(*handle.args)
                fired += 1
            return fired
        # Bounded path.  The until_ps check only needs the head timestamp;
        # once an event at time T is admitted, every other event at exactly
        # T is admissible too, so the inner loop drains the whole timestamp
        # batch without re-checking the bound.
        while q:
            head_ps = q[0][0]
            if until_ps is not None and head_ps > until_ps:
                self.now = until_ps
                break
            if max_events is not None and fired >= max_events:
                break
            time_ps, _seq, handle = pop(q)
            if handle.cancelled:
                self._dead -= 1
                continue
            handle.sim = None
            self.now = time_ps
            self._events_fired += 1
            handle.fn(*handle.args)
            fired += 1
            while q and q[0][0] == time_ps:
                if max_events is not None and fired >= max_events:
                    break
                _t, _s, h = pop(q)
                if h.cancelled:
                    self._dead -= 1
                    continue
                h.sim = None
                self._events_fired += 1
                h.fn(*h.args)
                fired += 1
        return fired

    def halt(self) -> None:
        """Discard every pending event (the queue drains immediately).

        Used by checkpoint capture when the caller only needs the system
        state up to the snapshot point and not the rest of the run; the
        simulator itself stays usable (new events can be scheduled)."""
        self._queue = []
        self._dead = 0

    def advance_to(self, time_ps: int) -> None:
        """Jump the clock to *time_ps* without firing anything.

        Statistical fast-forward phases advance machine state outside the
        event queue and then use this to move simulated time by their
        estimate.  Jumping over pending work would make those events fire
        in their own past, so any live event earlier than the target must
        be drained (``run()``) or cancelled first; this raises otherwise.
        """
        if time_ps < self.now:
            raise ValueError(
                f"cannot advance into the past (t={time_ps}, now={self.now})"
            )
        for entry in self._queue:
            if not entry[2].cancelled and entry[0] < time_ps:
                raise RuntimeError(
                    f"cannot fast-forward to {time_ps} ps past a pending "
                    f"event at {entry[0]} ps; drain the queue first"
                )
        self.now = time_ps

    # -- checkpoint/restore ----------------------------------------------

    def state_dict(self) -> dict:
        """Complete serialisable state: clock, event queue (handles carry
        their callbacks), sequence counter and cancellation accounting.
        The queue rides the snapshot verbatim, so FIFO-within-timestamp
        ordering is preserved exactly across a restore."""
        return dict(self.__dict__)

    def load_state(self, state: dict) -> None:
        self.__dict__.update(state)

    def __getstate__(self) -> dict:
        return self.state_dict()

    def __setstate__(self, state: dict) -> None:
        self.load_state(state)

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events currently queued."""
        return len(self._queue) - self._dead

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        """Total number of events cancelled so far."""
        return self._events_cancelled

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
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        from .stats import StatGroup

        self.sim = sim
        self.name = name
        self.stats = StatGroup(name)
        self.schedule: Callable[..., EventHandle] = sim.schedule

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self.sim.now

    # -- checkpoint/restore ----------------------------------------------
    #
    # Every simulated module keeps its complete mutable state in instance
    # attributes (DESIGN.md "Determinism"), so the default component
    # snapshot is simply the instance dictionary.  Subclasses with state
    # outside __dict__ override the pair; the checkpoint layer routes
    # pickling through these hooks so a component's notion of "its state"
    # stays in one place.

    def state_dict(self) -> dict:
        return dict(self.__dict__)

    def load_state(self, state: dict) -> None:
        self.__dict__.update(state)

    def __getstate__(self) -> dict:
        return self.state_dict()

    def __setstate__(self, state: dict) -> None:
        self.load_state(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
