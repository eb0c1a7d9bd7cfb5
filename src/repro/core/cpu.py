"""Processor core models.

The Piranha core (Section 2.1) is a single-issue, in-order, 500 MHz,
eight-stage pipeline; most instructions execute in one cycle, and its
blocking L1s stall it for the full duration of every miss.  The INO
baseline is the same execution model at 1 GHz.

The OOO baseline models an aggressive 1 GHz four-issue out-of-order core
with a 64-entry instruction window: its busy time is scaled by the
workload's available ILP (commercial workloads expose little — the paper's
motivation), its window hides a bounded slice of each *dependent* miss, and
up to ``max_outstanding`` independent (streaming) misses overlap fully.
The hidden slice of a dependent miss is charged as busy time when the miss
returns and credited back against subsequent computation, so total time
remains exactly busy + effective stall.

CPUs consume *workload threads*: iterators yielding
``(instructions, kind, addr, dependent)`` items (see
:mod:`repro.workloads.base`).  L1 hits are folded into the issuing CPU's
local time — only misses enter the event-driven memory system — which is
what makes whole-workload simulation tractable.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..sim.engine import Component, Simulator, ns
from .config import ChipConfig
from .messages import (
    IFETCH,
    MEMBAR,
    MEMORY_SOURCES,
    ON_CHIP_SOURCES,
    WH64,
    AccessKind,
    MemRequest,
    ReplySource,
    request_for,
)

#: Upper bound on hit-folding: after this many instructions the CPU yields
#: an event so cross-CPU interactions (invalidations) stay timely.
MAX_BATCH_INSTRUCTIONS = 256

WorkItem = Tuple[int, Optional[AccessKind], int, bool]

#: Sentinel address in a ``(0, None, WARMUP_DONE, ...)`` item: the thread
#: finished its warm-up phase; the CPU zeroes its accounting (caches stay
#: warm) and tells the system, which resets shared-module statistics once
#: every CPU has warmed.
WARMUP_DONE = -1


class CpuCore(Component):
    """Base class: workload-driven core attached to its iL1/dL1 pair."""

    def __init__(self, sim: Simulator, name: str, chip, cpu_id: int,
                 config: ChipConfig) -> None:
        super().__init__(sim, name)
        self.chip = chip
        self.cpu_id = cpu_id
        self.config = config
        self.clock = config.core.clock()
        self.thread: Optional[Iterator[WorkItem]] = None
        self._l1i = self._l1d = None  # resolved in start()
        self._node_id = chip.node_id
        self.finished = False
        self.finish_time: Optional[int] = None
        self.start_time: int = 0
        # accounting (picoseconds)
        self.busy_ps = 0
        self.stall_ps: Dict[ReplySource, int] = {s: 0 for s in ReplySource}
        #: misses serviced per reply source.  With stall_ps this gives the
        #: counter-derived mean service latency per source, the anchor the
        #: probe cross-check in CI compares against (exact for in-order
        #: cores, where every miss stalls for its full service time).
        self.stall_counts: Dict[ReplySource, int] = {s: 0 for s in ReplySource}
        self.instructions = 0
        self.refs = 0
        self.misses = 0
        self.fence_stall_ps = 0
        self._fence_start = 0
        self.c_wh64 = self.stats.counter("wh64_issued")
        self.c_membar = self.stats.counter("membars")
        #: optional completion observer (the fuzz reference checker):
        #: called as ``obs_hook(kind, addr)`` synchronously inside the
        #: event that completes each data access or fence, so the caller
        #: can inspect cache state before anything else can intervene.
        #: The hot path pays a single ``is None`` test when unset.
        self.obs_hook = None
        self._obs_pending: Optional[Tuple[AccessKind, int]] = None
        #: optional explicit TLBs (see core.tlb); enabled by a positive
        #: L1Params.tlb_refill_ns
        self.tlb_refill_ps = int(config.l1.tlb_refill_ns * 1000)
        if self.tlb_refill_ps:
            from .tlb import Tlb

            self.itlb = Tlb(config.l1.tlb_entries, config.l1.tlb_assoc)
            self.dtlb = Tlb(config.l1.tlb_entries, config.l1.tlb_assoc)
        else:
            self.itlb = self.dtlb = None

    # -- public ------------------------------------------------------------

    def attach(self, thread: Iterator[WorkItem]) -> None:
        """Attach the workload thread this core will execute."""
        self.thread = thread

    def start(self) -> None:
        """Begin consuming the attached workload thread."""
        if self.thread is None:
            raise RuntimeError(f"{self.name}: no workload attached")
        # resolve the iL1/dL1 once; _run consults them per memory reference
        self._l1i = self.chip.l1_of(self.cpu_id, True)
        self._l1d = self.chip.l1_of(self.cpu_id, False)
        self.start_time = self.now
        self.schedule(0, self._run)

    @property
    def stall_on_chip_ps(self) -> int:
        """Stall serviced by the L2 or another on-chip L1 (Figure 5's
        'L2 hit' component)."""
        return sum(self.stall_ps[s] for s in ON_CHIP_SOURCES)

    @property
    def stall_memory_ps(self) -> int:
        """Stall serviced by local or remote memory ('L2 miss')."""
        return sum(self.stall_ps[s] for s in MEMORY_SOURCES)

    @property
    def total_ps(self) -> int:
        return (self.busy_ps + sum(self.stall_ps.values())
                + self.fence_stall_ps)

    # -- execution ---------------------------------------------------------

    def _run(self) -> None:
        raise NotImplementedError

    def reset_accounting(self) -> None:
        """Zero time/miss accounting (cache state is untouched)."""
        self.busy_ps = 0
        self.stall_ps = {s: 0 for s in ReplySource}
        self.stall_counts = {s: 0 for s in ReplySource}
        self.instructions = 0
        self.refs = 0
        self.misses = 0
        self.fence_stall_ps = 0
        self.start_time = self.now

    def _do_fence(self) -> None:
        """Alpha MB: wait until every eager exclusive grant this CPU
        received has gathered its invalidation acknowledgements."""
        self.c_membar.inc()
        self._fence_start = self.now
        if self.chip.fence(self.cpu_id, self._fence_resume):
            if self.obs_hook is not None:
                self.obs_hook(MEMBAR, 0)
            self._run()

    def _fence_resume(self) -> None:
        self.fence_stall_ps += self.now - self._fence_start
        if self.obs_hook is not None:
            self.obs_hook(MEMBAR, 0)
        self._run()

    def _obs_complete(self) -> None:
        """Fire the observer for the data miss that just completed (the
        pending op was noted at issue; misses on these cores complete
        one at a time, so a single slot suffices)."""
        pending = self._obs_pending
        if pending is not None:
            self._obs_pending = None
            self.obs_hook(pending[0], pending[1])

    def _issue(self, req: MemRequest, reqtype) -> None:
        req.issue_time = self.sim.now
        self.chip.issue_miss(req, reqtype)

    def _after_warmup(self) -> None:
        self.reset_accounting()
        self.chip.system.cpu_warmed_up(self.chip.node_id, self.cpu_id)
        self._run()

    def _finish(self) -> None:
        if not self.finished:
            self.finished = True
            self.finish_time = self.now
            self.chip.cpu_finished(self.cpu_id)


class InOrderCpu(CpuCore):
    """Single-issue in-order core with blocking caches (Piranha / INO)."""

    def _run(self) -> None:
        cycle = self.clock.period_ps
        obs_hook = self.obs_hook
        tlb_refill_ps = self.tlb_refill_ps
        accum = 0
        batch = 0
        thread = self.thread
        while True:
            try:
                instrs, kind, addr, _dep = next(thread)
            except StopIteration:
                self.busy_ps += accum
                self.schedule(accum, self._finish)
                return
            accum += instrs * cycle
            batch += instrs
            self.instructions += instrs
            if kind is None:
                if addr == WARMUP_DONE:
                    self.busy_ps += accum
                    self.schedule(accum, self._after_warmup)
                    return
                if batch >= MAX_BATCH_INSTRUCTIONS:
                    self.busy_ps += accum
                    self.schedule(accum, self._run)
                    return
                continue
            if kind == MEMBAR:
                self.busy_ps += accum
                self.schedule(accum, self._do_fence)
                return
            self.refs += 1
            is_instr = kind == IFETCH
            if tlb_refill_ps:
                tlb = self.itlb if is_instr else self.dtlb
                if not tlb.lookup(addr):
                    accum += tlb_refill_ps  # PAL refill executes code
            result = (self._l1i if is_instr else self._l1d).lookup(addr, kind)
            if result.hit:
                if obs_hook is not None and not is_instr:
                    obs_hook(kind, addr)
                if batch >= MAX_BATCH_INSTRUCTIONS:
                    self.busy_ps += accum
                    self.schedule(accum, self._run)
                    return
                continue
            # Miss: the in-order core stalls for the full service time.
            self.busy_ps += accum
            self.misses += 1
            if kind == WH64:
                self.c_wh64.inc()
            if obs_hook is not None and not is_instr:
                self._obs_pending = (kind, addr)
            req = MemRequest(self.cpu_id, kind, addr, is_instr,
                             self._miss_done, self._node_id)
            self.schedule(accum, self._issue, req,
                          request_for(kind, result.state))
            return

    def _miss_done(self, latency_ps: int, source: ReplySource) -> None:
        self.stall_ps[source] += latency_ps
        self.stall_counts[source] += 1
        if self.obs_hook is not None:
            self._obs_complete()
        self._run()


class OooCpu(CpuCore):
    """Four-issue out-of-order core with a 64-entry window (OOO baseline)."""

    def __init__(self, sim: Simulator, name: str, chip, cpu_id: int,
                 config: ChipConfig) -> None:
        super().__init__(sim, name, chip, cpu_id, config)
        self.overlap_ps = ns(config.core.overlap_ns)
        self.max_outstanding = config.core.max_outstanding
        self.credit_ps = 0
        self.outstanding = 0
        self._blocked = False
        self._drained_cb = False
        #: a memory barrier is waiting for the streaming misses to drain
        self._draining_fence = False

    def _ipc(self) -> float:
        ilp = getattr(self.thread, "ilp", 1.0)
        return max(1.0, min(float(self.config.core.issue_width), ilp))

    def _run(self) -> None:
        cycle = self.clock.period_ps
        ipc = self._ipc()
        obs_hook = self.obs_hook
        tlb_refill_ps = self.tlb_refill_ps
        accum = 0
        batch = 0
        thread = self.thread
        while True:
            try:
                instrs, kind, addr, dep = next(thread)
            except StopIteration:
                self.busy_ps += accum
                self._drained_cb = True
                self.schedule(accum, self._maybe_finish)
                return
            work = int(instrs * cycle / ipc)
            charged = max(0, work - self.credit_ps)
            self.credit_ps -= work - charged
            accum += charged
            batch += instrs
            self.instructions += instrs
            if kind is None:
                if addr == WARMUP_DONE:
                    self.busy_ps += accum
                    self.schedule(accum, self._after_warmup)
                    return
                if batch >= MAX_BATCH_INSTRUCTIONS:
                    self.busy_ps += accum
                    self.schedule(accum, self._run)
                    return
                continue
            if kind == MEMBAR:
                self.busy_ps += accum
                self._draining_fence = True
                self.schedule(accum, self._ooo_fence)
                return
            self.refs += 1
            is_instr = kind == IFETCH
            if tlb_refill_ps:
                tlb = self.itlb if is_instr else self.dtlb
                if not tlb.lookup(addr):
                    accum += tlb_refill_ps
            result = (self._l1i if is_instr else self._l1d).lookup(addr, kind)
            if result.hit:
                if obs_hook is not None and not is_instr:
                    obs_hook(kind, addr)
                if batch >= MAX_BATCH_INSTRUCTIONS:
                    self.busy_ps += accum
                    self.schedule(accum, self._run)
                    return
                continue
            self.misses += 1
            reqtype = request_for(kind, result.state)
            # An observed core serialises every miss: per-access
            # observation order must match program order, which streaming
            # (overlapped, out-of-order-completing) misses would break.
            streaming = (not dep and self.outstanding < self.max_outstanding
                         and obs_hook is None)
            if obs_hook is not None and not streaming and not is_instr:
                self._obs_pending = (kind, addr)
            req = MemRequest(
                self.cpu_id, kind, addr, is_instr,
                self._stream_done if streaming else self._dep_done,
                self._node_id)
            if streaming:
                # Independent miss: fully overlapped behind the window
                # (MSHR-style); only MSHR pressure can expose its latency.
                self.outstanding += 1
                self.schedule(accum, self._issue, req, reqtype)
                if batch >= MAX_BATCH_INSTRUCTIONS:
                    self.busy_ps += accum
                    self.schedule(accum, self._run)
                    return
                continue
            self.busy_ps += accum
            self._blocked = True
            self.schedule(accum, self._issue, req, reqtype)
            return

    def _dep_done(self, latency_ps: int, source: ReplySource) -> None:
        hidden = min(latency_ps, self.overlap_ps)
        self.stall_counts[source] += 1
        self.stall_ps[source] += latency_ps - hidden
        self.busy_ps += hidden
        self.credit_ps += hidden
        self._blocked = False
        if self.obs_hook is not None:
            self._obs_complete()
        self._run()

    def _stream_done(self, latency_ps: int, source: ReplySource) -> None:
        # streaming misses hide their whole latency, so stall_ps stays 0,
        # but the service count still feeds the per-source mean
        self.stall_counts[source] += 1
        self.outstanding -= 1
        if self._draining_fence and self.outstanding == 0:
            self._ooo_fence()
        if self._drained_cb:
            self._maybe_finish()

    def _ooo_fence(self) -> None:
        """An OOO MB first drains its own outstanding misses, then waits
        for the invalidation acks like the in-order core."""
        if self.outstanding > 0:
            return  # _stream_done re-invokes when the last one lands
        self._draining_fence = False
        self._do_fence()

    def _maybe_finish(self) -> None:
        if self.outstanding == 0 and not self._blocked:
            self._finish()


def make_cpu(sim: Simulator, name: str, chip, cpu_id: int,
             config: ChipConfig) -> CpuCore:
    """Factory selecting the core model from the configuration."""
    if config.core.model == "ooo":
        return OooCpu(sim, name, chip, cpu_id, config)
    return InOrderCpu(sim, name, chip, cpu_id, config)
