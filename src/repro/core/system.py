"""Glueless multi-node Piranha systems (Figure 3).

A :class:`PiranhaSystem` builds N processing nodes (plus optional I/O
nodes), the point-to-point interconnect between them, the per-node
directory stores, and the shared authoritative memory image.  Single-node
systems skip the network entirely (the protocol engines stay idle); the
design allows glueless scaling to 1024 nodes with an arbitrary ratio of
I/O to processing nodes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..interconnect.router import Router, RouterParams, build_routers
from ..interconnect.topology import Topology, fully_connected, line, ring
from ..mem.addr import AddressMap
from ..sim.engine import Simulator
from .checker import CoherenceChecker, audit_system
from .chip import PiranhaChip
from .config import ChipConfig
from .directory import DirectoryStore


def default_topology(num_nodes: int) -> Topology:
    """Pick a sensible default: all-to-all up to 5 nodes (one hop
    everywhere, matching Table 1's flat remote latencies), a ring beyond."""
    if num_nodes <= 1:
        return line(1)
    if num_nodes <= 5:
        return fully_connected(num_nodes)
    return ring(num_nodes)


class PiranhaSystem:
    """One or more Piranha nodes plus interconnect and memory state."""

    def __init__(
        self,
        config: ChipConfig,
        num_nodes: int = 1,
        sim: Optional[Simulator] = None,
        topology: Optional[Topology] = None,
        checker: Optional[CoherenceChecker] = None,
        router_params: Optional[RouterParams] = None,
        home_granularity: int = 8192,
        io_nodes: int = 0,
    ) -> None:
        from .iochip import IoNode
        from ..interconnect.topology import attach_io_nodes

        self.sim = sim or Simulator()
        self.config = config
        total_nodes = num_nodes + io_nodes
        #: processing-node count; I/O nodes are numbered after these
        self.num_proc_nodes = num_nodes
        self.num_nodes = total_nodes
        self.address_map = AddressMap(total_nodes, home_granularity)
        if topology is None:
            topology = default_topology(num_nodes)
            if io_nodes:
                attach_io_nodes(topology, io_nodes)
        self.topology = topology
        self.checker = checker
        if checker is not None and checker.trace is not None:
            # stamp trace events with simulated time
            checker.trace.clock = self.sim_now
        #: continuous-audit state (see :meth:`enable_continuous_audit`)
        self._audit_interval_ps: Optional[int] = None
        self._audit_tsrf_timeout_ps: Optional[int] = None
        self.continuous_audits = 0
        #: transaction-probe collector (see :mod:`repro.core.probe`); must
        #: exist before chips are built — each chip caches a reference
        self.probes = None
        #: interval time-series sampler (see :mod:`repro.sim.sampler`)
        self.sampler = None
        #: causal span tracer (see :mod:`repro.observe.spans`); hangs off
        #: the probe collector's ``on_finish`` hook
        self.spans = None
        #: authoritative memory image: line -> committed version
        self.mem_versions: Dict[int, int] = {}
        self.dirstores: List[DirectoryStore] = [
            DirectoryStore(n, total_nodes) for n in range(total_nodes)
        ]
        self.nodes: List[PiranhaChip] = [
            PiranhaChip(self.sim, config, self, node_id=n)
            for n in range(num_nodes)
        ]
        self.io: List["IoNode"] = []
        for i in range(io_nodes):
            io_node = IoNode(self, config, node_id=num_nodes + i)
            self.io.append(io_node)
            self.nodes.append(io_node.chip)
        self.routers: Dict[int, Router] = {}
        if total_nodes > 1:
            self.routers = build_routers(self.sim, self.topology, router_params)
            for node in self.nodes:
                router = self.routers[node.node_id]
                router.iq.set_default_disposition(node.deliver_packet)
                node.attach_network(router.oq.offer)
        self._running_cpus = 0
        self._warmed_cpus = 0
        self._on_all_done: Optional[Callable[[], None]] = None
        self._started = False
        #: workload attached via :meth:`attach_workload` (checkpoint
        #: payloads carry it alongside the system)
        self.workload = None
        #: one-shot callback fired as a 0-delay event once every CPU has
        #: crossed its warm-up boundary.  Scheduling (rather than calling
        #: inline) lets checkpoint capture run *between* events, when the
        #: event queue is in a consistent snapshot-safe state.
        self.on_warm_boundary: Optional[Callable[[], None]] = None

    # -- workload control -----------------------------------------------------

    def attach_workload(self, workload) -> None:
        """Attach a workload object (see :mod:`repro.workloads.base`): it
        supplies one thread iterator per (node, cpu).  Each thread is told
        its (workload, node, cpu) origin so it can rebuild its generator
        after a checkpoint restore."""
        self.workload = workload
        for node in self.nodes:
            for cpu in node.cpus:
                thread = workload.thread_for(node.node_id, cpu.cpu_id)
                if thread is not None:
                    bind = getattr(thread, "bind_source", None)
                    if bind is not None:
                        bind(workload, node.node_id, cpu.cpu_id)
                    cpu.attach(thread)

    def start(self) -> None:
        """Start every CPU and the periodic observers.  Idempotent: a
        system restored from a checkpoint is already started — its CPU
        continuations and observer ticks live in the restored event queue
        — so a second start must not re-arm anything (duplicate tickers
        would double-count sampler intervals and audits)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            node.start_cpus()
            self._running_cpus += node.cpus_running
        if self._audit_interval_ps and self._running_cpus:
            self.sim.schedule_every(self._audit_interval_ps,
                                    self._continuous_audit)
        if self.sampler is not None and self._running_cpus:
            self.sampler.start()

    def cpu_warmed_up(self, node_id: int, cpu_id: int) -> None:
        """A CPU crossed its warm-up boundary; once all have, shared-module
        statistics (banks, memory channels, engines, switches) are zeroed
        so measurements cover only the steady-state phase."""
        self._warmed_cpus += 1
        if self._warmed_cpus >= self._running_cpus:
            self.reset_module_stats()
            if self.on_warm_boundary is not None:
                callback, self.on_warm_boundary = self.on_warm_boundary, None
                self.sim.schedule(0, callback)

    def reset_module_stats(self) -> None:
        # Time-weighted trackers are anchored at *now* so warm-up
        # occupancy area cannot pollute the steady-state means.
        now = self.sim.now
        if self.sampler is not None:
            # close the in-flight interval while the counters still hold
            # their pre-reset values (true deltas for the partial record)
            self.sampler.flush()
        for node in self.nodes:
            for bank in node.banks:
                bank.stats.reset_all(now)
            for mc in node.mcs:
                mc.stats.reset_all(now)
                mc.channel.stats.reset_all(now)
            node.ics.stats.reset_all(now)
            node.home_engine.stats.reset_all(now)
            node.remote_engine.stats.reset_all(now)
        for router in self.routers.values():
            router.stats.reset_all(now)
        if self.probes is not None:
            # probe classes/histograms should cover steady state only,
            # matching the counter-derived means they cross-check against
            self.probes.reset()
        if self.spans is not None:
            # the trace likewise covers steady state only, so span
            # durations reconcile with the post-reset probe histograms
            self.spans.reset()
        if self.sampler is not None:
            # the time series deliberately keeps its pre-reset history
            # (warm-up detection needs the ramp); it just re-baselines
            # and flags the interval containing the reset
            self.sampler.note_reset()

    def cpu_finished(self, node_id: int, cpu_id: int) -> None:
        self._running_cpus -= 1
        if self._running_cpus == 0 and self._on_all_done is not None:
            self._on_all_done()

    def run_to_completion(self, max_events: Optional[int] = None) -> int:
        """Start every CPU and run until all workload threads finish and
        the event queue drains.  Returns the finish time (ps).

        On a system restored from a checkpoint :meth:`start` is a no-op,
        so this is equivalent to :meth:`resume`."""
        self.start()
        return self.resume(max_events=max_events)

    def resume(self, max_events: Optional[int] = None) -> int:
        """Run an already-started (e.g. checkpoint-restored) system until
        the event queue drains; returns the finish time (ps).  Restored
        systems must not be re-started — their CPU continuations, sampler
        ticks and audit ticks are already in the event queue."""
        try:
            self.sim.run(max_events=max_events)
            if self._running_cpus != 0:
                raise RuntimeError(
                    f"simulation stalled with {self._running_cpus} CPUs "
                    f"running"
                )
        finally:
            # Flush the in-flight partial interval even when the run
            # terminates early (max-events bound, stall): the exported
            # series must never silently drop its tail.  The record
            # carries the ``partial`` flag; finalize() is idempotent at
            # a fixed simulated time, so a later resume still flushes
            # whatever accumulates afterwards.
            if self.sampler is not None:
                self.sampler.finalize()
        return self.finish_ps()

    def finish_ps(self) -> int:
        """When the last workload CPU finished (ps); a sampler tick may
        have run the clock on past it."""
        return max((cpu.finish_time or 0) for cpu in self.all_cpus())

    # -- protocol sanitizer -----------------------------------------------------

    def enable_continuous_audit(self, interval_ps: int = 5_000_000,
                                tsrf_timeout_ps: Optional[int] = None) -> None:
        """Run the continuous-safe sanitizer audit set every *interval_ps*
        of simulated time while CPUs are running (MGSim-style always-on
        runtime invariant checks).  ``tsrf_timeout_ps`` additionally flags
        protocol threads that have been live longer than the timeout.

        The mid-run set skips the quiesce-only invariants (eager-reply
        staleness, directory cross-consistency) that in-flight
        transactions legitimately violate; :meth:`verify` runs everything
        once the system has drained.
        """
        if interval_ps <= 0:
            raise ValueError("audit interval must be positive")
        self._audit_interval_ps = interval_ps
        self._audit_tsrf_timeout_ps = tsrf_timeout_ps

    def _continuous_audit(self) -> bool:
        audit_system(self, quiesced=False,
                     tsrf_timeout_ps=self._audit_tsrf_timeout_ps)
        self.continuous_audits += 1
        # stop rescheduling once the workload finishes, so the event
        # queue can drain (verify() covers the end state)
        return self.has_running_cpus()

    def sim_now(self) -> int:
        """Simulated time now (the protocol trace's clock)."""
        return self.sim.now

    def has_running_cpus(self) -> bool:
        """True while any CPU still has work; periodic observers stop
        rescheduling once it turns False."""
        return self._running_cpus > 0

    def verify(self, quiesced: bool = True) -> Dict[str, float]:
        """Run the full sanitizer audit set (checker quiesce invariants +
        structural audits); returns the audit telemetry.  The CLI
        ``--check`` path and the harness ``check_coherence=True`` path
        both call exactly this."""
        telemetry = audit_system(self, quiesced=quiesced)
        telemetry["audit_continuous_runs"] = float(self.continuous_audits)
        return telemetry

    def arm_trace(self, capacity: int) -> None:
        """(Re)attach a protocol trace ring of *capacity* events to the
        checker, refreshing every chip's cached reference (the same
        refresh pattern as :meth:`enable_probes`).  Used by the violation
        bisection flow: restore the last pre-violation checkpoint, arm
        the trace, and replay only the final window at full fidelity."""
        from .trace import ProtocolTrace

        if self.checker is None:
            raise RuntimeError(
                "arm_trace needs a coherence checker (run with check on)")
        trace = ProtocolTrace(capacity)
        trace.clock = self.sim_now
        self.checker.trace = trace
        for node in self.nodes:
            node.trace = trace

    # -- observability -----------------------------------------------------------

    def enable_probes(self, rate: int, max_samples: int = 64) -> None:
        """Attach a :class:`~repro.core.probe.ProbeCollector` sampling one
        of every *rate* L1 misses.  Chips cache the collector reference at
        construction, so enabling after the system is built refreshes each
        chip's cache; the untagged hot path stays a single ``is None``
        test either way."""
        from .probe import ProbeCollector

        self.probes = ProbeCollector(rate, max_samples=max_samples)
        for node in self.nodes:
            node.probes = self.probes

    def enable_span_trace(self, max_txns: int = 256) -> None:
        """Attach a :class:`~repro.observe.spans.SpanCollector` that
        promotes every completed probe into a causal span tree (up to
        *max_txns* transactions kept).  Requires probes: the tracer is a
        pure consumer of the probe collector's ``on_finish`` hook and
        adds no stamp points of its own."""
        from ..observe.spans import SpanCollector

        if self.probes is None:
            raise RuntimeError(
                "span tracing needs probes; call enable_probes() first")
        self.spans = SpanCollector(max_txns)
        self.probes.on_finish = self.spans.on_probe_finish

    def enable_sampler(self, interval_ps: int) -> None:
        """Attach an :class:`~repro.sim.sampler.IntervalSampler` that
        snapshots :meth:`sample_counters` every *interval_ps* of simulated
        time while the workload runs (started by :meth:`start`)."""
        from ..sim.sampler import IntervalSampler

        self.sampler = IntervalSampler(
            self.sim,
            interval_ps,
            collect_counters=self.sample_counters,
            collect_gauges=self.sample_gauges,
            derive=self._sample_derive,
            running=self.has_running_cpus,
        )

    def sample_counters(self) -> Dict[str, float]:
        """Flat monotonic-counter snapshot across the whole system — the
        interval sampler diffs consecutive snapshots into per-interval
        activity (instructions, misses, bytes moved, DRAM traffic...)."""
        c: Dict[str, float] = {
            "instructions": 0, "busy_ps": 0, "stall_ps": 0,
            "l1_lookups": 0, "l1_hits": 0, "l1_upgrades": 0,
            "l2_requests": 0, "l2_hits": 0, "l2_fwds": 0,
            "l2_local_mem": 0, "l2_remote_mem": 0, "l2_remote_dirty": 0,
            "l2_upgrades": 0, "l2_conflicts": 0,
            "ics_transfers": 0, "ics_bytes": 0, "ics_conflicts": 0,
            "mem_accesses": 0, "mem_reads": 0, "mem_writes": 0,
            "mem_page_hits": 0,
            "engine_instructions": 0, "engine_threads": 0,
            "engine_tsrf_stalls": 0,
            "packets_sent": 0,
            "router_transit": 0, "router_delivered": 0,
            "router_misroutes": 0, "router_bytes": 0,
        }
        for node in self.nodes:
            for cpu in node.cpus:
                c["instructions"] += cpu.instructions
                c["busy_ps"] += cpu.busy_ps
                c["stall_ps"] += sum(cpu.stall_ps.values())
            for l1 in list(node.l1i) + list(node.l1d):
                snap = l1.counters()
                c["l1_lookups"] += snap["lookups"]
                c["l1_hits"] += snap["hits"]
                c["l1_upgrades"] += snap["upgrades"]
            for bank in node.banks:
                c["l2_requests"] += bank.c_requests.value
                c["l2_hits"] += bank.c_hits.value
                c["l2_fwds"] += bank.c_fwds.value
                c["l2_local_mem"] += bank.c_local_mem.value
                c["l2_remote_mem"] += bank.c_remote_mem.value
                c["l2_remote_dirty"] += bank.c_remote_dirty.value
                c["l2_upgrades"] += bank.c_upgrades.value
                c["l2_conflicts"] += bank.c_conflicts.value
            ics = node.ics
            c["ics_transfers"] += ics.c_transfers.value
            c["ics_bytes"] += ics.c_bytes.value
            c["ics_conflicts"] += ics.c_conflicts.value
            for mc in node.mcs:
                ch = mc.channel
                c["mem_accesses"] += ch.c_accesses.value
                c["mem_reads"] += ch.c_reads.value
                c["mem_writes"] += ch.c_writes.value
                c["mem_page_hits"] += ch.c_page_hits.value
            for engine in (node.home_engine, node.remote_engine):
                c["engine_instructions"] += engine.c_instructions.value
                c["engine_threads"] += engine.c_threads.value
                c["engine_tsrf_stalls"] += engine.c_tsrf_stalls.value
            c["packets_sent"] += node.c_packets_sent.value
        for router in self.routers.values():
            c["router_transit"] += router.c_transit.value
            c["router_delivered"] += router.c_delivered.value
            c["router_misroutes"] += router.c_misroutes.value
            c["router_bytes"] += router.c_bytes.value
        return c

    def sample_gauges(self) -> Dict[str, float]:
        """Instantaneous levels (not diffed): TSRF occupancy and DRAM
        open-page population at the sample instant."""
        tsrf = 0.0
        pages = 0
        for node in self.nodes:
            tsrf += node.home_engine.tw_tsrf.level
            tsrf += node.remote_engine.tw_tsrf.level
            for mc in node.mcs:
                pages += mc.channel.open_page_count()
        return {"tsrf_occupancy": tsrf, "dram_open_pages": float(pages)}

    def _sample_derive(self, d: Dict[str, float], dt_ps: int) -> Dict[str, float]:
        """Per-interval rates derived from one delta record."""
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        ncpus = sum(1 for _ in self.all_cpus()) or 1
        period_ps = int(round(1e6 / self.config.core.clock_mhz))
        cycles = dt_ps / period_ps * ncpus
        us = dt_ps / 1e6
        return {
            "ipc": ratio(d["instructions"], cycles),
            "l1_miss_rate": 1.0 - ratio(d["l1_hits"], d["l1_lookups"])
            if d["l1_lookups"] else 0.0,
            "l2_hit_rate": ratio(d["l2_hits"], d["l2_requests"]),
            "dram_page_hit_rate": ratio(d["mem_page_hits"], d["mem_accesses"]),
            "ics_bytes_per_us": ratio(d["ics_bytes"], us),
            "router_bytes_per_us": ratio(d["router_bytes"], us),
        }

    # -- aggregate statistics ---------------------------------------------------

    def all_cpus(self):
        for node in self.nodes:
            for cpu in node.cpus:
                if cpu.thread is not None:
                    yield cpu

    def execution_summary(self) -> Dict[str, float]:
        """Aggregate Figure 5-style breakdown over all CPUs (picoseconds)."""
        busy = on_chip = memory = 0
        instructions = 0
        for cpu in self.all_cpus():
            busy += cpu.busy_ps
            on_chip += cpu.stall_on_chip_ps
            memory += cpu.stall_memory_ps
            instructions += cpu.instructions
        total = busy + on_chip + memory
        return {
            "busy_ps": busy,
            "l2_stall_ps": on_chip,
            "mem_stall_ps": memory,
            "total_ps": total,
            "instructions": instructions,
        }

    def miss_breakdown(self) -> Dict[str, int]:
        total = {"l2_hit": 0, "l2_fwd": 0, "l2_miss": 0}
        for node in self.nodes:
            for key, value in node.miss_breakdown().items():
                total[key] += value
        return total

