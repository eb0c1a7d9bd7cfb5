"""SMARTS-style sampled simulation: fast-forward + detailed windows.

A :class:`SampledRun` alternates two regimes over one built system:

* **fast-forward** — the :class:`~repro.fastforward.warm.FunctionalWarmer`
  consumes ``period`` work items per CPU off the reference streams,
  warming L1/L2/duplicate-tag/directory/DRAM state with no events and no
  timing, then jumps the clock statistically
  (:meth:`~repro.sim.engine.Simulator.advance_to`) using the per-item
  cycle rate observed in the last detailed window;
* **detailed window** — each CPU's thread is wrapped in a budget-limited
  :class:`PhaseStream` (``window`` items) and the full event-driven model
  runs to drain; per-CPU deltas of busy/stall time and the system miss
  breakdown are recorded as one measurement.

Every phase runs on the live machine, which sits between events at
each phase boundary (queue drained, CPUs parked), so a snapshot can be
taken there.  Phases start through the system's own
:meth:`~repro.core.system.PiranhaSystem.start_cpus`, functional warming
ends in its own warm-boundary reset, and a finished run is measured by
the harness's one :func:`~repro.harness.runner.assemble_result`.  The
bit-identity gate in ``tests/test_fastforward.py`` uses that: with
``warming="detailed"`` (the skipped spans run through the detailed
model too) it rebuilds the machine from a snapshot before every
measurement window and must reproduce the live run exactly.

End-to-end metrics are ratio estimates over the windows; per-class 95%
confidence intervals (1.96·s/√n across windows) ride along in
``extras["sampling"]["error"]``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..core.cpu import WARMUP_DONE
from .warm import FunctionalWarmer

CpuKey = Tuple[int, int]  # (node_id, cpu_id)

#: per-CPU warming window for the inter-window fast-forward periods: the
#: last FF_TAIL items of each period apply their cache effects, the rest
#: only advance the stream (<=0.5% class error, DESIGN.md §4h).  The
#: warm-up span is always applied in full: its state has long memory
FF_TAIL = 1000


class PhaseStream:
    """Budget-limited view of one CPU's workload thread for one phase.

    Installed as ``cpu.thread`` for the duration of a detailed phase; it
    delegates to the real thread (so ``emitted`` keeps counting and
    checkpoints stay consistent) and raises StopIteration when the
    phase's item budget is spent.  ``grant_until_warm`` instead hands
    items out up to and including the warm-up sentinel, which lets the
    detailed model run exactly the warm-up span as one phase.  ``ilp``
    mirrors the thread's so out-of-order CPUs keep their issue width.
    """

    def __init__(self, thread) -> None:
        self.thread = thread
        self.ilp = getattr(thread, "ilp", 1.0)
        self.budget = 0
        self.consumed = 0
        self.until_warm = False
        self.exhausted = False
        self._boundary_emitted = False

    def grant(self, items: int) -> None:
        self.budget = int(items)
        self.consumed = 0
        self.until_warm = False

    def grant_until_warm(self) -> None:
        self.until_warm = True
        self.consumed = 0
        self._boundary_emitted = False

    def __iter__(self) -> "PhaseStream":
        return self

    def __next__(self):
        if self.until_warm:
            if self._boundary_emitted:
                raise StopIteration
        elif self.budget <= 0:
            raise StopIteration
        try:
            item = next(self.thread)
        except StopIteration:
            self.exhausted = True
            self.budget = 0
            raise
        self.consumed += 1
        if self.until_warm:
            if item[1] is None and item[2] == WARMUP_DONE:
                self._boundary_emitted = True
        else:
            self.budget -= 1
        return item


class SampledRun:
    """Drive one system through warm-up, then window/period alternation.

    Parameters
    ----------
    window:
        work items per CPU per detailed measurement window.
    period:
        work items per CPU fast-forwarded between windows (0 disables
        fast-forward entirely: one window runs the remaining stream).
    warming:
        ``"functional"`` (default) warms via the event-free path;
        ``"detailed"`` runs warm-up and the inter-window spans through
        the full model too — same phase structure, no approximation —
        which is what the bit-identity gate compares against.
    telemetry:
        optional :class:`~repro.observe.telemetry.TelemetryStream`; each
        measurement window emits a ``window`` record with its running
        per-class 95% CI half-widths (convergence visible live).

    A machine already past its warm-up boundary (restored from a warm
    snapshot) skips the warm-up.  Otherwise the run holds the system's
    ``on_warm_boundary`` hook (a :class:`~repro.checkpoint.WarmCapture`)
    through the warm-up and fires it once the CPUs are parked there.
    """

    def __init__(self, system, window: int, period: int,
                 warming: str = "functional", telemetry=None) -> None:
        if window <= 0:
            raise ValueError("window must be a positive item count")
        if period < 0:
            raise ValueError("period must be >= 0")
        if warming not in ("functional", "detailed"):
            raise ValueError(f"unknown warming mode {warming!r}")
        workload = system.workload
        if getattr(workload, "sampled_refusal", ""):
            raise ValueError(f"sampled mode cannot run the {workload.name} "
                             f"workload: {workload.sampled_refusal}")
        self.system = system
        self.window = int(window)
        self.period = int(period)
        self.warming = warming
        self.skip_warm = system.warmed_up
        self.telemetry = telemetry
        self.warmer = FunctionalWarmer()
        self.windows: List[Dict[str, object]] = []
        self.measured_items = 0
        self.ff_items = 0
        self._exhausted: set = set()
        self._rate: Dict[CpuKey, float] = {}     # ps per item, last window
        self._est_ps: Dict[CpuKey, float] = {}   # estimated post-warm time
        self._ran = False

    # -- bookkeeping helpers ----------------------------------------------

    @staticmethod
    def _key(cpu) -> CpuKey:
        return (cpu.chip.node_id, cpu.cpu_id)

    def _live(self) -> list:
        out = []
        for node in self.system.nodes:
            for cpu in node.cpus:
                if cpu.thread is None:
                    continue
                if (node.node_id, cpu.cpu_id) in self._exhausted:
                    continue
                out.append(cpu)
        return out

    def _settle_warm_state(self) -> None:
        """Drain warm-path protocol events and drop any DRAM channel
        backlog the warm phase stacked at the frozen clock (eviction
        write-backs route through the detailed channel path)."""
        system = self.system
        system.sim.run()
        for node in system.nodes:
            for mc in node.mcs:
                mc.channel.forgive_backlog()

    # -- warm-up -----------------------------------------------------------

    def _functional_warm(self) -> None:
        """Consume each thread through its warm-up sentinel event-free,
        then cross the system's warm-up boundary."""
        cpus = self._live()
        for cpu, (consumed, exhausted) in zip(
                cpus, self.warmer.warm_up(cpus)):
            self.ff_items += consumed
            if exhausted:
                self._exhausted.add(self._key(cpu))
        self._settle_warm_state()
        self.system.cross_warm_boundary()

    # -- detailed phases ---------------------------------------------------

    def _run_detailed(self, budget: Optional[int], until_warm: bool,
                      record: bool) -> None:
        system = self.system
        cpus = self._live()
        if not cpus:
            return
        pre = self._measure_pre(system, cpus) if record else None
        totals0 = {self._key(c): c.total_ps for c in cpus}
        streams = []
        for cpu in cpus:
            stream = PhaseStream(cpu.thread)
            if until_warm:
                stream.grant_until_warm()
            else:
                stream.grant(budget)
            cpu.thread = stream
            streams.append((cpu, stream))
        system.start_cpus(cpus)
        system.sim.run()
        if system.has_running_cpus():
            raise RuntimeError("sampled phase stalled with CPUs running")
        consumed: Dict[CpuKey, int] = {}
        for cpu, stream in streams:
            cpu.thread = stream.thread
            key = self._key(cpu)
            consumed[key] = stream.consumed
            if record:
                self.measured_items += stream.consumed
            else:
                self.ff_items += stream.consumed
            if stream.exhausted:
                self._exhausted.add(key)
        for cpu in cpus:
            key = self._key(cpu)
            if until_warm:
                # accounting was reset at the warm boundary mid-phase;
                # the post-boundary contribution is what remains on the
                # counters now (normally zero)
                self._est_ps[key] = float(cpu.total_ps)
            else:
                delta = cpu.total_ps - totals0[key]
                self._est_ps[key] = self._est_ps.get(key, 0.0) + delta
                if record and consumed[key]:
                    self._rate[key] = delta / consumed[key]
        if record:
            self._measure_post(system, cpus, pre, consumed)

    def _measure_pre(self, system, cpus) -> Dict[str, object]:
        return {
            "cpu": {self._key(c): (c.busy_ps, c.stall_on_chip_ps,
                                   c.stall_memory_ps, c.instructions)
                    for c in cpus},
            "mb": dict(system.miss_breakdown()),
        }

    def _measure_post(self, system, cpus, pre, consumed) -> None:
        busy = onchip = mem = instrs = items = 0
        for cpu in cpus:
            key = self._key(cpu)
            b0, o0, m0, i0 = pre["cpu"][key]
            busy += cpu.busy_ps - b0
            onchip += cpu.stall_on_chip_ps - o0
            mem += cpu.stall_memory_ps - m0
            instrs += cpu.instructions - i0
            items += consumed[key]
        mb0, mb1 = pre["mb"], system.miss_breakdown()
        self.windows.append({
            "index": len(self.windows),
            "items": items,
            "instructions": instrs,
            "busy_ps": busy,
            "onchip_ps": onchip,
            "mem_ps": mem,
            "miss": {k: mb1[k] - mb0.get(k, 0) for k in mb1},
        })
        if self.telemetry is not None:
            # running CI half-widths over the windows so far: a watcher
            # sees convergence (or its absence) while the run is live
            self.telemetry.emit(
                "window", index=len(self.windows) - 1, items=items,
                windows=len(self.windows),
                ci={name: stats["rel_err"]
                    for name, stats in self.error_bounds().items()
                    if stats["n"] > 1})

    # -- fast-forward ------------------------------------------------------

    def _fast_forward(self, items: int) -> None:
        system = self.system
        advance = 0
        buffers = []
        for cpu in self._live():
            key = self._key(cpu)
            buf, consumed, exhausted = self.warmer.collect(
                cpu, items, FF_TAIL)
            buffers.append((cpu, buf))
            self.ff_items += consumed
            est = consumed * self._rate.get(key, 0.0)
            self._est_ps[key] = self._est_ps.get(key, 0.0) + est
            advance = max(advance, int(est))
            if exhausted:
                self._exhausted.add(key)
        self.warmer.apply_interleaved(buffers)
        # the warm path may have scheduled protocol events (multi-node
        # remote write-backs): drain them before jumping the clock
        self._settle_warm_state()
        if advance:
            system.sim.advance_to(system.sim.now + advance)

    # -- driver ------------------------------------------------------------

    def run(self) -> List[Dict[str, object]]:
        if self._ran:
            raise RuntimeError("SampledRun.run() is single-shot")
        self._ran = True
        system = self.system
        on_warm, system.on_warm_boundary = system.on_warm_boundary, None
        if not self.skip_warm:
            if self.warming == "functional":
                self._functional_warm()
            else:
                self._run_detailed(None, until_warm=True, record=False)
            if on_warm is not None:
                on_warm()
        while self._live():
            self._run_detailed(self.window, until_warm=False, record=True)
            if not self._live() or not self.period:
                break
            if self.warming == "functional":
                self._fast_forward(self.period)
            else:
                self._run_detailed(self.period, until_warm=False,
                                   record=False)
        if self.system.sampler is not None:
            self.system.sampler.finalize()
        return self.windows

    # -- statistics --------------------------------------------------------

    @staticmethod
    def _mean_ci(vals: List[float]) -> Dict[str, float]:
        n = len(vals)
        if n == 0:
            return {"n": 0, "mean": 0.0, "ci95": 0.0, "rel_err": 0.0}
        mean = sum(vals) / n
        sd = (math.fsum((v - mean) ** 2 for v in vals)
              / (n - 1)) ** 0.5 if n > 1 else 0.0
        ci = 1.96 * sd / math.sqrt(n) if n > 1 else 0.0
        return {"n": n, "mean": mean, "ci95": ci,
                "rel_err": ci / abs(mean) if mean else 0.0}

    def error_bounds(self) -> Dict[str, Dict[str, float]]:
        """Per-metric-class 95% confidence intervals across windows."""
        obs: Dict[str, List[float]] = {
            "busy_frac": [], "l2_frac": [], "mem_frac": [],
            "miss_hit_frac": [], "miss_fwd_frac": [], "miss_mem_frac": [],
            "ps_per_item": [],
        }
        for w in self.windows:
            total = w["busy_ps"] + w["onchip_ps"] + w["mem_ps"]
            if total > 0:
                obs["busy_frac"].append(w["busy_ps"] / total)
                obs["l2_frac"].append(w["onchip_ps"] / total)
                obs["mem_frac"].append(w["mem_ps"] / total)
            if w["items"]:
                obs["ps_per_item"].append(total / w["items"])
            miss = w["miss"]
            served = sum(miss.values())
            if served > 0:
                obs["miss_hit_frac"].append(miss.get("l2_hit", 0) / served)
                obs["miss_fwd_frac"].append(miss.get("l2_fwd", 0) / served)
                obs["miss_mem_frac"].append(miss.get("l2_miss", 0) / served)
        return {name: self._mean_ci(vals) for name, vals in obs.items()}

    def sampling_summary(self) -> Dict[str, object]:
        return {
            "mode": "sampled",
            "warming": self.warming,
            "window": self.window,
            "period": self.period,
            "skip_warm": self.skip_warm,
            "windows": len(self.windows),
            "measured_items": self.measured_items,
            "ff_items": self.ff_items,
            "warm": self.warmer.summary(),
            "error": self.error_bounds(),
        }

    def totals(self) -> Tuple[float, Dict[str, int], Dict[str, int]]:
        """The extrapolated totals, shaped like a detailed run's: the
        slowest CPU's estimated post-warm time (ps), then the windows'
        sums shaped like ``execution_summary()`` and ``miss_breakdown()``
        (what :func:`~repro.harness.runner.assemble_result` measures)."""
        busy = sum(w["busy_ps"] for w in self.windows)
        onchip = sum(w["onchip_ps"] for w in self.windows)
        mem = sum(w["mem_ps"] for w in self.windows)
        summary = {
            "busy_ps": busy,
            "l2_stall_ps": onchip,
            "mem_stall_ps": mem,
            "total_ps": busy + onchip + mem,
            "instructions": sum(w["instructions"] for w in self.windows),
        }
        miss = {"l2_hit": 0, "l2_fwd": 0, "l2_miss": 0}
        for w in self.windows:
            for k, v in w["miss"].items():
                miss[k] += v
        return max(self._est_ps.values(), default=0.0), summary, miss
