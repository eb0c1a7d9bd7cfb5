"""Workloads, measurement and output checks of the simulator benchmark.

Every simulation goes through the public ``repro.harness.runner.simulate``
path, one at a time in this process (a closed loop with one client), with
the result memo, the disk cache and the warm store out of play.  See
``README.md`` in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD_PATH = os.path.join(HERE, "record.json")

#: the OLTP seed the reference digests were recorded for (``OltpParams``'s
#: default) and a second one held out while the benchmark was tuned
DEFAULT_SEED = 2000
HELD_OUT_SEED = 7

#: fields of ``RunResult.payload_tuple()`` compared by ``sample_error``
FRACTION_FIELDS = ("busy_frac", "l2_frac", "mem_frac", "miss_hit_frac",
                   "miss_fwd_frac", "miss_mem_frac")

#: largest ``sample_error`` the sampled workload may show on any seed;
#: seeds 1-12, 42, 2000 and 7 measured 0.004-0.028
SAMPLE_ERROR_LIMIT = 0.05

#: gap between the traced run's layer shares and cProfile's above which
#: the traced run warns, on the workload ROADMAP item 1 names for it
CPROFILE_LIMIT = 0.05

#: host seconds between progress readings of a tracked simulation
PROGRESS_PERIOD_S = 0.01
#: equal parts of a simulation's workload items that ``sliced_wall``
#: times separately
SLICES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    nodes: int
    transactions: int
    warmup_transactions: int
    mode: str = "detailed"
    #: whether the traced run warns when cProfile disagrees (see
    #: CPROFILE_LIMIT)
    cprofile_gate: bool = False

    def params(self, seed: int):
        from repro.workloads.oltp import OltpParams

        return replace(OltpParams(), transactions=self.transactions,
                       warmup_transactions=self.warmup_transactions,
                       seed=seed)

    def factory(self, seed: int):
        from repro.harness.experiments import OltpFactory

        return OltpFactory(self.params(seed))

    def chip_config(self):
        from repro.core.config import preset

        return preset(self.config)

    @property
    def simulated_transactions(self) -> int:
        """Warm-up plus measured transactions over every CPU."""
        cpus = self.chip_config().cpus * self.nodes
        return cpus * (self.transactions + self.warmup_transactions)

    def detailed(self) -> "Workload":
        """The same point in detailed mode (``sample_error``'s reference)."""
        return replace(self, mode="detailed")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("p8-oltp",
             "one 8-CPU P8 chip on OLTP, detailed: L1/L2/dup-tags/ICS event "
             "path plus CPU and workload generator",
             "P8", 1, transactions=20, warmup_transactions=40,
             cprofile_gate=True),
    Workload("p8x4-oltp",
             "four P8 chips on OLTP, detailed: the only load on protocol "
             "engines, directory, interconnect and remote RDRAM",
             "P8", 4, transactions=2, warmup_transactions=3),
    Workload("p8-oltp-sampled",
             "P8 OLTP in cold sampled mode: the same caches reached through "
             "functional warming instead of the event-driven request path",
             "P8", 1, transactions=80, warmup_transactions=150,
             mode="sampled"),
)}


# -- one simulation --------------------------------------------------------


@dataclass
class Run:
    """One ``simulate()`` call and what the benchmark observed of it."""

    result: object          # RunResult
    system: object          # the PiranhaSystem simulate() built
    call_s: float           # host seconds of the whole simulate() call
    setup_s: float          # ... of which spent in build_system
    #: (host time, workload items so far) from the end of build_system
    #: to the end of the call, when the run was tracked
    progress: Optional[List[Tuple[float, int]]] = None


def progress(system) -> int:
    """Workload items the CPUs of *system* have consumed so far."""
    return sum(_emitted(cpu.thread) for cpu in system.all_cpus())


def simulate_once(workload: Workload, seed: int,
                  around: Optional[Callable] = None,
                  track: bool = False) -> Run:
    """Run *workload* once through ``simulate()``.

    ``build_system`` is timed (and its system captured) through a
    temporary shim on the runner module, so set-up can be taken out of
    the run's wall time.  *around*, when given, is a context-manager
    factory entered around the ``simulate()`` call (the traced run uses
    it to open the root ``harness`` frame).  With *track*, a ``SIGALRM``
    timer reads :func:`progress` every ``PROGRESS_PERIOD_S`` into
    ``Run.progress``; the handler only reads counters, so the simulation
    is unchanged.
    """
    from repro.harness import runner

    built: List[Tuple[object, float]] = []
    trace: List[Tuple[float, int]] = []
    original = runner.build_system

    def timed_build(*args, **kwargs):
        t0 = time.perf_counter()
        system, wl = original(*args, **kwargs)
        t1 = time.perf_counter()
        built.append((system, t1 - t0))
        trace.append((t1, progress(system)))
        return system, wl

    def on_alarm(_signum, _frame):
        if built:
            trace.append((time.perf_counter(), progress(built[0][0])))

    config = workload.chip_config()
    factory = workload.factory(seed)
    runner.build_system = timed_build
    if track:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROGRESS_PERIOD_S,
                         PROGRESS_PERIOD_S)
    try:
        t0 = time.perf_counter()
        if around is None:
            result = runner.simulate(config, factory, workload.nodes,
                                     mode=workload.mode)
        else:
            with around():
                result = runner.simulate(config, factory, workload.nodes,
                                         mode=workload.mode)
        end = time.perf_counter()
    finally:
        if track:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        runner.build_system = original
    if len(built) != 1:
        raise RuntimeError(f"simulate() built {len(built)} systems, not 1")
    system, setup_s = built[0]
    if not track:
        return Run(result, system, end - t0, setup_s)
    # a reading taken after the call ended but before the timer stopped
    trace = [point for point in trace if point[0] <= end]
    trace.append((end, progress(system)))
    return Run(result, system, end - t0, setup_s, trace)


def time_setup(workload: Workload, seed: int) -> float:
    """Host seconds for one ``build_system`` of *workload*."""
    from repro.harness.runner import build_system

    config = workload.chip_config()
    factory = workload.factory(seed)
    gc.collect()
    t0 = time.perf_counter()
    build_system(config, factory, workload.nodes)
    return time.perf_counter() - t0


# -- output checks ----------------------------------------------------------


def payload_digest(result) -> str:
    return hashlib.sha256(repr(result.payload_tuple()).encode()).hexdigest()


def cache_hits() -> Dict[str, int]:
    """Hit counters of every result store simulate() could answer from."""
    from repro.checkpoint.store import WARM_STORE
    from repro.harness.cache import DISK_CACHE
    from repro.harness.runner import memo_cache_info

    return {"memo": int(memo_cache_info()["hits"]),
            "disk": int(DISK_CACHE.hits), "warm": int(WARM_STORE.hits)}


def check_run(workload: Workload, run: Run,
              expected_digest: Optional[str]) -> List[str]:
    """Every reason *run* does not count as a correct simulation."""
    problems = []
    r = run.result
    pending = run.system.sim.pending
    if pending:
        problems.append(f"{pending} events still pending")
    if r.units != workload.transactions:
        problems.append(f"measured {r.units} units, not "
                        f"{workload.transactions}")
    fracs = [getattr(r, f) for f in FRACTION_FIELDS]
    if not all(0.0 <= f <= 1.0 for f in fracs):
        problems.append(f"fraction out of [0, 1]: {fracs}")
    for group in ((r.busy_frac, r.l2_frac, r.mem_frac),
                  (r.miss_hit_frac, r.miss_fwd_frac, r.miss_mem_frac)):
        if abs(sum(group) - 1.0) > 1e-9:
            problems.append(f"fractions sum to {sum(group)!r}, not 1")
    if not r.time_per_unit_ns > 0:
        problems.append(f"time per unit {r.time_per_unit_ns!r}")
    digest = payload_digest(r)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"payload digest {digest[:12]} != recorded "
                        f"{expected_digest[:12]}")
    hits = cache_hits()
    if any(hits.values()):
        problems.append(f"cache hits {hits}")
    return problems


def sample_error(sampled: Tuple, detailed: Tuple) -> float:
    """Largest absolute class error of a sampled payload against the
    detailed payload of the same point (relative for time per unit)."""
    from repro.harness.runner import RunResult

    # payload_tuple() is the fields up to sim_wall_s, in declared order
    names = list(RunResult.__dataclass_fields__)[:len(sampled)]
    s = dict(zip(names, sampled))
    d = dict(zip(names, detailed))
    errors = [abs(s[f] - d[f]) for f in FRACTION_FIELDS]
    errors.append(abs(s["time_per_unit_ns"] / d["time_per_unit_ns"] - 1.0))
    return max(errors)


# -- deterministic work counts ---------------------------------------------


def _emitted(thread) -> int:
    while thread is not None and not hasattr(thread, "emitted"):
        thread = getattr(thread, "thread", None)
    return thread.emitted if thread is not None else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: the deterministic per-layer counts :func:`work_counts` reports
WORK_COUNTS = (
    "engine.events", "workload.items", "cpu.instructions", "l1.lookups",
    "l1.hit_rate", "l2.requests", "l2.hit_frac", "l2.fwd_frac",
    "l2.miss_frac", "ics.transfers", "protocol_engine.messages",
    "interconnect.packets", "rdram.accesses", "rdram.page_hit_rate",
    "warm.items", "warm.declined_frac")


def work_counts(run: Run) -> Dict[str, float]:
    """Per-layer work done, from the system's public counters."""
    system, result = run.system, run.result
    c = system.sample_counters()
    miss = system.miss_breakdown()
    misses = sum(miss.values())
    engine_msgs = sum(engine.c_ext_msgs.value + engine.c_local_msgs.value
                      for node in system.nodes
                      for engine in (node.home_engine, node.remote_engine))
    warm = result.extras.get("sampling", {}).get("warm", {})
    warm_misses = warm.get("warmed_misses", 0) + warm.get("skipped_misses", 0)
    events = system.sim.events_fired
    return {
        "engine.events": float(events),
        "workload.items": float(sum(_emitted(cpu.thread)
                                    for cpu in system.all_cpus())),
        "cpu.instructions": float(c["instructions"]),
        "l1.lookups": float(c["l1_lookups"]),
        "l1.hit_rate": _ratio(c["l1_hits"], c["l1_lookups"]),
        "l2.requests": float(c["l2_requests"]),
        "l2.hit_frac": _ratio(miss["l2_hit"], misses),
        "l2.fwd_frac": _ratio(miss["l2_fwd"], misses),
        "l2.miss_frac": _ratio(miss["l2_miss"], misses),
        "ics.transfers": float(c["ics_transfers"]),
        "protocol_engine.messages": float(engine_msgs),
        "interconnect.packets": float(c["router_delivered"]),
        "rdram.accesses": float(c["mem_accesses"]),
        "rdram.page_hit_rate": _ratio(c["mem_page_hits"], c["mem_accesses"]),
        "warm.items": float(warm.get("items", 0)),
        "warm.declined_frac": _ratio(warm.get("skipped_misses", 0),
                                     warm_misses),
    }


# -- the reference record -------------------------------------------------


def load_record() -> dict:
    """The committed record, or an empty one before it is first written."""
    if not os.path.exists(RECORD_PATH):
        return {}
    with open(RECORD_PATH) as f:
        return json.load(f)


def reference(record: dict, workload: Workload, seed: int) -> Optional[dict]:
    """The recorded outputs of (*workload*, *seed*), if it was recorded."""
    return record.get("references", {}).get(workload.name, {}).get(str(seed))


# -- statistics --------------------------------------------------------------


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def _reached(trace: List[Tuple[float, int]], items: float) -> float:
    """Host time at which *trace* first reached *items*, interpolated
    between the readings around it."""
    for (t0, n0), (t1, n1) in zip(trace, trace[1:]):
        if n1 >= items:
            if n1 == n0:
                return t0
            return t0 + (t1 - t0) * max(items - n0, 0) / (n1 - n0)
    return trace[-1][0]


def sliced_wall(traces: List[List[Tuple[float, int]]]) -> float:
    """Host seconds of one simulation, each of its ``SLICES`` equal parts
    of workload items timed at its fastest among *traces*.

    Every trace is one tracked simulation of the same inputs, so a slice
    is the same simulated work in each.  Load from other tenants of a
    shared host comes and goes within seconds and only ever adds time;
    taking each slice's fastest repetition keeps the run's figure from
    following how much of its window the host was busy.
    """
    slices = []
    for trace in traces:
        total = trace[-1][1]
        marks = [_reached(trace, total * k / SLICES)
                 for k in range(1, SLICES)]
        points = [trace[0][0]] + marks + [trace[-1][0]]
        slices.append([b - a for a, b in zip(points, points[1:])])
    return float(sum(min(column) for column in zip(*slices)))


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
