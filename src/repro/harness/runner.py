"""Experiment runner: build a system, attach a workload, measure.

:func:`simulate` runs one point uncached; :func:`run_jobs` is the one
cached path, and :func:`run_configured` runs a single point through it.
Every figure and table (``repro.harness.experiments``) goes through them
and gets a :class:`RunResult` with the normalised execution-time
breakdown (Figure 5's CPU-busy / L2-hit / L2-miss decomposition), the
L1-miss service decomposition (Figure 6b), and a throughput figure of
merit, per unit of work the workload names (its ``units_attr``).

Simulations are deterministic, so results are cached at two levels:

* an in-process **memo** (:class:`MemoCache`) so pytest-benchmark can
  re-invoke a bench without re-simulating, and
* the persistent **disk cache** (:mod:`repro.harness.cache`) so fresh
  processes — re-runs of benchmarks, examples, CI — skip simulation
  entirely when the code, config and workload are unchanged.

Both levels share one key: the digest of the resolved :class:`RunSpec`
at the point (:meth:`RunSpec.key`).  Set ``REPRO_NO_CACHE=1`` to
disable both; :func:`memo_cache_info` and ``DISK_CACHE.info()`` expose
their contents and hit/miss counters.

Each point is an independent, deterministic, single-threaded program —
the ideal unit for process-level parallelism.  :func:`run_jobs` fans the
points the caches miss out over a ``ProcessPoolExecutor`` when asked:
pass ``jobs=N``, or set ``REPRO_JOBS=N`` (``REPRO_JOBS=0`` means one
worker per CPU core).  Workers run the same :func:`simulate`, so a
parallel run produces bit-for-bit the same measurement payload as a
serial one (DESIGN.md, "Determinism").  Jobs whose workload factory
cannot be pickled (closures, lambdas) run serially in this process.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.checker import CoherenceChecker
from ..core.config import ChipConfig
from ..core.system import PiranhaSystem
from .cache import (
    DISK_CACHE,
    cache_enabled,
    config_digest,
    library_fingerprint,
    workload_token,
)
from .perfmon import system_report


def scale_factor() -> float:
    """Workload scale: set ``REPRO_SCALE=0.5`` (for example) to shrink the
    measured phases for quick runs; results get noisier but shapes hold."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


@dataclass
class RunResult:
    """Outcome of one simulated configuration.

    Every field except ``sim_wall_s`` and ``extras`` is a deterministic
    function of (config, workload, nodes, library code): serial, parallel
    and cached executions of the same point agree bit-for-bit on the
    measurement payload.  ``sim_wall_s`` is host wall-clock; ``extras``
    carries the run's structured documents.
    """

    config: str
    cpus: int
    nodes: int
    workload: str
    units: int                   # the workload's units_attr, per CPU
    time_per_unit_ns: float      # per-CPU steady-state time per unit
    throughput: float            # units per second, whole system
    busy_frac: float
    l2_frac: float               # on-chip stall fraction (L2 hit + fwd)
    mem_frac: float
    miss_hit_frac: float         # L1 misses serviced by the L2
    miss_fwd_frac: float         # ... by another on-chip L1
    miss_mem_frac: float         # ... by local/remote memory
    sim_wall_s: float = 0.0
    #: structured payloads (the perfmon "counters" rollup, sanitizer
    #: counters, the "metrics" document from the observability layer);
    #: values are floats or JSON-shaped nested dicts — everything
    #: pickles/serialises
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def normalized_breakdown(self) -> Tuple[float, float, float]:
        return (self.busy_frac, self.l2_frac, self.mem_frac)

    def payload_tuple(self) -> tuple:
        """The deterministic fields (everything except wall time/extras)."""
        return (self.config, self.cpus, self.nodes, self.workload,
                self.units, self.time_per_unit_ns, self.throughput,
                self.busy_frac, self.l2_frac, self.mem_frac,
                self.miss_hit_frac, self.miss_fwd_frac, self.miss_mem_frac)


class MemoCache:
    """In-process RunResult memo with hit/miss counters."""

    def __init__(self) -> None:
        self._store: Dict[str, RunResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[RunResult]:
        result = self._store.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        self._store[key] = result

    def clear(self) -> None:
        self._store.clear()

    def info(self) -> Dict[str, object]:
        """Snapshot: entry count, hit/miss counters, cached point names."""
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "keys": sorted(self._store),
        }


_MEMO = MemoCache()


def clear_cache() -> None:
    """Drop every memoised result (the disk cache is left alone)."""
    _MEMO.clear()


def memo_cache_info() -> Dict[str, object]:
    """Inspect the in-process memo (entries, hits, misses, keys)."""
    return _MEMO.info()


#: probe rate implied by ``trace_spans`` when probes were not requested
#: explicitly: the tracer needs probe completions to promote.
SPAN_PROBE_RATE = 64

#: sampled-mode defaults, applied by :meth:`RunSpec.resolve` to the run
#: and its cache key alike, so a default change can never let an old
#: cache entry answer for a new default
SAMPLED_WINDOW = 800
SAMPLED_PERIOD = 6000

MODES = ("detailed", "sampled")
WARMINGS = ("functional", "detailed")


@dataclass(frozen=True)
class RunSpec:
    """Every option that shapes what one simulation point measures.

    ``check_coherence`` attaches the protocol sanitizer and
    ``trace_capacity`` a protocol trace ring of that many events;
    ``probe_rate=N`` tags 1 in N L1 misses with a latency probe and
    ``sample_interval_ps`` attaches the interval sampler (either one puts
    the metrics document in ``extras["metrics"]``); ``mode="sampled"``
    runs SMARTS-style sampled simulation with ``window``/``period``
    items per CPU and ``warming`` as the fast-forward regime;
    ``trace_spans=N`` keeps a causal span trace of up to N transactions
    in ``extras["trace"]``.

    The unit of work is the workload's own (``units_attr``), and
    execution strategy (``warmup``) and host targets (a telemetry
    stream) are not measurement identity: all stay outside the spec.
    """

    check_coherence: bool = False
    trace_capacity: int = 0
    probe_rate: int = 0
    sample_interval_ps: int = 0
    mode: str = "detailed"
    window: int = 0
    period: int = 0
    warming: str = "functional"
    trace_spans: int = 0

    def resolve(self) -> "RunSpec":
        """The canonical spec: every implied setting made explicit, so
        two specs that run the same measurement compare (and key) equal.
        Raises ValueError for an unknown ``mode`` or ``warming``."""
        if self.mode not in MODES:
            raise ValueError(f"unknown simulation mode {self.mode!r}")
        if self.warming not in WARMINGS:
            raise ValueError(f"unknown warming mode {self.warming!r}")
        probe_rate = self.probe_rate
        if self.trace_spans and not probe_rate:
            probe_rate = SPAN_PROBE_RATE
        if self.mode == "sampled":
            window = self.window or SAMPLED_WINDOW
            period = self.period or SAMPLED_PERIOD
            warming = self.warming
        else:
            window, period, warming = 0, 0, "functional"
        return replace(self, check_coherence=bool(self.check_coherence),
                       probe_rate=probe_rate, window=window, period=period,
                       warming=warming)

    def key(self, config: ChipConfig, workload_factory: Callable,
            num_nodes: int) -> Optional[str]:
        """The result-cache key of this spec at one point, shared by the
        memo and the disk cache, or None for an opaque workload factory
        (one whose parameters cannot be fingerprinted: never cached)."""
        token = workload_token(workload_factory)
        if token is None:
            return None
        payload = json.dumps(
            {
                "lib": library_fingerprint(),
                "config": config_digest(config),
                "workload": token,
                "nodes": num_nodes,
                "scale": os.environ.get("REPRO_SCALE", "1.0"),
                "spec": asdict(self.resolve()),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def build_system(
    config: ChipConfig,
    workload_factory: Callable[[ChipConfig, int], object],
    num_nodes: int = 1,
    spec: RunSpec = RunSpec(),
) -> Tuple[PiranhaSystem, object]:
    """Assemble a ready-to-run (system, workload) pair with every
    observer *spec* asks for attached.

    Shared by the cold path of :func:`simulate` and the CLI, so a CLI
    run or a warm snapshot (``checkpoint save``) is taken of exactly the
    machine a measurement run would build; :func:`run_system` runs it.
    """
    spec = spec.resolve()
    workload = workload_factory(config, num_nodes)
    checker = None
    if spec.check_coherence or spec.trace_capacity:
        checker = (CoherenceChecker.with_trace(spec.trace_capacity)
                   if spec.trace_capacity else CoherenceChecker())
    system = PiranhaSystem(config, num_nodes=num_nodes, checker=checker)
    system.attach_workload(workload)
    bind_system = getattr(workload, "bind_system", None)
    if bind_system is not None:
        # workloads that observe the live system (the fuzz reference
        # checker) wire themselves up once everything is built
        bind_system(system)
    if spec.check_coherence:
        system.enable_continuous_audit()
    if spec.probe_rate:
        system.enable_probes(spec.probe_rate)
    if spec.trace_spans:
        system.enable_span_trace(spec.trace_spans)
    if spec.sample_interval_ps:
        system.enable_sampler(spec.sample_interval_ps)
    return system, workload


def assemble_result(system: PiranhaSystem, spec: RunSpec,
                    wall: float = 0.0, sampled=None) -> RunResult:
    """Measure a drained system, run under the resolved *spec*, into a
    :class:`RunResult`.

    The one assembly implementation, for the cold, warm-restored,
    checkpoint-restored and sampled paths: whatever route the machine
    took to the drained state, the measurement payload is computed
    identically.  Config, node count and workload come from *system*.
    A finished :class:`~repro.fastforward.SampledRun` passed as
    *sampled* supplies its extrapolated totals in place of the machine's
    counters and its ``extras["sampling"]`` document.  Every result
    carries the machine's perfmon counter rollup
    (:func:`~repro.harness.perfmon.system_report`) in
    ``extras["counters"]``; callers read counts from it rather than
    walking the machine.
    """
    sanitizer: Dict[str, float] = {}
    if system.checker is not None:
        sanitizer = system.verify()
    config, num_nodes = system.config, system.num_proc_nodes
    workload = system.workload

    if sampled is None:
        per_cpu_ps = max(cpu.total_ps for cpu in system.all_cpus())
        summary = system.execution_summary()
        mb = system.miss_breakdown()
    else:
        per_cpu_ps, summary, mb = sampled.totals()
    units = getattr(workload.params, workload.units_attr)
    time_per_unit_ns = per_cpu_ps / units / 1000.0 if units else 0.0
    total_cpus = config.cpus * num_nodes
    throughput = (total_cpus * 1e9 / time_per_unit_ns
                  if time_per_unit_ns else 0.0)
    total_ps = summary["total_ps"] or 1
    misses = sum(mb.values()) or 1

    result = RunResult(
        config=config.name,
        cpus=config.cpus,
        nodes=num_nodes,
        workload=getattr(workload, "name", "?"),
        units=units,
        time_per_unit_ns=time_per_unit_ns,
        throughput=throughput,
        busy_frac=summary["busy_ps"] / total_ps,
        l2_frac=summary["l2_stall_ps"] / total_ps,
        mem_frac=summary["mem_stall_ps"] / total_ps,
        miss_hit_frac=mb["l2_hit"] / misses,
        miss_fwd_frac=mb["l2_fwd"] / misses,
        miss_mem_frac=mb["l2_miss"] / misses,
        sim_wall_s=wall,
        extras=dict(sanitizer),
    )
    # the counters as the run leaves them, never extrapolated: in a
    # sampled run, its detailed windows plus what functional warming counts
    result.extras["counters"] = system_report(system, now_ps=system.sim.now)
    if sampled is not None:
        result.extras["sampling"] = sampled.sampling_summary()
    # the metrics and trace documents are built purely from simulation
    # state (probe stamps carry simulated time, kept transactions drop
    # the process-global txn_id), so they are safe to cache and
    # identical across the serial and ProcessPool paths
    if spec.probe_rate or spec.sample_interval_ps:
        from .metrics import metrics_doc

        result.extras["metrics"] = metrics_doc(
            system, result, spec.probe_rate, spec.sample_interval_ps)
    if spec.trace_spans and system.spans is not None:
        from ..observe.spans import trace_doc

        protocol_events = None
        if system.checker is not None and system.checker.trace is not None:
            protocol_events = system.checker.trace.events()
        result.extras["trace"] = trace_doc(
            system.spans, config.name, num_nodes, spec.probe_rate,
            protocol_events)
    post_run = getattr(workload, "post_run", None)
    if post_run is not None:
        # end-of-run workload audit (fuzz residue check + telemetry);
        # may raise, and may add deterministic extras
        post_run(system, result)
    return result


def simulate(
    config: ChipConfig,
    workload_factory: Callable[[ChipConfig, int], object],
    num_nodes: int = 1,
    *,
    warmup: bool = False,
    **fields,
) -> RunResult:
    """Run one simulation point, uncached.

    The runner, the sweep harness and the parallel workers all measure
    here, and the CLI through the same :func:`run_system` and
    :func:`assemble_result`, so the busy/L2/mem fractions and the miss
    breakdown cannot drift between entry points or modes.

    *fields* are :class:`RunSpec` fields (an unknown name raises
    TypeError).  ``check_coherence=True`` runs exactly what the CLI
    ``--check`` path runs — the continuous mid-run audits plus the full
    quiesce audit via :meth:`~repro.core.system.PiranhaSystem.verify` —
    with the audit telemetry merged into ``RunResult.extras`` (so it
    survives the ProcessPool round-trip); with ``trace_capacity``,
    violations carry the per-line event history.

    ``warmup=True`` routes through the warm-checkpoint store
    (:mod:`repro.checkpoint.store`): on a hit the machine is restored at
    its warm-up boundary and only the measurement phase is simulated; on
    a miss the cold run additionally snapshots itself at the boundary so
    every later run of this (config, workload) point — other sweep
    points, a re-run of a killed sweep, parallel workers — skips the warm-up.  The
    measurement payload is byte-identical either way (tested), so the
    flag is deliberately *not* part of any result-cache key.

    ``mode="sampled"`` switches to SMARTS-style sampled simulation
    (:mod:`repro.fastforward`): the machine fast-forwards through
    functional warming and runs only short detailed measurement windows
    (``window`` items per CPU) every ``period`` items, all on one live
    machine.  The result's totals are extrapolated estimates and
    ``extras["sampling"]`` carries per-metric-class 95% confidence
    intervals.  ``warmup=True`` composes with sampled mode through the
    same warm store (under a variant key — sampled snapshots park their
    CPUs at the boundary, so they never answer a detailed
    ``warmup=True`` run or vice versa): the first sampled run pays the
    functional warm-up and persists the boundary snapshot; every later
    one restores a machine already past its warm-up boundary and pays
    only the measurement windows, where the large sampled speedups live.

    Every warm snapshot is taken by one
    :class:`~repro.checkpoint.WarmCapture` on the system's
    ``on_warm_boundary`` hook; a sampled run fires it once its CPUs are
    parked at the boundary.  A live telemetry stream attaches through
    :func:`run_system`.
    """
    wall0 = time.time()
    spec = RunSpec(**fields).resolve()
    system, key = None, None
    if warmup:
        from ..checkpoint import WARM_STORE, restore_system, warm_key

        # sampled snapshots park their CPUs at the boundary, so they live
        # under their own variant and never answer a detailed run
        variant = ("sampled-" + spec.warming if spec.mode == "sampled"
                   else "detailed")
        key = warm_key(config, workload_factory, num_nodes, spec,
                       variant=variant)
        hit = WARM_STORE.get(key)
        if hit is not None:
            # a restored detailed system resumes its measurement phase
            # (start() is a no-op); a sampled one is past its warm-up
            # boundary and skips the warm-up
            system = restore_system(hit[1])
            key = None
    if system is None:
        system, _workload = build_system(config, workload_factory, num_nodes,
                                         spec)
    if key is not None:
        # persisted at the boundary, before the measurement phase: a run
        # killed mid-measurement still leaves warm state behind.  Opaque
        # workloads (no stable token) have no key and skip the snapshot
        from ..checkpoint import WarmCapture

        def put(payload, sim_now):
            _warm_put(key, config, workload_factory, system, payload,
                      sim_now)

        WarmCapture(system, sink=put)
    return run_system(system, spec, None, wall0)


def _warm_put(key: str, config: ChipConfig, workload_factory: Callable,
              system: PiranhaSystem, payload: bytes, sim_now: int) -> None:
    """File one warm-boundary snapshot in the warm-checkpoint store."""
    from ..checkpoint import WARM_STORE, build_manifest

    WARM_STORE.put(key, build_manifest(
        payload,
        fingerprint=library_fingerprint(),
        config_digest=config_digest(config),
        workload=workload_token(workload_factory),
        nodes=system.num_nodes,
        sim_now=sim_now,
    ), payload)


def run_system(system: PiranhaSystem, spec: RunSpec, stream=None,
               wall0: Optional[float] = None) -> RunResult:
    """Run an already-built or restored *system* in ``spec.mode`` and
    measure it into a :class:`RunResult` with :func:`assemble_result`.

    The one measurement path: :func:`simulate`'s cold and warm paths and
    every CLI verb that reports numbers come through here, so their
    payloads, metrics and trace documents cannot drift apart.  It only
    chooses between running the machine to completion and running it
    sampled; a sampled machine restored past its warm-up boundary skips
    the warm-up.  *spec* is resolved; *stream* (an open TelemetryStream,
    or None) receives the ``run_start`` and ``run_end`` records and the
    sampler's interval records; *wall0* is the host time the run's wall
    clock starts from (default: now).

    The cyclic garbage collector is paused for the run and left as it
    was found, also when the run raises: the model makes no reference
    cycles while it runs, so a collection would only re-walk the live
    machine graph (DESIGN.md §5b).
    """
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        wall0 = time.time() if wall0 is None else wall0
        if stream is not None:
            stream.emit(
                "run_start", config=system.config.name,
                workload=getattr(system.workload, "name", "?"),
                num_nodes=system.num_proc_nodes,
                mode=spec.mode, probe_rate=spec.probe_rate,
                sample_interval_ps=spec.sample_interval_ps,
                trace_spans=spec.trace_spans)
        _arm_flightdeck(system, spec, stream)
        sampled = None
        if spec.mode == "sampled":
            from ..fastforward import SampledRun

            sampled = SampledRun(system, window=spec.window,
                                 period=spec.period, warming=spec.warming,
                                 telemetry=stream)
            sampled.run()
        else:
            system.run_to_completion()
        result = assemble_result(system, spec, time.time() - wall0, sampled)
        if stream is not None:
            stream.emit("run_end", config=result.config,
                        workload=result.workload, items=result.units,
                        throughput=result.throughput,
                        sim_wall_s=result.sim_wall_s)
        return result
    finally:
        if gc_enabled:
            gc.enable()


def _arm_flightdeck(system: PiranhaSystem, spec: RunSpec, stream) -> None:
    """(Re)arm or disarm the flight-deck observers on a system.

    Covers two situations the cold :func:`build_system` path cannot: a
    system restored from a warm snapshot (whose pickled state reflects
    whatever observers the *snapshotting* run had armed — this run's
    settings must win), and attaching the host-side telemetry stream,
    which is never built into a system.
    """
    if spec.trace_spans:
        if system.spans is None and system.probes is not None:
            system.enable_span_trace(spec.trace_spans)
    elif system.spans is not None:
        system.spans = None
        if system.probes is not None:
            system.probes.on_finish = None
    if stream is not None and system.sampler is not None:
        system.sampler.on_record = stream.on_interval


@dataclass(frozen=True)
class Job:
    """One simulation point: a config, a workload factory, a node count
    and the :class:`RunSpec` to measure it under (resolved on
    construction, so a bad mode fails before any cache lookup)."""

    config: ChipConfig
    factory: Callable[[ChipConfig, int], object]
    num_nodes: int = 1
    spec: RunSpec = RunSpec()
    #: route through the warm-checkpoint store (restore-or-snapshot at the
    #: warm-up boundary); execution strategy only — never part of a cache
    #: key, results are byte-identical either way
    warmup: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "spec", self.spec.resolve())


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1.

    0 (or a negative value) means "use every CPU core".
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _execute(job: Job) -> RunResult:
    """Simulate one job, uncached.  Worker processes run this too: cache
    reads and writes stay in the parent so workers never race on the
    cache directory — with one exception: warm checkpoints are written
    worker-side (atomic tmp+rename, and distinct points never share a
    key), because shipping multi-megabyte snapshots back through the
    result pickle would cost more than the race it avoids."""
    return simulate(job.config, job.factory, job.num_nodes,
                    warmup=job.warmup, **asdict(job.spec))


def _picklable(job: Job) -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


def run_jobs(jobs_list: Sequence[Job], jobs: Optional[int] = None,
             ) -> List[RunResult]:
    """Execute every job, in order, using up to *jobs* worker processes.

    The one cached path.  Results are returned in input order.  Points
    the memo or the disk cache hold are answered without simulating;
    the rest simulate — across a process pool when more than one worker
    is allowed and more than one picklable point is left, serially
    otherwise — and are written to both caches by this process.  With
    caching off, or for an opaque workload factory, nothing is looked
    up or stored.
    """
    jobs_list = list(jobs_list)
    enabled = cache_enabled()
    keys = [job.spec.key(job.config, job.factory, job.num_nodes)
            if enabled else None for job in jobs_list]
    results: List[Optional[RunResult]] = []
    for key in keys:
        result = None
        if key is not None:
            result = _MEMO.get(key)
            if result is None:
                result = DISK_CACHE.get(key)
                if result is not None:
                    _MEMO.put(key, result)
        results.append(result)
    misses = [i for i, result in enumerate(results) if result is None]

    def done(i: int, result: RunResult) -> None:
        # stored as each point finishes, so a killed sweep's re-run
        # answers the finished points from the cache
        results[i] = result
        if keys[i] is not None:
            _MEMO.put(keys[i], result)
            DISK_CACHE.put(keys[i], result)

    pooled: List[int] = []
    n_workers = resolve_jobs(jobs)
    if n_workers > 1 and len(misses) > 1:
        pooled = [i for i in misses if _picklable(jobs_list[i])]
        if len(pooled) <= 1:
            pooled = []
    if pooled:
        with ProcessPoolExecutor(max_workers=min(n_workers,
                                                 len(pooled))) as pool:
            for i, result in zip(pooled, pool.map(
                    _execute, [jobs_list[i] for i in pooled])):
                done(i, result)
    for i in misses:
        if i not in pooled:
            done(i, _execute(jobs_list[i]))
    return results  # type: ignore[return-value]


def run_configured(
    config: ChipConfig,
    workload_factory: Callable[[ChipConfig, int], object],
    num_nodes: int = 1,
    *,
    warmup: bool = False,
    **fields,
) -> RunResult:
    """Simulate one explicit configuration through :func:`run_jobs`, with
    two-level caching.

    *fields* are :class:`RunSpec` fields; the resolved spec's
    :meth:`~RunSpec.key` is the one key of both caches.  ``warmup`` stays
    out of it: it is execution strategy (the warm and cold paths produce
    byte-identical results).
    """
    return run_jobs([Job(config, workload_factory, num_nodes,
                         RunSpec(**fields), warmup)])[0]
