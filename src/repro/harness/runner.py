"""Experiment runner: build a system, attach a workload, measure.

All figure/table regeneration (``repro.harness.experiments``) goes through
:func:`run_workload` / :func:`run_configured`, which return a
:class:`RunResult` with the normalised execution-time breakdown (Figure
5's CPU-busy / L2-hit / L2-miss decomposition), the L1-miss service
decomposition (Figure 6b), and a throughput figure of merit.

Simulations are deterministic, so results are cached at two levels:

* an in-process **memo** (:class:`MemoCache`) so pytest-benchmark can
  re-invoke a bench without re-simulating, and
* the persistent **disk cache** (:mod:`repro.harness.cache`) so fresh
  processes — re-runs of benchmarks, examples, CI — skip simulation
  entirely when the code, config and workload are unchanged.

Both levels share one key: the digest of the resolved :class:`RunSpec`
at the point (:meth:`RunSpec.key`).  Set ``REPRO_NO_CACHE=1`` to disable both; :func:`memo_cache_info`
exposes the memo's contents and hit/miss counters, and every returned
``RunResult`` carries the current counters in ``extras`` (telemetry
only — the measurement payload of a RunResult is deterministic, extras
and ``sim_wall_s`` are not).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from ..core.checker import CoherenceChecker
from ..core.config import ChipConfig, preset
from ..core.system import PiranhaSystem
from .cache import (
    DISK_CACHE,
    cache_enabled,
    config_digest,
    library_fingerprint,
    workload_token,
)


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
    measurement payload.  ``sim_wall_s`` is host wall-clock;``extras``
    carries harness telemetry (cache counters).
    """

    config: str
    cpus: int
    nodes: int
    workload: str
    units: int                   # transactions / rows measured per CPU
    time_per_unit_ns: float      # per-CPU steady-state time per unit
    throughput: float            # units per second, whole system
    busy_frac: float
    l2_frac: float               # on-chip stall fraction (L2 hit + fwd)
    mem_frac: float
    miss_hit_frac: float         # L1 misses serviced by the L2
    miss_fwd_frac: float         # ... by another on-chip L1
    miss_mem_frac: float         # ... by local/remote memory
    sim_wall_s: float = 0.0
    #: harness telemetry and structured payloads (sanitizer counters,
    #: the "metrics" document from the observability layer); values are
    #: floats or JSON-shaped nested dicts — everything pickles/serialises
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

    ``units_attr`` names the workload parameter counted as units;
    ``check_coherence`` attaches the protocol sanitizer and
    ``trace_capacity`` a protocol trace ring of that many events;
    ``probe_rate=N`` tags 1 in N L1 misses with a latency probe and
    ``sample_interval_ps`` attaches the interval sampler (either one puts
    the metrics document in ``extras["metrics"]``); ``mode="sampled"``
    runs SMARTS-style sampled simulation with ``window``/``period``
    items per CPU and ``warming`` as the fast-forward regime;
    ``trace_spans=N`` keeps a causal span trace of up to N transactions
    in ``extras["trace"]``.

    Execution strategy (``warmup``) and host targets (``telemetry``) are
    not measurement identity and stay outside the spec.
    """

    units_attr: str = "transactions"
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


def assemble_result(
    system: PiranhaSystem,
    workload,
    config: ChipConfig,
    num_nodes: int,
    spec: RunSpec,
    wall: float = 0.0,
) -> RunResult:
    """Measure a drained system, run under the resolved *spec*, into a
    :class:`RunResult`.

    One assembly implementation for the cold, warm-restored and
    checkpoint-restored paths: whatever route the machine took to the
    drained state, the measurement payload is computed identically.
    """
    sanitizer: Dict[str, float] = {}
    if system.checker is not None:
        sanitizer = system.verify()

    units = getattr(workload.params, spec.units_attr)
    per_cpu_ps = max(cpu.total_ps for cpu in system.all_cpus())
    time_per_unit_ns = per_cpu_ps / units / 1000.0
    total_cpus = config.cpus * num_nodes
    throughput = total_cpus * 1e9 / time_per_unit_ns

    summary = system.execution_summary()
    total_ps = summary["total_ps"] or 1
    mb = system.miss_breakdown()
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
    if spec.probe_rate or spec.sample_interval_ps:
        from .metrics import metrics_doc

        # deterministic (simulation-state-only), so it is safe to cache
        # and identical across the serial and ProcessPool paths
        result.extras["metrics"] = metrics_doc(
            system, result, spec.probe_rate, spec.sample_interval_ps)
    _attach_flightdeck_extras(result, system, config, num_nodes, spec)
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
    telemetry=None,
    **fields,
) -> RunResult:
    """Run one simulation point, uncached.

    This is the single shared measurement implementation: the runner, the
    sweep harness and the parallel workers all assemble their metrics
    here, and the CLI through the same :func:`run_system`, so the
    busy/L2/mem fractions and the miss breakdown cannot drift between
    entry points.

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
    points, ``--resume``, parallel workers — skips the warm-up.  The
    measurement payload is byte-identical either way (tested), so the
    flag is deliberately *not* part of any result-cache key.

    ``mode="sampled"`` switches to SMARTS-style sampled simulation
    (:mod:`repro.fastforward`): the machine fast-forwards through
    functional warming and runs only short detailed measurement windows
    (``window`` items per CPU) every ``period`` items, handing off
    between regimes through the checkpoint subsystem.  The result's
    totals are extrapolated estimates and ``extras["sampling"]`` carries
    per-metric-class 95% confidence intervals.  ``warmup=True`` composes
    with sampled mode through the same warm store (under a variant key —
    sampled snapshots park their CPUs at the boundary, so they never
    answer a detailed ``warmup=True`` run or vice versa): the first
    sampled run pays the functional warm-up and persists the boundary
    snapshot; every later sampled run of the point restores it and pays
    only the measurement windows, which is where the large sampled
    speedups live.

    ``telemetry`` (a path, fd, file-like object, or
    :class:`~repro.observe.telemetry.TelemetryStream`) streams live
    heartbeat/interval/window/run-end records as the simulation runs.
    """
    return simulate_spec(config, workload_factory, num_nodes,
                         RunSpec(**fields).resolve(), warmup, telemetry)


def simulate_spec(config: ChipConfig, workload_factory: Callable,
                  num_nodes: int, spec: RunSpec, warmup: bool = False,
                  telemetry=None) -> RunResult:
    """:func:`simulate` for an already-resolved *spec*."""
    wall0 = time.time()
    stream = _open_telemetry(telemetry)
    try:
        return _simulate_inner(config, workload_factory, num_nodes, spec,
                               warmup, stream, wall0)
    finally:
        if stream is not None and stream is not telemetry:
            stream.close()


def _open_telemetry(telemetry):
    """Normalise a telemetry target into a TelemetryStream (or None).
    Callers close streams they opened; a caller-supplied stream is left
    open for its owner to close."""
    if telemetry is None:
        return None
    from ..observe.telemetry import TelemetryStream

    if isinstance(telemetry, TelemetryStream):
        return telemetry
    return TelemetryStream(telemetry)


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


def _simulate_inner(config, workload_factory, num_nodes, spec, warmup,
                    stream, wall0) -> RunResult:
    system = None
    skip_warm, key = False, None
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
            # (start() is a no-op); a sampled one skips its warm-up
            system = restore_system(hit[1])
            skip_warm, key = True, None
    if system is None:
        system, _workload = build_system(config, workload_factory, num_nodes,
                                         spec)
    on_warm = None
    if key is not None:
        # persisted at the boundary, before the measurement phase: a run
        # killed mid-measurement still leaves warm state behind.  Opaque
        # workloads (no stable token) have no key and skip the snapshot
        from ..checkpoint import WarmCapture, snapshot_bytes

        def put(payload, sim_now):
            _warm_put(key, config, workload_factory, system, payload,
                      sim_now)

        if spec.mode == "sampled":
            def on_warm(sys_):
                put(snapshot_bytes(sys_), sys_.sim.now)
        else:
            WarmCapture(system, sink=put)
    return run_system(system, spec, stream, wall0, skip_warm=skip_warm,
                      on_warm=on_warm)


def run_system(system: PiranhaSystem, spec: RunSpec, stream=None,
               wall0: Optional[float] = None, *, skip_warm: bool = False,
               on_warm: Optional[Callable] = None) -> RunResult:
    """Run an already-built or restored *system* in ``spec.mode`` and
    measure it into a :class:`RunResult`.

    The one measurement path: :func:`simulate`'s cold and warm paths and
    every CLI verb that reports numbers come through here, so their
    payloads, metrics and trace documents cannot drift apart.  *spec* is
    resolved; *stream* (an open TelemetryStream, or None) receives the
    ``run_start`` and ``run_end`` records; *wall0* is the host time the
    run's wall clock starts from (default: now).  ``skip_warm`` and
    ``on_warm`` are :class:`~repro.fastforward.SampledRun`'s warm-store
    hooks and only matter in sampled mode.

    The cyclic garbage collector is paused for the run and left as it
    was found, also when the run raises: the model makes no reference
    cycles while it runs, so a collection would only re-walk the live
    machine graph (DESIGN.md §5b).
    """
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        wall0 = time.time() if wall0 is None else wall0
        config, num_nodes = system.config, system.num_proc_nodes
        workload = system.workload
        if stream is not None:
            stream.emit(
                "run_start", config=config.name,
                workload=getattr(workload, "name", "?"),
                num_nodes=num_nodes,
                mode=spec.mode, probe_rate=spec.probe_rate,
                sample_interval_ps=spec.sample_interval_ps,
                trace_spans=spec.trace_spans)
        _arm_flightdeck(system, spec, stream)
        if spec.mode == "sampled":
            from ..fastforward import SampledRun

            run = SampledRun(system, window=spec.window, period=spec.period,
                             warming=spec.warming, skip_warm=skip_warm,
                             on_warm=on_warm, telemetry=stream)
            run.run()
            result = run.to_result(config, num_nodes, spec,
                                   time.time() - wall0)
            _attach_flightdeck_extras(result, system, config, num_nodes,
                                      spec)
        else:
            system.run_to_completion()
            result = assemble_result(system, workload, config, num_nodes,
                                     spec, time.time() - wall0)
        _emit_run_end(stream, result)
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


def _attach_flightdeck_extras(result: RunResult, system: PiranhaSystem,
                              config: ChipConfig, num_nodes: int,
                              spec: RunSpec) -> None:
    """Attach the span-trace document.

    Shared by :func:`assemble_result` (detailed runs) and the sampled
    path (``SampledRun.to_result`` assembles its own payload, so the
    extras are grafted on afterwards).  The trace doc is deterministic
    for the same reason the metrics doc is — built purely from
    simulation state (probe stamps carry simulated time, kept txns drop
    the process-global txn_id) — so it is safe to cache.
    """
    if spec.trace_spans and system.spans is not None:
        from ..observe.spans import trace_doc

        protocol_events = None
        if system.checker is not None and system.checker.trace is not None:
            protocol_events = system.checker.trace.events()
        result.extras["trace"] = trace_doc(
            system.spans, config.name, num_nodes, spec.probe_rate,
            protocol_events)


def _emit_run_end(stream, result: RunResult, cached: bool = False) -> None:
    if stream is None:
        return
    stream.emit("run_end", config=result.config, workload=result.workload,
                items=result.units, throughput=result.throughput,
                sim_wall_s=result.sim_wall_s, cached=cached)


def _attach_telemetry(result: RunResult) -> RunResult:
    result.extras["cache_memo_hits"] = float(_MEMO.hits)
    result.extras["cache_memo_misses"] = float(_MEMO.misses)
    result.extras["cache_disk_hits"] = float(DISK_CACHE.hits)
    return result


def cached_result(config: ChipConfig, workload_factory: Callable,
                  num_nodes: int, spec: RunSpec) -> Optional[RunResult]:
    """Memo/disk lookup for one point; None on a miss, with caching off,
    or for an opaque workload factory."""
    if not cache_enabled():
        return None
    key = spec.key(config, workload_factory, num_nodes)
    if key is None:
        return None
    result = _MEMO.get(key)
    if result is None:
        result = DISK_CACHE.get(key)
        if result is None:
            return None
        _MEMO.put(key, result)
    return _attach_telemetry(result)


def store_result(result: RunResult, config: ChipConfig,
                 workload_factory: Callable, num_nodes: int,
                 spec: RunSpec) -> None:
    """Record a freshly simulated point in the memo and disk caches."""
    if not cache_enabled():
        return
    key = spec.key(config, workload_factory, num_nodes)
    if key is None:
        return
    _MEMO.put(key, result)
    DISK_CACHE.put(key, result)


def run_spec(config: ChipConfig, workload_factory: Callable, num_nodes: int,
             spec: RunSpec, warmup: bool = False, telemetry=None) -> RunResult:
    """:func:`run_configured` for an already-resolved *spec*."""
    cached = cached_result(config, workload_factory, num_nodes, spec)
    if cached is not None:
        if telemetry is not None:
            stream = _open_telemetry(telemetry)
            try:
                _emit_run_end(stream, cached, cached=True)
            finally:
                if stream is not telemetry:
                    stream.close()
        return cached
    result = simulate_spec(config, workload_factory, num_nodes, spec, warmup,
                           telemetry)
    store_result(result, config, workload_factory, num_nodes, spec)
    return _attach_telemetry(result)


def run_configured(
    config: ChipConfig,
    workload_factory: Callable[[ChipConfig, int], object],
    num_nodes: int = 1,
    *,
    warmup: bool = False,
    telemetry=None,
    **fields,
) -> RunResult:
    """Simulate one explicit configuration, with two-level caching.

    *fields* are :class:`RunSpec` fields; the resolved spec's
    :meth:`~RunSpec.key` is the one key of both caches.  ``warmup`` and
    ``telemetry`` stay out of it: ``warmup`` is execution strategy (the
    warm and cold paths produce byte-identical results) and
    ``telemetry`` a host-side target that never touches the payload.  A
    cache hit for a telemetry-enabled point answers without streaming;
    the terminal ``run_end`` record (marked ``cached``) is still emitted
    so a watcher sees the run conclude.
    """
    return run_spec(config, workload_factory, num_nodes,
                    RunSpec(**fields).resolve(), warmup, telemetry)


def run_workload(
    config_name: str,
    workload_factory: Callable[[ChipConfig, int], object],
    num_nodes: int = 1,
    *,
    warmup: bool = False,
    telemetry=None,
    **fields,
) -> RunResult:
    """Simulate one preset configuration under one workload.

    ``workload_factory(config, num_nodes)`` builds the workload; its
    ``params.<units_attr>`` gives the measured units per CPU.
    """
    return run_configured(preset(config_name), workload_factory, num_nodes,
                          warmup=warmup, telemetry=telemetry, **fields)
