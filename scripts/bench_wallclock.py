#!/usr/bin/env python
"""Wall-clock benchmark for the simulation harness.

Times a fixed OLTP/DSS workload mix through every performance layer and
appends a record to ``BENCH_harness.json`` so the perf trajectory is
tracked PR over PR:

* **engine**: pure event-engine throughput (trivial self-rescheduling
  callbacks) — isolates the ``Simulator.run``/``schedule`` fast path.
* **single_sim**: one P8 OLTP and one P8 DSS simulation, uncached —
  the end-to-end hot path (engine + caches + protocol + workload).
* **sweep**: a multi-point L2-size sweep run three ways — serial and
  uncached, through the parallel layer with a cold disk cache, and
  again with a warm disk cache.  ``speedup_warm`` is the headline
  "re-runs are near-instant" number; ``speedup_parallel`` only exceeds
  1 on multi-core hosts (the record notes the core count).

Usage::

    PYTHONPATH=src python scripts/bench_wallclock.py
    PYTHONPATH=src python scripts/bench_wallclock.py --scale 0.25 --jobs 4
    PYTHONPATH=src python scripts/bench_wallclock.py --quick
    PYTHONPATH=src python scripts/bench_wallclock.py --observability

``--observability`` times the same P8 OLTP run with latency probes and
the interval sampler off/on and appends the overhead comparison to
``BENCH_observability.json`` instead.

``--checkpoint`` times a warm-up-heavy 8-point sweep three ways —
baseline, cold-with-snapshot-capture, and restored-from-warm-checkpoint
— and appends the amortised warm-up speedup to
``BENCH_checkpoint.json``.

``--fastforward`` times one P8 OLTP point detailed vs sampled (cold and
warm-start), asserts the two sampled payloads are bit-identical, and
appends effective ev/s, speedup and measured per-class error to
``BENCH_fastforward.json``.

``--isa`` runs the full ISA kernel cross-validation (functional
reference vs the timed machine) at the requested scale, asserts every
kernel's final memory is bit-exact and every tolerance check passes,
and appends wall-clock plus instruction-throughput numbers for both
execution models to ``BENCH_isa.json``.

Determinism makes the measurements comparable across runs: the simulated
results are bit-for-bit identical in every mode, only wall-clock varies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def bench_engine(events: int = 400_000, chains: int = 16,
                 repeats: int = 3) -> float:
    """Events/second through the bare engine (best of *repeats*)."""
    from repro.sim import Simulator

    best = 0.0
    for _ in range(repeats):
        sim = Simulator()
        per = events // chains

        def chain(left: int, period: int) -> None:
            if left:
                sim.schedule(period, chain, left - 1, period)

        for i in range(chains):
            sim.schedule(i + 1, chain, per, 7 + i)
        t0 = time.perf_counter()
        sim.run()
        rate = sim.events_fired / (time.perf_counter() - t0)
        best = max(best, rate)
    return best


def bench_single_sims(scale: float) -> dict:
    """One uncached P8 OLTP + P8 DSS simulation (the fixed mix)."""
    from repro.core import PiranhaSystem, preset
    from repro.workloads import DssParams, DssWorkload, OltpParams, OltpWorkload

    op = OltpParams()
    op = replace(op, transactions=max(20, int(op.transactions * scale)),
                 warmup_transactions=max(40, int(op.warmup_transactions * scale)))
    dp = DssParams()
    dp = replace(dp, rows=max(60, int(dp.rows * scale)))

    out = {}
    for key, workload in (
        ("oltp", lambda: OltpWorkload(op, cpus_per_node=8)),
        ("dss", lambda: DssWorkload(dp, cpus_per_node=8)),
    ):
        system = PiranhaSystem(preset("P8"), num_nodes=1)
        system.attach_workload(workload())
        t0 = time.perf_counter()
        system.run_to_completion()
        wall = time.perf_counter() - t0
        out[key] = {
            "wall_s": round(wall, 4),
            "events": system.sim.events_fired,
            "events_per_s": round(system.sim.events_fired / wall),
        }
    out["total_s"] = round(out["oltp"]["wall_s"] + out["dss"]["wall_s"], 4)
    return out


def bench_sweep(scale: float, jobs: int, points: int) -> dict:
    """The same multi-point sweep: serial-uncached, parallel-cold, warm."""
    from repro.harness import OltpFactory, clear_cache
    from repro.harness.sweep import sweep_field
    from repro.workloads import OltpParams

    params = OltpParams(
        transactions=max(10, int(40 * scale)),
        warmup_transactions=max(15, int(60 * scale)),
    )
    factory = OltpFactory(params)
    values = [(256 + 256 * i) << 10 for i in range(points)]

    def timed(jobs_n: int) -> "tuple[float, list]":
        clear_cache()
        t0 = time.perf_counter()
        records = sweep_field("P2", factory, "l2.size_bytes", values,
                              jobs=jobs_n)
        return time.perf_counter() - t0, records

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    old_cache_dir = os.environ.get("REPRO_CACHE_DIR")
    old_no_cache = os.environ.get("REPRO_NO_CACHE")
    try:
        os.environ["REPRO_CACHE_DIR"] = cache_dir

        os.environ["REPRO_NO_CACHE"] = "1"
        serial_s, serial_records = timed(1)

        del os.environ["REPRO_NO_CACHE"]
        parallel_s, parallel_records = timed(jobs)
        warm_s, warm_records = timed(jobs)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        if old_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache_dir
        if old_no_cache is not None:
            os.environ["REPRO_NO_CACHE"] = old_no_cache

    assert parallel_records == serial_records, \
        "parallel sweep diverged from serial records"
    assert warm_records == serial_records, \
        "cache-served sweep diverged from serial records"
    return {
        "points": points,
        "jobs": jobs,
        "serial_uncached_s": round(serial_s, 4),
        "parallel_cold_s": round(parallel_s, 4),
        "warm_cached_s": round(warm_s, 4),
        "speedup_parallel": round(serial_s / parallel_s, 3),
        "speedup_warm": round(serial_s / warm_s, 1),
        "records_identical": True,
    }


def bench_observability(scale: float, probe_rate: int = 64,
                        sample_us: float = 50.0) -> dict:
    """Wall-clock cost of the observability layer on one P8 OLTP run.

    Five passes over the identical workload: instrumentation off (the
    baseline the ``<= 2%`` disabled-path budget is judged against),
    probes+sampler at the default CI settings, probes at rate 1 (every
    miss tagged — the worst case), the causal span tracer on top of the
    default probes, and the host self-profiler at its default 1/16
    sampling rate (the ``<= 5%`` enabled-path budget)."""
    from repro.core import PiranhaSystem, preset
    from repro.workloads import OltpParams, OltpWorkload

    op = OltpParams()
    op = replace(op, transactions=max(20, int(op.transactions * scale)),
                 warmup_transactions=max(40, int(op.warmup_transactions * scale)))

    def run(rate: int, interval_us: float, spans: int = 0,
            profile: int = 0) -> dict:
        system = PiranhaSystem(preset("P8"), num_nodes=1)
        system.attach_workload(OltpWorkload(op, cpus_per_node=8))
        if rate:
            system.enable_probes(rate)
        if spans:
            system.enable_span_trace(spans)
        if profile:
            from repro.observe import HostProfiler

            system.sim.profiler = HostProfiler(profile)
        if interval_us:
            system.enable_sampler(int(interval_us * 1e6))
        t0 = time.perf_counter()
        system.run_to_completion()
        wall = time.perf_counter() - t0
        rec = {"wall_s": round(wall, 4),
               "events": system.sim.events_fired}
        if system.probes is not None:
            rec["probes_completed"] = system.probes.completed
        if system.spans is not None:
            rec["spans_kept"] = len(system.spans.txns)
        if system.sim.profiler is not None:
            rec["profile_sampled"] = system.sim.profiler.events_sampled
        return rec

    def pct(rec: dict) -> float:
        return round((rec["wall_s"] / base["wall_s"] - 1) * 100, 2)

    base = run(0, 0)
    probed = run(probe_rate, sample_us)
    full = run(1, sample_us)
    traced = run(probe_rate, sample_us, spans=256)
    profiled = run(0, 0, profile=16)
    return {
        "probe_rate": probe_rate,
        "sample_interval_us": sample_us,
        "disabled": base,
        "probed": probed,
        "probe_every_miss": full,
        "span_traced": traced,
        "host_profiled": profiled,
        "overhead_probed_pct": pct(probed),
        "overhead_every_miss_pct": pct(full),
        "overhead_traced_pct": pct(traced),
        "overhead_profiled_pct": pct(profiled),
    }


def bench_checkpoint(points: int = 8, jobs: int = 1) -> dict:
    """Amortised warm-up speedup from measurement-boundary snapshots.

    A warm-up-heavy OLTP mix (120 warm-up vs 20 measured transactions)
    swept over *points* L2 sizes, three ways over identical records:

    * **baseline**: every point simulates warm-up + measurement;
    * **cold capture**: ``warmup=True`` with an empty warm store — same
      work plus the snapshot cost (captures the overhead);
    * **warm restore**: ``warmup=True`` again with the result caches
      cleared but the snapshots kept — every point restores its warm
      state and simulates only the measurement phase.

    ``speedup_restore`` (baseline / warm-restore) is the headline
    amortisation number for ``--resume`` and repeated measurement fans.
    """
    from repro.harness import OltpFactory, clear_cache
    from repro.harness.runner import DISK_CACHE
    from repro.harness.sweep import sweep_field
    from repro.workloads import OltpParams

    params = OltpParams(transactions=20, warmup_transactions=120)
    factory = OltpFactory(params)
    values = [(256 + 128 * i) << 10 for i in range(points)]

    def timed(warmup: bool) -> "tuple[float, list]":
        # clear the result caches (memo + disk json) every pass so each
        # pass actually simulates; warm .ckpt snapshots survive
        clear_cache()
        DISK_CACHE.clear()
        t0 = time.perf_counter()
        records = sweep_field("P2", factory, "l2.size_bytes", values,
                              jobs=jobs, warmup=warmup)
        return time.perf_counter() - t0, records

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-ckpt-")
    old_cache_dir = os.environ.get("REPRO_CACHE_DIR")
    old_no_cache = os.environ.pop("REPRO_NO_CACHE", None)
    try:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        baseline_s, baseline_records = timed(False)
        cold_s, cold_records = timed(True)
        warm_s, warm_records = timed(True)
        from repro.checkpoint import WARM_STORE

        store = WARM_STORE.info()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        if old_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache_dir
        if old_no_cache is not None:
            os.environ["REPRO_NO_CACHE"] = old_no_cache

    assert cold_records == baseline_records, \
        "cold-capture sweep diverged from baseline records"
    assert warm_records == baseline_records, \
        "warm-restore sweep diverged from baseline records"
    return {
        "points": points,
        "jobs": jobs,
        "warmup_transactions": params.warmup_transactions,
        "measured_transactions": params.transactions,
        "baseline_s": round(baseline_s, 4),
        "cold_capture_s": round(cold_s, 4),
        "warm_restore_s": round(warm_s, 4),
        "capture_overhead_pct": round((cold_s / baseline_s - 1) * 100, 2),
        "speedup_restore": round(baseline_s / warm_s, 2),
        "snapshots": store["entries"],
        "snapshot_bytes": store["bytes"],
        "records_identical": True,
    }


def bench_fastforward(scale: float) -> dict:
    """Sampled-simulation speedup and measured error vs full detailed.

    Three passes over the identical P8 OLTP point:

    * **detailed**: the full event-driven run — the accuracy reference
      and the event count the sampled runs are credited against;
    * **sampled cold**: ``mode="sampled", warmup=True`` with an empty
      warm store — functional warm-up + measurement windows + boundary
      snapshot capture;
    * **sampled warm-start**: the same call again — restores the warm
      boundary snapshot and pays only windows + fast-forward, which is
      where the headline sampled speedup lives.

    The cold and warm-start sampled payloads must be bit-identical
    (restoring the snapshot is not allowed to change anything
    measurable); their error is reported against the detailed run per
    metric class.  ``effective_events_per_s`` divides the *detailed*
    event count by the sampled wall — the rate at which sampled mode
    retires work the detailed model would have had to simulate.
    """
    from repro.core import preset
    from repro.harness import OltpFactory
    from repro.harness.runner import (SAMPLED_PERIOD, SAMPLED_WINDOW,
                                      assemble_result, build_system, simulate)
    from repro.workloads import OltpParams

    op = OltpParams()
    op = replace(op, transactions=max(20, int(op.transactions * scale)),
                 warmup_transactions=max(40, int(op.warmup_transactions * scale)))
    factory = OltpFactory(op)
    config = preset("P8")

    system, workload = build_system(config, factory, 1)
    t0 = time.perf_counter()
    system.run_to_completion()
    detailed_s = time.perf_counter() - t0
    detailed_events = system.sim.events_fired
    detailed = assemble_result(system, workload, config, 1, "transactions",
                               0, 0, detailed_s)

    classes = ("busy_frac", "l2_frac", "mem_frac", "miss_hit_frac",
               "miss_fwd_frac", "miss_mem_frac")

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-ff-")
    old_cache_dir = os.environ.get("REPRO_CACHE_DIR")
    old_no_cache = os.environ.pop("REPRO_NO_CACHE", None)
    try:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        t0 = time.perf_counter()
        cold = simulate(config, factory, mode="sampled", warmup=True)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = simulate(config, factory, mode="sampled", warmup=True)
        warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        if old_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache_dir
        if old_no_cache is not None:
            os.environ["REPRO_NO_CACHE"] = old_no_cache

    assert warm.extras["sampling"]["skip_warm"], \
        "warm-start sampled run did not restore from the warm store"
    assert cold.payload_tuple() == warm.payload_tuple(), \
        "warm-start sampled payload diverged from the cold run"

    err = {c: round(abs(getattr(cold, c) - getattr(detailed, c)), 4)
           for c in classes}
    err["time_per_unit_rel"] = round(
        abs(cold.time_per_unit_ns / detailed.time_per_unit_ns - 1), 4)
    sampling = cold.extras["sampling"]
    return {
        "scale": scale,
        "window": SAMPLED_WINDOW,
        "period": SAMPLED_PERIOD,
        "detailed": {
            "wall_s": round(detailed_s, 4),
            "events": detailed_events,
            "events_per_s": round(detailed_events / detailed_s),
        },
        "sampled_cold": {
            "wall_s": round(cold_s, 4),
            "speedup": round(detailed_s / cold_s, 2),
            "effective_events_per_s": round(detailed_events / cold_s),
            "windows": sampling["windows"],
            "measured_items": sampling["measured_items"],
            "ff_items": sampling["ff_items"],
        },
        "sampled_warm_start": {
            "wall_s": round(warm_s, 4),
            "speedup": round(detailed_s / warm_s, 2),
            "effective_events_per_s": round(detailed_events / warm_s),
        },
        "error": err,
        "max_class_error": max(err[c] for c in classes),
        "payloads_identical": True,
    }


def bench_isa(scale: float) -> dict:
    """Cross-validate every kernel and time both execution models.

    One ``run_suite`` pass (uncached) over the five kernels on P8 —
    which must come back all-green: bit-exact memory and every
    tolerance check passing — plus a separate pure-functional timing
    pass, so the record tracks the speed of the architectural
    reference and the timed machine separately.
    """
    from repro.isa.kernels import (KERNEL_NAMES, run_functional,
                                   scaled_params)
    from repro.isa.validate import fit_params, run_suite, validate_report

    old_no_cache = os.environ.get("REPRO_NO_CACHE")
    os.environ["REPRO_NO_CACHE"] = "1"
    try:
        t0 = time.perf_counter()
        doc = run_suite(config="P8", nodes=1, scale=scale, seeds=(0, 1, 2))
        suite_s = time.perf_counter() - t0
    finally:
        if old_no_cache is None:
            os.environ.pop("REPRO_NO_CACHE", None)
        else:
            os.environ["REPRO_NO_CACHE"] = old_no_cache

    assert doc["ok"], (
        "ISA cross-validation failed: "
        + ", ".join(f"{k}:{[c['name'] for c in r['checks'] if not c['ok']]}"
                    for k, r in doc["kernels"].items() if not r["ok"]))
    assert validate_report(doc) == [], "repro-xval/1 report invalid"

    t0 = time.perf_counter()
    functional_retired = 0
    for kernel in KERNEL_NAMES:
        params = fit_params(kernel, 8, scaled_params(kernel, scale))
        functional_retired += sum(run_functional(kernel, 8, params).retired)
    functional_s = time.perf_counter() - t0

    timed_instructions = sum(
        r["timed"]["counters"]["instructions"]
        for r in doc["kernels"].values())
    per_kernel = {
        name: {
            "memory_match": rep["memory_match"],
            "checks": len(rep["checks"]),
            "instructions": rep["timed"]["counters"]["instructions"],
            "membars": rep["timed"]["membars"],
            "wh64_issued": rep["timed"]["wh64_issued"],
        }
        for name, rep in doc["kernels"].items()
    }
    return {
        "scale": scale,
        "kernels": per_kernel,
        "checks_passed": doc["summary"]["checks"]
        - doc["summary"]["checks_failed"],
        "checks_total": doc["summary"]["checks"],
        "all_green": True,
        "suite_wall_s": round(suite_s, 4),
        "timed_instructions": timed_instructions,
        "timed_instructions_per_s": round(timed_instructions / suite_s),
        "functional_wall_s": round(functional_s, 4),
        "functional_retired": functional_retired,
        "functional_instructions_per_s": round(
            functional_retired / max(functional_s, 1e-9)),
    }


def run_isa(args) -> int:
    """``--isa``: record the kernel cross-validation trajectory."""
    print(f"ISA kernel cross-validation (P8, scale={args.scale})...")
    isa = bench_isa(args.scale)
    print(f"  {len(isa['kernels'])} kernels all green "
          f"({isa['checks_passed']}/{isa['checks_total']} checks), "
          f"suite {isa['suite_wall_s']}s "
          f"({isa['timed_instructions_per_s']:,} timed instr/s), "
          f"functional reference {isa['functional_wall_s']}s "
          f"({isa['functional_instructions_per_s']:,} instr/s)")
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": args.scale,
        "cores": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "isa": isa,
    }
    out = os.path.join(REPO_ROOT, "BENCH_isa.json")
    history = {"records": []}
    if os.path.exists(out):
        try:
            with open(out, "r", encoding="utf-8") as f:
                history = json.load(f)
        except (OSError, ValueError):
            pass
    history.setdefault("records", []).append(record)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(history, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"appended record to {out}")
    return 0


def run_fastforward(args) -> int:
    """``--fastforward``: record sampled-mode speedup/accuracy numbers."""
    print(f"sampled simulation (P8 OLTP, scale={args.scale})...")
    ff = bench_fastforward(args.scale)
    print(f"  detailed {ff['detailed']['wall_s']}s "
          f"({ff['detailed']['events_per_s']:,} ev/s), "
          f"sampled cold {ff['sampled_cold']['wall_s']}s "
          f"({ff['sampled_cold']['speedup']}x), "
          f"warm-start {ff['sampled_warm_start']['wall_s']}s "
          f"({ff['sampled_warm_start']['speedup']}x, "
          f"{ff['sampled_warm_start']['effective_events_per_s']:,} "
          f"effective ev/s)")
    print(f"  max class error {ff['max_class_error']:.4f}, "
          f"time/unit rel error {ff['error']['time_per_unit_rel']:.4f}")
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": args.scale,
        "cores": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "fastforward": ff,
    }
    out = os.path.join(REPO_ROOT, "BENCH_fastforward.json")
    history = {"records": []}
    if os.path.exists(out):
        try:
            with open(out, "r", encoding="utf-8") as f:
                history = json.load(f)
        except (OSError, ValueError):
            pass
    history.setdefault("records", []).append(record)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(history, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"appended record to {out}")
    return 0


def run_checkpoint(args) -> int:
    """``--checkpoint``: record the warm-restore amortisation numbers."""
    points = 3 if args.quick else 8
    jobs = args.jobs if args.jobs is not None else 1
    print(f"checkpoint amortisation ({points}-point L2 sweep, "
          f"warm-up-heavy OLTP, jobs={jobs})...")
    ckpt = bench_checkpoint(points=points, jobs=jobs)
    print(f"  baseline {ckpt['baseline_s']}s, "
          f"cold+capture {ckpt['cold_capture_s']}s "
          f"({ckpt['capture_overhead_pct']:+.1f}%), "
          f"warm-restore {ckpt['warm_restore_s']}s "
          f"(speedup {ckpt['speedup_restore']}x, "
          f"{ckpt['snapshots']} snapshots)")
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cores": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "checkpoint": ckpt,
    }
    out = os.path.join(REPO_ROOT, "BENCH_checkpoint.json")
    history = {"records": []}
    if os.path.exists(out):
        try:
            with open(out, "r", encoding="utf-8") as f:
                history = json.load(f)
        except (OSError, ValueError):
            pass
    history.setdefault("records", []).append(record)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(history, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"appended record to {out}")
    return 0


def run_observability(args) -> int:
    """``--observability``: record the probe-overhead comparison."""
    print(f"observability overhead (P8 OLTP, scale={args.scale})...")
    obs = bench_observability(args.scale)
    print(f"  disabled {obs['disabled']['wall_s']}s, "
          f"probed(1/{obs['probe_rate']}) {obs['probed']['wall_s']}s "
          f"({obs['overhead_probed_pct']:+.1f}%), "
          f"every-miss {obs['probe_every_miss']['wall_s']}s "
          f"({obs['overhead_every_miss_pct']:+.1f}%), "
          f"spans {obs['span_traced']['wall_s']}s "
          f"({obs['overhead_traced_pct']:+.1f}%), "
          f"profiler(1/16) {obs['host_profiled']['wall_s']}s "
          f"({obs['overhead_profiled_pct']:+.1f}%)")
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": args.scale,
        "cores": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "observability": obs,
    }
    out = os.path.join(REPO_ROOT, "BENCH_observability.json")
    history = {"records": []}
    if os.path.exists(out):
        try:
            with open(out, "r", encoding="utf-8") as f:
                history = json.load(f)
        except (OSError, ValueError):
            pass
    history.setdefault("records", []).append(record)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(history, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"appended record to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get("REPRO_SCALE", "0.25")),
                        help="workload scale for the timed mix")
    parser.add_argument("--jobs", type=int, default=None,
                        help="workers for the parallel sweep "
                             "(default: min(4, cores))")
    parser.add_argument("--points", type=int, default=6,
                        help="sweep points (default 6)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller engine bench + 3-point sweep")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_harness.json"))
    parser.add_argument("--observability", action="store_true",
                        help="only run the probes-off/probes-on overhead "
                             "comparison (appends to "
                             "BENCH_observability.json)")
    parser.add_argument("--checkpoint", action="store_true",
                        help="only run the warm-checkpoint amortisation "
                             "comparison (appends to "
                             "BENCH_checkpoint.json)")
    parser.add_argument("--fastforward", action="store_true",
                        help="only run the sampled-simulation speedup/"
                             "accuracy comparison (appends to "
                             "BENCH_fastforward.json)")
    parser.add_argument("--isa", action="store_true",
                        help="only run the ISA kernel cross-validation "
                             "benchmark (appends to BENCH_isa.json)")
    args = parser.parse_args(argv)

    if args.observability:
        return run_observability(args)
    if args.checkpoint:
        return run_checkpoint(args)
    if args.fastforward:
        return run_fastforward(args)
    if args.isa:
        return run_isa(args)

    os.environ["REPRO_SCALE"] = str(args.scale)
    cores = os.cpu_count() or 1
    jobs = args.jobs if args.jobs is not None else min(4, cores)
    points = 3 if args.quick else args.points
    engine_events = 100_000 if args.quick else 400_000

    print(f"engine microbench ({engine_events} events)...")
    engine_rate = bench_engine(events=engine_events)
    print(f"  {engine_rate:,.0f} events/s")

    print(f"single sims (P8 OLTP + P8 DSS, scale={args.scale})...")
    single = bench_single_sims(args.scale)
    print(f"  oltp {single['oltp']['wall_s']}s, dss {single['dss']['wall_s']}s"
          f" ({single['oltp']['events_per_s']:,} ev/s)")

    print(f"{points}-point L2 sweep (serial / jobs={jobs} cold / warm)...")
    sweep = bench_sweep(args.scale, jobs, points)
    print(f"  serial {sweep['serial_uncached_s']}s, "
          f"parallel {sweep['parallel_cold_s']}s, "
          f"warm {sweep['warm_cached_s']}s "
          f"(warm speedup {sweep['speedup_warm']}x)")

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": args.scale,
        "cores": cores,
        "python": sys.version.split()[0],
        "engine_events_per_s": round(engine_rate),
        "single_sim": single,
        "sweep": sweep,
    }

    history = {"records": []}
    if os.path.exists(args.out):
        try:
            with open(args.out, "r", encoding="utf-8") as f:
                history = json.load(f)
        except (OSError, ValueError):
            pass
    history.setdefault("records", []).append(record)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(history, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"appended record to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
