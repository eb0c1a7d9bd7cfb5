"""Command-line entry point: ``python -m repro``.

Runs one workload on one configuration and prints the standard report::

    python -m repro run --config P8 --workload oltp
    python -m repro run --config P4 --nodes 4 --workload oltp --check
    python -m repro run --workload oltp --metrics out.json \
        --probe-rate 64 --sample-interval 50
    python -m repro run --workload oltp --report
    python -m repro run --workload oltp --scale 0.25 --trace-spans \
        --trace-out trace.json          # open trace.json in Perfetto
    python -m repro run --workload oltp --scale 0.25 --profile
    python -m repro run --config P2 --nodes 2 --workload migratory \
        --check --trace 4096 --node 0 --last 8
    python -m repro run --workload oltp --telemetry live.jsonl &
    python -m repro watch live.jsonl --follow
    python -m repro sweep --config P8 --workload oltp \
        --field l2.size_bytes --values 512K,1M,2M --jobs 4
    python -m repro sweep ... --warmup
    python -m repro checkpoint save --config P8 --workload oltp \
        --out warm.ckpt
    python -m repro checkpoint info warm.ckpt
    python -m repro checkpoint restore warm.ckpt --metrics out.json
    python -m repro cache
    python -m repro cache --clear
    python -m repro table1
    python -m repro floorplan
    python -m repro list

Sweeps fan out across processes with ``--jobs N`` (or ``REPRO_JOBS``),
and all harness entry points reuse the persistent result cache; see the
README's "Performance" section.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .area import floorplan_summary
from .checkpoint import PeriodicCheckpointer, replay_final_window
from .core import PRESETS, preset, table1
from .harness.experiments import FACTORIES, scaled_factory
from .harness.report import breakdown_bar, format_table
from .harness.runner import RunSpec, build_system, run_system
from .isa.kernels import KERNEL_NAMES
from .observe.hostprof import HostProfiler


def _cli_spec(args: argparse.Namespace) -> RunSpec:
    """The one argparse -> :class:`RunSpec` translation, resolved.

    It owns the CLI-only implications: ``--metrics`` alone implies the
    default observability settings, probe rate 64 and a 50 us sample
    interval, and ``--telemetry`` implies the 50 us interval (a
    heartbeat stream with nothing to beat is useless).
    """
    probe_rate = getattr(args, "probe_rate", 0) or 0
    sample_us = getattr(args, "sample_interval", 0) or 0
    if getattr(args, "metrics", None) and not (probe_rate or sample_us):
        probe_rate, sample_us = 64, 50.0
    if getattr(args, "telemetry", None) and not sample_us:
        sample_us = 50.0
    return RunSpec(
        check_coherence=getattr(args, "check", False),
        trace_capacity=getattr(args, "trace", 0) or 0,
        probe_rate=probe_rate,
        sample_interval_ps=int(sample_us * 1e6),
        mode="sampled" if getattr(args, "sampled", False) else "detailed",
        window=getattr(args, "window", 0),
        period=getattr(args, "period", 0),
        warming=getattr(args, "warming", "functional"),
        trace_spans=getattr(args, "trace_spans", 0) or 0,
    ).resolve()


def _build_checked_system(args: argparse.Namespace):
    """Shared CLI setup: ``(system, spec)``, the system built by the
    harness's :func:`build_system` for the flags' point with every
    observer the flags ask for attached; :func:`run_system` measures it."""
    spec = _cli_spec(args)
    system, _workload = build_system(
        preset(args.config), scaled_factory(args.workload, args.scale),
        args.nodes, spec)
    return system, spec


def _print_audit(result) -> None:
    """The sanitizer line, when the run was audited."""
    extras = result.extras
    if "audit_continuous_runs" in extras:
        print(f"protocol sanitizer audit: OK "
              f"({int(extras['audit_continuous_runs'])} continuous audits, "
              f"{int(extras.get('audit_tsrf_entries', 0))} TSRF entries, "
              f"{int(extras.get('audit_dir_holdings', 0))} directory "
              f"holdings verified)")


def _print_measurement(result, units_attr: str, note: str = "") -> None:
    """Units, time per unit, breakdown bar and L1-miss mix of a result."""
    print(f"{units_attr:<15}: {result.units:,} per CPU, "
          f"{result.time_per_unit_ns:,.0f} ns each{note}")
    print(breakdown_bar(f"{result.config}/{result.workload}",
                        result.busy_frac, result.l2_frac, result.mem_frac))
    print(f"L1 misses: {result.miss_hit_frac:.0%} L2 hit, "
          f"{result.miss_fwd_frac:.0%} L1-to-L1 forward, "
          f"{result.miss_mem_frac:.0%} memory")
    probes = (result.extras.get("metrics") or {}).get("probes")
    if probes is not None:
        parts = [f"{cls}: {blk['count']} @ {blk['mean_ns']:.0f} ns"
                 for cls, blk in probes["classes"].items() if blk["count"]]
        print(f"latency probes (1/{probes['rate']}): "
              f"{probes['completed']} completed — " + ", ".join(parts))


def _print_sampled(result, units_attr: str) -> None:
    """The ``run --sampled`` report: windows, extrapolated measurement
    and the per-class 95% confidence intervals across windows."""
    sampling = result.extras["sampling"]
    print(f"\nwindows        : {sampling['windows']} x {sampling['window']} "
          f"items/CPU (measured {sampling['measured_items']:,} items, "
          f"fast-forwarded {sampling['ff_items']:,})")
    _print_measurement(result, units_attr, " (extrapolated)")
    print("\n95% confidence (across windows):")
    for name, stats in sampling["error"].items():
        if stats["n"] > 1:
            print(f"  {name:<14} {stats['mean']:.4f} +/- {stats['ci95']:.4f} "
                  f"({stats['rel_err']:.1%})")
    print(f"\nwall time      : {result.sim_wall_s:.2f} s")


def _print_report(system) -> None:
    from .harness.perfmon import render_report, system_report

    print(render_report(system_report(system, now_ps=system.sim.now)))


def _write_outputs(args: argparse.Namespace, result) -> None:
    """Write the result's ``--metrics`` document (plus its time-series
    CSV sibling) and its span trace (to ``--trace-out``)."""
    path = getattr(args, "metrics", None)
    if path:
        from .harness.metrics import timeseries_csv, write_metrics

        doc = result.extras["metrics"]
        write_metrics(doc, path)
        print(f"metrics written to {path}")
        if doc["timeseries"] is not None:
            csv_path = (path[:-5] if path.endswith(".json") else path) + ".csv"
            with open(csv_path, "w") as fh:
                fh.write(timeseries_csv(doc))
            print(f"time-series written to {csv_path}")
    trace = result.extras.get("trace")
    if trace is not None:
        from .observe import write_trace

        out = getattr(args, "trace_out", None) or "repro-trace.json"
        write_trace(out, trace)
        print(f"span trace written to {out}: {trace['kept']} transactions, "
              f"{len(trace['traceEvents'])} events "
              f"(open at https://ui.perfetto.dev)")


def _print_replay(info) -> None:
    """What the flight recorder's replay of the final window found."""
    if not info:
        print("(no snapshot buffered; rerun with --checkpoint-every to "
              "bisect, or --trace for a whole-run trace)")
        return
    print(f"\nbisecting: restored snapshot @ "
          f"{info['restored_from_ps'] / 1e6:.1f} us and replayed the final "
          f"window with the trace armed")
    if info["recurred"]:
        print(f"violation recurred in replay: {info['replay_message']}")
    else:
        print("violation did not recur in the replayed window "
              "(depends on earlier state; shorten --checkpoint-every)")
    print(f"\nprotocol trace tail (replayed window, "
          f"{len(info['trace_window'])} events):")
    for line in info["trace_window"]:
        print("  " + line)


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: simulate one workload on one configuration."""
    if args.sampled and args.checkpoint_every:
        print("error: --checkpoint-every keeps snapshots of a detailed run "
              "and cannot be combined with --sampled", file=sys.stderr)
        return 2
    system, spec = _build_checked_system(args)
    config = system.config
    if spec.mode == "sampled":
        print(f"sampled simulation of {args.workload} on {args.nodes} x "
              f"{config.name}: window={spec.window} period={spec.period} "
              f"warming={spec.warming}")
    else:
        print(f"simulating {args.workload} on {args.nodes} x {config.name} "
              f"({config.cpus * args.nodes} CPUs) ...")
    stream = None
    if args.telemetry:
        from .observe import TelemetryStream

        stream = TelemetryStream(args.telemetry)
        print(f"telemetry streaming to {args.telemetry} "
              f"(follow with: python -m repro watch {args.telemetry})")
    checkpointer = None
    if args.checkpoint_every:
        on_capture = None
        if stream is not None:
            def on_capture(now_ps, nbytes):
                stream.emit("checkpoint", time_ps=now_ps, bytes=nbytes)
        checkpointer = PeriodicCheckpointer(
            system, int(args.checkpoint_every * 1e6), on_capture=on_capture)
        checkpointer.start()
    profiler = HostProfiler() if args.profile else None
    try:
        with profiler or contextlib.nullcontext():
            result = run_system(system, spec, stream)
    except AssertionError as exc:
        # CoherenceViolation from the sanitizer (mid-run audit or quiesce
        # verify): with the flight recorder armed, restore the last
        # pre-violation snapshot and replay the final window traced
        print(f"VIOLATION: {exc}")
        _print_replay(replay_final_window(checkpointer, spec.trace_capacity,
                                          tail=args.last))
        return 1
    finally:
        if stream is not None:
            stream.close()
    _print_audit(result)
    if spec.mode == "sampled":
        _print_sampled(result, system.workload.units_attr)
    else:
        print(f"\nsimulated time : {system.finish_ps() / 1e6:.1f} us")
        _print_measurement(result, system.workload.units_attr)
    _write_outputs(args, result)
    trace = system.checker.trace if system.checker is not None else None
    if trace is not None and spec.mode == "detailed":
        print()
        print(trace.dump(line=int(args.line, 0) if args.line else None,
                         node=args.node, last=args.last))
        counts = trace.summary()
        print("\nevent totals: " + ", ".join(
            f"{k}={counts[k]}" for k in sorted(counts)))
    if profiler is not None:
        print()
        print(profiler.render())
    if args.report:
        print()
        _print_report(system)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """``watch``: tail a live telemetry stream (written by
    ``run --telemetry PATH``), rendering records as they arrive."""
    from .observe.telemetry import (follow_records, read_records,
                                    render_record)

    if args.follow:
        saw_end = False
        for record in follow_records(args.path, timeout_s=args.timeout):
            print(render_record(record), flush=True)
            saw_end = record.get("kind") == "run_end"
        if not saw_end:
            print(f"(no run_end after {args.timeout:.0f}s of silence; "
                  f"writer gone?)", file=sys.stderr)
        return 0
    records = read_records(args.path)
    if not records:
        print(f"no telemetry records in {args.path}", file=sys.stderr)
        return 1
    for record in records[-args.last:]:
        print(render_record(record))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``sweep``: run one workload across a family of derived configs."""
    from .harness.sweep import parse_sweep_value, sweep_field

    values = [parse_sweep_value(v) for v in args.values.split(",")
              if v.strip()]
    if not values:
        print("no sweep values given", file=sys.stderr)
        return 2
    factory = FACTORIES[args.workload]()
    print(f"sweeping {args.config}.{args.field} over {values} "
          f"({args.workload}, jobs={args.jobs if args.jobs else 'auto'})")
    try:
        records = sweep_field(
            args.config, factory, args.field, values, num_nodes=args.nodes,
            jobs=args.jobs, warmup=args.warmup)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        [r["value"], f"{r['throughput']:.3g}", f"{r['time_per_unit_ns']:.1f}",
         f"{r['busy_frac']:.2f}", f"{r['l2_frac']:.2f}",
         f"{r['mem_frac']:.2f}", f"{r['miss_mem_frac']:.2f}"]
        for r in records
    ]
    print(format_table(
        [args.field, "throughput", "ns/unit", "busy", "l2", "mem",
         "miss_mem"], rows,
        title=f"{args.config} {args.workload} sweep"))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``fuzz``: run one seeded fuzz program (or replay a reproducer)
    against the memory-model reference checker.  Exits 0 on a clean run
    — or, for ``--replay``, when the recorded verdict reproduces — and
    1 on an unexpected violation (or a reproducer that went stale)."""
    import dataclasses

    from .fuzz import (
        MUTATIONS,
        Reproducer,
        generate,
        params_for,
        replay,
        run_fuzz_program,
        shrink_failure,
    )

    trace_cap = args.trace or (512 if args.replay else 2048)

    if args.replay:
        repro = Reproducer.load(args.replay)
        print(f"replaying {args.replay}: {repro.program.describe()}")
        print(f"recorded : {repro.signature or '(clean)'}")
        verdict = run_fuzz_program(repro.program, check=args.check,
                                   trace_capacity=trace_cap)
        got = verdict.signature or "(clean)"
        reproduced = verdict.signature == repro.signature
        print(f"replayed : {got} -> "
              f"{'REPRODUCED' if reproduced else 'DIVERGED'}")
        if not reproduced and verdict.message:
            print(verdict.message)
        return 0 if reproduced else 1

    params = params_for(args.seed, total_ops=args.ops, nodes=args.nodes,
                        config=args.config, cpus_per_node=args.cpus)
    program = generate(params)
    if args.mutate:
        name, _, period = args.mutate.partition("/")
        if name not in MUTATIONS:
            print(f"unknown mutation {name!r}; available: "
                  f"{', '.join(sorted(MUTATIONS))}", file=sys.stderr)
            return 2
        program = dataclasses.replace(
            program, mutation=name, mutation_period=int(period or 1))
    print(f"fuzzing: {program.describe()}")
    every_ps = int((args.checkpoint_every or 0) * 1e6)
    verdict = run_fuzz_program(program, check=args.check,
                               trace_capacity=trace_cap,
                               checkpoint_every_ps=every_ps)
    if verdict.ok:
        counts = verdict.counts
        print("clean: " + ", ".join(
            f"{k}={int(v)}" for k, v in sorted(counts.items())))
        return 0
    print(f"VIOLATION {verdict.signature}")
    print(verdict.message)
    if verdict.trace_window:
        print("\nprotocol trace tail:")
        for line in verdict.trace_window[-args.tail:]:
            print("  " + line)
    if verdict.bisect:
        info = verdict.bisect
        print(f"\nbisection: restored snapshot @ "
              f"{info['restored_from_ps'] / 1e6:.1f} us "
              f"({info['captures']} captured), replayed final window -> "
              f"{'RECURRED' if info['recurred'] else 'did not recur'} "
              f"({info.get('replay_signature') or 'clean'})")
        for line in (info.get("trace_window") or [])[-args.tail:]:
            print("  " + line)
    if args.shrink:
        print(f"\nshrinking (budget {args.shrink} runs) ...")
        repro = shrink_failure(program, verdict, budget=args.shrink,
                               log=lambda msg: print("  " + msg))
        print(f"minimal: {repro.program.describe()} "
              f"({repro.shrunk_from_ops} -> {repro.program.op_count} ops, "
              f"{repro.shrink_runs} runs)")
        if args.out:
            repro.save(args.out)
            print(f"reproducer written to {args.out} "
                  f"(replay with: python -m repro fuzz --replay {args.out})")
        check = replay(repro, check=args.check)
        print(f"reproducer replay: "
              f"{'REPRODUCED' if check.signature == repro.signature else 'DIVERGED'}")
    return 1


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """``checkpoint``: save, restore or inspect machine snapshots."""
    from .checkpoint import (CheckpointError, WarmCapture, checkpoint_info,
                             load_checkpoint, save_checkpoint)

    if args.verb == "save":
        system, spec = _build_checked_system(args)
        config = system.config
        capture = WarmCapture(system, halt=True)
        print(f"warming {args.workload} on {args.nodes} x {config.name} "
              f"({config.cpus * args.nodes} CPUs) ...")
        system.start()
        system.sim.run()
        if not capture.captured:
            print("error: the workload finished before its warm-up "
                  "boundary; nothing worth checkpointing", file=sys.stderr)
            return 1
        manifest = save_checkpoint(
            args.out, system, payload=capture.payload,
            sim_now=capture.sim_now, workload=args.workload,
            extra={
                "config_name": args.config,
                "scale": args.scale,
                "check": bool(args.check),
                "probe_rate": spec.probe_rate,
                "sample_interval_us": spec.sample_interval_ps / 1e6,
            })
        print(f"checkpoint written to {args.out}: warm boundary @ "
              f"{manifest['sim_now'] / 1e6:.1f} us, "
              f"{manifest['payload_bytes']:,} bytes "
              f"(sha256 {manifest['payload_sha256'][:12]}...)")
        return 0

    if args.verb == "info":
        try:
            manifest = checkpoint_info(args.path)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

    # restore: finish the measurement phase from the snapshot
    try:
        manifest, system = load_checkpoint(args.path, force=args.force)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # measure under the observer settings the snapshot was taken with, so
    # --metrics is byte-identical to an uninterrupted ``repro run
    # --metrics`` at the same settings
    spec = RunSpec(probe_rate=manifest.get("probe_rate", 0) or 0,
                   sample_interval_ps=int(
                       (manifest.get("sample_interval_us", 0) or 0) * 1e6)
                   ).resolve()
    if args.metrics and not (spec.probe_rate or spec.sample_interval_ps):
        print("error: --metrics needs a snapshot saved with --probe-rate or "
              "--sample-interval", file=sys.stderr)
        return 2
    print(f"restored {system.workload.name} on {manifest.get('nodes')} "
          f"node(s) @ {manifest['sim_now'] / 1e6:.1f} us; resuming ...")
    result = run_system(system, spec)
    _print_audit(result)
    finish = system.finish_ps()
    print(f"\nsimulated time : {finish / 1e6:.1f} us (measurement window "
          f"{(finish - manifest['sim_now']) / 1e6:.1f} us)")
    _print_measurement(result, system.workload.units_attr)
    _write_outputs(args, result)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """``cache``: inspect or clear the persistent result cache."""
    from .harness import DISK_CACHE
    from .harness.runner import memo_cache_info

    if args.clear:
        removed = DISK_CACHE.clear()
        print(f"cleared {removed} cached results from {DISK_CACHE.path}")
        return 0
    info = DISK_CACHE.info()
    print(f"disk cache : {info['path']}")
    print(f"  enabled  : {info['enabled']} (REPRO_NO_CACHE disables)")
    print(f"  entries  : {info['entries']} ({info['bytes']} bytes)")
    print(f"  hits     : {info['hits']}  misses: {info['misses']} "
          f"(this process)")
    memo = memo_cache_info()
    print(f"memo cache : {memo['entries']} entries, "
          f"{memo['hits']} hits / {memo['misses']} misses (this process)")
    return 0


def cmd_table1(_args: argparse.Namespace) -> int:
    """``table1``: print the regenerated Table 1."""
    table = table1()
    params = list(next(iter(table.values())).keys())
    rows = [[p] + [table[c][p] for c in ("P8", "OOO", "P8F")] for p in params]
    print(format_table(["Parameter", "P8", "OOO", "P8F"], rows,
                       title="Table 1"))
    return 0


def cmd_floorplan(_args: argparse.Namespace) -> int:
    """``floorplan``: print the Figure 9 area budget."""
    summary = floorplan_summary(preset("P8"))
    rows = [[m.name, m.count, f"{m.total_mm2:.1f}"]
            for m in summary["modules"]]
    print(format_table(["module", "count", "mm^2"], rows,
                       title="Figure 9 floor-plan"))
    print(f"\ncores + caches: {summary['cores_and_caches_fraction']:.0%} "
          f"of {summary['total_mm2']:.0f} mm^2")
    return 0


def cmd_xval(args: argparse.Namespace) -> int:
    """``xval``: cross-validate the ISA kernels — functional reference
    vs the timed machine — and print/emit the ``repro-xval/1`` report."""
    import json

    from .isa.validate import run_suite, validate_report

    if args.check_report:
        with open(args.check_report) as fh:
            doc = json.load(fh)
        problems = validate_report(doc)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.check_report}: valid {doc['schema']} report, "
                  f"ok={doc['ok']}")
        return 0 if not problems and doc.get("ok") else 1

    kernels = KERNEL_NAMES if args.kernel == "all" else (args.kernel,)
    seeds = tuple(range(args.seeds))
    print(f"cross-validating {len(kernels)} kernel(s) on {args.nodes} x "
          f"{args.config} (scale {args.scale}, {len(seeds)} functional "
          f"seeds) ...")
    doc = run_suite(kernels, config=args.config, nodes=args.nodes,
                    scale=args.scale, seeds=seeds)
    rows = []
    for name, rep in doc["kernels"].items():
        failed = [c["name"] for c in rep["checks"] if not c["ok"]]
        rows.append([
            name,
            "yes" if rep["memory_match"] else "NO",
            f"{sum(c['ok'] for c in rep['checks'])}/{len(rep['checks'])}",
            f"{rep['timed']['units']}",
            "PASS" if rep["ok"] else "FAIL: " + ",".join(failed or
                                                         ["memory"]),
        ])
    print(format_table(
        ["kernel", "mem bit-exact", "checks", "units", "verdict"], rows,
        title=f"cross-validation ({doc['schema']})"))
    summary = doc["summary"]
    print(f"\n{summary['passed']}/{summary['kernels']} kernels passed, "
          f"{summary['checks'] - summary['checks_failed']}/"
          f"{summary['checks']} checks passed")
    problems = validate_report(doc)
    if problems:  # defensive: the suite's own invariants should hold
        print(f"WARNING: report failed validation: {problems[0]}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0 if doc["ok"] and not problems else 1


def cmd_list(_args: argparse.Namespace) -> int:
    """``list``: show available configurations and workloads."""
    print("configurations:", ", ".join(sorted(PRESETS)))
    print("workloads     :", ", ".join(sorted(FACTORIES)))
    return 0


def _point_parser() -> argparse.ArgumentParser:
    """``--config/--workload/--nodes/--scale``, for every verb that
    simulates one point.  A fresh parser per verb: argparse shares a
    parent's actions, so one verb's ``set_defaults`` would leak."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", default="P8", choices=sorted(PRESETS))
    p.add_argument("--workload", default="oltp", choices=sorted(FACTORIES))
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier")
    return p


def _observe_parser() -> argparse.ArgumentParser:
    """``--probe-rate/--sample-interval``, for the verbs that measure."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--probe-rate", type=int, default=0, metavar="N",
                   help="tag 1 of every N L1 misses with a latency probe "
                        "(0 = off)")
    p.add_argument("--sample-interval", type=float, default=0, metavar="US",
                   help="time-series sampling period in simulated "
                        "microseconds (0 = off)")
    return p


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Piranha (ISCA 2000) reproduction simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a workload",
                           parents=[_point_parser(), _observe_parser()])
    run_p.add_argument("--check", action="store_true",
                       help="run with the protocol sanitizer (continuous "
                            "audits + full quiesce audit)")
    run_p.add_argument("--trace", type=int, nargs="?", const=512, default=0,
                       metavar="N",
                       help="record the last N protocol events (default "
                            "512); violations dump the per-line history and "
                            "a detailed run ends with the ring's tail and "
                            "event totals")
    run_p.add_argument("--line", default=None,
                       help="--trace tail: only events for this line "
                            "address (hex ok)")
    run_p.add_argument("--node", type=int, default=None,
                       help="--trace tail: only events from this node")
    run_p.add_argument("--last", type=int, default=32,
                       help="trailing protocol events printed (--trace "
                            "tail and the flight recorder's replay; "
                            "default 32)")
    run_p.add_argument("--report", action="store_true",
                       help="print the full per-module performance report")
    run_p.add_argument("--metrics", metavar="PATH", default=None,
                       help="write the structured metrics JSON here (plus "
                            "a .csv time-series sibling); implies "
                            "--probe-rate 64 --sample-interval 50 unless "
                            "given explicitly")
    run_p.add_argument("--trace-spans", type=int, nargs="?", const=256,
                       default=0, metavar="N",
                       help="record causal span trees for up to N probed "
                            "transactions (default 256) and write a "
                            "Perfetto-loadable repro-trace/1 JSON; implies "
                            "--probe-rate 64 unless given explicitly")
    run_p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="span-trace output path (default "
                            "repro-trace.json)")
    run_p.add_argument("--profile", action="store_true",
                       help="sample the host stack during the run and "
                            "print where host time went, per layer and "
                            "for the 20 hottest functions")
    run_p.add_argument("--telemetry", metavar="PATH", default=None,
                       help="stream live heartbeat/interval/checkpoint "
                            "records (JSONL) here; follow with "
                            "'repro watch PATH'; implies --sample-interval "
                            "50 unless given explicitly")
    run_p.add_argument("--checkpoint-every", type=float, default=0,
                       metavar="US",
                       help="keep rolling machine snapshots every US "
                            "simulated microseconds; on a sanitizer "
                            "violation, restore the last one and replay "
                            "the final window with the trace armed")
    run_p.add_argument("--sampled", action="store_true",
                       help="SMARTS-style sampled simulation: functional "
                            "fast-forward with short detailed measurement "
                            "windows and per-class confidence intervals")
    run_p.add_argument("--window", type=int, default=0, metavar="ITEMS",
                       help="items per CPU per detailed window "
                            "(--sampled; default 800)")
    run_p.add_argument("--period", type=int, default=0, metavar="ITEMS",
                       help="items per CPU fast-forwarded between windows "
                            "(--sampled; default 6000)")
    run_p.add_argument("--warming", default="functional",
                       choices=("functional", "detailed"),
                       help="fast-forward regime for --sampled: functional "
                            "(event-free warming) or detailed (no "
                            "approximation; validation mode)")
    run_p.set_defaults(fn=cmd_run)

    watch_p = sub.add_parser(
        "watch", help="render a live-telemetry JSONL stream "
                      "(from 'repro run --telemetry PATH')")
    watch_p.add_argument("path", help="telemetry JSONL file to read")
    watch_p.add_argument("--follow", action="store_true",
                         help="tail the stream until run_end (or timeout)")
    watch_p.add_argument("--timeout", type=float, default=30.0,
                         help="give up after this many idle seconds "
                              "in --follow mode (default 30)")
    watch_p.add_argument("--last", type=int, default=20,
                         help="without --follow: print the trailing N "
                              "records (default 20)")
    watch_p.set_defaults(fn=cmd_watch)

    sweep_p = sub.add_parser(
        "sweep", help="sweep one config field over a set of values")
    sweep_p.add_argument("--config", default="P8", choices=sorted(PRESETS))
    sweep_p.add_argument("--workload", default="oltp",
                         choices=sorted(FACTORIES))
    sweep_p.add_argument("--field", required=True,
                         help="dotted config field, e.g. l2.size_bytes")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values (K/M/G suffixes ok)")
    sweep_p.add_argument("--nodes", type=int, default=1)
    sweep_p.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or 1; "
                             "0 = all cores)")
    sweep_p.add_argument("--warmup", action="store_true",
                         help="warm each point once, snapshot at the "
                              "measurement boundary, and measure from the "
                              "shared warm checkpoint")
    sweep_p.set_defaults(fn=cmd_sweep)

    fuzz_p = sub.add_parser(
        "fuzz", help="run a seeded fuzz program against the memory-model "
                     "reference checker")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="stimulus seed (fully determines the program)")
    fuzz_p.add_argument("--ops", type=int, default=2000,
                        help="total operation budget across all CPUs")
    fuzz_p.add_argument("--nodes", type=int, default=1)
    fuzz_p.add_argument("--config", default="P8", choices=sorted(PRESETS))
    fuzz_p.add_argument("--cpus", type=int, default=4,
                        help="CPUs driven per node")
    fuzz_p.add_argument("--mutate", metavar="NAME[/PERIOD]", default=None,
                        help="inject a deliberate protocol mutation "
                             "(lost_inval, stale_share, skip_fence)")
    fuzz_p.add_argument("--check", action="store_true",
                        help="also arm the structural protocol sanitizer")
    fuzz_p.add_argument("--trace", type=int, nargs="?", const=2048,
                        default=0, metavar="N",
                        help="protocol trace ring capacity (default 2048)")
    fuzz_p.add_argument("--tail", type=int, default=24,
                        help="trace lines printed on violation")
    fuzz_p.add_argument("--shrink", type=int, nargs="?", const=400,
                        default=0, metavar="BUDGET",
                        help="on violation, delta-debug to a minimal "
                             "reproducer (budget in simulator runs)")
    fuzz_p.add_argument("--out", metavar="PATH", default=None,
                        help="write the shrunk reproducer JSON here")
    fuzz_p.add_argument("--replay", metavar="PATH", default=None,
                        help="replay a saved reproducer; exit 0 iff the "
                             "recorded verdict reproduces")
    fuzz_p.add_argument("--checkpoint-every", type=float, default=0,
                        metavar="US",
                        help="flight-recorder snapshots every US simulated "
                             "microseconds; violations restore the last "
                             "pre-violation snapshot and replay only the "
                             "final window at full trace fidelity")
    fuzz_p.set_defaults(fn=cmd_fuzz)

    ckpt_p = sub.add_parser(
        "checkpoint", help="save, restore or inspect machine snapshots")
    ckpt_sub = ckpt_p.add_subparsers(dest="verb", required=True)

    save_p = ckpt_sub.add_parser(
        "save", help="warm a workload to its measurement boundary and "
                     "snapshot the whole machine (with the probe rate and "
                     "sample interval baked in)",
        parents=[_point_parser(), _observe_parser()])
    save_p.add_argument("--check", action="store_true",
                        help="arm the protocol sanitizer in the snapshot")
    save_p.add_argument("--out", required=True, metavar="PATH",
                        help="checkpoint file to write (.ckpt)")
    save_p.set_defaults(fn=cmd_checkpoint)

    restore_p = ckpt_sub.add_parser(
        "restore", help="restore a snapshot and run the measurement "
                        "phase to completion")
    restore_p.add_argument("path", help="checkpoint file (.ckpt)")
    restore_p.add_argument("--metrics", metavar="PATH", default=None,
                           help="write the structured metrics JSON here "
                                "(byte-identical to an uninterrupted "
                                "run at the snapshot's settings)")
    restore_p.add_argument("--force", action="store_true",
                           help="restore despite a library-fingerprint "
                                "mismatch (debugging only)")
    restore_p.set_defaults(fn=cmd_checkpoint)

    info_p = ckpt_sub.add_parser(
        "info", help="print a checkpoint's manifest (no restore)")
    info_p.add_argument("path", help="checkpoint file (.ckpt)")
    info_p.set_defaults(fn=cmd_checkpoint)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache")
    cache_p.add_argument("--clear", action="store_true",
                         help="delete every cached result")
    cache_p.set_defaults(fn=cmd_cache)

    xval_p = sub.add_parser(
        "xval", help="cross-validate ISA kernels: functional reference "
                     "vs the timed machine (repro-xval/1 report)")
    xval_p.add_argument("--config", default="P8", choices=sorted(PRESETS))
    xval_p.add_argument("--nodes", type=int, default=1)
    xval_p.add_argument("--kernel", default="all",
                        choices=("all",) + tuple(KERNEL_NAMES))
    xval_p.add_argument("--scale", type=float, default=1.0,
                        help="kernel iteration-count multiplier")
    xval_p.add_argument("--seeds", type=int, default=3, metavar="N",
                        help="functional interleaving seeds per kernel "
                             "(images must agree across all of them)")
    xval_p.add_argument("--out", metavar="PATH", default=None,
                        help="write the repro-xval/1 JSON report here")
    xval_p.add_argument("--check-report", metavar="PATH", default=None,
                        help="validate an existing report file instead of "
                             "running (exit 0 iff valid and ok)")
    xval_p.set_defaults(fn=cmd_xval)

    sub.add_parser("table1", help="print Table 1").set_defaults(fn=cmd_table1)
    sub.add_parser("floorplan",
                   help="print the Figure 9 area budget").set_defaults(
        fn=cmd_floorplan)
    sub.add_parser("list", help="list configs/workloads").set_defaults(
        fn=cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
