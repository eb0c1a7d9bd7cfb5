"""Benchmark of the Piranha simulator's host performance.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload p8-oltp --seed 2000 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes the separate layer-attributed run that gives the
per-layer metrics.  Progress goes to standard error; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: ``build_system`` repetitions before each timed simulation; spread
#: over the whole run, they give ``setup_s`` as many chances as
#: ``wall_s`` to meet the host at its fastest
SETUP_REPEATS = 5
#: fewest timed simulations in an untraced run, however short --seconds
MIN_RUNS = 3

END_TO_END_UNITS = {"wall_s": "s", "sim_txn_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="OLTP workload seed (OltpParams.seed)")
    ap.add_argument("--seconds", type=float, required=True,
                    help="host seconds of simulation to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Outcome:
    """Attempted/failed run counts and the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems = []

    @property
    def failed(self) -> int:
        return len({run for run, _msg in self.problems})

    def record(self, problems) -> None:
        self.attempted += 1
        for msg in problems:
            self.problems.append((self.attempted, msg))
            log(f"  FAILED run {self.attempted}: {msg}")

    def fail(self, msg: str) -> None:
        """A failed check that belongs to the run as a whole."""
        self.problems.append((0, msg))
        log(f"  FAILED: {msg}")


class Summary:
    """What the benchmark keeps of one run once its system is dropped."""

    def __init__(self, bench, run) -> None:
        self.call_s = run.call_s
        self.wall_s = run.call_s - run.setup_s
        self.payload = run.result.payload_tuple()
        self.digest = bench.payload_digest(run.result)
        self.counts = bench.work_counts(run)
        self.progress = run.progress


def timed_runs(bench, workload, seed, outcome, expected, deadline, minimum,
               before=None):
    """Simulate until the next run would end nearer past *deadline* than
    before it (and at least *minimum* times), calling *before* ahead of
    each and tracking progress; each run must match *expected* (or else
    the first run) and leave the wrappers off."""
    from tracer import snapshot_targets

    pristine = snapshot_targets()
    runs = []
    while len(runs) < minimum or (
            time.perf_counter() + runs[-1].call_s / 2 < deadline):
        if before is not None:
            before()
        gc.collect()
        if snapshot_targets() != pristine:
            outcome.fail("a wrapped attribute differs from the original")
        try:
            run = bench.simulate_once(workload, seed, track=True)
        except Exception as exc:  # a run that raises counts as failed
            outcome.record([f"raised {type(exc).__name__}: {exc}"])
            if len(runs) + outcome.failed > 2 * minimum:
                break
            continue
        outcome.record(bench.check_run(
            workload, run, expected or (runs[0].digest if runs else None)))
        runs.append(Summary(bench, run))
        del run
        log(f"  run {len(runs)}: {runs[-1].wall_s:.3f} s")
    return runs


def measure(bench, workload, seed, seconds, outcome, expected):
    """Untraced run: the end-to-end metrics."""
    setups = []

    def time_setups():
        setups.extend(bench.time_setup(workload, seed)
                      for _ in range(SETUP_REPEATS))

    runs = timed_runs(bench, workload, seed, outcome, expected,
                      time.perf_counter() + seconds, MIN_RUNS, time_setups)
    if not runs:
        return {}
    if any(r.counts != runs[0].counts for r in runs):
        outcome.fail("work counts differ between runs of one seed")
    wall = bench.sliced_wall([r.progress for r in runs])
    log(f"  sliced wall {wall:.3f} s over {len(runs)} runs")
    return {
        "wall_s": wall,
        "sim_txn_per_s": workload.simulated_transactions / wall,
        "setup_s": min(setups),
        "peak_rss_mb": bench.peak_rss_mb(),
    }


def traced_metrics(bench, workload, seed, seconds, outcome, expected,
                   reference):
    """Traced run: untraced/traced pairs, then one cProfile run."""
    import cProfile
    import pstats

    import tracer
    from repro.harness import runner

    deadline = time.perf_counter() + seconds
    plain_walls, traced_walls, reports, counts = [], [], [], []
    plain = None
    pristine = tracer.snapshot_targets()
    while not reports or (time.perf_counter() + plain_walls[-1]
                          + traced_walls[-1] < deadline):
        pair = timed_runs(bench, workload, seed, outcome, expected, 0, 1)
        if not pair:
            break
        plain = pair[0]
        plain_walls.append(plain.call_s)
        counts.append(plain.counts)
        gc.collect()
        clock = tracer.LayerClock()

        @contextlib.contextmanager
        def root_frame():
            clock.enter(tracer.HARNESS)
            try:
                yield
            finally:
                clock.exit()

        inst = tracer.install(clock)
        try:
            run = bench.simulate_once(workload, seed, around=root_frame)
        except Exception as exc:
            outcome.record([f"traced run raised {type(exc).__name__}: {exc}"])
            break
        finally:
            inst.uninstall()
        if tracer.snapshot_targets() != pristine:
            outcome.fail("uninstalling the wrappers left one in place")
        outcome.record(bench.check_run(workload, run,
                                       expected or plain.digest))
        traced_walls.append(run.call_s)
        counts.append(bench.work_counts(run))
        del run
        report = clock.report(traced_walls[-1])
        total = sum(layer["self_share"] for layer in report.values())
        if abs(total - 1.0) > 1e-9:
            outcome.fail(f"layer shares sum to {total!r}, not 1")
        reports.append(report)
        log(f"  traced {traced_walls[-1]:.3f} s vs plain {plain.call_s:.3f} s")
    if not reports:
        return {}
    if any(c != counts[0] for c in counts):
        outcome.fail("work counts differ between traced and untraced runs")

    metrics = {}
    for layer in tracer.LAYERS:
        for key in ("self_share", "self_s", "calls", "ns_per_call"):
            metrics[f"{layer}.{key}"] = bench.median(
                [r[layer][key] for r in reports])
    metrics.update(counts[0])
    metrics["engine.ns_per_event"] = (
        bench.median(plain_walls) * 1e9 / max(counts[0]["engine.events"], 1))
    metrics["trace_overhead"] = (bench.median(traced_walls)
                                 / bench.median(plain_walls) - 1.0)

    gc.collect()
    prof = cProfile.Profile(builtins=False)
    prof.runcall(runner.simulate, workload.chip_config(),
                 workload.factory(seed), workload.nodes, mode=workload.mode)
    shares = tracer.cprofile_shares(
        pstats.Stats(prof).stats, os.path.join(ROOT, "src"),
        roots=(runner.simulate,))
    del prof
    # cProfile cannot tell garbage collection apart, so compare the
    # shares of everything else
    rest = 1.0 - metrics["other.self_share"]
    diffs = {layer: abs(metrics[f"{layer}.self_share"] / rest - shares[layer])
             for layer in tracer.LAYERS if layer != "other"}
    worst = max(diffs, key=diffs.get)
    metrics["cprofile_max_diff"] = diffs[worst]
    log("  layer            traced  cProfile")
    for layer in tracer.LAYERS:
        log(f"  {layer:16s} {metrics[layer + '.self_share']:.3f}  "
            f"{shares[layer]:.3f}")
    if workload.cprofile_gate and diffs[worst] > bench.CPROFILE_LIMIT:
        log(f"  WARNING: layer shares differ from cProfile by "
            f"{diffs[worst]:.3f} on {worst}")

    metrics["warm.sample_error"] = 0.0
    if workload.mode == "sampled":
        if reference is None:
            log("  simulating the detailed reference for sample_error")
            detailed = bench.simulate_once(workload.detailed(), seed)
            reference = {"detailed_payload":
                         list(detailed.result.payload_tuple())}
            del detailed
        err = bench.sample_error(plain.payload,
                                 tuple(reference["detailed_payload"]))
        metrics["warm.sample_error"] = err
        if err > bench.SAMPLE_ERROR_LIMIT:
            outcome.fail(f"sample_error {err:.4f} above "
                         f"{bench.SAMPLE_ERROR_LIMIT}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(SCRATCH, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ["REPRO_NO_CACHE"] = "1"
    try:
        try:
            import bench
            import repro.harness.runner  # noqa: F401
        except ImportError as exc:
            log(f"error: cannot import the simulator: {exc}")
            return 2
        workload = bench.WORKLOADS.get(args.workload)
        if workload is None:
            log(f"error: unknown workload {args.workload!r}; choose from "
                f"{', '.join(bench.WORKLOADS)}")
            return 2
        ref = bench.reference(bench.load_record(), workload, args.seed)
        expected = ref["digest"] if ref else None
        log(f"{workload.name} seed={args.seed} trace={args.trace}"
            f"{' (recorded seed)' if ref else ''}")
        outcome = Outcome()
        if args.trace:
            values = traced_metrics(bench, workload, args.seed, args.seconds,
                                    outcome, expected, ref)
        else:
            values = measure(bench, workload, args.seed, args.seconds,
                             outcome, expected)
        if os.listdir(cache_dir):
            outcome.fail("a simulation wrote to the result cache")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)
    metrics = {name: {"value": value, "unit": metric_unit(name)}
               for name, value in values.items()}
    print(json.dumps({
        "correct": not outcome.problems and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def metric_unit(name: str) -> str:
    """Unit of a metric: listed for end-to-end ones, from the suffix for
    per-layer ones."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rpartition(".")[2]
    return {"self_s": "s", "ns_per_call": "ns", "ns_per_event": "ns",
            "self_share": "fraction", "calls": "count"}.get(
        suffix, "fraction" if suffix.endswith(("_frac", "_rate", "error",
                                               "overhead", "_diff"))
        else "count")


if __name__ == "__main__":
    sys.exit(main())
