"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import gc
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: a point small enough for a unit test
TINY = bench.Workload("tiny", "unit test", "P2", 1, transactions=2,
                      warmup_transactions=2)


class FakeClock:
    """A clock that reads whatever the test last set."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_exclusive_time_on_nested_stack_with_reentry():
    fake = FakeClock()
    clock = tracer.LayerClock(clock=fake)
    a, b = tracer.LAYER_INDEX["l2"], tracer.LAYER_INDEX["cpu"]

    def inner_a():          # the callee re-enters its caller's layer
        fake.now += 5

    def in_b():
        fake.now += 20
        framed_inner_a()
        fake.now += 5

    framed_inner_a = clock.framed(inner_a, a)
    framed_b = clock.framed(in_b, b)

    clock.enter(a)          # t=0
    fake.now = 10
    framed_b()              # b: 10..40, with a nested a: 30..35
    fake.now = 100
    clock.exit()

    assert clock.self_ns[a] == 10 + 5 + 60
    assert clock.self_ns[b] == 20 + 5
    assert clock.calls[a] == 2 and clock.calls[b] == 1
    assert clock.children[a] == 1 and clock.children[b] == 1
    assert clock.stack == []

    report = clock.report(wall_s=100e-9)
    assert sum(r["self_share"] for r in report.values()) == pytest.approx(1)
    assert report["l2"]["self_share"] == pytest.approx(0.75)
    assert report["cpu"]["ns_per_call"] == pytest.approx(25)


def test_same_layer_call_opens_no_frame():
    fake = FakeClock()
    clock = tracer.LayerClock(clock=fake)
    layer = tracer.LAYER_INDEX["l1"]
    framed = clock.framed(lambda: None, layer)
    clock.enter(layer)
    framed()
    clock.exit()
    assert clock.calls[layer] == 1


def test_frame_closes_when_callee_raises():
    clock = tracer.LayerClock()

    def boom():
        raise StopIteration

    framed = clock.framed(boom, tracer.LAYER_INDEX["workload"])
    clock.enter(tracer.HARNESS)
    with pytest.raises(StopIteration):
        framed()
    assert clock.stack == [tracer.HARNESS]
    clock.exit()


def test_report_takes_calibrated_cost_out():
    fake = FakeClock()
    clock = tracer.LayerClock(clock=fake)
    clock.cost_in, clock.cost_out = 5.0, 10.0
    l1, cpu = tracer.LAYER_INDEX["l1"], tracer.LAYER_INDEX["cpu"]
    clock.enter(cpu)
    fake.now = 40
    clock.enter(l1)
    fake.now = 60
    clock.exit()
    fake.now = 100
    clock.exit()
    # cpu: 80 ns less one frame's cost_in and one child's cost_out;
    # l1: 20 ns less one frame's cost_in
    report = clock.report(wall_s=100e-9)
    assert report["cpu"]["self_s"] == pytest.approx(65e-9)
    assert report["l1"]["self_s"] == pytest.approx(15e-9)
    assert report["cpu"]["self_share"] == pytest.approx(65 / 80)
    assert sum(r["self_share"] for r in report.values()) == pytest.approx(1)


def _result(**changes):
    from repro.harness.runner import RunResult

    base = RunResult(config="P8", cpus=8, nodes=1, workload="oltp", units=20,
                     time_per_unit_ns=4958.9, throughput=1.6e6,
                     busy_frac=0.5, l2_frac=0.25, mem_frac=0.25,
                     miss_hit_frac=0.5, miss_fwd_frac=0.3,
                     miss_mem_frac=0.2)
    return dataclasses.replace(base, **changes)


class _System:
    def __init__(self, pending=0):
        self.sim = type("Sim", (), {"pending": pending})()


def _run_of(result, pending=0):
    return bench.Run(result=result, system=_System(pending), call_s=1.0,
                     setup_s=0.1)


def test_perturbed_payload_counts_as_failed():
    workload = bench.WORKLOADS["p8-oltp"]
    good = _result()
    digest = bench.payload_digest(good)
    assert bench.check_run(workload, _run_of(good), digest) == []

    perturbed = _result(time_per_unit_ns=good.time_per_unit_ns + 1e-9)
    outcome = run.Outcome()
    outcome.record(bench.check_run(workload, _run_of(perturbed), digest))
    outcome.record(bench.check_run(workload, _run_of(good), digest))
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_pending_events_and_bad_fractions_fail():
    workload = bench.WORKLOADS["p8-oltp"]
    assert bench.check_run(workload, _run_of(_result(), pending=3), None)
    assert bench.check_run(workload, _run_of(_result(busy_frac=0.6)), None)


def test_sample_error_is_largest_class_error():
    detailed = _result().payload_tuple()
    sampled = _result(busy_frac=0.49, l2_frac=0.26,
                      time_per_unit_ns=4958.9 * 1.004).payload_tuple()
    assert bench.sample_error(sampled, detailed) == pytest.approx(0.01)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_names_are_well_formed_and_match_the_workloads():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert ({m["name"] for m in spec["end_to_end"]}
            == set(run.END_TO_END_UNITS))


def test_per_layer_names_match_what_the_traced_run_reports():
    spec = _benchmark_json()
    expected = {f"{layer}.{key}" for layer in tracer.LAYERS
                for key in ("self_share", "self_s", "calls", "ns_per_call")}
    expected |= set(bench.WORK_COUNTS)
    expected |= {"engine.ns_per_event", "trace_overhead",
                 "cprofile_max_diff", "warm.sample_error"}
    assert {m["name"] for m in spec["per_layer"]} == expected


def test_uninstall_restores_every_original():
    before = tracer.snapshot_targets()
    callbacks = list(gc.callbacks)
    inst = tracer.install(tracer.LayerClock())
    try:
        during = tracer.snapshot_targets()
        assert all(during[k] is not v for k, v in before.items())
    finally:
        inst.uninstall()
    after = tracer.snapshot_targets()
    assert all(after[k] is v for k, v in before.items())
    assert gc.callbacks == callbacks


def test_sliced_wall_takes_each_slice_at_its_fastest(monkeypatch):
    monkeypatch.setattr(bench, "SLICES", 2)
    # items 0..10 in both runs; the first is slow in its first half, the
    # second in its second half
    first = [(0.0, 0), (3.0, 5), (4.0, 10)]
    second = [(10.0, 0), (11.0, 5), (14.0, 10)]
    assert bench.sliced_wall([first, second]) == pytest.approx(1.0 + 1.0)
    # a mark between two readings is interpolated
    coarse = [(0.0, 0), (4.0, 10)]
    assert bench.sliced_wall([coarse]) == pytest.approx(4.0)
    assert bench.sliced_wall([coarse, first]) == pytest.approx(2.0 + 1.0)


def test_tracked_run_reads_progress_without_changing_the_result():
    plain = bench.simulate_once(TINY, 3)
    tracked = bench.simulate_once(TINY, 3, track=True)
    assert plain.progress is None
    assert bench.payload_digest(tracked.result) == bench.payload_digest(
        plain.result)
    times = [t for t, _items in tracked.progress]
    items = [n for _t, n in tracked.progress]
    assert times == sorted(times) and items == sorted(items)
    assert items[-1] == bench.work_counts(tracked)["workload.items"]
    assert bench.sliced_wall([tracked.progress]) == pytest.approx(
        times[-1] - times[0])


def test_traced_run_keeps_payload_and_counts():
    plain = bench.simulate_once(TINY, 3)
    clock = tracer.LayerClock()
    inst = tracer.install(clock)
    try:
        clock.enter(tracer.HARNESS)
        traced = bench.simulate_once(TINY, 3)
        clock.exit()
    finally:
        inst.uninstall()
    assert bench.payload_digest(traced.result) == bench.payload_digest(
        plain.result)
    assert bench.work_counts(traced) == bench.work_counts(plain)
    assert set(bench.work_counts(plain)) == set(bench.WORK_COUNTS)
    assert traced.system.sim.pending == 0
    report = clock.report(traced.call_s)
    assert sum(r["self_share"] for r in report.values()) == pytest.approx(1)
    for layer in ("engine", "cpu", "workload", "l1", "l2", "dup_tags"):
        assert report[layer]["calls"] > 0, layer
