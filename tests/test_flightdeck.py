"""Flight-deck observability: span tracer, host profiler, live telemetry.

Covers the PR's acceptance criteria:

* each transaction's child spans partition the root span exactly —
  sum-of-hops == span duration — and the traced per-class latencies
  reconcile with the probe latency histograms from the same run,
* the exported ``repro-trace/1`` document validates against its schema
  and is simultaneously well-formed Chrome trace-event / Perfetto input,
* the host profiler samples the stack from outside the simulation: a
  profiled run is bit-identical to an unprofiled one, its layer shares
  sum to one over perfbench's layer table, and it puts the previous
  ``SIGPROF`` handler back and stops its timer however the run ends,
* telemetry streams carry run_start / interval / window / checkpoint /
  run_end records through ``run_system`` (detailed and sampled), the one
  entry point that takes a stream,
* the interval sampler flushes its partial final interval on early
  termination (S1), and ``repro watch`` and ``repro run --profile``
  work end to end.
"""

import contextlib
import dataclasses
import gc
import importlib.util
import io
import json
import pathlib
import signal
import threading
import time

import pytest

from repro.core import PiranhaSystem, preset
from repro.harness import Job, MigratoryFactory, clear_cache, run_jobs
from repro.harness.runner import (RunSpec, build_system, run_configured,
                                  run_system, simulate)
from repro.observe import (
    HostProfiler,
    SpanCollector,
    TRACE_SCHEMA,
    TelemetryStream,
    read_records,
    render_record,
    trace_doc,
    validate_trace,
)
from repro.observe import hostprof
from repro.observe.telemetry import follow_records, parse_line
from repro.observe.spans import HOP_TRACKS, TRACKS, chrome_events
from repro.workloads import MicroParams, OltpParams, OltpWorkload

TINY_MICRO = MicroParams(iterations=120, warmup=30)
TINY_OLTP = OltpParams(transactions=6, warmup_transactions=8)


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    clear_cache()
    yield
    clear_cache()


def run_traced(nodes=1, config="P2", max_txns=64, rate=1):
    cfg = preset(config)
    system = PiranhaSystem(cfg, num_nodes=nodes)
    system.enable_probes(rate)
    system.enable_span_trace(max_txns)
    system.attach_workload(OltpWorkload(TINY_OLTP, cpus_per_node=cfg.cpus,
                                        num_nodes=nodes))
    system.run_to_completion()
    return system


class TestSpanCollector:
    def test_children_partition_root_exactly(self):
        system = run_traced()
        assert system.spans.txns
        for txn in system.spans.txns:
            spans = txn["spans"]
            # contiguous, gap-free, overlap-free cover of [t0, t1]
            assert spans[0]["t0_ps"] == txn["t0_ps"]
            assert spans[-1]["t1_ps"] == txn["t1_ps"]
            for a, b in zip(spans, spans[1:]):
                assert a["t1_ps"] == b["t0_ps"]
            assert all(s["dur_ps"] >= 0 for s in spans)
            assert (sum(s["dur_ps"] for s in spans)
                    == txn["latency_ps"]
                    == txn["t1_ps"] - txn["t0_ps"])

    def test_spans_reconcile_with_probe_histograms(self):
        """Acceptance criterion: traced per-class span durations agree
        with the probe latency aggregates from the same run.  With
        max_txns >= completed the tracer saw every probe the collector
        aggregated, so per-class counts and total latencies must match
        exactly (the trace is a lossless re-projection of the probes)."""
        system = run_traced(max_txns=100_000)
        probes = system.probes.as_dict()
        assert system.spans.seen == probes["completed"]

        by_class = {}
        for txn in system.spans.txns:
            blk = by_class.setdefault(txn["class"], [0, 0])
            blk[0] += 1
            blk[1] += txn["latency_ps"]
        for cls, stats in probes["classes"].items():
            count, total_ps = by_class.get(cls, (0, 0))
            assert count == stats["count"], cls
            if count:
                # probe aggregates are in ns (float); span sums in ps
                assert total_ps / 1000.0 == pytest.approx(
                    stats["mean_ns"] * stats["count"], rel=1e-9), cls
                # histogram mass agrees too
                assert sum(stats["histogram"]["bins"]) == count

    def test_every_hop_lands_on_a_known_track(self):
        system = run_traced()
        for txn in system.spans.txns:
            for span in txn["spans"]:
                assert span["track"] in TRACKS
                assert HOP_TRACKS.get(span["label"], "misc") == span["track"]

    def test_max_txns_caps_kept_not_seen(self):
        system = run_traced(max_txns=5)
        assert len(system.spans.txns) == 5
        assert system.spans.seen > 5

    def test_requires_probes(self):
        system = PiranhaSystem(preset("P1"), num_nodes=1)
        with pytest.raises(RuntimeError, match="probes"):
            system.enable_span_trace()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanCollector(0)


class TestTraceDoc:
    def _doc(self, **kw):
        system = run_traced(**kw)
        return trace_doc(system.spans, "P2", 1,
                         system.probes.rate), system

    def test_doc_validates(self):
        doc, _ = self._doc()
        assert doc["schema"] == TRACE_SCHEMA
        assert validate_trace(doc) == []

    def test_doc_round_trips_through_json(self):
        doc, _ = self._doc()
        assert validate_trace(json.loads(json.dumps(doc))) == []

    def test_doc_is_deterministic(self):
        docs = [json.dumps(self._doc()[0], sort_keys=True)
                for _ in range(2)]
        assert docs[0] == docs[1]

    def test_chrome_events_shape(self):
        doc, system = self._doc()
        events = doc["traceEvents"]
        # metadata names every track row on every node
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {
            "process_name", "thread_name", "thread_sort_index"}
        named_tracks = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert named_tracks == set(TRACKS)
        # one root X event per kept txn plus one X per child span
        xs = [e for e in events if e["ph"] == "X"]
        n_spans = sum(len(t["spans"]) for t in system.spans.txns)
        assert len(xs) == len(system.spans.txns) + n_spans
        for ev in xs:
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)

    def test_protocol_events_become_instants(self):
        from repro.core import CoherenceChecker

        cfg = preset("P2")
        system = PiranhaSystem(cfg, num_nodes=1,
                               checker=CoherenceChecker.with_trace(512))
        system.enable_probes(1)
        system.enable_span_trace(16)
        system.attach_workload(OltpWorkload(TINY_OLTP,
                                            cpus_per_node=cfg.cpus))
        system.run_to_completion()
        proto = system.checker.trace.events()
        assert proto
        events = chrome_events(system.spans.txns, protocol_events=proto)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == len(proto)
        assert all(e["cat"] == "protocol" for e in instants)

    def test_validator_flags_broken_invariants(self):
        doc, _ = self._doc()
        assert validate_trace("nope") == ["document is not a JSON object"]
        bad = json.loads(json.dumps(doc))
        bad["schema"] = "repro-trace/0"
        assert any("schema" in p for p in validate_trace(bad))
        bad = json.loads(json.dumps(doc))
        bad["txns"][0]["spans"][0]["t1_ps"] += 1  # breaks contiguity + dur
        assert validate_trace(bad)
        bad = json.loads(json.dumps(doc))
        bad["txns"][0]["latency_ps"] += 5  # breaks hop-sum == latency
        assert any("sum" in p or "latency" in p for p in validate_trace(bad))
        bad = json.loads(json.dumps(doc))
        del bad["traceEvents"]
        assert any("traceEvents" in p for p in validate_trace(bad))
        bad = json.loads(json.dumps(doc))
        bad["txns"][0]["spans"][0]["track"] = "warp_core"
        assert any("unknown track" in p for p in validate_trace(bad))


def profiled_migratory(prof=None):
    """Run a P2 migratory point long enough (~0.15 s) to collect samples
    under *prof* (a new profiler by default); returns the profiler."""
    if prof is None:
        prof = HostProfiler()
    system, _ = build_system(
        preset("P2"), MigratoryFactory(MicroParams(iterations=5000,
                                                   warmup=30)),
        1, RunSpec())
    with prof:
        system.run_to_completion()
    return prof


class TestHostProfiler:
    def test_layer_classification(self):
        """The layer list and module table are perfbench's, read from
        ``perfbench/tracer.py`` by path so the two cannot drift."""
        path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                      path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert hostprof.MODULE_LAYERS == tracer.MODULE_LAYERS
        assert hostprof.LAYERS == tracer.LAYERS
        assert hostprof.layer_of_module("repro.core.l2") == "l2"
        assert hostprof.layer_of_module("repro.workloads.oltp") == "workload"
        assert hostprof.layer_of_module("repro.core.messages") is None

    def test_every_layer_module_imports(self):
        """perfbench's traced run imports each module of the table by
        name, so deleting one must fail here first."""
        for module in hostprof.MODULE_LAYERS:
            importlib.import_module(module)

    def test_disabled_profiler_is_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")  # both runs simulate
        base = simulate(preset("P2"), MigratoryFactory(TINY_MICRO))
        with HostProfiler():
            profiled = simulate(preset("P2"), MigratoryFactory(TINY_MICRO))
        assert profiled.payload_tuple() == base.payload_tuple()
        assert "host_profile" not in profiled.extras

    def test_span_tracing_never_perturbs_measurement(self):
        base = simulate(preset("P2"), MigratoryFactory(TINY_MICRO),
                        probe_rate=4)
        traced = simulate(preset("P2"), MigratoryFactory(TINY_MICRO),
                          probe_rate=4, trace_spans=32)
        assert traced.payload_tuple() == base.payload_tuple()
        assert validate_trace(traced.extras["trace"]) == []

    def test_sampled_attribution(self):
        prof = profiled_migratory()
        assert prof.total > 0 and prof.cpu_s > 0
        shares = prof.shares()
        assert tuple(shares) == hostprof.LAYERS
        assert sum(shares.values()) == pytest.approx(1.0)
        assert {layer for layer, _fn in prof.samples} <= set(hostprof.LAYERS)
        doc = prof.as_dict()
        assert doc["samples"] == prof.total
        assert sum(doc["shares"].values()) == pytest.approx(1.0)
        assert sum(r["samples"] for r in prof.hottest(limit=10**6)) \
            == prof.total

    def test_multinode_events_name_their_component(self):
        """A four-node OLTP run spends host time in the protocol engines
        and the interconnect, and the sampler charges it there."""
        from repro.harness import OltpFactory

        system, _ = build_system(preset("P8"), OltpFactory(OltpParams(
            transactions=2, warmup_transactions=3)), 4)
        with HostProfiler() as prof:
            system.run_to_completion()
        shares = prof.shares()
        assert shares["protocol_engine"] > 0
        assert shares["interconnect"] > 0

    def test_merge_and_render(self):
        """Entering one profiler twice adds the samples up."""
        prof = profiled_migratory()
        first = prof.total
        profiled_migratory(prof)
        assert prof.total > first
        text = prof.render()
        assert text.startswith(f"host profile: {prof.total} samples")
        assert "function" in text

    @pytest.mark.parametrize("fail", [False, True])
    def test_handler_and_timer_restored(self, fail):
        """On a normal exit and on an exception, the previous SIGPROF
        handler is back and the profiling timer is stopped."""
        def previous(_signum, _frame):
            pass

        before = signal.signal(signal.SIGPROF, previous)
        gc_hooks = list(gc.callbacks)
        try:
            with pytest.raises(ZeroDivisionError) if fail \
                    else contextlib.nullcontext():
                with HostProfiler():
                    assert signal.getsignal(signal.SIGPROF) is not previous
                    assert signal.getitimer(signal.ITIMER_PROF)[1] > 0
                    if fail:
                        1 / 0
            assert signal.getsignal(signal.SIGPROF) is previous
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert gc.callbacks == gc_hooks
        finally:
            signal.signal(signal.SIGPROF, before)

    def test_off_main_thread_rejected(self):
        errors = []

        def enter():
            try:
                with HostProfiler():
                    pass
            except RuntimeError as exc:
                errors.append(exc)

        before = signal.getsignal(signal.SIGPROF)
        worker = threading.Thread(target=enter)
        worker.start()
        worker.join()
        assert len(errors) == 1 and "main thread" in str(errors[0])
        assert signal.getsignal(signal.SIGPROF) is before


def stream_run(path, **fields):
    """Run the tiny migratory point through ``run_system`` with a live
    telemetry stream to *path*; return the records written."""
    spec = RunSpec(**fields).resolve()
    system, _ = build_system(preset("P2"), MigratoryFactory(TINY_MICRO), 1,
                             spec)
    with TelemetryStream(str(path)) as stream:
        run_system(system, spec, stream)
    return read_records(str(path))


class TestTelemetry:
    def test_stream_records_through_run_system(self, tmp_path):
        records = stream_run(tmp_path / "live.jsonl",
                             sample_interval_ps=10_000_000)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "interval" in kinds
        intervals = [r for r in records if r["kind"] == "interval"]
        assert all("wall" in r for r in records)
        assert [r["index"] for r in intervals] == sorted(
            r["index"] for r in intervals)
        # S1: the tail interval is flushed and flagged
        assert intervals[-1]["partial"]

    def test_stream_to_file_like(self):
        buf = io.StringIO()
        with TelemetryStream(buf) as stream:
            stream.emit("run_start", config="P2")
            stream.emit("run_end", items=1)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "run_start"

    def test_read_records_skips_partial_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "run_start"}\n{"kind": "inter')
        records = read_records(str(path))
        assert [r["kind"] for r in records] == ["run_start"]
        assert read_records(str(tmp_path / "missing.jsonl")) == []

    def test_read_records_skips_torn_tail(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "wb") as fh:
            fh.write(json.dumps({"kind": "run_start"}).encode() + b"\n")
            fh.write(b'{"kind": "interval", "thr')  # torn, no newline
        records = read_records(path)
        assert [r["kind"] for r in records] == ["run_start"]

    def test_parse_line_rejects_partial_json(self):
        assert parse_line(b'{"kind": "interval", "throughput"') is None
        assert parse_line(b"") is None
        assert parse_line(b"   \n") is None
        assert parse_line(b'{"kind": "run_end"}') == {"kind": "run_end"}

    def test_parse_line_rejects_torn_multibyte_utf8(self):
        line = json.dumps({"kind": "note", "msg": "café"},
                          ensure_ascii=False).encode()
        # cut inside the 2-byte UTF-8 sequence for é
        torn = line[:line.index(b"\xc3") + 1]
        assert parse_line(torn) is None
        assert parse_line(line) is not None

    def test_follow_buffers_partial_line_until_complete(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        full = json.dumps({"kind": "interval", "msg": "café"},
                          ensure_ascii=False).encode()
        with open(path, "wb") as fh:
            fh.write(json.dumps({"kind": "run_start"}).encode() + b"\n")
            fh.write(full[:len(full) - 3])  # torn mid-record

        seen = []

        def complete():
            time.sleep(0.3)
            with open(path, "ab") as fh:
                fh.write(full[len(full) - 3:] + b"\n")
                fh.write(json.dumps({"kind": "run_end"}).encode() + b"\n")

        finisher = threading.Thread(target=complete)
        finisher.start()
        try:
            for record in follow_records(path, timeout_s=10.0, poll_s=0.05):
                seen.append(record["kind"])
        finally:
            finisher.join()
        assert seen == ["run_start", "interval", "run_end"]
        assert any(r.get("msg") == "café"
                   for r in read_records(path))

    def test_render_record_kinds(self):
        assert "run_start" in render_record(
            {"kind": "run_start", "config": "P8", "workload": "oltp",
             "num_nodes": 1})
        line = render_record(
            {"kind": "interval", "index": 3, "t1_ps": 50_000_000,
             "partial": True, "reset": True,
             "derived": {"ipc": 0.5, "l1_miss_rate": 0.25}})
        assert "interval[3]" in line and "(partial)" in line
        assert "ipc=0.5000" in line
        assert "worst_ci" in render_record(
            {"kind": "window", "index": 0, "items": 10, "ci": {"a": 0.1}})
        assert "checkpoint" in render_record(
            {"kind": "checkpoint", "time_ps": 1_000_000, "bytes": 42})
        assert "items=5" in render_record(
            {"kind": "run_end", "items": 5, "sim_wall_s": 0.1})

    def test_sampled_mode_emits_window_records(self, tmp_path):
        records = stream_run(tmp_path / "sampled.jsonl",
                             sample_interval_ps=10_000_000, mode="sampled",
                             window=30, period=60)
        kinds = {r["kind"] for r in records}
        assert "window" in kinds
        windows = [r for r in records if r["kind"] == "window"]
        assert all("ci" in w and "items" in w for w in windows)


class TestHarnessIntegration:
    def _job(self, config=None, **fields):
        return Job(config=config or preset("P2"),
                   factory=MigratoryFactory(TINY_MICRO),
                   spec=RunSpec(**fields))

    def test_cache_key_folds_flightdeck_settings(self):
        plain = run_configured(preset("P2"), MigratoryFactory(TINY_MICRO))
        traced = run_configured(preset("P2"), MigratoryFactory(TINY_MICRO),
                                trace_spans=16)
        assert "trace" not in plain.extras
        assert "trace" in traced.extras
        # distinct cache entries: a traced repeat keeps its trace
        again = run_configured(preset("P2"), MigratoryFactory(TINY_MICRO),
                               trace_spans=16)
        assert (json.dumps(again.extras["trace"], sort_keys=True)
                == json.dumps(traced.extras["trace"], sort_keys=True))
        # observability never perturbs the deterministic payload
        assert traced.payload_tuple() == plain.payload_tuple()

    def test_trace_spans_imply_probe_rate(self):
        result = run_configured(preset("P2"), MigratoryFactory(TINY_MICRO),
                                trace_spans=16)
        assert result.extras["trace"]["probe_rate"] == 64
        # explicit probe rate wins over the implied default
        explicit = run_configured(preset("P2"), MigratoryFactory(TINY_MICRO),
                                  trace_spans=16, probe_rate=4)
        assert explicit.extras["trace"]["probe_rate"] == 4

    def test_parallel_jobs_carry_trace(self):
        job = self._job(trace_spans=16)
        serial = simulate(job.config, job.factory, trace_spans=16)
        clear_cache()
        other = self._job(trace_spans=16,
                          config=dataclasses.replace(preset("P2"),
                                                     name="P2b"))
        results = run_jobs([job, other], jobs=2)
        for result in results:
            assert validate_trace(result.extras["trace"]) == []
        assert (json.dumps(results[0].extras["trace"], sort_keys=True)
                == json.dumps(serial.extras["trace"], sort_keys=True))

    def test_sampled_mode_attaches_trace_extras(self):
        result = simulate(preset("P2"), MigratoryFactory(TINY_MICRO),
                          mode="sampled", window=30, period=60,
                          trace_spans=16)
        assert validate_trace(result.extras["trace"]) == []


class TestPartialTailFlush:
    """S1: early termination must flush (and flag) the tail interval."""

    def test_max_events_bound_flushes_partial_tail(self):
        cfg = preset("P2")
        system = PiranhaSystem(cfg, num_nodes=1)
        system.enable_sampler(10_000_000)
        system.attach_workload(OltpWorkload(TINY_OLTP,
                                            cpus_per_node=cfg.cpus))
        with pytest.raises(RuntimeError, match="stalled"):
            system.run_to_completion(max_events=500)
        assert system.sampler.intervals
        assert system.sampler.intervals[-1]["partial"]

    def test_resume_after_early_flush_continues_series(self):
        cfg = preset("P2")
        system = PiranhaSystem(cfg, num_nodes=1)
        system.enable_sampler(10_000_000)
        system.attach_workload(OltpWorkload(TINY_OLTP,
                                            cpus_per_node=cfg.cpus))
        with pytest.raises(RuntimeError, match="stalled"):
            system.run_to_completion(max_events=500)
        early = list(system.sampler.intervals)
        system.resume()
        series = system.sampler.intervals
        assert len(series) > len(early)
        # no duplicated or zero-width record at the flush boundary
        for a, b in zip(series, series[1:]):
            assert b["t1_ps"] > b["t0_ps"] == a["t1_ps"]


class TestCli:
    def test_run_trace_flags_write_valid_doc(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        rc = main(["run", "--config", "P2", "--workload", "migratory",
                   "--scale", "0.2", "--trace-spans", "32",
                   "--trace-out", str(out), "--profile"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_trace(doc) == []
        assert doc["kept"] <= 32
        printed = capsys.readouterr().out
        assert "span trace written" in printed
        assert "host profile:" in printed

    def test_profile_verb(self, capsys, monkeypatch):
        # The host profile is asked for with run --profile, which prints
        # one row count: the 20 hottest functions.
        from repro.__main__ import main

        limits = []
        hottest = hostprof.HostProfiler.hottest

        def record_limit(self, limit=20):
            limits.append(limit)
            return hottest(self, limit)

        monkeypatch.setattr(hostprof.HostProfiler, "hottest", record_limit)
        rc = main(["run", "--config", "P2", "--workload", "migratory",
                   "--scale", "0.2", "--profile"])
        assert rc == 0
        assert "host profile:" in capsys.readouterr().out
        assert limits == [20]

    def test_run_profile_prints_layer_table(self, capsys):
        from repro.__main__ import main

        rc = main(["run", "--config", "P2", "--workload", "migratory",
                   "--scale", "5", "--profile"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.startswith("host profile:"))
        assert lines[header + 1].split() == ["layer", "share"]
        assert lines[header + 2].split()[0] in hostprof.LAYERS
        assert any(line.split()[:2] == ["layer", "function"]
                   for line in lines[header:])

    def test_run_telemetry_then_watch(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "live.jsonl"
        rc = main(["run", "--config", "P2", "--workload", "migratory",
                   "--scale", "0.2", "--telemetry", str(path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["watch", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run_start" in out and "run_end" in out

    def test_watch_follow_stops_at_run_end(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "done.jsonl"
        with TelemetryStream(str(path)) as stream:
            stream.emit("run_start", config="P2", workload="x", num_nodes=1)
            stream.emit("run_end", items=3, sim_wall_s=0.0)
        rc = main(["watch", str(path), "--follow", "--timeout", "2"])
        assert rc == 0
        assert "run_end" in capsys.readouterr().out

    def test_watch_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main(["watch", str(tmp_path / "nope.jsonl")])
        assert rc == 1
