"""Checkpoint/restore subsystem tests.

Covers the PR's acceptance criteria:

* restore fidelity — P1 and P8 on OLTP and DSS produce byte-identical
  ``repro-metrics/1`` documents whether the measurement phase ran
  uninterrupted, cold-with-capture, or restored from the warm store, on
  both the serial and the ``jobs=N`` process-pool paths,
* the ``.ckpt`` file format round-trips, detects corruption, and
  refuses snapshots from a different schema / library,
* a sweep re-run through the warm store, whole or after an
  interruption, produces identical records,
* periodic checkpointing re-registers ``schedule_every`` tickers
  cleanly after restore (no duplicate tickers, no dropped intervals),
* fuzz violation bisection restores the last pre-violation snapshot and
  the violation recurs in the replayed window with the same signature,
* stock pickle is the only snapshot contract: an AST scan keeps
  hand-written state hooks out of the package.
"""

import ast
import dataclasses
import json
import os

import pytest

from repro.checkpoint import (
    SCHEMA,
    CheckpointError,
    PeriodicCheckpointer,
    WARM_STORE,
    WarmCapture,
    build_manifest,
    checkpoint_info,
    load_checkpoint,
    restore_system,
    save_checkpoint,
    snapshot_bytes,
    write_checkpoint,
)
from repro.checkpoint.format import (
    decode,
    encode,
    python_version_tag,
    validate_manifest,
)
from repro.core import CoherenceChecker, PiranhaSystem, preset
from repro.core.checker import CoherenceViolation, violation_signature
from repro.fuzz.reference import MemoryModelViolation
from repro.harness import DssFactory, Job, OltpFactory, clear_cache, run_jobs
from repro.harness.runner import (DISK_CACHE, RunSpec, assemble_result,
                                  build_system, run_system, simulate)
from repro.harness.sweep import record_from_result, sweep_field
from repro.sim.engine import _PeriodicTick
from repro.workloads import DssParams, OltpParams

from .test_imports import SRC, modules

TINY_OLTP = OltpParams(transactions=6, warmup_transactions=8)
TINY_DSS = DssParams(rows=48)


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Every test gets an empty memo and a private cache directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    clear_cache()
    yield
    clear_cache()


def metrics_bytes(result) -> str:
    """The canonical serialisation of a run's metrics document."""
    return json.dumps(result.extras["metrics"], sort_keys=True)


def run_point(config_name, factory, *, warmup, check=False):
    return simulate(preset(config_name), factory, num_nodes=1,
                    check_coherence=check, probe_rate=16,
                    sample_interval_ps=int(10e6), warmup=warmup)


# ---------------------------------------------------------------------------
# restore fidelity (serial path)


class TestRestoreFidelity:
    @pytest.mark.parametrize("config_name", ["P1", "P8"])
    @pytest.mark.parametrize("factory", [
        OltpFactory(TINY_OLTP),
        DssFactory(TINY_DSS),
    ], ids=["oltp", "dss"])
    def test_metrics_doc_byte_identical(self, config_name, factory):
        """Uninterrupted, cold-with-capture and restored measurement runs
        must produce byte-identical metrics documents."""
        baseline = run_point(config_name, factory, warmup=False)
        # the first warm run populates the store, the second restores
        warm_cold = run_point(config_name, factory, warmup=True)
        warm_restored = run_point(config_name, factory, warmup=True)
        assert metrics_bytes(warm_cold) == metrics_bytes(baseline)
        assert metrics_bytes(warm_restored) == metrics_bytes(baseline)

    def test_restore_fidelity_with_sanitizer(self):
        """The full sanitizer state (directory mirrors, TSRF audit
        bookkeeping) survives the snapshot round-trip."""
        factory = OltpFactory(TINY_OLTP)
        baseline = run_point("P8", factory, warmup=False, check=True)
        run_point("P8", factory, warmup=True, check=True)
        restored = run_point("P8", factory, warmup=True, check=True)
        assert metrics_bytes(restored) == metrics_bytes(baseline)
        assert restored.extras.get("audit_continuous_runs") == \
            baseline.extras.get("audit_continuous_runs")

    def test_warm_snapshot_persisted_at_boundary(self):
        """The warm snapshot must be on disk before measurement finishes
        (a run killed mid-measurement still leaves it for the re-run)."""
        factory = OltpFactory(TINY_OLTP)
        assert WARM_STORE.info()["entries"] == 0
        run_point("P1", factory, warmup=True)
        assert WARM_STORE.info()["entries"] == 1

    def test_result_cache_clear_keeps_warm_state(self):
        """Warm snapshots share the cache root but are neither counted
        nor cleared as results."""
        factory = OltpFactory(TINY_OLTP)
        result = run_point("P1", factory, warmup=True)
        DISK_CACHE.put("e" * 64, result)
        assert DISK_CACHE.info()["entries"] == 1
        assert DISK_CACHE.clear() == 1
        assert DISK_CACHE.info()["entries"] == 0
        assert WARM_STORE.info()["entries"] == 1

    def test_warm_store_put_is_exclusive(self):
        manifest = build_manifest(b"payload", fingerprint="f",
                                  config_digest="c", workload="w",
                                  nodes=1, sim_now=0, extra={})
        key = "c" * 64
        assert WARM_STORE.put(key, manifest, b"payload") is True
        assert WARM_STORE.put(key, manifest, b"payload") is False


# ---------------------------------------------------------------------------
# restore fidelity (process-pool path)


class TestParallelWarmFidelity:
    def _jobs(self, warmup):
        return [
            Job(config=preset(name), factory=OltpFactory(TINY_OLTP),
                warmup=warmup)
            for name in ("P1", "P8")
        ]

    def test_jobs_warm_records_identical(self):
        """jobs=2 with warmup=True — cold-capture pass and restored pass
        both match the uninterrupted serial records."""
        base = [record_from_result(r)
                for r in run_jobs(self._jobs(False), jobs=1)]
        clear_cache()
        DISK_CACHE.clear()  # force simulation; warm snapshots survive
        warm_cold = [record_from_result(r)
                     for r in run_jobs(self._jobs(True), jobs=2)]
        clear_cache()
        DISK_CACHE.clear()
        warm_restored = [record_from_result(r)
                         for r in run_jobs(self._jobs(True), jobs=2)]
        assert warm_cold == base
        assert warm_restored == base


# ---------------------------------------------------------------------------
# file format


class TestCheckpointFormat:
    def _manifest(self, payload):
        return build_manifest(payload, fingerprint="fp", config_digest="cd",
                              workload="oltp", nodes=1, sim_now=123)

    def test_round_trip(self):
        payload = b"x" * 4096
        manifest = self._manifest(payload)
        got_manifest, got_payload = decode(encode(manifest, payload))
        assert got_manifest == manifest
        assert got_payload == payload

    def test_deterministic_bytes(self):
        payload = b"y" * 128
        manifest = self._manifest(payload)
        assert encode(manifest, payload) == encode(manifest, payload)

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            decode(b"NOTACKPT" + b"\x00" * 64)

    def test_payload_corruption_detected(self):
        payload = b"z" * 1024
        blob = bytearray(encode(self._manifest(payload), payload))
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointError):
            decode(bytes(blob))

    def test_schema_mismatch_rejected(self):
        manifest = self._manifest(b"")
        manifest["schema"] = SCHEMA + 1
        with pytest.raises(CheckpointError, match="schema"):
            validate_manifest(manifest)

    def test_other_python_tag_validates(self):
        """The payload is stock pickle: the writer's Python tag is
        informational, not a lock."""
        manifest = self._manifest(b"")
        manifest["python"] = "3.99"
        validate_manifest(manifest)

    #: schema -> (payload, why the file is refused): each retired schema
    #: is refused before its payload is unpickled, even with ``force``,
    #: which skips only the fingerprint check
    RETIRED_SCHEMAS = {
        # references a closure reducer that no longer exists
        1: b"crepro.checkpoint.pickling\n_make_function\n.",
        # pickles the cache-path records with the pre-slots layout
        2: b"N.",
        # pickles the simulator with its host-profiler attribute (and, if
        # taken while profiling, the old profiler object)
        3: b"N.",
        # queues events as ``EventHandle`` objects, which no longer exist
        4: b"N.",
        # pickles packets and directory entries as dataclasses and holds
        # IQ disposition wrappers that no longer exist
        5: b"N.",
        # holds a system controller with an error log and its register
        6: b"N.",
        # pickles the topology as a networkx graph and CPUs with TLBs
        7: b"N.",
    }

    @pytest.mark.parametrize("schema", sorted(RETIRED_SCHEMAS))
    def test_schema_refused(self, tmp_path, schema):
        payload = self.RETIRED_SCHEMAS[schema]
        manifest = self._manifest(payload)
        manifest["schema"] = schema
        path = str(tmp_path / f"schema{schema}.ckpt")
        write_checkpoint(path, manifest, payload)
        with pytest.raises(CheckpointError, match=f"schema {schema}"):
            load_checkpoint(path, force=True)

    def test_fingerprint_enforced_unless_forced(self):
        manifest = self._manifest(b"")
        with pytest.raises(CheckpointError, match="fingerprint"):
            validate_manifest(manifest, fingerprint="other")
        validate_manifest(manifest, fingerprint="other", strict=False)
        assert manifest["python"] == python_version_tag()


# ---------------------------------------------------------------------------
# checkpoint files end to end


class TestCheckpointFiles:
    def test_save_restore_resumes_measurement(self, tmp_path):
        factory = OltpFactory(TINY_OLTP)
        observed = RunSpec(probe_rate=16,
                           sample_interval_ps=int(10e6)).resolve()
        base_system, _ = build_system(preset("P1"), factory, 1, observed)
        baseline = json.dumps(run_system(base_system, observed)
                              .extras["metrics"], sort_keys=True)

        system, _workload = build_system(preset("P1"), factory, 1, observed)
        capture = WarmCapture(system, halt=True)
        system.start()
        system.sim.run()
        assert capture.captured

        path = str(tmp_path / "warm.ckpt")
        manifest = save_checkpoint(path, system, payload=capture.payload,
                                   sim_now=capture.sim_now, workload="oltp",
                                   extra={"probe_rate": 16})
        assert checkpoint_info(path) == manifest
        assert manifest["sim_now"] == capture.sim_now

        got_manifest, restored = load_checkpoint(path)
        assert got_manifest == manifest
        doc = run_system(restored, observed).extras["metrics"]
        assert json.dumps(doc, sort_keys=True) == baseline

    def test_config_digest_mismatch_refused(self, tmp_path):
        factory = OltpFactory(TINY_OLTP)
        system, _ = build_system(preset("P1"), factory)
        capture = WarmCapture(system, halt=True)
        system.start()
        system.sim.run()
        path = str(tmp_path / "warm.ckpt")
        save_checkpoint(path, system, payload=capture.payload,
                        sim_now=capture.sim_now, workload="oltp")
        with pytest.raises(CheckpointError, match="config digest"):
            load_checkpoint(path, expect_config=preset("P8"))


# ---------------------------------------------------------------------------
# sweeps re-run through the warm store


class TestResumableSweep:
    VALUES = [256 << 10, 512 << 10]

    def _sweep(self, **kw):
        return sweep_field("P1", OltpFactory(TINY_OLTP), "l2.size_bytes",
                           self.VALUES, **kw)

    def test_rerun_identical(self):
        first = self._sweep(warmup=True)
        again = self._sweep(warmup=True)
        assert again == first

    def test_resume_after_partial_completion(self):
        """A sweep interrupted after point 0 finishes the rest on a
        re-run and the records match an uninterrupted sweep."""
        baseline = self._sweep()
        # interrupted run: only point 0 completed (simulated by running
        # a one-value sweep — same derived config, same cache keys)
        clear_cache()
        DISK_CACHE.clear()
        self._sweep_prefix()
        resumed = self._sweep(warmup=True)
        assert resumed == baseline

    def _sweep_prefix(self):
        sweep_field("P1", OltpFactory(TINY_OLTP), "l2.size_bytes",
                    self.VALUES[:1], warmup=True)

    def test_resume_matches_plain_sweep(self):
        plain = self._sweep()
        clear_cache()
        DISK_CACHE.clear()
        resumed = self._sweep(warmup=True)
        assert resumed == plain


# ---------------------------------------------------------------------------
# periodic checkpointing and schedule_every restore (satellite: no
# duplicate tickers, no dropped intervals)


def _pending_tickers(system):
    return [fn for _, _, fn, _ in system.sim._queue
            if isinstance(fn, _PeriodicTick)]


class TestPeriodicRestore:
    def _warm_system(self):
        checker = CoherenceChecker()
        system = PiranhaSystem(preset("P1"), num_nodes=1, checker=checker)
        factory = OltpFactory(TINY_OLTP)
        workload = factory(system.config, 1)
        system.attach_workload(workload)
        system.enable_sampler(int(5e6))
        return system

    def test_restored_ticker_not_duplicated(self):
        system = self._warm_system()
        capture = WarmCapture(system, halt=True)
        system.start()
        system.sim.run()
        restored = restore_system(capture.payload)
        before = len(_pending_tickers(restored))
        # run_to_completion on a restored system must not re-arm the
        # sampler ticker (start() is a no-op) — the pending tick came
        # back with the pickled queue
        restored.run_to_completion()
        assert before == 1
        assert restored.sampler._finalized

    def test_sampler_intervals_match_uninterrupted(self):
        uninterrupted = self._warm_system()
        uninterrupted.run_to_completion()
        expected = len(uninterrupted.sampler.intervals)

        system = self._warm_system()
        capture = WarmCapture(system, halt=True)
        system.start()
        system.sim.run()
        restored = restore_system(capture.payload)
        restored.run_to_completion()
        assert len(restored.sampler.intervals) == expected

    def test_periodic_checkpointer_keeps_last_k(self):
        system = self._warm_system()
        ckpt = PeriodicCheckpointer(system, int(2e6), keep=2)
        ckpt.start()
        system.run_to_completion()
        assert ckpt.captures > 2
        assert len(ckpt.snapshots) == 2
        now_ps, payload = ckpt.latest()
        assert now_ps <= system.sim.now
        replay = restore_system(payload)
        replay.run_to_completion()
        assert replay.sim.now == system.sim.now

    def test_snapshots_do_not_snowball(self):
        """Each rolling snapshot must not contain its predecessors."""
        system = self._warm_system()
        ckpt = PeriodicCheckpointer(system, int(2e6), keep=4)
        ckpt.start()
        system.run_to_completion()
        sizes = [len(p) for _, p in ckpt.snapshots]
        assert max(sizes) < 2 * min(sizes)


# ---------------------------------------------------------------------------
# fuzz violation bisection


class TestFuzzBisection:
    def test_violation_recurs_from_last_snapshot(self):
        from repro.fuzz import generate, params_for, run_fuzz_program

        prog = dataclasses.replace(
            generate(params_for(0, total_ops=240, nodes=2)),
            mutation="stale_share", mutation_period=3)
        verdict = run_fuzz_program(prog, check=True,
                                   checkpoint_every_ps=int(0.05e6))
        assert not verdict.ok
        assert verdict.bisect, "flight recorder captured no snapshot"
        assert verdict.bisect["recurred"]
        assert verdict.bisect["replay_signature"] == verdict.signature
        assert verdict.bisect["trace_window"]
        assert verdict.bisect["restored_from_ps"] > 0

    def test_no_checkpointing_means_no_bisect(self):
        from repro.fuzz import generate, params_for, run_fuzz_program

        prog = dataclasses.replace(
            generate(params_for(0, total_ops=240, nodes=2)),
            mutation="stale_share", mutation_period=3)
        verdict = run_fuzz_program(prog, check=True)
        assert not verdict.ok
        assert verdict.bisect == {}


# ---------------------------------------------------------------------------
# stock-pickle round trips through every former closure site


def _finish(system, spec):
    """Run *system* to completion: its payload tuple, or the violation
    signature when a protocol mutation gets caught."""
    try:
        system.run_to_completion()
        return assemble_result(system, spec).payload_tuple()
    except (MemoryModelViolation, CoherenceViolation) as exc:
        return violation_signature(exc)


def flight_recorded(system, spec, every_ps):
    """Finish *system* under a flight recorder; returns its outcome and
    the machine restored (through stock pickle) from a mid-run snapshot."""
    ckpt = PeriodicCheckpointer(system, every_ps, keep=64)
    ckpt.start()
    outcome = _finish(system, spec)
    assert len(ckpt.snapshots) >= 2
    now_ps, payload = ckpt.snapshots[len(ckpt.snapshots) // 2]
    assert 0 < now_ps < system.sim.now
    return outcome, restore_system(payload)


class TestStockPickleRoundTrip:
    """Each site that used to park a closure on a live object survives a
    mid-run snapshot: the restored run ends exactly as the uninterrupted
    one."""

    @pytest.mark.parametrize("mutation",
                             ["lost_inval", "stale_share", "skip_fence"])
    def test_fuzz_mutation_and_observer(self, mutation):
        from repro.fuzz import generate, params_for
        from repro.fuzz.runner import FuzzFactory

        prog = dataclasses.replace(
            generate(params_for(0, total_ops=240, nodes=2)),
            mutation=mutation, mutation_period=3)
        system, workload = build_system(
            preset(prog.config), FuzzFactory(prog.canonical_json()),
            num_nodes=2, spec=RunSpec(check_coherence=True))
        outcome, restored = flight_recorded(system, RunSpec(), int(0.1e6))
        assert _finish(restored, RunSpec()) == outcome
        assert restored.workload.cursors == workload.cursors
        assert restored.workload.mutation_ticker.fired == \
            workload.mutation_ticker.fired > 0

    def test_multinode_oltp_with_observers(self):
        """Sanitizer, protocol trace, interval sampler and spans on the
        four-node protocol-engine path."""
        observe = RunSpec(check_coherence=True, trace_capacity=256,
                          probe_rate=16, sample_interval_ps=int(20e6),
                          trace_spans=64)
        system, _ = build_system(
            preset("P8"), OltpFactory(OltpParams(
                transactions=1, warmup_transactions=1)),
            num_nodes=4, spec=observe)
        outcome, restored = flight_recorded(system, observe, int(20e6))
        assert _finish(restored, observe) == outcome
        assert restored.checker.trace.events() and \
            restored.checker.trace.events() == system.checker.trace.events()

    def test_io_dma_in_flight(self):
        from repro.fuzz import generate, params_for
        from repro.fuzz.runner import FuzzFactory

        prog = generate(params_for(0, total_ops=240, nodes=2))
        config = preset(prog.config)
        system = PiranhaSystem(config, num_nodes=2, io_nodes=1)
        system.attach_workload(FuzzFactory(prog.canonical_json())(config, 2))
        system.workload.bind_system(system)
        pci = system.io[0].pci
        pci.dma(0x100000, lines=32, is_write=True)
        outcome, restored = flight_recorded(system, RunSpec(), int(0.5e6))
        transfer = restored.io[0].pci.transfers[0]
        assert 0 < transfer.done_lines < transfer.lines
        assert _finish(restored, RunSpec()) == outcome
        assert transfer.done_lines == pci.transfers[0].done_lines == 32
        assert transfer.end_ps == pci.transfers[0].end_ps


# ---------------------------------------------------------------------------
# snapshot identity basics


class TestSnapshotBasics:
    def test_txn_counter_travels_with_snapshot(self):
        from repro.core import messages

        system, _ = build_system(preset("P1"), OltpFactory(TINY_OLTP))
        capture = WarmCapture(system, halt=True)
        system.start()
        system.sim.run()
        at_boundary = next(messages._txn_ids)
        restored = restore_system(capture.payload)
        assert next(messages._txn_ids) == at_boundary
        restored.run_to_completion()

    def test_snapshot_requires_positive_period(self):
        system, _ = build_system(preset("P1"), OltpFactory(TINY_OLTP))
        with pytest.raises(ValueError):
            PeriodicCheckpointer(system, 0)
        with pytest.raises(ValueError):
            PeriodicCheckpointer(system, 100, keep=0)

    def test_snapshot_bytes_stable_at_boundary(self):
        """Two snapshots of the same state are identical bytes (the
        checkpoint file is cacheable/diffable)."""
        system, _ = build_system(preset("P1"), OltpFactory(TINY_OLTP))
        capture = WarmCapture(system, halt=True)
        system.start()
        system.sim.run()
        assert snapshot_bytes(restore_system(capture.payload)) == \
            snapshot_bytes(restore_system(capture.payload))


# ---------------------------------------------------------------------------
# stock pickle is the only snapshot contract

#: the classes whose snapshot differs from their instance dictionary, and
#: why: a live generator cannot pickle, fixed tables are rebuilt on first
#: use, and host-side hooks never ride a snapshot; only the thread's
#: restore needs more than the default (its generator starts as None)
ALLOWED_HOOKS = {
    "state_dict": set(),
    "load_state": set(),
    "__getstate__": {"WorkloadThread", "OltpWorkload", "IntervalSampler",
                     "PeriodicCheckpointer"},
    "__setstate__": {"WorkloadThread"},
}


def misplaced_hooks(source: str):
    """``(class, method)`` for every snapshot hook a class defines
    outside :data:`ALLOWED_HOOKS`."""
    return [(node.name, item.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and item.name in ALLOWED_HOOKS
            and node.name not in ALLOWED_HOOKS[item.name]]


class TestStockPickleContract:
    def test_no_identity_hooks_in_package(self):
        found = {}
        for rel in modules(with_init=True):
            with open(os.path.join(SRC, rel), encoding="utf-8") as fh:
                bad = misplaced_hooks(fh.read())
            if bad:
                found[rel] = bad
        assert not found, (
            f"snapshot hooks outside the allowlist: {found}; a component's "
            f"state is its __dict__, which stock pickle already saves")

    def test_scanner_sees_hooks(self):
        source = (
            "class Engine:\n"
            "    def state_dict(self): return dict(self.__dict__)\n"
            "    def __getstate__(self): return self.state_dict()\n"
            "class WorkloadThread:\n"
            "    def __getstate__(self): return {}\n"
            "    def __setstate__(self, state): pass\n"
            "class IntervalSampler:\n"
            "    def __setstate__(self, state): pass\n")
        assert misplaced_hooks(source) == [
            ("Engine", "state_dict"), ("Engine", "__getstate__"),
            ("IntervalSampler", "__setstate__")]
