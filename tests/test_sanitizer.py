"""Protocol sanitizer tests: trace ring, structural audits, injection.

The acceptance bar for the sanitizer is twofold: clean runs pass every
audit with zero violations, and an *injected* protocol mutation (a
deliberately broken invalidation, a leaked TSRF entry, a non-inclusion
breach) is caught and arrives with a bounded trace dump attached.
"""

import argparse

import pytest

from repro.core import (
    MESI,
    CoherenceChecker,
    CoherenceViolation,
    PiranhaSystem,
    ProtocolTrace,
    audit_non_inclusion,
    audit_system,
    audit_tsrf,
    preset,
)
from repro.core.l2 import L2Bank
from repro.workloads import MicroParams, MigratoryWrites


def small_migratory(nodes=2, cpus_config="P2", iterations=150, trace=2048):
    checker = CoherenceChecker.with_trace(trace)
    system = PiranhaSystem(preset(cpus_config), num_nodes=nodes,
                           checker=checker)
    system.attach_workload(MigratoryWrites(
        MicroParams(iterations=iterations, warmup=30),
        cpus_per_node=preset(cpus_config).cpus, num_nodes=nodes))
    return system, checker


class TestProtocolTrace:
    def test_ring_is_bounded(self):
        tr = ProtocolTrace(capacity=4)
        for i in range(10):
            tr.record("fill", 0, i * 64)
        assert len(tr) == 4
        assert tr.recorded == 10
        # the oldest events scrolled out; the newest survive in order
        assert [ev.line for ev in tr.events()] == [0x180, 0x1C0, 0x200, 0x240]

    def test_sequence_numbers_never_wrap(self):
        tr = ProtocolTrace(capacity=2)
        for _ in range(5):
            tr.record("inval", 1, 0x40)
        assert [ev.seq for ev in tr.events()] == [3, 4]

    def test_filters_by_line_node_kind(self):
        tr = ProtocolTrace(capacity=64)
        tr.record("fill", 0, 0x40)
        tr.record("fill", 1, 0x80)
        tr.record("inval", 1, 0x40)
        assert len(tr.events(line=0x40)) == 2
        assert len(tr.events(node=1)) == 2
        assert len(tr.events(kind="inval")) == 1
        assert len(tr.events(line=0x40, node=1, kind="inval")) == 1
        assert tr.events(line=0x999) == []

    def test_last_keeps_newest_after_filtering(self):
        tr = ProtocolTrace(capacity=64)
        for i in range(6):
            tr.record("fill", 0, 0x40, detail=f"v{i}")
        got = tr.events(line=0x40, last=2)
        assert [ev.detail for ev in got] == ["v4", "v5"]

    def test_dump_is_bounded_and_scoped(self):
        tr = ProtocolTrace(capacity=256)
        for i in range(100):
            tr.record("fill", 0, 0x40)
        dump = tr.dump(line=0x40, last=8)
        body = dump.splitlines()
        assert "line=0x40" in body[0]
        assert len(body) == 1 + 8  # header + exactly `last` events

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            ProtocolTrace(capacity=0)

    def test_summary_counts(self):
        tr = ProtocolTrace(capacity=8)
        tr.record("fill", 0, 0x40)
        tr.record("pkt_send", 0, 0x40)
        s = tr.summary()
        assert s["fill"] == 1
        assert s["pkt_send"] == 1
        assert s["recorded"] == 2


class TestViolationCarriesTrace:
    def test_violation_message_has_bounded_line_history(self):
        ck = CoherenceChecker.with_trace(128)
        ck.on_fill(0, 0, 0x40, MESI.MODIFIED, 10)
        ck.on_fill(0, 0, 0x80, MESI.SHARED, 1)  # unrelated line
        ck.on_invalidate(0, 0, 0x40)
        with pytest.raises(CoherenceViolation) as exc:
            ck.on_fill(1, 0, 0x40, MESI.MODIFIED, 3)  # version regression
        msg = str(exc.value)
        assert "violation trace" in msg
        assert "line=0x40" in msg
        assert "0x80" not in msg  # dump is filtered to the violating line

    def test_traceless_checker_raises_bare_message(self):
        ck = CoherenceChecker()
        ck.on_fill(0, 0, 0x40, MESI.MODIFIED, 10)
        ck.on_invalidate(0, 0, 0x40)
        with pytest.raises(CoherenceViolation) as exc:
            ck.on_fill(1, 0, 0x40, MESI.MODIFIED, 3)
        assert "violation trace" not in str(exc.value)


class TestCleanRunsPassAudits:
    def test_multinode_run_zero_violations(self):
        system, checker = small_migratory(nodes=2)
        system.enable_continuous_audit(interval_ps=1_000_000)
        system.run_to_completion()
        tel = system.verify()
        assert tel["audit_quiesced"] == 1.0
        assert tel["audit_continuous_runs"] > 0
        assert tel["audit_nodes"] == 2.0
        assert tel["checker_fills"] > 0
        assert tel["trace_events"] > 0
        assert tel["audit_dir_holdings"] > 0

    def test_audit_system_midrun_skips_quiesce_only_checks(self):
        system, checker = small_migratory(nodes=2)
        system.run_to_completion()
        tel = audit_system(system, quiesced=False)
        assert tel["audit_quiesced"] == 0.0
        assert tel["audit_dir_holdings"] == 0.0


class TestInjectedMutations:
    def test_lost_invalidation_caught_with_trace_dump(self, monkeypatch):
        """The acceptance test: mutate the protocol so invalidations ack
        without invalidating (the classic lost-invalidation bug) and the
        sanitizer must catch it, attaching a bounded per-line history."""
        def ack_without_invalidating(self, line, on_done, entry,
                                     epoch=None):
            self.schedule(self.t_tag + self.t_ics, on_done, entry)

        monkeypatch.setattr(L2Bank, "service_invalidate",
                            ack_without_invalidating)
        system, checker = small_migratory(nodes=2)
        with pytest.raises(CoherenceViolation) as exc:
            system.run_to_completion()
            system.verify()
        msg = str(exc.value)
        assert "violation trace" in msg
        # the dump is bounded: header advertises at most the `last` window
        assert "last" in msg and "recorded (ring capacity 2048)" in msg
        event_lines = [l for l in msg.splitlines() if l.startswith("#")]
        assert 0 < len(event_lines) <= 32

    def test_tsrf_leak_detected_at_quiesce(self):
        system, _ = small_migratory(nodes=1, iterations=40)
        system.run_to_completion()
        engine = system.nodes[0].home_engine
        engine.tsrf.allocate(0x7C0, 0, system.sim.now, {})  # leak one entry
        with pytest.raises(CoherenceViolation) as exc:
            audit_tsrf(system, quiesced=True)
        assert "TSRF leak at quiesce" in str(exc.value)

    @pytest.mark.parametrize("counter, value", [
        ("live", 1), ("high_water", 17)])
    def test_tsrf_counter_drift_detected(self, counter, value):
        """The O(1) TSRF counters are cross-checked against a scan."""
        system, _ = small_migratory(nodes=2, iterations=40)
        system.run_to_completion()
        audit_tsrf(system, quiesced=True)
        setattr(system.nodes[1].remote_engine.tsrf, counter, value)
        with pytest.raises(CoherenceViolation) as exc:
            audit_tsrf(system, quiesced=False)
        assert "TSRF counters out of step" in str(exc.value)

    def test_bank_serialisation_leak_detected_at_quiesce(self):
        system, _ = small_migratory(nodes=1, iterations=40)
        system.run_to_completion()
        bank = system.nodes[0].banks[0]
        bank._sharing_wb_due.add(0x7C0)  # a hold that never released
        with pytest.raises(CoherenceViolation) as exc:
            audit_tsrf(system, quiesced=True)
        assert "serialisation state leaked" in str(exc.value)

    def test_silent_directory_entry_drop_detected(self):
        """Mutate the home directory to forget a remote holder (the
        silent-drop bug: an entry write that lost the sharer vector).
        The directory cross-audit must flag the now-hidden remote copy."""
        from repro.core.directory import DirectoryEntry

        system, _ = small_migratory(nodes=2)
        system.run_to_completion()
        # find a line some node holds whose home is the *other* node
        victim = None
        for node in system.nodes:
            for bank in node.banks:
                held = set(bank.resident_line_addrs())
                for line, entry in bank.dup.entries.items():
                    if entry.sharers:
                        held.add(line)
                for line in held:
                    home = system.address_map.home_of(line)
                    if home != node.node_id:
                        victim = (home, line)
                        break
                if victim:
                    break
            if victim:
                break
        assert victim is not None, "migratory run must leave remote copies"
        home, line = victim
        system.dirstores[home].write(line, DirectoryEntry.uncached())
        with pytest.raises(CoherenceViolation) as exc:
            audit_system(system, quiesced=True)
        assert "hidden remote copy" in str(exc.value)

    def test_duplicate_owner_claim_detected(self):
        """Mutate the duplicate tags so a departed cache still claims
        ownership (two ownership handoffs racing: the second left the
        owner field naming a cache that is no longer a sharer)."""
        system, _ = small_migratory(nodes=1, iterations=60)
        system.run_to_completion()
        entry = bank = None
        for b in system.nodes[0].banks:
            for _line, e in b.dup.entries.items():
                if e.sharers:
                    bank, entry = b, e
                    break
            if entry:
                break
        assert entry is not None
        entry.owner = max(entry.sharers) + 2  # never a recorded sharer
        with pytest.raises(CoherenceViolation) as exc:
            audit_system(system, quiesced=True)
        assert "is not a sharer" in str(exc.value)

    def test_stale_dup_tag_detected(self):
        """Mutate the duplicate tags to keep mirroring a line after its
        L1 copy is gone (a replacement whose dup-tag update was lost).
        The exact-mirror audit must flag the stale tag."""
        system, _ = small_migratory(nodes=1, iterations=60)
        system.run_to_completion()
        node = system.nodes[0]
        bank = node.banks[0]
        # a line no L1 holds: far outside the workload's footprint
        stale_line = 0x7FFF_0000
        bank.dup.add_sharer(stale_line, 0, MESI.SHARED, make_owner=True)
        with pytest.raises(CoherenceViolation) as exc:
            audit_system(system, quiesced=True)
        assert "does not hold it" in str(exc.value)

    def test_non_inclusion_breach_detected(self):
        from repro.workloads import PrivateStream

        checker = CoherenceChecker.with_trace(512)
        system = PiranhaSystem(preset("P2"), num_nodes=1, checker=checker)
        # stream over more lines than the L1s hold, so evicted victims
        # populate the (non-inclusive) L2
        system.attach_workload(PrivateStream(
            MicroParams(iterations=3000, warmup=20, lines=2500),
            cpus_per_node=2))
        system.run_to_completion()
        node = system.nodes[0]
        line = bank = None
        for b in node.banks:
            resident = list(b.resident_line_addrs())
            if resident:
                bank, line = b, resident[0]
                break
        assert line is not None
        # claim an exclusive L1 copy for a line the L2 still holds
        bank.dup.add_sharer(line, 0, MESI.MODIFIED, make_owner=True)
        with pytest.raises(CoherenceViolation) as exc:
            audit_non_inclusion(system)
        assert "non-inclusion violated" in str(exc.value)


class TestHarnessCliParity:
    def test_identical_telemetry_in_extras(self, monkeypatch, tmp_path):
        """`run_workload(check_coherence=True)` and `repro run --check`
        must run the identical audit set and report identical sanitizer
        telemetry: both measure through `run_system`, which funnels the
        audit through `PiranhaSystem.verify()`."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        from repro.__main__ import _build_checked_system
        from repro.harness.experiments import MigratoryFactory
        from repro.harness.runner import run_system, run_workload

        # harness path, params explicit (scale 0.25 -> iterations =
        # max(200, 1000*0.25) = 250, MigratoryFactory.scaled's rule,
        # which the CLI's --scale goes through)
        result = run_workload(
            "P2", MigratoryFactory(params=MicroParams(iterations=250)),
            num_nodes=2, units_attr="iterations", check_coherence=True)

        # CLI path: exactly what cmd_run does for --check
        args = argparse.Namespace(config="P2", nodes=2, workload="migratory",
                                  scale=0.25, check=True, trace=0)
        system, spec = _build_checked_system(args)
        cli = run_system(system, spec)

        harness_sanitizer = {k: v for k, v in result.extras.items()
                             if not k.startswith("cache_")}
        assert harness_sanitizer == cli.extras
        assert cli.payload_tuple() == result.payload_tuple()
        assert harness_sanitizer["audit_quiesced"] == 1.0
        assert harness_sanitizer["audit_continuous_runs"] > 0
