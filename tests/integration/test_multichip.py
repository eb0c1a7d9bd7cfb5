"""Integration tests: glueless multi-chip systems (Figure 3, §2.5/2.6)."""

import pytest

from repro.core import CoherenceChecker, PiranhaSystem, preset
from repro.core.checker import audit_tsrf
from repro.sim import ns, substream
from repro.workloads import MicroParams, OltpParams, OltpWorkload, UniformRandom
from repro.workloads.base import WorkloadThread
from repro.core.messages import AccessKind


def checked_run(config, nodes, workload):
    checker = CoherenceChecker()
    system = PiranhaSystem(preset(config), num_nodes=nodes, checker=checker)
    system.attach_workload(workload)
    finish = system.run_to_completion()
    checker.verify_quiesced()
    return system, finish


class TestOltpAcrossNodes:
    def test_two_node_p2(self):
        wl = OltpWorkload(OltpParams(transactions=15, warmup_transactions=20),
                          cpus_per_node=2, num_nodes=2)
        system, finish = checked_run("P2", 2, wl)
        # remote traffic actually happened
        assert any(n.c_packets_sent.value > 0 for n in system.nodes)
        # every CPU's work finished
        assert all(c.finished for c in system.all_cpus())

    def test_four_node_p1(self):
        wl = OltpWorkload(OltpParams(transactions=10, warmup_transactions=15),
                          cpus_per_node=1, num_nodes=4)
        system, _ = checked_run("P1", 4, wl)
        # both engines saw work somewhere
        assert sum(n.home_engine.c_threads.value for n in system.nodes) > 0
        assert sum(n.remote_engine.c_threads.value for n in system.nodes) > 0


class TestContendedSharing:
    def _hot_line_workload(self, nodes, cpus, iters=250, seed=11):
        class W:
            def thread_for(self, node, cpu):
                rng = substream(seed, node, cpu)

                def gen():
                    for _ in range(iters):
                        line = rng.randrange(24) * 64
                        r = rng.random()
                        if r < 0.45:
                            yield (2, AccessKind.STORE, line, True)
                        elif r < 0.55:
                            yield (2, AccessKind.WH64, line, True)
                        else:
                            yield (2, AccessKind.LOAD, line, True)

                return WorkloadThread(gen())

        return W()

    def test_heavy_write_sharing_two_nodes(self):
        system, _ = checked_run("P2", 2, self._hot_line_workload(2, 2))
        assert system.sim.events_fired > 0

    def test_heavy_write_sharing_four_nodes(self):
        system, _ = checked_run("P2", 4, self._hot_line_workload(4, 2))

    def test_no_tsrf_leaks(self):
        system, _ = checked_run("P2", 2, self._hot_line_workload(2, 2))
        for node in system.nodes:
            assert node.home_engine.tsrf.occupancy() == 0
            assert node.remote_engine.tsrf.occupancy() == 0

    def test_no_lingering_wb_buffers(self):
        system, _ = checked_run("P2", 2, self._hot_line_workload(2, 2))
        for node in system.nodes:
            for bank in node.banks:
                assert not bank.pending
                assert not bank.overflow


class TestProtocolProperties:
    def test_watchdog_sees_no_timeouts_in_healthy_run(self):
        """Liveness: the mid-run audits scan every TSRF for a protocol
        thread live longer than the time-out and find none; at quiesce
        every entry is free."""
        checker = CoherenceChecker()
        system = PiranhaSystem(preset("P2"), num_nodes=2, checker=checker)
        system.enable_continuous_audit(interval_ps=ns(50_000),
                                       tsrf_timeout_ps=ns(500_000))
        wl = OltpWorkload(OltpParams(transactions=10, warmup_transactions=10),
                          cpus_per_node=2, num_nodes=2)
        system.attach_workload(wl)
        system.run_to_completion()
        checker.verify_quiesced()
        assert system.continuous_audits > 0
        assert audit_tsrf(system) == 2 * 2 * 16

    def test_engine_occupancy_reported(self):
        wl = OltpWorkload(OltpParams(transactions=10, warmup_transactions=10),
                          cpus_per_node=2, num_nodes=2)
        system, _ = checked_run("P2", 2, wl)
        for node in system.nodes:
            he = node.home_engine
            if he.c_threads.value:
                assert he.a_occupancy.mean > 0

    def test_uniform_random_multinode(self):
        wl = UniformRandom(MicroParams(iterations=200, warmup=40, lines=512),
                           cpus_per_node=2, num_nodes=2)
        checked_run("P2", 2, wl)


class TestDeterminism:
    def test_identical_runs_produce_identical_timing(self):
        def one_run():
            wl = OltpWorkload(
                OltpParams(transactions=8, warmup_transactions=8),
                cpus_per_node=2, num_nodes=2)
            system = PiranhaSystem(preset("P2"), num_nodes=2)
            system.attach_workload(wl)
            finish = system.run_to_completion()
            return finish, system.sim.events_fired

        assert one_run() == one_run()
