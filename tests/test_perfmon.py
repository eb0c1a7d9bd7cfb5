"""Unit tests for the performance-monitoring report."""

import pytest

from repro.core import PiranhaSystem, preset
from repro.harness.perfmon import node_report, render_report, system_report
from repro.workloads import MicroParams, MigratoryWrites, OltpParams, OltpWorkload


@pytest.fixture
def run_system():
    system = PiranhaSystem(preset("P2"), num_nodes=2)
    wl = OltpWorkload(OltpParams(transactions=8, warmup_transactions=10),
                      cpus_per_node=2, num_nodes=2)
    system.attach_workload(wl)
    system.run_to_completion()
    return system


class TestNodeReport:
    def test_structure(self, run_system):
        report = node_report(run_system.nodes[0])
        assert report["node"] == "node0"
        assert len(report["cpus"]) == 2
        assert {"requests", "hits", "fwds", "mem"} <= set(report["l2"])
        assert {"he", "re"} == set(report["engines"])

    def test_counts_consistent(self, run_system):
        report = node_report(run_system.nodes[0])
        l2 = report["l2"]
        # service classes cannot exceed requests
        assert l2["hits"] + l2["fwds"] + l2["mem"] <= l2["requests"]

    def test_cpu_metrics(self, run_system):
        report = node_report(run_system.nodes[0])
        for cpu in report["cpus"]:
            assert cpu["instructions"] > 0
            assert 0.0 <= cpu["l1_miss_rate"] <= 1.0
            assert 0.0 <= cpu["busy_frac"] <= 1.0


    def test_page_hit_rate_pooled_over_channels(self):
        # summed hits over summed accesses (3 + 0) / (4 + 1), not the
        # mean of the per-channel rates (0.75 + 0.0) / 2
        node = PiranhaSystem(preset("P1"), num_nodes=1).nodes[0]
        node.mcs = node.mcs[:2]
        for mc, (hits, accesses) in zip(node.mcs, [(3, 4), (0, 1)]):
            mc.channel.c_page_hits.value = hits
            mc.channel.c_accesses.value = accesses
        assert node_report(node)["memory"]["page_hit_rate"] == 0.6


class TestSystemReport:
    def test_one_report_per_node(self, run_system):
        reports = system_report(run_system)
        assert [r["node"] for r in reports] == ["node0", "node1"]

    def test_render(self, run_system):
        text = render_report(system_report(run_system))
        assert "node0" in text and "node1" in text
        assert "L2 requests" in text
        assert "he threads/instrs" in text

    def test_engines_active_multinode(self, run_system):
        reports = system_report(run_system)
        total_threads = sum(
            eng["threads"]
            for r in reports for eng in r["engines"].values()
        )
        assert total_threads > 0


class TestZeroActivity:
    """A freshly built system that never ran must still report cleanly:
    no division-by-zero from zero instruction/request counts, and every
    rate pinned at zero."""

    def test_report_on_idle_system(self):
        system = PiranhaSystem(preset("P2"), num_nodes=2)
        reports = system_report(system)
        assert [r["node"] for r in reports] == ["node0", "node1"]
        for report in reports:
            for cpu in report["cpus"]:
                assert cpu["instructions"] == 0
                assert cpu["l1_miss_rate"] == 0.0
                assert cpu["busy_frac"] == 0.0
            assert report["l2"]["requests"] == 0
            for eng in report["engines"].values():
                assert eng["threads"] == 0

    def test_never_updated_counters_report_explicit_zero(self):
        # An engine whose TSRF never held a thread must still expose the
        # time-weighted occupancy key — as 0.0, not as a missing key —
        # whether or not the caller closes the window with now_ps.
        system = PiranhaSystem(preset("P2"), num_nodes=2)
        for report in (node_report(system.nodes[0]),
                       node_report(system.nodes[0], now_ps=1_000_000)):
            for eng in report["engines"].values():
                assert eng["tsrf_mean_occupancy"] == 0.0
                assert eng["tsrf_high_water"] == 0
                assert eng["tsrf_stalls"] == 0

    def test_engine_key_set_stable_with_and_without_now(self, run_system):
        # S2 contract: the same key set comes back regardless of window
        # closing, so report diffing never sees keys appear/disappear.
        plain = node_report(run_system.nodes[0])
        windowed = node_report(run_system.nodes[0],
                               now_ps=run_system.sim.now)
        for name in plain["engines"]:
            assert (set(plain["engines"][name])
                    == set(windowed["engines"][name]))

    def test_render_on_idle_system(self):
        system = PiranhaSystem(preset("P1"), num_nodes=1)
        text = render_report(system_report(system))
        assert "node0" in text
        assert "L2 requests" in text
