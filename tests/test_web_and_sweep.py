"""Unit tests for the web workload and the sweep harness."""

import pytest

from repro.core import AccessKind, PiranhaSystem, preset
from repro.harness import record_from_result, run_configured
from repro.harness.sweep import replace_field, sweep_field
from repro.workloads import DssWorkload, OltpParams, OltpWorkload
from repro.workloads.web import WebParams, WebWorkload


class TestWebWorkload:
    def test_dss_shaped(self):
        """§6: AltaVista-like search 'exhibits behavior similar to DSS':
        busy-dominated, streaming index reads."""
        wl = WebWorkload(WebParams(queries=40, warmup_queries=10),
                         cpus_per_node=4)
        system = PiranhaSystem(preset("P4"), num_nodes=1)
        system.attach_workload(wl)
        system.run_to_completion()
        s = system.execution_summary()
        assert s["busy_ps"] / s["total_ps"] > 0.7

    def test_ilp_between_oltp_and_dss(self):
        assert OltpWorkload().ilp < WebWorkload().ilp <= DssWorkload().ilp

    def test_hot_index_head_cached(self):
        """The zipf-hot posting lists get re-read: some index misses must
        be served on-chip, unlike a pure table scan."""
        wl = WebWorkload(WebParams(queries=60, warmup_queries=20),
                         cpus_per_node=4)
        system = PiranhaSystem(preset("P4"), num_nodes=1)
        system.attach_workload(wl)
        system.run_to_completion()
        mb = system.miss_breakdown()
        assert mb["l2_hit"] + mb["l2_fwd"] > 0

    def test_deterministic(self):
        a = list(WebWorkload(WebParams(queries=3, warmup_queries=0),
                             cpus_per_node=1).thread_for(0, 0))
        b = list(WebWorkload(WebParams(queries=3, warmup_queries=0),
                             cpus_per_node=1).thread_for(0, 0))
        assert a == b


class TestReplaceField:
    def test_top_level(self):
        cfg = replace_field(preset("P8"), "cpus", 2)
        assert cfg.cpus == 2

    def test_nested(self):
        cfg = replace_field(preset("P8"), "l2.size_bytes", 1 << 21)
        assert cfg.l2.size_bytes == 1 << 21
        assert cfg.core == preset("P8").core  # untouched

    def test_core_field(self):
        cfg = replace_field(preset("P8"), "core.clock_mhz", 600.0)
        assert cfg.core.clock_mhz == 600.0

    def test_too_deep(self):
        with pytest.raises(ValueError):
            replace_field(preset("P8"), "a.b.c", 1)


class TestSweep:
    def _factory(self, config, num_nodes):
        return OltpWorkload(
            OltpParams(transactions=10, warmup_transactions=15),
            cpus_per_node=config.cpus, num_nodes=num_nodes)

    def test_l2_size_sweep_shapes(self):
        records = sweep_field("P2", self._factory, "l2.size_bytes",
                              [256 << 10, 1 << 20])
        assert len(records) == 2
        small, big = records
        # a bigger L2 can only reduce (or equal) the memory-miss share
        assert big["miss_mem_frac"] <= small["miss_mem_frac"] + 0.02
        assert all("throughput" in r for r in records)

    def test_run_config_metrics(self):
        record = record_from_result(run_configured(preset("P1"),
                                                   self._factory))
        assert record["busy_frac"] + record["l2_frac"] + record["mem_frac"] \
            == pytest.approx(1.0)
