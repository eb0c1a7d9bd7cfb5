"""Unit tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.core.config import preset
from repro.fuzz.runner import FuzzFactory
from repro.fuzz.stimulus import generate, params_for
from repro.harness.experiments import scaled_factory
from repro.harness.metrics import validate_metrics, write_metrics
from repro.harness.runner import clear_cache, simulate


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "P8" in out and "oltp" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "500 MHz" in out and "16 ns / 24 ns" in out

    def test_floorplan(self, capsys):
        assert main(["floorplan"]) == 0
        out = capsys.readouterr().out
        assert "CPU core" in out and "cores + caches" in out

    def test_run_small(self, capsys):
        assert main(["run", "--config", "P1", "--workload", "dss",
                     "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "simulated time" in out
        assert "L1 misses" in out

    def test_run_with_checker(self, capsys):
        assert main(["run", "--config", "P2", "--workload", "migratory",
                     "--scale", "0.2", "--check"]) == 0
        out = capsys.readouterr().out
        assert "audit: OK" in out
        assert "continuous audits" in out

    def test_run_with_check_and_trace(self, capsys):
        assert main(["run", "--config", "P2", "--nodes", "2",
                     "--workload", "migratory", "--scale", "0.2",
                     "--check", "--trace", "1024"]) == 0
        out = capsys.readouterr().out
        assert "audit: OK" in out

    def test_run_trace_dumps_events(self, capsys):
        assert main(["run", "--config", "P2", "--workload", "migratory",
                     "--scale", "0.2", "--trace", "4096", "--last", "5"]) == 0
        out = capsys.readouterr().out
        assert "protocol trace" in out
        assert "event totals:" in out
        # at most `--last` event lines in the dump
        assert 0 < sum(1 for l in out.splitlines()
                       if l.startswith("#")) <= 5

    def test_run_trace_node_and_line_filters(self, capsys):
        assert main(["run", "--config", "P2", "--nodes", "2",
                     "--workload", "migratory", "--scale", "0.2", "--check",
                     "--trace", "4096", "--node", "0", "--last", "3"]) == 0
        out = capsys.readouterr().out
        assert "[node=0]" in out
        events = [l for l in out.splitlines() if l.startswith("#")]
        assert 0 < len(events) <= 3
        assert all(" node0 " in l for l in events)
        line = events[-1].split("line=")[1].split()[0]
        assert main(["run", "--config", "P2", "--nodes", "2",
                     "--workload", "migratory", "--scale", "0.2",
                     "--trace", "4096", "--line", line]) == 0
        out = capsys.readouterr().out
        assert f"[line={line}]" in out
        assert all(f"line={line} " in l for l in out.splitlines()
                   if l.startswith("#"))

    def test_run_without_trace_prints_no_ring(self, capsys):
        assert main(["run", "--config", "P2", "--workload", "migratory",
                     "--scale", "0.2", "--check"]) == 0
        assert "event totals:" not in capsys.readouterr().out

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--config", "P99"])


class TestRunFlightRecorder:
    def test_violation_recurs_in_replay(self, monkeypatch, capsys):
        """``run --checkpoint-every`` on a machine with a lost
        invalidation: the run fails, and the replay from the last
        snapshot makes the violation recur.  (It fires at quiesce, after
        the last snapshot, so the replayed window may record no events.)"""
        import repro.__main__ as cli
        from repro.fuzz import apply_mutation

        build = cli.build_system

        def build_mutated(*args, **kwargs):
            system, workload = build(*args, **kwargs)
            apply_mutation(system, "lost_inval", 3)
            return system, workload

        monkeypatch.setattr(cli, "build_system", build_mutated)
        assert main(["run", "--config", "P2", "--nodes", "2",
                     "--workload", "migratory", "--scale", "0.2", "--check",
                     "--checkpoint-every", "5"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION: line 0x1c0: stale copies never invalidated" in out
        assert "restored snapshot @ 25.0 us" in out
        assert ("violation recurred in replay: line 0x1c0: stale copies "
                "never invalidated") in out


class TestFuzzCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "7", "--ops", "200",
                     "--nodes", "2", "--check"]) == 0
        out = capsys.readouterr().out
        assert "clean:" in out
        assert "ref_reads=" in out

    def test_mutated_run_exits_one_with_trace(self, capsys):
        assert main(["fuzz", "--seed", "0", "--ops", "240", "--nodes", "2",
                     "--mutate", "stale_share/3", "--check",
                     "--trace"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION MemoryModelViolation:lost-update" in out
        assert "protocol trace tail:" in out

    def test_unknown_mutation_rejected(self, capsys):
        assert main(["fuzz", "--mutate", "nosuch"]) == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_shrink_writes_replayable_reproducer(self, tmp_path, capsys):
        out_path = str(tmp_path / "r.json")
        assert main(["fuzz", "--seed", "0", "--ops", "240", "--nodes", "2",
                     "--mutate", "stale_share/3", "--shrink", "150",
                     "--out", out_path]) == 1
        out = capsys.readouterr().out
        assert "minimal:" in out and "REPRODUCED" in out
        assert main(["fuzz", "--replay", out_path]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out


class TestCliMeasuresThroughHarness:
    """The CLI has no measurement path of its own: what ``run``,
    ``checkpoint restore`` and ``run --sampled`` write is what
    ``simulate()`` puts in ``extras`` at the same point."""

    #: the observer settings ``--metrics`` alone implies
    OBSERVED = dict(probe_rate=64, sample_interval_ps=50_000_000)

    def test_run_block_matches_simulate(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["run", "--config", "P2", "--workload", "oltp",
                     "--scale", "0.1", "--metrics", str(out)]) == 0
        doc = json.loads(out.read_text())
        ref = simulate(preset("P2"), scaled_factory("oltp", 0.1),
                       **self.OBSERVED).extras["metrics"]
        assert doc["run"] == ref["run"]
        assert None not in doc["run"].values()
        assert "transactions   : 20 per CPU" in capsys.readouterr().out

    def test_tpcc_honours_scale(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["run", "--config", "P2", "--workload", "tpcc",
                     "--scale", "0.25", "--metrics", str(out)]) == 0
        run = json.loads(out.read_text())["run"]
        assert run["workload"] == "tpcc"
        assert run["units"] == 20

    def test_sampled_writes_simulate_metrics(self, tmp_path, capsys):
        out, trace = tmp_path / "s.json", tmp_path / "t.json"
        assert main(["run", "--config", "P2", "--workload", "oltp",
                     "--scale", "0.1", "--sampled", "--metrics", str(out),
                     "--trace-spans", "16", "--trace-out", str(trace),
                     "--report"]) == 0
        ref = simulate(preset("P2"), scaled_factory("oltp", 0.1),
                       mode="sampled", trace_spans=16, **self.OBSERVED)
        ref_path = tmp_path / "ref.json"
        write_metrics(ref.extras["metrics"], str(ref_path))
        assert out.read_text() == ref_path.read_text()
        assert validate_metrics(json.loads(out.read_text())) == []
        assert out.with_suffix(".csv").exists()
        assert json.loads(trace.read_text()) == ref.extras["trace"]
        printed = capsys.readouterr().out
        assert "95% confidence" in printed and "metrics written" in printed
        assert "page-hit rate" in printed  # --report's perfmon rollup

    def test_sampled_rejects_checkpoint_every(self, capsys):
        assert main(["run", "--config", "P2", "--workload", "migratory",
                     "--sampled", "--checkpoint-every", "10"]) == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_checkpoint_restore_metrics_byte_identical(self, tmp_path):
        point = ["--config", "P2", "--workload", "oltp", "--scale", "0.1",
                 "--probe-rate", "64", "--sample-interval", "50"]
        ckpt = str(tmp_path / "warm.ckpt")
        assert main(["checkpoint", "save", *point, "--out", ckpt]) == 0
        restored = tmp_path / "restored.json"
        assert main(["checkpoint", "restore", ckpt,
                     "--metrics", str(restored)]) == 0
        base = tmp_path / "base.json"
        assert main(["run", *point, "--metrics", str(base)]) == 0
        assert restored.read_text() == base.read_text()
        assert (restored.with_suffix(".csv").read_text()
                == base.with_suffix(".csv").read_text())

    @staticmethod
    def _restore_warm_store_snapshot(tmp_path, monkeypatch, capsys,
                                     factory):
        """Snapshot *factory*'s point on P2 into the warm store, restore
        that snapshot through the CLI and return its output."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        clear_cache()
        try:
            simulate(preset("P2"), factory, warmup=True)
        finally:
            clear_cache()
        (ckpt,) = (tmp_path / "cache").rglob("*.ckpt")
        assert main(["checkpoint", "restore", str(ckpt)]) == 0
        return capsys.readouterr().out

    def test_restores_warm_store_snapshot(self, tmp_path, monkeypatch,
                                          capsys):
        # a warm-store snapshot's manifest names a factory token, not a
        # CLI workload: restore still resumes it and prints its measurement
        out = self._restore_warm_store_snapshot(
            tmp_path, monkeypatch, capsys, scaled_factory("oltp", 0.1))
        assert "restored oltp" in out
        assert "transactions   : 20 per CPU" in out

    def test_restores_fuzz_warm_store_snapshot(self, tmp_path, monkeypatch,
                                               capsys):
        # a workload outside the CLI's table is measured in its own unit
        program = generate(params_for(3, total_ops=240, nodes=1,
                                      config="P2", cpus_per_node=2))
        out = self._restore_warm_store_snapshot(
            tmp_path, monkeypatch, capsys,
            FuzzFactory(program.canonical_json()))
        assert "restored fuzz" in out
        assert "ops            : 120 per CPU" in out

    def test_restore_metrics_needs_observed_snapshot(self, tmp_path, capsys):
        ckpt = str(tmp_path / "plain.ckpt")
        assert main(["checkpoint", "save", "--config", "P2", "--workload",
                     "oltp", "--scale", "0.1", "--out", ckpt]) == 0
        assert main(["checkpoint", "restore", ckpt, "--metrics",
                     str(tmp_path / "m.json")]) == 2
        assert "--probe-rate" in capsys.readouterr().err
