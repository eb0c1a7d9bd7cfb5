"""Unit tests for the experiment harness and reporting."""

import threading

import pytest

from repro.harness import (
    breakdown_bar,
    format_table,
    paper_vs_measured,
    series,
    table1_parameters,
)
from repro.harness.cache import DiskCache, locked_exclusive_write
from repro.harness.runner import RunResult


class TestReporting:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.50" in out

    def test_paper_vs_measured(self):
        out = paper_vs_measured("X", [("speedup", 2.9, 3.03)])
        assert "paper" in out and "measured" in out
        assert "2.90" in out and "3.03" in out

    def test_paper_vs_measured_with_note(self):
        out = paper_vs_measured("X", [("m", 1, 2, "close")])
        assert "note" in out and "close" in out

    def test_breakdown_bar_normalises(self):
        out = breakdown_bar("P8", 0.5, 0.3, 0.2, width=10)
        bar = out[out.index("[") + 1:out.index("]")]
        assert bar.count("#") == 5
        assert bar.count("=") == 3
        assert bar.count(".") == 2

    def test_series(self):
        out = series("speedup", {1: 1.0, 8: 6.9})
        assert "1:1.00" in out and "8:6.90" in out


class TestTable1Harness:
    def test_columns_match_paper(self):
        t = table1_parameters()
        assert t["P8"]["Processor Speed"] == "500 MHz"
        assert t["P8F"]["Processor Speed"] == "1.25 GHz"
        assert t["OOO"]["Issue Width"] == 4


class TestRunResult:
    def test_normalized_breakdown(self):
        r = RunResult(
            config="P8", cpus=8, nodes=1, workload="oltp", units=10,
            time_per_unit_ns=1000.0, throughput=1e6,
            busy_frac=0.5, l2_frac=0.3, mem_frac=0.2,
            miss_hit_frac=0.6, miss_fwd_frac=0.3, miss_mem_frac=0.1,
        )
        assert r.normalized_breakdown == (0.5, 0.3, 0.2)


class TestLockedWrites:
    """The first-writer-wins path shared by the result cache and the
    warm-checkpoint store (``--jobs`` workers race on equal keys)."""

    def test_first_writer_wins(self, tmp_path):
        target = str(tmp_path / "entry.json")
        assert locked_exclusive_write(target, b"first") is True
        assert locked_exclusive_write(target, b"second") is False
        with open(target, "rb") as fh:
            assert fh.read() == b"first"

    def test_concurrent_writers_single_winner(self, tmp_path):
        target = str(tmp_path / "entry.json")
        wins = []
        barrier = threading.Barrier(8)

        def attempt(i):
            barrier.wait()
            if locked_exclusive_write(target, b"%d" % i):
                wins.append(i)

        threads = [threading.Thread(target=attempt, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        with open(target, "rb") as fh:
            assert fh.read() == b"%d" % wins[0]

    @staticmethod
    def _result(units=10):
        return RunResult(config="P2", cpus=2, nodes=1, workload="t",
                         units=units, time_per_unit_ns=1.0,
                         throughput=1.0, busy_frac=0.5, l2_frac=0.25,
                         mem_frac=0.25, miss_hit_frac=0.5,
                         miss_fwd_frac=0.25, miss_mem_frac=0.25)

    def test_disk_cache_put_reports_dedupe(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = DiskCache(str(tmp_path / "cache"))
        assert cache.put("k" * 64, self._result(10)) is True
        assert cache.put("k" * 64, self._result(99)) is False
        assert cache.get("k" * 64).units == 10  # first writer won
