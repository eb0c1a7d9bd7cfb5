"""Unit tests for the transaction state register file (§2.5.1)."""

import pytest

from repro.core.tsrf import TSRF_ENTRIES, Tsrf, TsrfFullError


class TestAllocation:
    def test_sixteen_entries(self):
        assert TSRF_ENTRIES == 16
        assert Tsrf().free_count == 16

    def test_allocate_and_free(self):
        tsrf = Tsrf()
        entry = tsrf.allocate(0x1000, pc=5, now_ps=100, vars={"req_node": 3})
        assert entry.valid
        assert entry.addr == 0x1000
        assert entry.pc == 5
        assert entry.vars["req_node"] == 3
        assert tsrf.occupancy() == 1
        tsrf.free(entry)
        assert tsrf.occupancy() == 0
        assert not entry.valid

    def test_full_raises(self):
        tsrf = Tsrf()
        for i in range(16):
            tsrf.allocate(i * 64, pc=0, now_ps=0, vars={})
        with pytest.raises(TsrfFullError):
            tsrf.allocate(0x9999, pc=0, now_ps=0, vars={})
        assert tsrf.alloc_failures == 1

    def test_high_water(self):
        tsrf = Tsrf()
        entries = [tsrf.allocate(i, 0, 0, {}) for i in range(5)]
        for e in entries:
            tsrf.free(e)
        assert tsrf.high_water == 5

    def test_reuse_after_free(self):
        tsrf = Tsrf()
        for _ in range(100):
            e = tsrf.allocate(0x40, 0, 0, {})
            tsrf.free(e)
        assert tsrf.occupancy() == 0


class TestMatching:
    def test_match_by_address_and_mode(self):
        tsrf = Tsrf()
        e = tsrf.allocate(0x1000, 0, 0, {})
        e.waiting = "external"
        assert tsrf.match(0x1000, "external") is e
        assert tsrf.match(0x1000, "local") is None
        assert tsrf.match(0x2000, "external") is None

    def test_find_any(self):
        tsrf = Tsrf()
        e = tsrf.allocate(0x1000, 0, 0, {})
        assert tsrf.find(0x1000) is e
        assert tsrf.find(0x2000) is None

    def test_invalid_entries_never_match(self):
        tsrf = Tsrf()
        e = tsrf.allocate(0x1000, 0, 0, {})
        e.waiting = "external"
        tsrf.free(e)
        assert tsrf.match(0x1000, "external") is None


class TestTimeouts:
    def test_timed_out_entries(self):
        """RAS hook: the engine can monitor for failures via time-outs."""
        tsrf = Tsrf()
        old = tsrf.allocate(0x1000, 0, now_ps=0, vars={})
        fresh = tsrf.allocate(0x2000, 0, now_ps=900_000, vars={})
        expired = tsrf.timed_out(now_ps=1_000_000, timeout_ps=500_000)
        assert expired == [old]


def scanned(tsrf):
    return sum(1 for e in tsrf.entries if e.valid)


class TestCounters:
    """The O(1) live count and high-water mark track a scan of the
    entries through every allocate and free."""

    def test_allocate_until_full(self):
        tsrf = Tsrf()
        for i in range(TSRF_ENTRIES):
            tsrf.allocate(i * 64, pc=0, now_ps=0, vars={})
            assert tsrf.occupancy() == scanned(tsrf) == i + 1
            assert tsrf.high_water == i + 1
        assert tsrf.free_count == 0
        with pytest.raises(TsrfFullError):
            tsrf.allocate(0x9999, pc=0, now_ps=0, vars={})
        # the failed allocation changes no counter
        assert tsrf.occupancy() == scanned(tsrf) == TSRF_ENTRIES
        assert tsrf.high_water == TSRF_ENTRIES
        assert tsrf.allocations == TSRF_ENTRIES

    def test_double_free_counts_once(self):
        tsrf = Tsrf()
        keep = tsrf.allocate(0x40, 0, 0, {})
        e = tsrf.allocate(0x80, 0, 0, {})
        tsrf.free(e)
        tsrf.free(e)
        assert tsrf.frees == 1
        assert tsrf.occupancy() == scanned(tsrf) == 1
        assert tsrf.free_count == TSRF_ENTRIES - 1
        assert tsrf.high_water == 2
        tsrf.free(keep)
        assert tsrf.occupancy() == scanned(tsrf) == 0

    def test_high_water_holds_after_frees(self):
        tsrf = Tsrf()
        entries = [tsrf.allocate(i, 0, 0, {}) for i in range(6)]
        for e in entries[:4]:
            tsrf.free(e)
        assert tsrf.high_water == 6
        again = [tsrf.allocate(i, 0, 0, {}) for i in range(3)]
        assert tsrf.occupancy() == scanned(tsrf) == 5
        assert tsrf.high_water == 6
        # freed slots are reused lowest index first
        assert [e.index for e in again] == [0, 1, 2]
