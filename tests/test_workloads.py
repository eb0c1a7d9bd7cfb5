"""Unit tests for the workload models."""

import pytest

from repro.core import AccessKind
from repro.core.cpu import WARMUP_DONE
from repro.sim import substream
from repro.workloads import (
    DssParams,
    DssWorkload,
    MigratoryWrites,
    NodeShards,
    OltpParams,
    OltpWorkload,
    PrivateStream,
    Region,
    SharedReadOnly,
    TpccWorkload,
    ZipfSampler,
)
from repro.workloads.base import AddressSpaceBuilder, CodeWalk


class TestZipfSampler:
    def test_rank_zero_hottest(self):
        z = ZipfSampler(100, alpha=1.0)
        counts = [0] * 100
        rng = substream(1, "zipf")
        for _ in range(5000):
            counts[z.sample(rng.random())] += 1
        assert counts[0] > counts[50] > 0

    def test_uniform_at_alpha_zero(self):
        z = ZipfSampler(10, alpha=0.0)
        rng = substream(2, "zipf")
        counts = [0] * 10
        for _ in range(10000):
            counts[z.sample(rng.random())] += 1
        assert max(counts) < 2 * min(counts)

    def test_bounds(self):
        z = ZipfSampler(5, alpha=0.8)
        assert z.sample(0.0) == 0
        assert z.sample(0.999999) == 4
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)


class TestAddressSpaceBuilder:
    def test_regions_disjoint(self):
        b = AddressSpaceBuilder()
        r1 = b.region("a", 100)
        r2 = b.region("b", 100)
        b.validate()
        assert r1.end <= r2.base

    def test_region_line_addresses(self):
        b = AddressSpaceBuilder()
        r = b.region("x", 10)
        assert r.line_addr(0) == r.base
        assert r.line_addr(9) == r.base + 9 * 64
        with pytest.raises(IndexError):
            r.line_addr(10)


class TestCodeWalk:
    def test_runs_are_sequential_lines(self):
        b = AddressSpaceBuilder()
        region = b.region("code", 600)
        walk = CodeWalk(region, run_lines=6)
        items = walk.run(substream(3, "cw").random())
        assert len(items) == 6
        addrs = [a for _, _, a, _ in items]
        assert all(b - a == 64 for a, b in zip(addrs, addrs[1:]))
        assert all(k == AccessKind.IFETCH for _, k, _, _ in items)

    def test_addresses_within_region(self):
        b = AddressSpaceBuilder()
        region = b.region("code", 60)
        walk = CodeWalk(region)
        rng = substream(3, "cw")
        for _ in range(50):
            for _, _, addr, _ in walk.run(rng.random()):
                assert region.base <= addr < region.end

    def test_variate_past_the_cdf_picks_the_last_rank(self):
        """Float rounding can leave the CDF's last entry below a variate;
        the walk then picks the coldest run, as ZipfSampler.sample does."""
        region = AddressSpaceBuilder().region("code", 600)
        walk = CodeWalk(region, run_lines=6)
        last = ZipfSampler(walk.num_starts, 0.75).sample(2.0)
        assert walk.run(2.0) == walk.runs[last]


class TestNodeShards:
    def test_shards_partition_chunks(self):
        region = Region("r", 0, 1024)  # 8 chunks
        shards = NodeShards(region, 4)
        all_chunks = [c for n in range(4) for c in shards.local_chunks(n)]
        assert sorted(all_chunks) == list(range(8))

    def test_sample_line_is_local(self):
        region = Region("r", 0, 1024)
        shards = NodeShards(region, 4)
        rng = substream(5, "ns")
        from repro.mem.addr import AddressMap

        amap = AddressMap(4)
        for node in range(4):
            for _ in range(20):
                line = shards.sample_line(rng, node)
                addr = region.line_addr(line)
                assert amap.home_of(addr) == node

    def test_local_line_cursor(self):
        region = Region("r", 0, 1024)
        shards = NodeShards(region, 4)
        from repro.mem.addr import AddressMap

        amap = AddressMap(4)
        for i in range(300):
            addr = region.line_addr(shards.local_line(2, i))
            assert amap.home_of(addr) == 2


class TestOltpWorkload:
    def test_deterministic(self):
        a = list(OltpWorkload(OltpParams(transactions=3, warmup_transactions=1),
                              cpus_per_node=1).thread_for(0, 0))
        b = list(OltpWorkload(OltpParams(transactions=3, warmup_transactions=1),
                              cpus_per_node=1).thread_for(0, 0))
        assert a == b

    def test_warmup_marker_present(self):
        items = list(OltpWorkload(
            OltpParams(transactions=2, warmup_transactions=1),
            cpus_per_node=1).thread_for(0, 0))
        markers = [i for i in items if i[1] is None and i[2] == WARMUP_DONE]
        assert len(markers) == 1

    def test_out_of_range_cpu_gets_none(self):
        wl = OltpWorkload(cpus_per_node=2, num_nodes=1)
        assert wl.thread_for(0, 5) is None
        assert wl.thread_for(1, 0) is None

    def test_contains_all_tpcb_steps(self):
        wl = OltpWorkload(OltpParams(transactions=4, warmup_transactions=0),
                          cpus_per_node=1)
        items = list(wl.thread_for(0, 0))
        regions_touched = set()
        for _, kind, addr, _ in items:
            if kind is None:
                continue
            for r in wl.space.regions:
                if r.base <= addr < r.end:
                    regions_touched.add(r.name)
        assert {"code", "account", "branch", "teller", "history",
                "log", "metadata", "private", "index"} <= regions_touched

    def test_wh64_used_for_history(self):
        wl = OltpWorkload(OltpParams(transactions=4, warmup_transactions=0),
                          cpus_per_node=1)
        kinds = {k for _, k, _, _ in wl.thread_for(0, 0) if k is not None}
        assert AccessKind.WH64 in kinds

    def test_low_ilp(self):
        assert OltpWorkload().ilp < 1.6

    def test_partial_account_row_refused(self):
        with pytest.raises(ValueError, match="account_lines_per_row"):
            OltpWorkload(OltpParams(account_lines=1001,
                                    account_lines_per_row=2))


class TestDssWorkload:
    def test_partitions_disjoint(self):
        wl = DssWorkload(DssParams(rows=5, warmup_rows=0), cpus_per_node=4)
        streams = [
            {a for _, k, a, _ in wl.thread_for(0, c)
             if k == AccessKind.LOAD and a >= wl.table.base}
            for c in range(4)
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (streams[i] & streams[j])

    def test_scan_is_sequential(self):
        wl = DssWorkload(DssParams(rows=8, warmup_rows=0), cpus_per_node=1)
        addrs = [a for _, k, a, _ in wl.thread_for(0, 0)
                 if k == AccessKind.LOAD and a >= wl.table.base]
        assert addrs == sorted(addrs)

    def test_mostly_streaming(self):
        wl = DssWorkload(DssParams(rows=50, warmup_rows=0), cpus_per_node=1)
        loads = [(d) for _, k, _, d in wl.thread_for(0, 0)
                 if k == AccessKind.LOAD]
        streaming = sum(1 for d in loads if not d)
        assert streaming / len(loads) > 0.6

    def test_higher_ilp_than_oltp(self):
        assert DssWorkload().ilp > OltpWorkload().ilp


class TestTpccWorkload:
    def test_heavier_than_tpcb(self):
        tpcc = TpccWorkload().params
        tpcb = OltpParams()
        assert tpcc.code_runs_per_txn > tpcb.code_runs_per_txn
        assert tpcc.metadata_accesses_per_txn > tpcb.metadata_accesses_per_txn

    def test_lowest_ilp(self):
        assert TpccWorkload().ilp < OltpWorkload().ilp


class TestMicrobenchmarks:
    def test_private_stream_disjoint(self):
        wl = PrivateStream(cpus_per_node=2)
        a = {addr for _, k, addr, _ in wl.thread_for(0, 0) if k}
        b = {addr for _, k, addr, _ in wl.thread_for(0, 1) if k}
        assert not (a & b)

    def test_shared_read_overlaps(self):
        wl = SharedReadOnly(cpus_per_node=2)
        a = {addr for _, k, addr, _ in wl.thread_for(0, 0) if k}
        b = {addr for _, k, addr, _ in wl.thread_for(0, 1) if k}
        assert a & b

    def test_migratory_reads_and_writes(self):
        wl = MigratoryWrites(cpus_per_node=1)
        kinds = {k for _, k, _, _ in wl.thread_for(0, 0) if k}
        assert AccessKind.LOAD in kinds and AccessKind.STORE in kinds


class TestBulkPull:
    """``WorkloadThread.take`` pulls many items in one call and keeps the
    thread's ``emitted`` count, exhaustion and restore behaviour exactly
    as the same ``__next__`` calls would."""

    PARAMS = OltpParams(transactions=2, warmup_transactions=1)

    def thread(self):
        wl = OltpWorkload(self.PARAMS, cpus_per_node=1)
        thread = wl.thread_for(0, 0)
        thread.bind_source(wl, 0, 0)
        return thread

    def test_take_matches_next(self):
        reference = list(self.thread())
        thread = self.thread()
        first, hit = thread.take(100)
        assert not hit and first == reference[:100]
        assert thread.emitted == 100
        rest, hit = thread.take(len(reference))
        assert first + rest == reference
        assert thread.emitted == len(reference) and thread.exhausted
        assert thread.take(10) == ([], False)
        with pytest.raises(StopIteration):
            next(thread)

    def test_take_until_consumes_the_sentinel(self):
        reference = list(self.thread())
        mark = next(i for i, item in enumerate(reference)
                    if item[1] is None and item[2] == WARMUP_DONE)
        thread = self.thread()
        items, hit = [], False
        while not hit:
            batch, hit = thread.take(7, until=WARMUP_DONE)
            items += batch
        assert items == reference[:mark]
        assert thread.emitted == mark + 1
        assert next(thread) == reference[mark + 1]

    def test_checkpoint_after_bulk_pull_resumes_at_same_item(self):
        import pickle

        reference = list(self.thread())
        thread = self.thread()
        thread.take(123)
        restored = pickle.loads(pickle.dumps(thread))
        assert restored.emitted == 123
        batch, _hit = restored.take(50)     # rebuilds lazily, then resumes
        assert batch == reference[123:173]
        assert next(restored) == reference[173]
        assert restored.emitted == 174
