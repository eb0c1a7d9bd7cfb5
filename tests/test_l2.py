"""Scenario tests for the L2 bank and intra-chip coherence (§2.3).

Requests are driven directly into a single-node system's memory system;
each test checks one path of the paper's protocol: non-inclusive fills,
victim write-backs, ownership-filtered replacements, L1-to-L1 forwards,
upgrades, and the clean-exclusive optimisation.
"""

import dataclasses

import pytest

from repro.core import (
    MESI,
    AccessKind,
    CoherenceChecker,
    PiranhaSystem,
    ReplySource,
    preset,
)
from repro.core.dup_tags import L2_OWNER, DupEntry
from repro.core.messages import CacheId, MemRequest, RequestType

from .test_golden_digests import component_counters, machine_state_digest


@pytest.fixture
def system():
    return PiranhaSystem(preset("P8"), num_nodes=1,
                         checker=CoherenceChecker())


def issue(system, cpu, kind, addr, reqtype=None, is_instr=False, node=0):
    """Issue one access from a CPU of chip *node* and run to completion;
    returns (latency_ns, source)."""
    out = {}

    def done(latency_ps, source):
        out["latency_ns"] = latency_ps / 1000.0
        out["source"] = source

    req = MemRequest(cpu_id=cpu, kind=kind, addr=addr, is_instr=is_instr,
                     done=done, node=node)
    if reqtype is None:
        from repro.core.messages import request_for

        reqtype = request_for(kind, MESI.INVALID)
    req.issue_time = system.sim.now
    system.nodes[node].issue_miss(req, reqtype)
    system.sim.run()
    return out["latency_ns"], out["source"]


LINE = 0x40_0000  # maps to bank 0


class TestMissPaths:
    def test_cold_read_fills_from_memory_at_80ns(self, system):
        latency, source = issue(system, 0, AccessKind.LOAD, LINE)
        assert source == ReplySource.LOCAL_MEM
        assert latency == pytest.approx(80.0, abs=1.0)

    def test_cold_read_granted_clean_exclusive(self, system):
        issue(system, 0, AccessKind.LOAD, LINE)
        line = system.nodes[0].l1d[0].peek(LINE)
        assert line.state == MESI.EXCLUSIVE  # clean-exclusive optimisation

    def test_memory_fill_does_not_allocate_in_l2(self, system):
        """§2.3: L1 misses that also miss in the L2 are filled directly
        from memory, without allocating in the L2."""
        issue(system, 0, AccessKind.LOAD, LINE)
        bank = system.nodes[0].bank_for(LINE)
        assert bank._l2_line(LINE) is None
        assert bank.resident_lines() == 0

    def test_store_miss_fills_modified(self, system):
        issue(system, 0, AccessKind.STORE, LINE)
        line = system.nodes[0].l1d[0].peek(LINE)
        assert line.state == MESI.MODIFIED
        assert line.dirty


class TestL1ToL1Forward:
    def test_read_forwarded_from_owner_at_24ns(self, system):
        issue(system, 0, AccessKind.STORE, LINE)     # cpu0 owns M
        latency, source = issue(system, 1, AccessKind.LOAD, LINE)
        assert source == ReplySource.L2_FWD
        assert latency == pytest.approx(24.0, abs=1.0)

    def test_forward_downgrades_owner(self, system):
        issue(system, 0, AccessKind.STORE, LINE)
        issue(system, 1, AccessKind.LOAD, LINE)
        assert system.nodes[0].l1d[0].peek(LINE).state == MESI.SHARED
        assert system.nodes[0].l1d[1].peek(LINE).state == MESI.SHARED

    def test_ownership_and_dirtiness_travel_to_requester(self, system):
        """§2.3: the owner is 'typically the last requester'; the dirty
        master copy follows ownership so exactly one write-back happens."""
        issue(system, 0, AccessKind.STORE, LINE)
        issue(system, 1, AccessKind.LOAD, LINE)
        bank = system.nodes[0].bank_for(LINE)
        assert bank.dup.owner(LINE) == CacheId.encode(1, False)
        assert system.nodes[0].l1d[1].peek(LINE).dirty
        assert not system.nodes[0].l1d[0].peek(LINE).dirty

    def test_store_forward_invalidates_other_copies(self, system):
        issue(system, 0, AccessKind.STORE, LINE)
        issue(system, 1, AccessKind.LOAD, LINE)
        issue(system, 2, AccessKind.STORE, LINE)
        assert system.nodes[0].l1d[0].peek(LINE) is None
        assert system.nodes[0].l1d[1].peek(LINE) is None
        assert system.nodes[0].l1d[2].peek(LINE).state == MESI.MODIFIED

    def test_instruction_cache_kept_coherent(self, system):
        """§2.1: unlike other Alphas, the iL1 is kept coherent by
        hardware."""
        issue(system, 0, AccessKind.IFETCH, LINE, is_instr=True)
        issue(system, 1, AccessKind.STORE, LINE)
        assert system.nodes[0].l1i[0].peek(LINE) is None


class TestVictimCacheBehaviour:
    def _fill_and_evict(self, system, cpu=0, dirty=False):
        """Fill LINE then force it out of cpu's dL1 by filling both ways of
        its set."""
        kind = AccessKind.STORE if dirty else AccessKind.LOAD
        issue(system, cpu, kind, LINE)
        l1 = system.nodes[0].l1d[cpu]
        set_stride = l1.num_sets * 64
        issue(system, cpu, AccessKind.LOAD, LINE + set_stride)
        issue(system, cpu, AccessKind.LOAD, LINE + 2 * set_stride)

    def test_clean_owner_eviction_fills_l2(self, system):
        """Even clean L1 victims write back to the L2 when owned — the L2
        is a victim cache (§2.3)."""
        self._fill_and_evict(system, dirty=False)
        bank = system.nodes[0].bank_for(LINE)
        assert bank._l2_line(LINE) is not None
        assert bank.c_l1_wb_owner.value >= 1

    def test_dirty_eviction_carries_data(self, system):
        self._fill_and_evict(system, dirty=True)
        bank = system.nodes[0].bank_for(LINE)
        l2line = bank._l2_line(LINE)
        assert l2line.dirty
        assert l2line.version == 1

    def test_l2_hit_after_victim_fill(self, system):
        self._fill_and_evict(system)
        latency, source = issue(system, 1, AccessKind.LOAD, LINE)
        assert source == ReplySource.L2_HIT
        assert latency == pytest.approx(16.0, abs=1.0)

    def test_non_owner_eviction_no_writeback(self, system):
        """After a forward, the old owner's copy is a non-owner S line; its
        replacement must NOT write back (the write-back filter)."""
        issue(system, 0, AccessKind.STORE, LINE)
        issue(system, 1, AccessKind.LOAD, LINE)   # ownership moved to cpu1
        l1 = system.nodes[0].l1d[0]
        set_stride = l1.num_sets * 64
        bank = system.nodes[0].bank_for(LINE)
        before = bank.c_l1_wb_owner.value
        issue(system, 0, AccessKind.LOAD, LINE + set_stride)
        issue(system, 0, AccessKind.LOAD, LINE + 2 * set_stride)
        assert system.nodes[0].l1d[0].peek(LINE) is None
        assert bank.c_l1_wb_owner.value == before
        assert bank.c_l1_evict_clean.value >= 1


class TestUpgrades:
    def test_store_to_shared_upgrades_locally(self, system):
        issue(system, 0, AccessKind.STORE, LINE)
        issue(system, 1, AccessKind.LOAD, LINE)     # both share now
        latency, source = issue(system, 0, AccessKind.STORE, LINE,
                                reqtype=RequestType.EXCLUSIVE)
        assert source in (ReplySource.L2_HIT, ReplySource.L2_FWD)
        assert system.nodes[0].l1d[0].peek(LINE).state == MESI.MODIFIED
        assert system.nodes[0].l1d[1].peek(LINE) is None

    def test_upgrade_is_fast(self, system):
        issue(system, 0, AccessKind.STORE, LINE)
        issue(system, 1, AccessKind.LOAD, LINE)
        latency, _ = issue(system, 1, AccessKind.STORE, LINE,
                           reqtype=RequestType.EXCLUSIVE)
        assert latency < 16.0  # control-only grant, no data transfer


class TestWh64:
    def test_wh64_single_node_skips_memory(self, system):
        """Exclusive-without-data: no fetch of the line's contents."""
        latency, source = issue(system, 0, AccessKind.WH64, LINE)
        assert latency < 20.0  # far below the 80 ns memory fill
        bank = system.nodes[0].bank_for(LINE)
        assert bank.c_wh64_data_avoided.value == 1
        assert system.nodes[0].l1d[0].peek(LINE).state == MESI.MODIFIED


class TestPendingConflicts:
    def test_conflicting_requests_serialise(self, system):
        """§2.3: a pending entry blocks conflicting requests for the
        duration of the original transaction."""
        results = []

        def make_done(tag):
            def done(lat, src):
                results.append((tag, system.sim.now, src))
            return done

        node = system.nodes[0]
        for cpu in range(3):
            req = MemRequest(cpu_id=cpu, kind=AccessKind.STORE, addr=LINE,
                             is_instr=False, done=make_done(cpu), node=0)
            req.issue_time = 0
            node.issue_miss(req, RequestType.READ_EXCLUSIVE)
        system.sim.run()
        assert len(results) == 3
        bank = node.bank_for(LINE)
        # at least the two later requests conflicted (waiters that re-queue
        # behind each other's grants count again)
        assert bank.c_conflicts.value >= 2
        # exactly one went to memory; the others were served on-chip
        sources = [src for _, _, src in results]
        assert sources.count(ReplySource.LOCAL_MEM) == 1

    def test_checker_clean_after_conflict_storm(self, system):
        for cpu in range(8):
            for i in range(4):
                issue(system, cpu, AccessKind.STORE, LINE + i * 64)
        system.checker.verify_quiesced()


class TestMissBreakdownAccounting:
    def test_fig6b_counters(self, system):
        issue(system, 0, AccessKind.LOAD, LINE)          # memory
        issue(system, 1, AccessKind.LOAD, LINE)          # fwd from cpu0
        # force cpu1's copy (owner) out to the L2, then hit it
        l1 = system.nodes[0].l1d[1]
        stride = l1.num_sets * 64
        issue(system, 1, AccessKind.LOAD, LINE + stride)
        issue(system, 1, AccessKind.LOAD, LINE + 2 * stride)
        issue(system, 2, AccessKind.LOAD, LINE)          # L2 hit
        mb = system.miss_breakdown()
        assert mb["l2_miss"] >= 1
        assert mb["l2_fwd"] >= 1
        assert mb["l2_hit"] >= 1


class TestL2HitEvictionRace:
    """An L2 read hit holds the line it looked up across its data-array
    delay; a victim fill landing in the same set can evict that line before
    the hit completes."""

    @pytest.fixture
    def tiny(self):
        # one-line L1s and a one-line set per L2 bank: every fill evicts
        cfg = preset("P8")
        cfg = dataclasses.replace(
            cfg,
            l1=dataclasses.replace(cfg.l1, size_bytes=64, assoc=1),
            l2=dataclasses.replace(cfg.l2, size_bytes=cfg.l2.banks * 64,
                                   assoc=1),
        )
        return PiranhaSystem(cfg, num_nodes=1, checker=CoherenceChecker())

    def test_owner_eviction_during_clean_exclusive_hit(self, tiny):
        node = tiny.nodes[0]
        nbanks = len(node.banks)
        a = LINE                      # bank 0
        b = LINE + nbanks * 64        # bank 0, the same (only) set as a
        c = LINE + 64                 # bank 1
        # park a in bank 0's L2 and c in bank 1's: each owner's next fill
        # evicts its one L1 line into the L2
        issue(tiny, 2, AccessKind.STORE, a)
        issue(tiny, 2, AccessKind.LOAD, LINE + 2 * 64)
        issue(tiny, 3, AccessKind.STORE, c)
        issue(tiny, 3, AccessKind.LOAD, LINE + 3 * 64)
        assert node.bank_for(a)._l2_line(a) is not None
        assert node.bank_for(c)._l2_line(c) is not None
        issue(tiny, 1, AccessKind.STORE, b)   # cpu1 owns b
        # Two L2 read hits of equal latency, cpu1's issued first: its fill
        # of c evicts b from its L1, the victim fill of b evicts a from
        # bank 0, and only then does cpu0's hit on a complete.
        out = []
        for cpu, addr in ((1, c), (0, a)):
            req = MemRequest(cpu_id=cpu, kind=AccessKind.LOAD, addr=addr,
                             is_instr=False, node=0,
                             done=lambda lat, src, cpu=cpu:
                             out.append((cpu, src)))
            req.issue_time = tiny.sim.now
            node.issue_miss(req, RequestType.READ)
        tiny.sim.run()
        assert out == [(1, ReplySource.L2_HIT), (0, ReplySource.L2_HIT)]
        bank0 = node.bank_for(a)
        assert bank0._l2_line(a) is None
        assert bank0._l2_line(b) is not None
        assert node.l1d[0].peek(a).state == MESI.EXCLUSIVE
        tiny.checker.verify_quiesced()


# -- one miss decision: the event path and functional warming agree ------

R, RX, UPG, WH = (RequestType.READ, RequestType.READ_EXCLUSIVE,
                  RequestType.EXCLUSIVE, RequestType.EXCLUSIVE_NO_DATA)
P8_INCLUSIVE = dataclasses.replace(
    preset("P8"), l2=dataclasses.replace(preset("P8").l2, inclusive=True))
_KIND = {R: AccessKind.LOAD, RX: AccessKind.STORE, UPG: AccessKind.STORE,
         WH: AccessKind.WH64}


def _evict(system, cpu, addr):
    """Push *addr* out of *cpu*'s dL1 by loading the other two lines of
    its (two-way) set."""
    stride = system.nodes[0].l1d[cpu].num_sets * 64
    issue(system, cpu, AccessKind.LOAD, addr + stride)
    issue(system, cpu, AccessKind.LOAD, addr + 2 * stride)


def _chip_state(node):
    """What a served miss leaves on one chip: every L1 line in LRU order,
    every duplicate-tag entry, every L2 line in load order, and every L2
    bank statistic."""
    return (
        [[(line.tag, line.state, line.owner, line.dirty, line.version)
          for lru_set in l1.sets for line in lru_set.values()]
         for l1 in node.l1s],
        [sorted((line, sorted(e.sharers.items()), e.owner)
                for line, e in bank.dup.entries.items())
         for bank in node.banks],
        [[(tag, l2line.dirty, l2line.version) for lset in bank.sets
          for tag, l2line in lset.items()] for bank in node.banks],
        [{name: stat.value for name, stat in bank.stats._stats.items()}
         for bank in node.banks],
    )


def _serve_detailed(system, cpu, reqtype, addr):
    """One miss through the event path: the bank's request, then run."""
    out = []
    req = MemRequest(cpu_id=cpu, kind=_KIND[reqtype], addr=addr,
                     is_instr=False, node=0,
                     done=lambda lat, src: out.append(src))
    req.issue_time = system.sim.now
    system.nodes[0].bank_for(addr).request(req, reqtype)
    system.sim.run()
    return out[0]


def _serve_warm(system, cpu, reqtype, addr):
    """The same miss through functional warming."""
    return system.nodes[0].bank_for(addr).warm_request(
        CacheId.encode(cpu, False), reqtype, addr)


#: (case, config, pre-state builder, requesting cpu, request, expected
#: reply source); each builder drives its accesses through the event path
MISS_CASES = [
    ("forward-read", "P2", lambda s: issue(s, 0, AccessKind.STORE, LINE),
     1, R, ReplySource.L2_FWD),
    ("forward-write", "P2", lambda s: issue(s, 0, AccessKind.STORE, LINE),
     1, RX, ReplySource.L2_FWD),
    ("own-read", "P2", lambda s: issue(s, 0, AccessKind.LOAD, LINE),
     0, R, ReplySource.L2_HIT),
    # cpu1 owns the shared line after the forward: its upgrade finds its
    # own copy and sweeps cpu0's
    ("own-upgrade", "P2", lambda s: (issue(s, 0, AccessKind.LOAD, LINE),
                                     issue(s, 1, AccessKind.LOAD, LINE)),
     1, UPG, ReplySource.L2_HIT),
    ("l2-read-clean-exclusive", "P2",
     lambda s: (issue(s, 0, AccessKind.LOAD, LINE), _evict(s, 0, LINE)),
     1, R, ReplySource.L2_HIT),
    # cpu1's owner copy goes to the L2 while cpu0 keeps a shared copy
    ("l2-read-shared", "P2",
     lambda s: (issue(s, 0, AccessKind.LOAD, LINE),
                issue(s, 1, AccessKind.LOAD, LINE), _evict(s, 1, LINE)),
     1, R, ReplySource.L2_HIT),
    ("l2-write", "P2",
     lambda s: (issue(s, 0, AccessKind.LOAD, LINE), _evict(s, 0, LINE)),
     1, RX, ReplySource.L2_HIT),
    ("memory-read", "P2", lambda s: None, 0, R, ReplySource.LOCAL_MEM),
    ("memory-write", "P2", lambda s: None, 0, RX, ReplySource.LOCAL_MEM),
    ("memory-wh64", "P2", lambda s: None, 0, WH, ReplySource.LOCAL_MEM),
    ("l2-read-clean-exclusive-inclusive", P8_INCLUSIVE,
     lambda s: (issue(s, 0, AccessKind.LOAD, LINE), _evict(s, 0, LINE)),
     1, R, ReplySource.L2_HIT),
]


@pytest.mark.parametrize("case,config,build,cpu,reqtype,source", MISS_CASES,
                         ids=[c[0] for c in MISS_CASES])
def test_event_path_and_warming_make_one_decision(case, config, build, cpu,
                                                  reqtype, source):
    """Each case of the miss decision, served once through the event path
    and once through functional warming on an identically built chip,
    leaves the same L1 lines, duplicate tags, L2 lines and bank
    counters."""
    states = []
    for serve in (_serve_detailed, _serve_warm):
        cfg = preset(config) if isinstance(config, str) else config
        system = PiranhaSystem(cfg, num_nodes=1, checker=CoherenceChecker())
        build(system)
        assert serve(system, cpu, reqtype, LINE) == source
        system.checker.verify_quiesced()
        states.append(_chip_state(system.nodes[0]))
    assert states[0] == states[1]


REMOTE = LINE + 8192  # homed at node 1 (homes interleave every 8 KB)

#: (case, pre-state builder, requesting node-0 cpu, request, line); each
#: access must be declined by functional warming on a two-node system
DECLINED_CASES = [
    ("remote-home", lambda s: None, 0, R, REMOTE),
    # node 1's copy makes node 0's read a shared grant from the home
    ("upgrade-of-shared-remote-home",
     lambda s: (issue(s, 0, AccessKind.LOAD, REMOTE, node=1),
                issue(s, 0, AccessKind.LOAD, REMOTE, node=0)),
     0, UPG, REMOTE),
    # node 1's read marks node 0's home line as remotely cached
    ("remote-cached-home-upgrade",
     lambda s: (issue(s, 0, AccessKind.LOAD, LINE, node=0),
                issue(s, 0, AccessKind.LOAD, LINE, node=1)),
     0, UPG, LINE),
    ("home-miss-directory-not-uncached",
     lambda s: issue(s, 0, AccessKind.LOAD, LINE, node=1),
     0, R, LINE),
]


def _counters_but_directory_reads(system):
    """Every component statistic; a directory store contributes its write
    count only (a home miss reads the directory to decide)."""
    doc = component_counters(system)
    for store in system.dirstores:
        doc[f"dir{store.node}"] = store.writes
    return doc


@pytest.mark.parametrize("case,build,cpu,reqtype,line", DECLINED_CASES,
                         ids=[c[0] for c in DECLINED_CASES])
def test_multi_node_declines_leave_the_machine_untouched(case, build, cpu,
                                                         reqtype, line):
    system = PiranhaSystem(preset("P2"), num_nodes=2,
                           checker=CoherenceChecker())
    build(system)
    before = (machine_state_digest(system),
              _counters_but_directory_reads(system))
    bank = system.nodes[0].bank_for(line)
    assert bank.warm_request(CacheId.encode(cpu, False), reqtype,
                             line) is None
    assert (machine_state_digest(system),
            _counters_but_directory_reads(system)) == before


class TestNoEmptyDupEntries:
    """Every duplicate-tag entry names a sharer or an owner."""

    def test_invalidating_an_l2_owned_line_deletes_its_entry(self):
        system = PiranhaSystem(preset("P2"), num_nodes=2,
                               checker=CoherenceChecker())
        issue(system, 0, AccessKind.LOAD, REMOTE)
        _evict(system, 0, REMOTE)          # the owner copy goes to the L2
        bank = system.nodes[0].bank_for(REMOTE)
        e = bank.dup.entry(REMOTE)
        assert not e.sharers and e.owner == L2_OWNER
        done = []
        bank.service_invalidate(REMOTE, done.append, "entry")
        system.sim.run()
        assert done == ["entry"]
        assert bank._l2_line(REMOTE) is None
        assert bank.dup.entry(REMOTE) is None
        system.nodes[0].audit_duplicate_tags()

    def test_audit_rejects_an_empty_entry(self, system):
        node = system.nodes[0]
        node.bank_for(LINE).dup.entries[LINE] = DupEntry()
        with pytest.raises(AssertionError, match="no sharer and no owner"):
            node.audit_duplicate_tags()
