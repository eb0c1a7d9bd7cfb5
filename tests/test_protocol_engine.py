"""Scenario tests for the inter-node protocol through the microcoded
engines (§2.5), on a two-node system with requests driven directly."""

import pytest

from repro.core import (
    MESI,
    AccessKind,
    CoherenceChecker,
    PiranhaSystem,
    ReplySource,
    preset,
)
from repro.core.directory import DirState
from repro.core.messages import MemRequest, request_for


@pytest.fixture
def system():
    return PiranhaSystem(preset("P2"), num_nodes=2,
                         checker=CoherenceChecker())


def issue(system, node, cpu, kind, addr):
    out = {}

    def done(latency_ps, source):
        out["latency_ns"] = latency_ps / 1000.0
        out["source"] = source

    req = MemRequest(cpu_id=cpu, kind=kind, addr=addr, is_instr=False,
                     done=done, node=node)
    req.issue_time = system.sim.now
    system.nodes[node].issue_miss(req, request_for(kind, MESI.INVALID))
    system.sim.run()
    return out["latency_ns"], out["source"]


HOME0 = 0x0000   # homed at node 0
HOME1 = 0x2000   # homed at node 1


class TestRemoteRead:
    def test_two_hop_read_from_home_memory(self, system):
        latency, source = issue(system, 1, 0, AccessKind.LOAD, HOME0)
        assert source == ReplySource.REMOTE_MEM
        # Table 1 target is 120 ns for adjacent nodes
        assert latency == pytest.approx(120.0, rel=0.25)

    def test_clean_exclusive_grant(self, system):
        issue(system, 1, 0, AccessKind.LOAD, HOME0)
        assert system.nodes[1].l1d[0].peek(HOME0).state == MESI.EXCLUSIVE
        direntry = system.dirstores[0].read(HOME0)
        assert direntry.state == DirState.EXCLUSIVE
        assert direntry.owner == 1

    def test_shared_grant_when_another_node_shares(self, system):
        """A second reader gets S, and the directory lists both."""
        # make node1 a *shared* holder: read from node1, then downgrade via
        # a read at the home node (3-hop local fetch)
        issue(system, 1, 0, AccessKind.LOAD, HOME0)
        issue(system, 0, 0, AccessKind.LOAD, HOME0)
        direntry = system.dirstores[0].read(HOME0)
        assert direntry.state in (DirState.SHARED, DirState.UNCACHED)

    def test_local_read_stays_off_the_engines(self, system):
        """Partial directory interpretation: a purely local miss never
        touches the protocol engines."""
        he = system.nodes[0].home_engine
        re = system.nodes[0].remote_engine
        before = he.c_threads.value + re.c_threads.value
        latency, source = issue(system, 0, 0, AccessKind.LOAD, HOME0)
        assert source == ReplySource.LOCAL_MEM
        assert he.c_threads.value + re.c_threads.value == before


class TestThreeHopDirty:
    def test_remote_dirty_read_forwards_from_owner(self, system):
        issue(system, 1, 0, AccessKind.STORE, HOME0)  # node1 owns dirty
        latency, source = issue(system, 0, 0, AccessKind.LOAD, HOME0)
        assert source == ReplySource.REMOTE_DIRTY
        assert latency == pytest.approx(180.0, rel=0.30)

    def test_reply_forwarding_updates_directory_immediately(self, system):
        issue(system, 1, 0, AccessKind.STORE, HOME0)
        issue(system, 0, 0, AccessKind.LOAD, HOME0)
        # after the 3-hop read the old owner remains a sharer
        direntry = system.dirstores[0].read(HOME0)
        assert direntry.state in (DirState.SHARED, DirState.UNCACHED)
        # ... and the dirty data reached home memory (sharing write-back)
        assert system.mem_versions.get(HOME0, 0) >= 1

    def test_dirty_data_version_travels(self, system):
        issue(system, 1, 0, AccessKind.STORE, HOME0)
        issue(system, 0, 0, AccessKind.LOAD, HOME0)
        reader_line = system.nodes[0].l1d[0].peek(HOME0)
        assert reader_line.version == 1

    def test_three_hop_write(self, system):
        issue(system, 1, 0, AccessKind.STORE, HOME0)
        latency, source = issue(system, 0, 0, AccessKind.STORE, HOME0)
        assert source == ReplySource.REMOTE_DIRTY
        assert system.nodes[1].l1d[0].peek(HOME0) is None  # invalidated
        assert system.nodes[0].l1d[0].peek(HOME0).state == MESI.MODIFIED


class TestInvalidation:
    def test_write_invalidates_remote_sharers(self, system):
        issue(system, 1, 0, AccessKind.LOAD, HOME0)   # node1 E
        issue(system, 0, 0, AccessKind.LOAD, HOME0)   # both S
        issue(system, 0, 0, AccessKind.STORE, HOME0)  # home writes
        system.sim.run()
        assert system.nodes[1].l1d[0].peek(HOME0) is None
        direntry = system.dirstores[0].read(HOME0)
        assert direntry.state == DirState.UNCACHED  # home owner untracked

    def test_inval_acks_complete(self, system):
        issue(system, 1, 0, AccessKind.LOAD, HOME0)
        issue(system, 0, 0, AccessKind.LOAD, HOME0)
        issue(system, 0, 0, AccessKind.STORE, HOME0)
        system.sim.run()
        assert system.nodes[0].c_acks_completed.value >= 1


class TestWriteback:
    def test_dirty_l2_victim_writes_back_to_remote_home(self, system):
        issue(system, 1, 0, AccessKind.STORE, HOME0)
        node1 = system.nodes[1]
        bank = node1.bank_for(HOME0)
        # evict from L1 (owner -> L2 victim fill)
        l1 = node1.l1d[0]
        stride = l1.num_sets * 64
        issue(system, 1, 0, AccessKind.LOAD, HOME0 + stride)
        issue(system, 1, 0, AccessKind.LOAD, HOME0 + 2 * stride)
        assert bank._l2_line(HOME0) is not None
        # force the L2 set full so HOME0's line is displaced
        l2_stride = bank.num_sets * 8 * 64  # bank-set stride
        for i in range(1, 9):
            addr = HOME0 + i * l2_stride
            issue(system, 1, 0, AccessKind.STORE, addr)
            issue(system, 1, 0, AccessKind.LOAD, addr + stride)
            issue(system, 1, 0, AccessKind.LOAD, addr + 2 * stride)
        system.sim.run()
        # the line left node 1 and its data reached home
        assert system.mem_versions.get(HOME0, 0) >= 1
        assert system.dirstores[0].read(HOME0).state == DirState.UNCACHED
        assert not bank.wb_buffer  # ack released the buffer

    def test_checker_clean(self, system):
        issue(system, 0, 0, AccessKind.STORE, HOME1)
        issue(system, 1, 0, AccessKind.STORE, HOME0)
        issue(system, 0, 0, AccessKind.LOAD, HOME0)
        issue(system, 1, 0, AccessKind.LOAD, HOME1)
        system.sim.run()
        system.checker.verify_quiesced()


class TestEngineAccounting:
    def test_remote_read_engine_instruction_counts(self, system):
        issue(system, 1, 0, AccessKind.LOAD, HOME0)
        re = system.nodes[1].remote_engine
        he = system.nodes[0].home_engine
        # the paper's 4-instruction remote-read path (+ branch trampolines)
        assert 4 <= re.c_instructions.value <= 8
        assert he.c_threads.value == 1
        assert he.c_instructions.value >= 4

    def test_tsrf_freed_after_transaction(self, system):
        issue(system, 1, 0, AccessKind.LOAD, HOME0)
        assert system.nodes[1].remote_engine.tsrf.occupancy() == 0
        assert system.nodes[0].home_engine.tsrf.occupancy() == 0

    def test_wh64_remote(self, system):
        latency, source = issue(system, 1, 0, AccessKind.WH64, HOME0)
        assert source == ReplySource.REMOTE_MEM
        assert system.nodes[1].l1d[0].peek(HOME0).state == MESI.MODIFIED


def lreceive_accepting(engine, kind):
    """Address of an LRECEIVE in *engine*'s program with a branch-table
    slot for local message *kind*."""
    from repro.core.microcode import Op
    from repro.core.microprograms import LOCAL_MSG

    store = engine.program.store
    for pc, word in enumerate(store):
        if (word is not None and word.op == Op.LRECEIVE
                and store[word.next_addr | LOCAL_MSG[kind]] is not None):
            return pc
    raise AssertionError(f"no LRECEIVE accepts {kind}")


class TestRetriedBankResponses:
    """A bank response that arrives while its thread is still mid-burst
    is re-posted one engine cycle later and must land with its updates."""

    @pytest.fixture
    def p8x2(self):
        return PiranhaSystem(preset("P8"), num_nodes=2)

    @staticmethod
    def record_starts(engine):
        started = []
        engine._start = lambda entry, code: started.append(
            (entry, code, engine.sim.now))
        return started

    def test_resume_entry_retry_keeps_updates(self, p8x2):
        from repro.core.microprograms import LOCAL_MSG

        eng = p8x2.nodes[0].remote_engine
        started = self.record_starts(eng)
        entry = eng.tsrf.allocate(0x1000, lreceive_accepting(eng, "BANK_DATA"),
                                  p8x2.sim.now)
        assert entry.waiting is None            # still mid-burst
        eng.resume_entry(entry, "BANK_DATA", version=3)
        assert started == []                    # parked, not lost
        entry.waiting = "local"                 # the burst parks the thread
        p8x2.sim.run()
        assert started == [(entry, LOCAL_MSG["BANK_DATA"], eng.INSTR_PS)]
        assert entry.vars["version"] == 3
        assert entry.waiting is None

    def test_resume_local_retry_keeps_updates(self, p8x2):
        from repro.core.microprograms import LOCAL_MSG

        eng = p8x2.nodes[0].home_engine
        started = self.record_starts(eng)
        pc = lreceive_accepting(eng, "HOME_DIRTY")
        eng.resume_local(0x1000, "HOME_DIRTY", version=5, owner=1)
        assert started == []                    # no waiter parked yet
        entry = eng.tsrf.allocate(0x1000, pc, p8x2.sim.now)
        entry.waiting = "local"
        p8x2.sim.run()
        assert started == [(entry, LOCAL_MSG["HOME_DIRTY"], eng.INSTR_PS)]
        assert entry.vars["version"] == 5
        assert entry.vars["owner"] == 1
        assert entry.waiting is None
