"""Integration tests: assembled programs on the timing simulator."""

import pytest

from repro.core import CoherenceChecker, PiranhaSystem, preset
from repro.isa import (
    SharedMemory,
    assemble,
    make_isa_workload,
    spinlock_increment,
)

LOCK, COUNTER = 0x4000, 0x4080
BUF, FLAG = 0x5000, 0x5080


def vector_sum(base: int, count: int) -> list:
    """Sum ``count`` quadwords starting at ``base`` into r1; halt."""
    return assemble(f"""
        lda   r2, {base}(r31)       ; pointer
        lda   r3, {count}(r31)      ; counter
        bis   r31, r31, r1          ; sum = 0
    loop:
        ldq   r4, 0(r2)
        addq  r1, r4, r1
        lda   r2, 8(r2)
        subq  r3, #1, r3
        bne   r3, loop
        halt
    """)


def memcpy_wh64(src: int, dst: int, lines: int) -> list:
    """Copy ``lines`` cache lines using the wh64 write hint on the
    destination (the classic copy-routine use of exclusive-without-data)."""
    return assemble(f"""
        lda   r1, {src}(r31)
        lda   r2, {dst}(r31)
        lda   r3, {lines}(r31)
    line:
        wh64  0(r2)                 ; take the whole line without fetching it
        lda   r4, 8(r31)            ; 8 quadwords per line
    qw:
        ldq   r5, 0(r1)
        stq   r5, 0(r2)
        lda   r1, 8(r1)
        lda   r2, 8(r2)
        subq  r4, #1, r4
        bne   r4, qw
        subq  r3, #1, r3
        bne   r3, line
        halt
    """)


def producer(buffer: int, flagaddr: int, value: int) -> list:
    """Write a value then raise the flag (message-passing producer)."""
    return assemble(f"""
        lda   r1, {buffer}(r31)
        lda   r2, {value}(r31)
        stq   r2, 0(r1)
        lda   r3, {flagaddr}(r31)
        lda   r4, 1(r31)
        stq   r4, 0(r3)
        halt
    """)


def consumer(buffer: int, flagaddr: int) -> list:
    """Spin on the flag, then read the value into r5."""
    return assemble(f"""
        lda   r3, {flagaddr}(r31)
    wait:
        ldq   r4, 0(r3)
        beq   r4, wait
        lda   r1, {buffer}(r31)
        ldq   r5, 0(r1)
        halt
    """)


def run_programs(programs, config="P4", nodes=1, memory=None):
    workload, cpus, mem = make_isa_workload(programs, memory=memory)
    checker = CoherenceChecker()
    system = PiranhaSystem(preset(config), num_nodes=nodes, checker=checker)
    system.attach_workload(workload)
    finish = system.run_to_completion()
    checker.verify_quiesced()
    return system, cpus, mem, finish


class TestSpinlock:
    def test_four_cpus_serialise_correctly(self):
        programs = {(0, c): spinlock_increment(LOCK, COUNTER, 20)
                    for c in range(4)}
        system, cpus, mem, _ = run_programs(programs)
        assert mem.load_q(COUNTER) == 80

    def test_lock_contention_produces_communication(self):
        programs = {(0, c): spinlock_increment(LOCK, COUNTER, 15)
                    for c in range(4)}
        system, _, mem, _ = run_programs(programs)
        assert system.miss_breakdown()["l2_fwd"] > 0

    def test_across_nodes(self):
        programs = {(n, c): spinlock_increment(LOCK, COUNTER, 8)
                    for n in range(2) for c in range(2)}
        system, _, mem, _ = run_programs(programs, config="P2", nodes=2)
        assert mem.load_q(COUNTER) == 32
        assert any(n.c_packets_sent.value for n in system.nodes)


class TestProducerConsumer:
    def test_message_passes(self):
        programs = {
            (0, 0): producer(BUF, FLAG, 1234),
            (0, 1): consumer(BUF, FLAG),
        }
        _, cpus, mem, _ = run_programs(programs)
        assert cpus[(0, 1)].state.regs[5] == 1234

    def test_across_nodes(self):
        programs = {
            (0, 0): producer(BUF, FLAG, 77),
            (1, 0): consumer(BUF, FLAG),
        }
        _, cpus, mem, _ = run_programs(programs, config="P1", nodes=2)
        assert cpus[(1, 0)].state.regs[5] == 77


class TestKernels:
    def test_vector_sum_timing_matches_functional(self):
        mem = SharedMemory()
        for i in range(64):
            mem.store_q(0x6000 + i * 8, i * 3)
        programs = {(0, 0): vector_sum(0x6000, 64)}
        _, cpus, _, finish = run_programs(programs, memory=mem)
        assert cpus[(0, 0)].state.regs[1] == sum(i * 3 for i in range(64))
        assert finish > 0

    def test_memcpy_wh64_issues_write_hints(self):
        mem = SharedMemory()
        for i in range(64):
            mem.store_q(0x6000 + i * 8, 0xBEEF + i)
        programs = {(0, 0): memcpy_wh64(0x6000, 0x7000, 8)}
        system, _, mem, _ = run_programs(programs, memory=mem)
        for i in range(64):
            assert mem.load_q(0x7000 + i * 8) == 0xBEEF + i
        assert system.nodes[0].cpus[0].c_wh64.value == 8

    def test_wh64_faster_than_plain_copy(self):
        """The write hint skips fetching destination lines: fewer memory
        stalls than a load/store-only copy."""
        def copy_no_hint(src, dst, lines):
            return assemble(f"""
                lda   r1, {src}(r31)
                lda   r2, {dst}(r31)
                lda   r3, {lines}(r31)
            line:
                lda   r4, 8(r31)
            qw:
                ldq   r5, 0(r1)
                stq   r5, 0(r2)
                lda   r1, 8(r1)
                lda   r2, 8(r2)
                subq  r4, #1, r4
                bne   r4, qw
                subq  r3, #1, r3
                bne   r3, line
                halt
            """)

        def time_copy(prog):
            mem = SharedMemory()
            for i in range(16 * 8):
                mem.store_q(0x6000 + i * 8, i)
            _, _, _, finish = run_programs({(0, 0): prog}, memory=mem)
            return finish

        with_hint = time_copy(memcpy_wh64(0x6000, 0x7800, 16))
        without = time_copy(copy_no_hint(0x6000, 0x7800, 16))
        assert with_hint < without
