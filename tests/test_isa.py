"""Unit tests for the Alpha-like subset ISA."""

import pytest

from repro.isa import (
    AssemblyError,
    FunctionalCpu,
    Instruction,
    Mnemonic,
    SharedMemory,
    assemble,
    decode,
    encode,
    spinlock_increment,
)

from .integration.test_isa_programs import memcpy_wh64, vector_sum


class TestEncoding:
    @pytest.mark.parametrize("instr", [
        Instruction(Mnemonic.LDQ, ra=1, rb=2, disp=-8),
        Instruction(Mnemonic.STQ, ra=31, rb=0, disp=32767),
        Instruction(Mnemonic.LDA, ra=5, rb=31, disp=-32768),
        Instruction(Mnemonic.ADDQ, ra=1, rb=2, rc=3),
        Instruction(Mnemonic.SUBQ, ra=1, literal=255, rc=3),
        Instruction(Mnemonic.CMPLE, ra=9, rb=10, rc=11),
        Instruction(Mnemonic.BNE, ra=3, disp=-1048576),
        Instruction(Mnemonic.BR, disp=1048575),
        Instruction(Mnemonic.WH64, rb=2, disp=64),
        Instruction(Mnemonic.LDQ_L, ra=1, rb=2),
        Instruction(Mnemonic.STQ_C, ra=1, rb=2),
        Instruction(Mnemonic.JMP, rb=7),
        Instruction(Mnemonic.HALT),
        Instruction(Mnemonic.NOP),
    ])
    def test_roundtrip(self, instr):
        assert decode(encode(instr)) == instr

    def test_words_are_32_bit(self):
        word = encode(Instruction(Mnemonic.MULQ, ra=31, rb=31, rc=31))
        assert 0 <= word < (1 << 32)

    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            Instruction(Mnemonic.ADDQ, ra=32)

    def test_literal_range_checked(self):
        with pytest.raises(ValueError):
            Instruction(Mnemonic.ADDQ, literal=256)


class TestAssembler:
    def test_label_resolution(self):
        words = assemble("""
        start:  addq r1, #1, r1
                bne  r1, start
                halt
        """)
        assert len(words) == 3
        instr = decode(words[1])
        assert instr.mnem == Mnemonic.BNE
        assert instr.disp == -2

    def test_comments_and_blank_lines(self):
        words = assemble("""
            ; a comment
            nop       ; trailing

            halt
        """)
        assert len(words) == 2

    def test_memory_operand(self):
        instr = decode(assemble("ldq r1, -16(r2)")[0])
        assert instr.ra == 1 and instr.rb == 2 and instr.disp == -16

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            assemble("frobnicate r1, r2, r3")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            assemble("x: nop\nx: halt")

    def test_bad_register(self):
        with pytest.raises(AssemblyError):
            assemble("addq r32, #1, r1")

    def test_numeric_branch_displacement(self):
        instr = decode(assemble("br 5")[0])
        assert instr.disp == 5


class TestFunctionalExecution:
    def test_arithmetic(self):
        mem = SharedMemory()
        cpu = FunctionalCpu(assemble("""
            lda   r1, 100(r31)
            lda   r2, 23(r31)
            addq  r1, r2, r3
            subq  r1, r2, r4
            mulq  r1, r2, r5
            and   r1, r2, r6
            bis   r1, r2, r7
            xor   r1, r2, r8
            halt
        """), mem)
        st = cpu.run()
        assert st.regs[3] == 123
        assert st.regs[4] == 77
        assert st.regs[5] == 2300
        assert st.regs[6] == 100 & 23
        assert st.regs[7] == 100 | 23
        assert st.regs[8] == 100 ^ 23

    def test_shifts_and_compares(self):
        cpu = FunctionalCpu(assemble("""
            lda   r1, 5(r31)
            sll   r1, #3, r2
            srl   r2, #1, r3
            cmpeq r1, #5, r4
            cmplt r1, #4, r5
            cmple r1, #5, r6
            halt
        """), SharedMemory())
        st = cpu.run()
        assert st.regs[2] == 40
        assert st.regs[3] == 20
        assert st.regs[4] == 1
        assert st.regs[5] == 0
        assert st.regs[6] == 1

    def test_r31_is_zero(self):
        cpu = FunctionalCpu(assemble("""
            lda   r31, 99(r31)
            addq  r31, #1, r1
            halt
        """), SharedMemory())
        st = cpu.run()
        assert st.regs[1] == 1

    def test_loads_and_stores(self):
        mem = SharedMemory()
        mem.store_q(0x100, 42)
        cpu = FunctionalCpu(assemble("""
            lda r2, 0x100(r31)
            ldq r1, 0(r2)
            addq r1, #1, r1
            stq r1, 8(r2)
            halt
        """), mem)
        cpu.run()
        assert mem.load_q(0x108) == 43

    def test_vector_sum_program(self):
        mem = SharedMemory()
        for i in range(20):
            mem.store_q(0x400 + i * 8, i)
        cpu = FunctionalCpu(vector_sum(0x400, 20), mem)
        assert cpu.run().regs[1] == sum(range(20))

    def test_memcpy_wh64_program(self):
        mem = SharedMemory()
        for i in range(16):
            mem.store_q(0x800 + i * 8, 0x1111 * (i + 1))
        FunctionalCpu(memcpy_wh64(0x800, 0x1000, 2), mem).run()
        for i in range(16):
            assert mem.load_q(0x1000 + i * 8) == 0x1111 * (i + 1)

    def test_nonterminating_program_capped(self):
        cpu = FunctionalCpu(assemble("x: br x"), SharedMemory())
        with pytest.raises(RuntimeError):
            cpu.run(max_instructions=100)


class TestLoadLockedStoreConditional:
    def test_uncontended_succeeds(self):
        mem = SharedMemory()
        cpu = FunctionalCpu(assemble("""
            lda   r2, 0x100(r31)
            ldq_l r1, 0(r2)
            addq  r1, #1, r1
            stq_c r1, 0(r2)
            halt
        """), mem, agent=0)
        st = cpu.run()
        assert st.regs[1] == 1  # success flag
        assert mem.load_q(0x100) == 1

    def test_intervening_store_breaks_lock(self):
        mem = SharedMemory()
        mem.store_q(0x100, 0)
        value = mem.load_locked(agent=0, addr=0x100)
        mem.store_q(0x100, 99)  # another agent writes the line
        assert not mem.store_conditional(agent=0, addr=0x100, value=value + 1)
        assert mem.load_q(0x100) == 99

    def test_spinlock_functional(self):
        mem = SharedMemory()
        FunctionalCpu(spinlock_increment(0x200, 0x240, 5), mem).run()
        assert mem.load_q(0x240) == 5

    def test_unaligned_access_rejected(self):
        with pytest.raises(ValueError):
            SharedMemory().load_q(0x101)
