"""Unit tests for the microcode ISA, assembler and sequencer (§2.5.1)."""

import pytest

from repro.core.microcode import (
    END,
    MICROSTORE_WORDS,
    Assembler,
    Environment,
    Instr,
    MicrocodeError,
    Op,
    Sequencer,
    StepResult,
    Word,
)
from repro.core.tsrf import TsrfEntry


class TestWordEncoding:
    def test_21_bit_roundtrip(self):
        word = Word(Op.SEND, arg1=5, arg2=9, next_addr=1000)
        encoded = word.encode()
        assert 0 <= encoded < (1 << 21)
        assert Word.decode(encoded) == word

    def test_all_opcodes_roundtrip(self):
        for op in Op:
            word = Word(op, 1, 2, 3)
            assert Word.decode(word.encode()).op == op

    def test_field_overflow_rejected(self):
        with pytest.raises(MicrocodeError):
            Word(Op.SEND, arg1=16, arg2=0, next_addr=0).encode()
        with pytest.raises(MicrocodeError):
            Word(Op.SEND, arg1=0, arg2=0, next_addr=1024).encode()

    def test_decode_rejects_wide_word(self):
        with pytest.raises(MicrocodeError):
            Word.decode(1 << 21)


def assemble_simple():
    asm = Assembler("test")
    program = asm.assemble([
        Instr(Op.SET, "init", label="start"),
        Instr(Op.SEND, "ping"),
        Instr(Op.RECEIVE, targets={3: "got"}),
        Instr(Op.SET, "finish", label="got", next="end"),
    ])
    return program


class TestAssembler:
    def test_entry_points(self):
        program = assemble_simple()
        assert program.entry_points["start"] == 0
        assert program.entry_points["got"] == 3

    def test_fallthrough_chain(self):
        program = assemble_simple()
        assert program.store[0].next_addr == 1
        assert program.store[1].next_addr == 2

    def test_branch_table_aligned(self):
        program = assemble_simple()
        receive = program.store[2]
        assert receive.next_addr % 16 == 0
        # slot 3 is a MOVE trampoline jumping to 'got'
        tramp = program.store[receive.next_addr | 3]
        assert tramp.op == Op.MOVE
        assert tramp.next_addr == 3

    def test_unused_branch_slots_unprogrammed(self):
        program = assemble_simple()
        receive = program.store[2]
        assert program.store[receive.next_addr | 7] is None

    def test_terminal_goes_to_end(self):
        program = assemble_simple()
        assert program.store[3].next_addr == END

    def test_duplicate_label_rejected(self):
        asm = Assembler("dup")
        with pytest.raises(MicrocodeError):
            asm.assemble([
                Instr(Op.SET, "a", label="x", next="end"),
                Instr(Op.SET, "b", label="x", next="end"),
            ])

    def test_undefined_label_rejected(self):
        asm = Assembler("bad")
        with pytest.raises(MicrocodeError):
            asm.assemble([Instr(Op.SET, "a", next="nowhere")])

    def test_fallthrough_off_the_end_rejected(self):
        asm = Assembler("bad")
        with pytest.raises(MicrocodeError):
            asm.assemble([Instr(Op.SET, "a")])

    def test_symbol_table_limited_to_16(self):
        asm = Assembler("wide")
        instrs = [Instr(Op.SET, f"act{i}") for i in range(17)]
        instrs[-1] = Instr(Op.SET, "act16", next="end")
        with pytest.raises(MicrocodeError):
            asm.assemble(instrs)

    def test_branch_without_targets_rejected(self):
        asm = Assembler("bad")
        with pytest.raises(MicrocodeError):
            asm.assemble([Instr(Op.RECEIVE)])

    def test_default_target(self):
        asm = Assembler("default")
        program = asm.assemble([
            Instr(Op.TEST, "c", label="t",
                  targets={0: "zero", None: "other"}),
            Instr(Op.SET, "a", label="zero", next="end"),
            Instr(Op.SET, "b", label="other", next="end"),
        ])
        base = program.store[0].next_addr
        assert program.store[base | 0].next_addr == 1
        for code in range(1, 16):
            assert program.store[base | code].next_addr == 2


def run_program(instrs, handlers=None, entry="start", dispatch=None,
                vars=None):
    asm = Assembler("t")
    program = asm.assemble(instrs)
    handlers = handlers or {}
    env = Environment.bind(
        program,
        senders=handlers.get("send", {}),
        local_senders=handlers.get("lsend", {}),
        conditions=handlers.get("test", {}),
        actions=handlers.get("set", {}),
    )
    seq = Sequencer(program, env)
    entry_obj = TsrfEntry(0)
    entry_obj.valid = True
    entry_obj.pc = program.entry_points[entry]
    entry_obj.vars = vars if vars is not None else {}
    executed, result = seq.run(entry_obj, dispatch)
    return executed, result, entry_obj


class TestSequencer:
    def test_straight_line_counts_instructions(self):
        log = []
        executed, result, _ = run_program(
            [
                Instr(Op.SET, "a", label="start"),
                Instr(Op.SET, "b", next="end"),
            ],
            handlers={"set": {
                "a": lambda e, op: log.append("a"),
                "b": lambda e, op: log.append("b"),
            }},
        )
        assert executed == 2
        assert result is StepResult.DONE
        assert log == ["a", "b"]

    def test_blocks_at_receive(self):
        executed, result, entry = run_program(
            [
                Instr(Op.SEND, "ping", label="start"),
                Instr(Op.RECEIVE, targets={1: "done"}),
                Instr(Op.SET, "x", label="done", next="end"),
            ],
            handlers={"send": {"ping": lambda e: None},
                      "set": {"x": lambda e, op: None}},
        )
        assert result is StepResult.BLOCKED_EXTERNAL
        assert executed == 1
        assert entry.pc == 1  # parked at the RECEIVE

    def test_blocks_at_lreceive(self):
        _, result, _ = run_program(
            [
                Instr(Op.LSEND, "ask", label="start"),
                Instr(Op.LRECEIVE, targets={0: "done"}),
                Instr(Op.SET, "x", label="done", next="end"),
            ],
            handlers={"lsend": {"ask": lambda e: None},
                      "set": {"x": lambda e, op: None}},
        )
        assert result is StepResult.BLOCKED_LOCAL

    def test_multiway_test_dispatch(self):
        taken = []
        instrs = [
            Instr(Op.TEST, "sel", label="start",
                  targets={0: "zero", 1: "one", None: "many"}),
            Instr(Op.SET, "z", label="zero", next="end"),
            Instr(Op.SET, "o", label="one", next="end"),
            Instr(Op.SET, "m", label="many", next="end"),
        ]
        for value, expect in ((0, "z"), (1, "o"), (7, "m")):
            taken.clear()
            run_program(
                instrs,
                handlers={
                    "test": {"sel": lambda e, v=value: v},
                    "set": {k: (lambda tag: lambda e, op: taken.append(tag))(k)
                            for k in ("z", "o", "m")},
                },
            )
            assert taken == [expect]

    def test_resume_with_dispatch_code(self):
        got = []
        instrs = [
            Instr(Op.RECEIVE, label="start", targets={5: "handle"}),
            Instr(Op.SET, "h", label="handle", next="end"),
        ]
        executed, result, _ = run_program(
            instrs,
            handlers={"set": {"h": lambda e, op: got.append(1)}},
            dispatch=5,
        )
        assert result is StepResult.DONE
        assert got == [1]
        # RECEIVE retires (1) + trampoline (1) + SET (1)
        assert executed == 3

    def test_unbound_condition_rejected_at_bind(self):
        asm = Assembler("t")
        program = asm.assemble([
            Instr(Op.TEST, "mystery", label="start", targets={None: "start"}),
        ])
        with pytest.raises(MicrocodeError):
            Environment.bind(program, {}, {}, {}, {})

    def test_jump_into_unprogrammed_address(self):
        _, _, entry = run_program(
            [Instr(Op.RECEIVE, label="start", targets={1: "start"})],
        )
        with pytest.raises(MicrocodeError):
            # dispatch code 2 has no trampoline
            run_program(
                [Instr(Op.RECEIVE, label="start", targets={1: "start"})],
                dispatch=2,
            )


class TestSequencerErrors:
    """The decoded sequencer reports the same faults as the microstore
    itself: unbound symbols when they execute, bad jumps and bad
    dispatches when they happen."""

    @pytest.mark.parametrize("op, kind", [
        (Op.SEND, "send"), (Op.LSEND, "lsend"), (Op.SET, "set")])
    def test_unbound_symbol_raises_when_executed(self, op, kind):
        program = Assembler("t").assemble([
            Instr(Op.TEST, "sel", label="start",
                  targets={0: "safe", 1: "unbound"}),
            Instr(Op.SET, "ok", label="safe", next="end"),
            Instr(op, "mystery", label="unbound", next="end"),
        ])
        handlers = {"test": {"sel": lambda e: e.vars["path"]},
                    "set": {"ok": lambda e, op: None}}
        # binding (and decoding) accept the program ...
        env = Environment.bind(program, {}, {}, handlers["test"],
                               handlers["set"])
        seq = Sequencer(program, env)
        # ... a run that avoids the unbound word completes ...
        entry = TsrfEntry(0)
        entry.valid, entry.pc, entry.vars = True, 0, {"path": 0}
        assert seq.run(entry) == (3, StepResult.DONE)  # TEST, jump, SET
        # ... and the one that reaches it fails there
        entry.pc, entry.vars = 0, {"path": 1}
        with pytest.raises(MicrocodeError, match=rf"unbound {op.name}"):
            seq.run(entry)

    def test_test_into_unprogrammed_slot(self):
        with pytest.raises(MicrocodeError, match="unprogrammed address"):
            run_program(
                [Instr(Op.TEST, "sel", label="start", targets={0: "done"}),
                 Instr(Op.SET, "x", label="done", next="end")],
                handlers={"test": {"sel": lambda e: 5},
                          "set": {"x": lambda e, op: None}},
            )

    def test_dispatch_into_non_receive(self):
        with pytest.raises(MicrocodeError, match="non-receive"):
            run_program(
                [Instr(Op.SET, "x", label="start", next="end")],
                handlers={"set": {"x": lambda e, op: None}},
                dispatch=1,
            )

    def test_pc_outside_microstore(self):
        program = Assembler("t").assemble(
            [Instr(Op.MOVE, label="start", next="end")])
        entry = TsrfEntry(0)
        entry.pc = MICROSTORE_WORDS
        with pytest.raises(MicrocodeError, match="outside microstore"):
            Sequencer(program, Environment.bind(program, {}, {}, {}, {})
                      ).run(entry)
