"""Property-based tests for the microcode assembler/sequencer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.microcode import (
    END,
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

encodable = st.builds(
    Word,
    op=st.sampled_from(list(Op)),
    arg1=st.integers(0, 15),
    arg2=st.integers(0, 15),
    next_addr=st.integers(0, 1023),
)


class TestWordProperties:
    @given(encodable)
    def test_roundtrip(self, word):
        assert Word.decode(word.encode()) == word

    @given(encodable)
    def test_fits_21_bits(self, word):
        assert 0 <= word.encode() < (1 << 21)

    @given(encodable, encodable)
    def test_injective(self, a, b):
        if a != b:
            assert a.encode() != b.encode()


def straight_line_program(n_actions):
    """A chain of SET instructions ending at END."""
    instrs = [Instr(Op.SET, f"a{i}") for i in range(n_actions)]
    instrs[0].label = "start"
    instrs[-1].next = "end"
    return instrs


class TestSequencerProperties:
    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=14))
    def test_straight_line_executes_all(self, n):
        asm = Assembler("p")
        program = asm.assemble(straight_line_program(n))
        fired = []
        env = Environment.bind(
            program, {}, {}, {},
            {f"a{i}": (lambda tag: lambda e, op: fired.append(tag))(i)
             for i in range(n)},
        )
        entry = TsrfEntry(0)
        entry.valid = True
        entry.pc = program.entry_points["start"]
        executed, _ = Sequencer(program, env).run(entry)
        assert executed == n
        assert fired == list(range(n))

    @settings(max_examples=30)
    @given(st.dictionaries(st.integers(0, 15), st.just("target"),
                           min_size=1, max_size=16),
           st.integers(0, 15))
    def test_branch_tables_dispatch_exactly(self, targets, code):
        """A TEST with an arbitrary target map dispatches to 'hit' iff the
        code is mapped, and the unmapped codes are unreachable."""
        asm = Assembler("p")
        program = asm.assemble([
            Instr(Op.TEST, "sel", label="start", targets=dict(targets)),
            Instr(Op.SET, "hit", label="target", next="end"),
        ])
        fired = []
        env = Environment.bind(
            program, {}, {},
            {"sel": lambda e: code},
            {"hit": lambda e, op: fired.append(1)},
        )
        entry = TsrfEntry(0)
        entry.valid = True
        entry.pc = program.entry_points["start"]
        seq = Sequencer(program, env)
        if code in targets:
            seq.run(entry)
            assert fired == [1]
        else:
            try:
                seq.run(entry)
            except Exception:
                pass  # unprogrammed slot: detected, not silently wrong
            assert fired == []

    @settings(max_examples=20)
    @given(st.integers(1, 10))
    def test_microstore_usage_accounting(self, n):
        asm = Assembler("p")
        program = asm.assemble(straight_line_program(n))
        assert program.words_used == n


# -- decode-once sequencer vs a word-at-a-time reference ----------------------


def word_at(program, pc):
    """The word at *pc* of *program*'s store; an unprogrammed one is a
    fault."""
    word = program.store[pc]
    if word is None:
        raise MicrocodeError(f"jump into unprogrammed address {pc}")
    return word


def reference_run(program, env, entry, dispatch_code=None):
    """Step *program* one word at a time through its store and *env*'s
    symbol tables: the plain interpreter the decoded :class:`Sequencer`
    must agree with."""
    executed = 0
    pc = entry.pc
    if dispatch_code is not None:
        word = word_at(program, pc)
        if word.op not in (Op.RECEIVE, Op.LRECEIVE):
            raise MicrocodeError(f"dispatch into non-receive instruction at {pc}")
        executed += 1
        pc = word.next_addr | (dispatch_code & 0xF)
    while True:
        if pc == END:
            entry.pc = END
            return executed, StepResult.DONE
        word = word_at(program, pc)
        if word.op in (Op.RECEIVE, Op.LRECEIVE):
            entry.pc = pc
            return executed, (StepResult.BLOCKED_EXTERNAL
                              if word.op == Op.RECEIVE
                              else StepResult.BLOCKED_LOCAL)
        executed += 1
        if word.op == Op.TEST:
            pc = word.next_addr | (int(env.conditions[word.arg1](entry)) & 0xF)
            continue
        if word.op == Op.MOVE:
            action = (env.actions.get(word.arg1)
                      if word.arg1 or word.arg2 else None)
            if action is not None:
                action(entry, word.arg2)
        else:
            table, what, args = {
                Op.SET: (env.actions, "SET action id", (word.arg2,)),
                Op.SEND: (env.senders, "SEND id", ()),
                Op.LSEND: (env.local_senders, "LSEND id", ()),
            }[word.op]
            handler = table.get(word.arg1)
            if handler is None:
                raise MicrocodeError(f"unbound {what} {word.arg1} at {pc}")
            handler(entry, *args)
        pc = word.next_addr


SYMBOLS = ("s0", "s1", "s2", "s3")
STRAIGHT_OPS = (Op.SET, Op.SEND, Op.LSEND, Op.MOVE)
BRANCH_OPS = (Op.TEST, Op.RECEIVE, Op.LRECEIVE)


@st.composite
def random_programs(draw):
    """A forward-only (so always terminating) program of random ops.

    Branch targets and ``next`` fields only point later in the program or
    at ``end``; some branch codes are left unmapped (jumps into
    unprogrammed words) and some symbols are left unbound."""
    n = draw(st.integers(1, 16))
    labels = [f"L{i}" for i in range(n)]
    instrs = []
    for i in range(n):
        later = st.sampled_from(labels[i + 1:] + ["end"])
        op = draw(st.sampled_from(STRAIGHT_OPS + BRANCH_OPS))
        if op in BRANCH_OPS:
            targets = draw(st.dictionaries(
                st.one_of(st.none(), st.integers(0, 15)), later,
                min_size=1, max_size=4))
            instrs.append(Instr(op, draw(st.sampled_from(SYMBOLS))
                                if op == Op.TEST else "",
                                arg2=draw(st.integers(0, 15)),
                                label=labels[i], targets=targets))
            continue
        if op == Op.MOVE and draw(st.booleans()):
            arg1, arg2 = "", 0                       # a plain jump
        else:
            arg1, arg2 = draw(st.sampled_from(SYMBOLS)), draw(st.integers(0, 15))
        nxt = draw(later) if i + 1 < n else "end"
        if i + 1 < n and draw(st.booleans()):
            nxt = None                               # fall through
        instrs.append(Instr(op, arg1, arg2=arg2, label=labels[i], next=nxt))
    # mostly bound, so runs go deep before any fault
    bound = set(SYMBOLS) - draw(st.sets(st.sampled_from(SYMBOLS), max_size=1))
    codes = draw(st.lists(st.integers(0, 31), min_size=1, max_size=8))
    start = draw(st.sampled_from(labels))
    # resume a parked thread, or (rarely) dispatch into a non-RECEIVE
    receiving = instrs[labels.index(start)].op in (Op.RECEIVE, Op.LRECEIVE)
    dispatch = None
    if draw(st.integers(0, 9)) >= (3 if receiving else 9):
        dispatch = draw(st.integers(0, 15))
    return instrs, bound, codes, start, dispatch


def logging_env(program, bound, codes, log):
    """Bind every symbol in *bound* to a handler that appends its call to
    *log*; TEST conditions return *codes* in turn."""
    def sender(kind, sym):
        return lambda e: log.append((kind, sym))

    def action(sym):
        return lambda e, op: log.append(("set", sym, op))

    def condition(sym):
        def test(e):
            log.append(("test", sym))
            return codes[sum(1 for c in log if c[0] == "test") % len(codes)]
        return test

    return Environment.bind(
        program,
        {s: sender("send", s) for s in bound},
        {s: sender("lsend", s) for s in bound},
        {s: condition(s) for s in SYMBOLS},
        {s: action(s) for s in bound},
    )


def outcome(run, program, env, start, dispatch, log):
    entry = TsrfEntry(0)
    entry.valid = True
    entry.pc = program.entry_points[start]
    try:
        result = run(entry, dispatch)
    except MicrocodeError as exc:
        return ("error", str(exc), list(log))
    return ("ok", result, entry.pc, list(log))


class TestDecodedSequencerMatchesReference:
    @settings(max_examples=300)
    @given(random_programs())
    def test_same_steps_results_and_calls(self, case):
        instrs, bound, codes, start, dispatch = case
        program = Assembler("p").assemble(instrs)
        ref_log, seq_log = [], []
        ref_env = logging_env(program, bound, codes, ref_log)
        seq_env = logging_env(program, bound, codes, seq_log)
        expected = outcome(
            lambda e, d: reference_run(program, ref_env, e, d),
            program, ref_env, start, dispatch, ref_log)
        got = outcome(Sequencer(program, seq_env).run,
                      program, seq_env, start, dispatch, seq_log)
        assert got == expected
