"""Protocol-engine microcode: instruction set, assembler, sequencer.

Section 2.5.1: the home and remote engines are *microprogrammable*
controllers in the style of the S3.mp protocol engines.  The microcode
memory holds 1024 21-bit instructions; each instruction is a 3-bit opcode,
two 4-bit arguments, and a 10-bit next-instruction address.  Seven
instruction types exist: SEND, RECEIVE, LSEND (to local node), LRECEIVE
(from local node), TEST, SET and MOVE.  RECEIVE, LRECEIVE and TEST are
multi-way conditional branches with up to 16 successors, achieved by OR-ing
a 4-bit condition code into the low bits of the next-address field.

The protocol is written at a slightly higher level with symbolic arguments
(:mod:`repro.core.microprograms`), and this module's assembler performs
the translation and mapping into the microcode store — including the
16-aligned branch tables the OR-based dispatch requires (built from MOVE
no-op trampolines, which are themselves ordinary microinstructions).

The sequencer charges one 500 MHz engine cycle per microinstruction; the
hardware's even/odd thread interleave keeps that throughput while hiding
the fetch of the next instruction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

MICROSTORE_WORDS = 1024
INSTRUCTION_BITS = 21
OPCODE_BITS = 3
ARG_BITS = 4
NEXT_BITS = 10
CONDITION_WAYS = 16


class Op(enum.IntEnum):
    """The seven microinstruction types."""

    SEND = 0      # emit a message onto the external interconnect
    RECEIVE = 1   # suspend until an external message arrives (16-way branch)
    LSEND = 2     # emit a message to a module on the local node
    LRECEIVE = 3  # suspend until a local message arrives (16-way branch)
    TEST = 4      # evaluate a condition (16-way branch)
    SET = 5       # perform a state-modifying action on the TSRF/directory
    MOVE = 6      # move between TSRF registers (arg1==arg2==0: no-op/jump)


class MicrocodeError(Exception):
    """Assembly or execution error in protocol microcode."""


@dataclass(frozen=True)
class Word:
    """One encoded 21-bit microinstruction."""

    op: Op
    arg1: int
    arg2: int
    next_addr: int

    def encode(self) -> int:
        for value, bits, what in (
            (self.arg1, ARG_BITS, "arg1"),
            (self.arg2, ARG_BITS, "arg2"),
            (self.next_addr, NEXT_BITS, "next"),
        ):
            if not 0 <= value < (1 << bits):
                raise MicrocodeError(f"{what}={value} exceeds {bits} bits")
        return (
            (int(self.op) << (ARG_BITS * 2 + NEXT_BITS))
            | (self.arg1 << (ARG_BITS + NEXT_BITS))
            | (self.arg2 << NEXT_BITS)
            | self.next_addr
        )

    @staticmethod
    def decode(encoded: int) -> "Word":
        if not 0 <= encoded < (1 << INSTRUCTION_BITS):
            raise MicrocodeError("encoded word exceeds 21 bits")
        return Word(
            op=Op(encoded >> (ARG_BITS * 2 + NEXT_BITS)),
            arg1=(encoded >> (ARG_BITS + NEXT_BITS)) & 0xF,
            arg2=(encoded >> NEXT_BITS) & 0xF,
            next_addr=encoded & ((1 << NEXT_BITS) - 1),
        )


#: Terminal next-address: thread completes and its TSRF entry is freed.
#: (Address 1023 is reserved by convention.)
END = MICROSTORE_WORDS - 1


@dataclass
class Instr:
    """One symbolic (pre-assembly) instruction.

    * ``next``: label of the successor for straight-line ops; ``None``
      falls through to the following instruction; the special label
      ``"end"`` terminates the thread (its TSRF entry is freed).
    * ``targets``: for branching ops, maps condition code -> label.  A
      ``None`` key supplies the default for unlisted codes.
    """

    op: Op
    arg1: str = ""
    arg2: int = 0
    label: Optional[str] = None
    next: Optional[str] = None
    targets: Optional[Dict[Optional[int], str]] = None

    def is_branch(self) -> bool:
        return self.op in (Op.RECEIVE, Op.LRECEIVE, Op.TEST)


@dataclass
class Program:
    """An assembled microprogram."""

    name: str
    store: List[Optional[Word]]
    entry_points: Dict[str, int]
    #: symbol tables used at execution time
    conditions: Dict[str, int]
    actions: Dict[str, int]
    messages: Dict[str, int]
    symbolic_count: int = 0

    @property
    def words_used(self) -> int:
        return sum(1 for w in self.store if w is not None)


class Assembler:
    """Translate a symbolic protocol program into the 1024-word store.

    Symbol spaces (each limited to 16 entries by the 4-bit argument
    fields): *conditions* (TEST selectors), *actions* (SET selectors) and
    *messages* (SEND/LSEND kinds).  RECEIVE/LRECEIVE dispatch on the
    arriving message kind, so their condition codes are message ids.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.conditions: Dict[str, int] = {}
        self.actions: Dict[str, int] = {}
        self.messages: Dict[str, int] = {}

    def _intern(self, table: Dict[str, int], sym: str, what: str) -> int:
        if sym not in table:
            if len(table) >= CONDITION_WAYS:
                raise MicrocodeError(
                    f"{what} table overflow: 4-bit arguments allow only 16 "
                    f"entries ({sorted(table)} + {sym!r})"
                )
            table[sym] = len(table)
        return table[sym]

    def message_id(self, sym: str) -> int:
        return self._intern(self.messages, sym, "message")

    def condition_id(self, sym: str) -> int:
        return self._intern(self.conditions, sym, "condition")

    def action_id(self, sym: str) -> int:
        return self._intern(self.actions, sym, "action")

    def assemble(self, instrs: Sequence[Instr]) -> Program:
        """Lay out instructions and branch tables into the microstore."""
        # 1. assign sequential addresses to the symbolic instructions
        labels: Dict[str, int] = {}
        for i, ins in enumerate(instrs):
            if ins.label is not None:
                if ins.label in labels:
                    raise MicrocodeError(f"duplicate label {ins.label!r}")
                labels[ins.label] = i
        n = len(instrs)
        if n >= MICROSTORE_WORDS:
            raise MicrocodeError("program exceeds the 1024-word microstore")

        # 2. allocate 16-aligned branch tables after the code
        table_base = -(-n // CONDITION_WAYS) * CONDITION_WAYS
        branch_tables: List[Tuple[int, Instr]] = []
        for ins in instrs:
            if ins.is_branch():
                if not ins.targets:
                    raise MicrocodeError(f"branch {ins} lacks targets")
                branch_tables.append((table_base, ins))
                table_base += CONDITION_WAYS
        if table_base >= MICROSTORE_WORDS:
            raise MicrocodeError(
                f"program + branch tables ({table_base} words) exceed the "
                f"microstore"
            )

        store: List[Optional[Word]] = [None] * MICROSTORE_WORDS

        def resolve(label: Optional[str]) -> int:
            if label is None or label == "end":
                return END
            try:
                return labels[label]
            except KeyError:
                raise MicrocodeError(f"undefined label {label!r}") from None

        # 3. encode instructions
        table_iter = iter(branch_tables)
        for addr, ins in enumerate(instrs):
            if ins.is_branch():
                base, _ = next(table_iter)
                if ins.op == Op.TEST:
                    arg1 = self.condition_id(ins.arg1)
                else:
                    arg1 = 0  # dispatch code supplied by the arriving message
                store[addr] = Word(ins.op, arg1, ins.arg2, base)
                # trampolines: MOVE no-ops whose next field is the target
                default = ins.targets.get(None)
                for code in range(CONDITION_WAYS):
                    label = ins.targets.get(code, default)
                    if label is None:
                        continue  # unreachable code -> unprogrammed slot
                    store[base + code] = Word(Op.MOVE, 0, 0, resolve(label))
            else:
                if ins.op in (Op.SEND, Op.LSEND):
                    arg1 = self.message_id(ins.arg1)
                elif ins.op == Op.SET:
                    arg1 = self.action_id(ins.arg1)
                elif ins.op == Op.MOVE:
                    arg1 = self._intern(self.actions, ins.arg1, "action") if ins.arg1 else 0
                else:  # pragma: no cover - exhaustive
                    raise MicrocodeError(f"unhandled op {ins.op}")
                if ins.next is None:
                    if addr + 1 >= n:
                        raise MicrocodeError(
                            f"instruction {addr} falls through past the end "
                            f"of the program (use next='end')"
                        )
                    nxt = addr + 1  # implicit fall-through
                else:
                    nxt = resolve(ins.next)
                store[addr] = Word(ins.op, arg1, ins.arg2, nxt)

        entry_points = dict(labels)
        return Program(
            name=self.name,
            store=store,
            entry_points=entry_points,
            conditions=dict(self.conditions),
            actions=dict(self.actions),
            messages=dict(self.messages),
            symbolic_count=len(instrs),
        )


class Environment:
    """Execution-time binding of microcode symbols to node behaviour.

    The protocol engine supplies an Environment per thread execution;
    the sequencer calls back into it for every SEND/LSEND/SET/MOVE/TEST.
    All callbacks receive the thread's TSRF entry.
    """

    def __init__(self) -> None:
        self.senders: Dict[int, Callable] = {}
        self.local_senders: Dict[int, Callable] = {}
        self.conditions: Dict[int, Callable] = {}
        self.actions: Dict[int, Callable] = {}

    @classmethod
    def bind(
        cls,
        program: Program,
        senders: Dict[str, Callable],
        local_senders: Dict[str, Callable],
        conditions: Dict[str, Callable],
        actions: Dict[str, Callable],
    ) -> "Environment":
        """Match the program's symbol tables against handler dicts."""
        env = cls()
        for table, handlers, out, what in (
            (program.messages, senders, env.senders, "SEND"),
            (program.messages, local_senders, env.local_senders, "LSEND"),
            (program.conditions, conditions, env.conditions, "TEST"),
            (program.actions, actions, env.actions, "SET"),
        ):
            for sym, idx in table.items():
                if sym in handlers:
                    out[idx] = handlers[sym]
        missing_conditions = set(program.conditions.values()) - set(env.conditions)
        if missing_conditions:
            names = [s for s, i in program.conditions.items() if i in missing_conditions]
            raise MicrocodeError(f"unbound TEST conditions: {names}")
        return env


class StepResult(enum.Enum):
    """Why the sequencer stopped advancing a thread."""

    BLOCKED_EXTERNAL = "blocked_external"   # at a RECEIVE
    BLOCKED_LOCAL = "blocked_local"         # at an LRECEIVE
    DONE = "done"                           # reached END


#: Decoded-op kinds of :class:`Sequencer`'s table, one per way an
#: instruction advances the thread.
_JUMP = 0       # MOVE no-op (branch trampoline) or MOVE with no action
_CALL = 1       # SEND/LSEND: handler(entry)
_CALL_ARG = 2   # SET, or MOVE with a bound action: handler(entry, arg2)
_TEST = 3       # 16-way branch on handler(entry)
_RECV = 4       # RECEIVE: park until an external message arrives
_LRECV = 5      # LRECEIVE: park until a local message arrives
_END = 6        # the terminal address
_BAD = 7        # unprogrammed word


class _Unbound:
    """Handler slot for a SEND/LSEND/SET symbol the environment left
    unbound: the error is raised when the instruction executes, not when
    the program is bound (a program may carry paths a node never takes).
    A class rather than a closure so decoded tables pickle as-is."""

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def __call__(self, *_args) -> None:
        raise MicrocodeError(self.message)


def _decode(program: Program, env: Environment) -> List[tuple]:
    """One ``(kind, handler, arg2, next)`` tuple per microstore address,
    with each word's handler resolved against *env* once."""
    table = [(_BAD, None, 0, 0)] * MICROSTORE_WORDS
    table[END] = (_END, None, 0, END)
    bound = {
        Op.TEST: (_TEST, env.conditions, "TEST condition id"),
        Op.SET: (_CALL_ARG, env.actions, "SET action id"),
        Op.SEND: (_CALL, env.senders, "SEND id"),
        Op.LSEND: (_CALL, env.local_senders, "LSEND id"),
    }
    for pc, word in enumerate(program.store[:END]):
        if word is None:
            continue
        op, arg1, arg2, nxt = word.op, word.arg1, word.arg2, word.next_addr
        if op == Op.RECEIVE:
            table[pc] = (_RECV, None, arg2, nxt)
        elif op == Op.LRECEIVE:
            table[pc] = (_LRECV, None, arg2, nxt)
        elif op == Op.MOVE:
            action = env.actions.get(arg1) if (arg1 or arg2) else None
            table[pc] = ((_JUMP, None, arg2, nxt) if action is None
                         else (_CALL_ARG, action, arg2, nxt))
        else:
            kind, handlers, what = bound[op]
            handler = handlers.get(arg1)
            if handler is None:
                handler = _Unbound(f"unbound {what} {arg1} at {pc}")
            table[pc] = (kind, handler, arg2, nxt)
    return table


class Sequencer:
    """Executes microcode for one thread until it blocks or completes.

    Returns the number of microinstructions executed (the engine charges
    one cycle each) plus the reason for stopping.  The engine resource
    model and thread scheduling live in
    :class:`repro.core.protocol_engine.ProtocolEngine`.

    The microstore is decoded once, at construction, into a per-address
    table of ``(kind, handler, arg2, next)`` with every symbol already
    bound to its handler — the generated-simulator idea of decoding each
    instruction once rather than on every execution.  ``run`` then only
    unpacks a tuple and branches on a small int per microinstruction.
    """

    def __init__(self, program: Program, env: Environment) -> None:
        self.program = program
        self.env = env
        self.table = _decode(program, env)

    def accepts(self, pc: int, code: int) -> bool:
        """True when the RECEIVE/LRECEIVE at *pc* has a programmed
        branch-table slot for dispatch *code*."""
        return self.program.store[self.table[pc][3] | (code & 0xF)] is not None

    def run(self, entry: "TsrfEntryLike", dispatch_code: Optional[int] = None
            ) -> Tuple[int, StepResult]:
        table = self.table
        pc = entry.pc
        if not 0 <= pc < MICROSTORE_WORDS:
            raise MicrocodeError(f"PC {pc} outside microstore")
        executed = 0
        # A thread resuming from RECEIVE/LRECEIVE branches through the
        # table slot selected by the arriving message's condition code.
        if dispatch_code is not None:
            kind, _, _, nxt = table[pc]
            if kind != _RECV and kind != _LRECV:
                if kind == _BAD or kind == _END:
                    raise MicrocodeError(
                        f"jump into unprogrammed address {pc}")
                raise MicrocodeError(
                    f"dispatch into non-receive instruction at {pc}"
                )
            executed = 1  # the RECEIVE itself retires now
            pc = nxt | (dispatch_code & 0xF)
        while True:
            kind, handler, arg2, nxt = table[pc]
            if kind == _JUMP:
                pc = nxt
            elif kind == _CALL:
                handler(entry)
                pc = nxt
            elif kind == _CALL_ARG:
                handler(entry, arg2)
                pc = nxt
            elif kind == _TEST:
                pc = nxt | (int(handler(entry)) & 0xF)
            elif kind == _END:
                entry.pc = END
                return executed, StepResult.DONE
            elif kind == _RECV:
                entry.pc = pc  # re-dispatched with a code when woken
                return executed, StepResult.BLOCKED_EXTERNAL
            elif kind == _LRECV:
                entry.pc = pc
                return executed, StepResult.BLOCKED_LOCAL
            else:
                raise MicrocodeError(f"jump into unprogrammed address {pc}")
            executed += 1


class TsrfEntryLike:
    """Protocol for objects the sequencer manipulates (see tsrf.py)."""

    pc: int
