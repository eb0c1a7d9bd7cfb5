"""Memory-system message and transaction types shared by core modules."""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional


class AccessKind(enum.IntEnum):
    """CPU-issued memory access kinds."""

    IFETCH = 0
    LOAD = 1
    STORE = 2
    #: Alpha ``wh64`` write hint: the processor will write the whole cache
    #: line, so the protocol's *exclusive-without-data* request type can
    #: skip fetching the line's current contents (Section 2.5.3).
    WH64 = 3
    #: Load-locked / store-conditional (Alpha ldx_l/stx_c) used by the ISA
    #: examples; they follow the LOAD/STORE coherence paths.
    LOAD_LOCKED = 4
    STORE_COND = 5
    #: Alpha memory barrier: with eager exclusive replies (ownership
    #: granted before all invalidations complete), an MB is what waits for
    #: the outstanding invalidation acknowledgements (Section 2.5.3).
    MEMBAR = 6


class MESI(enum.IntEnum):
    """Line states kept in the 2-bit per-line field of every L1 (§2.1)."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


class ReplySource(enum.IntEnum):
    """Where an access was ultimately serviced — drives the Figure 5
    stall breakdown and the Figure 6b miss decomposition."""

    L1_HIT = 0
    L2_HIT = 1        # serviced by the shared L2
    L2_FWD = 2        # forwarded to and serviced by another on-chip L1
    LOCAL_MEM = 3     # home-local memory
    REMOTE_MEM = 4    # 2-hop remote home memory
    REMOTE_DIRTY = 5  # 3-hop remote dirty owner


#: Sources that count as on-chip L2-level service in Figure 5's breakdown.
ON_CHIP_SOURCES = frozenset({ReplySource.L2_HIT, ReplySource.L2_FWD})
#: Sources that count as L2 misses (memory service).
MEMORY_SOURCES = frozenset(
    {ReplySource.LOCAL_MEM, ReplySource.REMOTE_MEM, ReplySource.REMOTE_DIRTY}
)


class RequestType(enum.IntEnum):
    """Coherence request types (Section 2.5.3)."""

    READ = 0
    READ_EXCLUSIVE = 1
    EXCLUSIVE = 2           # upgrade: requester already holds a shared copy
    EXCLUSIVE_NO_DATA = 3   # wh64
    WRITEBACK = 4


# Enum members bound to module-level names once.  The per-miss code
# (request_for() below, cpu.py, l1.py, l2.py, the warmer) and the
# workload generators import these instead of
# reading ``MESI.SHARED`` and the like: on Python 3.11 every member read off
# an enum class runs ``EnumType.__getattr__``'s Python-level hook.
IFETCH = AccessKind.IFETCH
LOAD = AccessKind.LOAD
STORE = AccessKind.STORE
WH64 = AccessKind.WH64
MEMBAR = AccessKind.MEMBAR
INVALID = MESI.INVALID
SHARED = MESI.SHARED
EXCLUSIVE = MESI.EXCLUSIVE
MODIFIED = MESI.MODIFIED
READ = RequestType.READ
READ_EXCLUSIVE = RequestType.READ_EXCLUSIVE
#: ``RequestType.EXCLUSIVE``: the upgrade of a shared copy
UPGRADE = RequestType.EXCLUSIVE
EXCLUSIVE_NO_DATA = RequestType.EXCLUSIVE_NO_DATA
L2_HIT = ReplySource.L2_HIT
L2_FWD = ReplySource.L2_FWD
LOCAL_MEM = ReplySource.LOCAL_MEM
REMOTE_MEM = ReplySource.REMOTE_MEM
REMOTE_DIRTY = ReplySource.REMOTE_DIRTY

#: accesses that need only a readable copy
_READ_KINDS = frozenset({IFETCH, LOAD, AccessKind.LOAD_LOCKED})


def request_for(kind: AccessKind, current: MESI) -> RequestType:
    """Map a CPU access that missed (or needs an upgrade) in its L1 to the
    coherence request type it must issue."""
    if kind in _READ_KINDS:
        return READ
    if kind == WH64:
        return EXCLUSIVE_NO_DATA
    if current == SHARED:
        return UPGRADE
    return READ_EXCLUSIVE


class CacheId:
    """Identity of one first-level cache: (cpu index, instruction/data).

    Encoded as ``cpu * 2 + (0 if data else 1)`` so dup-tag sharer maps key
    on small integers.  :meth:`encode` is the only place that
    layout is written: requests, the warming path and the chip's
    cache-id -> L1 table all go through it.
    """

    __slots__ = ()

    @staticmethod
    def encode(cpu: int, is_instr: bool) -> int:
        return cpu * 2 + (1 if is_instr else 0)


_txn_ids = itertools.count(1)


class MemRequest:
    """One CPU access travelling through the memory system.

    ``done(latency_ps, source)`` is invoked exactly once when the access
    completes; the issuing CPU uses it to account stall time.

    ``cache_id`` (the requesting L1's :class:`CacheId`) is computed once
    here, so the L2 controller never re-derives it per hop.
    """

    __slots__ = ("cpu_id", "kind", "addr", "is_instr", "done", "node",
                 "cache_id", "txn_id", "issue_time", "source", "probe")

    def __init__(self, cpu_id: int, kind: AccessKind, addr: int,
                 is_instr: bool, done: Callable[[int, ReplySource], None],
                 node: int = 0) -> None:
        self.cpu_id = cpu_id
        self.kind = kind
        self.addr = addr
        self.is_instr = is_instr
        self.done = done
        self.node = node
        self.cache_id = CacheId.encode(cpu_id, is_instr)
        #: global issue sequence (probes sample by it)
        self.txn_id = next(_txn_ids)
        self.issue_time = 0
        #: filled in when the request completes (for tracing/tests)
        self.source: Optional[ReplySource] = None
        #: sampled-latency probe riding this transaction; None for the
        #: other N-1 of every N misses (and always when probes are
        #: disabled), so every instrumentation point guards with
        #: ``if probe is not None``
        self.probe: Optional[object] = None

    def complete(self, now_ps: int, source: ReplySource) -> None:
        if self.source is not None:
            raise RuntimeError(f"request {self.txn_id} completed twice")
        self.source = source
        if self.probe is not None:
            self.probe.finish(now_ps, source)
        self.done(now_ps - self.issue_time, source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemRequest(cpu={self.cpu_id}, {self.kind.name}, "
            f"addr={self.addr:#x}, txn={self.txn_id})"
        )
