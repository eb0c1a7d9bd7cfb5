"""System-interconnect packet formats (Section 2.6).

Two packet types exist on the wire: the **Short** packet is a 128-bit
header used for all data-less transactions; the **Long** packet carries the
same header plus a 64-byte (512-bit) data section.  At 64 data bits per
500 MHz system clock, packets serialise in 2 or 10 interconnect clock
cycles respectively — exactly the figures the paper quotes.

The model keeps the header's fields, not its bits; the 4-bit packet type
field is what the input queue's *disposition vector* indexes to steer
arriving packets to their target module (Section 2.6.2).
"""

from __future__ import annotations

import enum
from typing import Optional


class Lane(enum.IntEnum):
    """Virtual lanes used for deadlock avoidance (Section 2.5.3).

    The low-priority lane (L) carries requests sent to a home node (except
    writebacks/replacements, which use H); the high-priority lane (H)
    carries forwarded requests and all replies; the I/O lane is reserved
    for I/O traffic.
    """

    IO = 0
    L = 1
    H = 2


class PacketType(enum.IntEnum):
    """The 16 major packet types (4-bit wire encoding)."""

    # Requests to a home node (lane L)
    READ = 0
    READ_EXCLUSIVE = 1
    EXCLUSIVE = 2          # requester already holds a shared copy
    EXCLUSIVE_NO_DATA = 3  # Alpha wh64 write-hint: full-line write
    WRITEBACK = 4          # to home; uses lane H per the paper
    # Forwarded requests (lane H)
    FWD_READ = 5
    FWD_READ_EXCLUSIVE = 6
    INVALIDATE = 7
    CMI_INVALIDATE = 8     # cruise-missile invalidation chain
    # Replies (lane H)
    DATA_REPLY = 9
    DATA_EXCLUSIVE_REPLY = 10
    ACK_REPLY = 11         # e.g. exclusive upgrade granted, no data
    INVAL_ACK = 12
    WRITEBACK_ACK = 13
    # Miscellaneous
    INTERRUPT = 14
    CONTROL = 15           # system-controller / initialisation traffic


#: Packet types that carry a 64-byte data section (Long packets).
DATA_BEARING = frozenset(
    {
        PacketType.WRITEBACK,
        PacketType.DATA_REPLY,
        PacketType.DATA_EXCLUSIVE_REPLY,
    }
)

#: Default lane assignment per packet type (Section 2.5.3).
DEFAULT_LANE = {
    PacketType.READ: Lane.L,
    PacketType.READ_EXCLUSIVE: Lane.L,
    PacketType.EXCLUSIVE: Lane.L,
    PacketType.EXCLUSIVE_NO_DATA: Lane.L,
    PacketType.WRITEBACK: Lane.H,
    PacketType.FWD_READ: Lane.H,
    PacketType.FWD_READ_EXCLUSIVE: Lane.H,
    PacketType.INVALIDATE: Lane.H,
    PacketType.CMI_INVALIDATE: Lane.H,
    PacketType.DATA_REPLY: Lane.H,
    PacketType.DATA_EXCLUSIVE_REPLY: Lane.H,
    PacketType.ACK_REPLY: Lane.H,
    PacketType.INVAL_ACK: Lane.H,
    PacketType.WRITEBACK_ACK: Lane.H,
    PacketType.INTERRUPT: Lane.IO,
    PacketType.CONTROL: Lane.IO,
}

SHORT_BITS = 128
LONG_BITS = 128 + 512
#: serialisation time at 64 data bits per 500 MHz interconnect cycle
SHORT_CYCLES = SHORT_BITS // 64
LONG_CYCLES = LONG_BITS // 64

#: lane and data flag per packet type, indexed by the 4-bit type code:
#: the tables ``Packet.__init__`` reads instead of the enum-keyed mappings
_LANE_OF = tuple(DEFAULT_LANE[ptype] for ptype in PacketType)
_DATA_OF = tuple(ptype in DATA_BEARING for ptype in PacketType)


class Packet:
    """One interconnect packet.

    ``route`` and ``info`` carry model-level bookkeeping (a CMI visit chain,
    a directory snapshot travelling with a forwarded request, inval-ack
    counts) that in hardware lives in the reserved header bits or the data
    section; they do not change the wire size accounting.  ``probe`` is
    the sampled-latency probe riding the owning transaction (bookkeeping
    like ``info``); almost always None, and instrumentation guards with
    ``is not None``.

    Slotted, with the lane and data flag read from per-type tables:
    every protocol message builds one.
    """

    __slots__ = ("ptype", "src", "dst", "addr", "txn_id", "lane",
                 "priority", "age", "has_data", "route", "info",
                 "inject_time", "probe")

    def __init__(self, ptype: PacketType, src: int, dst: int, addr: int = 0,
                 txn_id: int = 0, lane: Optional[Lane] = None,
                 priority: int = 1, age: int = 0,
                 has_data: Optional[bool] = None, route: tuple = (),
                 info: Optional[dict] = None, inject_time: int = 0,
                 probe: Optional[object] = None) -> None:
        if not 0 <= priority < 4:
            raise ValueError(f"priority must be 0..3, got {priority}")
        self.ptype = ptype
        self.src = src
        self.dst = dst
        self.addr = addr
        self.txn_id = txn_id
        self.lane = _LANE_OF[ptype] if lane is None else lane
        self.priority = priority
        self.age = age
        self.has_data = _DATA_OF[ptype] if has_data is None else has_data
        self.route = route
        self.info = {} if info is None else info
        self.inject_time = inject_time
        self.probe = probe

    @property
    def size_bits(self) -> int:
        """Wire size: Short (128) or Long (640) packet."""
        return LONG_BITS if self.has_data else SHORT_BITS

    @property
    def wire_cycles(self) -> int:
        """Serialisation time in 500 MHz interconnect clock cycles (2 / 10)."""
        return LONG_CYCLES if self.has_data else SHORT_CYCLES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.ptype.name}, {self.src}->{self.dst}, "
            f"addr={self.addr:#x}, txn={self.txn_id})"
        )
