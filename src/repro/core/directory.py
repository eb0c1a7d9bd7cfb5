"""Directory storage in the memory's ECC bits (Section 2.5.2).

Piranha stores inter-node directory information with virtually no memory
overhead by computing ECC across 256-bit boundaries instead of the typical
64-bit, freeing 44 bits per 64-byte line.  Two bits encode the directory
state; the remaining 42 bits encode the sharers using either a
**limited-pointer** representation (up to four 10-bit node pointers in a
1 K-node system) or a **coarse-vector** representation (each of the 42 bits
stands for a group of nodes) once a line has more than four remote sharers.

The directory never tracks sharers at the home node itself (the home
node's on-chip duplicate tags / L2 state cover those), and it tracks nodes,
not individual CPUs.

This module implements the 44-bit encoding bit-exactly — every directory
read/write in the simulator round-trips through it — plus the ECC
accounting that justifies the "free" storage claim.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

#: Bits freed per 64-byte line by widening the ECC granularity.
DIRECTORY_BITS = 44
STATE_BITS = 2
SHARER_BITS = DIRECTORY_BITS - STATE_BITS  # 42
#: Node-pointer width for a 1 K-node system.
POINTER_BITS = 10
#: Maximum remote sharers representable with limited pointers.
MAX_POINTERS = SHARER_BITS // POINTER_BITS  # 4

_STATE_SHIFT = SHARER_BITS
_SHARER_MASK = (1 << SHARER_BITS) - 1


class DirState(enum.IntEnum):
    """2-bit directory states."""

    UNCACHED = 0         # no remote copies
    SHARED = 1           # remote read-only copies (limited pointers)
    SHARED_COARSE = 2    # remote read-only copies (coarse vector)
    EXCLUSIVE = 3        # one remote node holds the line dirty/exclusive


#: the states by their 2-bit code, and bound to module names (the
#: codec and the protocol handlers compare them on every message)
_STATES = tuple(DirState)
DIR_UNCACHED = DirState.UNCACHED
DIR_SHARED = DirState.SHARED
DIR_SHARED_COARSE = DirState.SHARED_COARSE
DIR_EXCLUSIVE = DirState.EXCLUSIVE


class DirectoryEntry(NamedTuple):
    """Decoded directory contents for one line (immutable; a named tuple
    because the protocol engines build one per read and update)."""

    state: DirState
    sharers: FrozenSet[int]   # remote nodes (exact for pointers, superset
                              # of reality for coarse vector)
    owner: Optional[int]      # remote owner node when EXCLUSIVE

    @staticmethod
    def uncached() -> "DirectoryEntry":
        """The empty entry (one shared instance)."""
        return _UNCACHED


_UNCACHED = DirectoryEntry(DIR_UNCACHED, frozenset(), None)


def coarse_group(node: int, num_nodes: int) -> int:
    """Coarse-vector bit covering *node* in a *num_nodes* system."""
    nodes_per_bit = -(-num_nodes // SHARER_BITS)  # ceil
    return node // nodes_per_bit


def coarse_members(bit: int, num_nodes: int) -> Tuple[int, ...]:
    """Nodes covered by coarse-vector *bit*."""
    nodes_per_bit = -(-num_nodes // SHARER_BITS)
    lo = bit * nodes_per_bit
    return tuple(range(lo, min(lo + nodes_per_bit, num_nodes)))


def encode(entry: DirectoryEntry, num_nodes: int) -> int:
    """Encode a directory entry into its 44-bit in-ECC representation."""
    state = entry.state
    if state == DIR_UNCACHED:
        return DIR_UNCACHED << _STATE_SHIFT
    if state == DIR_EXCLUSIVE:
        if entry.owner is None:
            raise ValueError("EXCLUSIVE entry needs an owner")
        if not 0 <= entry.owner < num_nodes:
            raise ValueError(f"owner {entry.owner} out of range")
        return (DIR_EXCLUSIVE << _STATE_SHIFT) | entry.owner
    sharers = sorted(entry.sharers)
    if state == DIR_SHARED:
        if not sharers:
            raise ValueError("SHARED entry needs at least one sharer")
        if len(sharers) > MAX_POINTERS:
            raise ValueError(
                f"limited-pointer form holds at most {MAX_POINTERS} sharers"
            )
        # Exactly 42 bits: a 2-bit (count-1) field plus four 10-bit
        # pointers.  SHARED implies at least one sharer, so count-1 fits.
        field = (len(sharers) - 1) << (MAX_POINTERS * POINTER_BITS)
        for i, node in enumerate(sharers):
            if not 0 <= node < num_nodes:
                raise ValueError(f"sharer {node} out of range")
            field |= node << (i * POINTER_BITS)
        return (DIR_SHARED << _STATE_SHIFT) | field
    # Coarse vector
    field = 0
    for node in sharers:
        field |= 1 << coarse_group(node, num_nodes)
    return (DIR_SHARED_COARSE << _STATE_SHIFT) | field


def decode(bits: int, num_nodes: int) -> DirectoryEntry:
    """Decode the 44-bit representation back into a directory entry.

    Coarse-vector entries decode to the *superset* of nodes their set bits
    cover — exactly the over-invalidation behaviour real coarse vectors
    exhibit.
    """
    if not 0 <= bits < (1 << DIRECTORY_BITS):
        raise ValueError(f"directory field must fit in {DIRECTORY_BITS} bits")
    state = _STATES[bits >> _STATE_SHIFT]
    field = bits & _SHARER_MASK
    if state == DIR_UNCACHED:
        return _UNCACHED
    if state == DIR_EXCLUSIVE:
        return DirectoryEntry(state, frozenset({field}), field)
    if state == DIR_SHARED:
        count = (field >> (MAX_POINTERS * POINTER_BITS)) + 1
        sharers = set()
        for i in range(count):
            sharers.add((field >> (i * POINTER_BITS)) & ((1 << POINTER_BITS) - 1))
        return DirectoryEntry(state, frozenset(sharers), None)
    sharers = set()
    for bit in range(SHARER_BITS):
        if field & (1 << bit):
            sharers.update(coarse_members(bit, num_nodes))
    return DirectoryEntry(state, frozenset(sharers), None)


def add_sharer(entry: DirectoryEntry, node: int, num_nodes: int) -> DirectoryEntry:
    """Add a remote sharer, switching representations when the limited
    pointers overflow (past 4 remote sharing nodes in a 1 K system)."""
    sharers = set(entry.sharers) | {node}
    if entry.state == DIR_SHARED_COARSE or len(sharers) > MAX_POINTERS:
        return DirectoryEntry(DIR_SHARED_COARSE, frozenset(sharers), None)
    return DirectoryEntry(DIR_SHARED, frozenset(sharers), None)


def make_exclusive(node: int, local: bool = False) -> DirectoryEntry:
    """Grant *node* the line exclusively.  A *local* requester (the home
    node itself) is never tracked: the home's on-chip state covers it."""
    if local:
        return _UNCACHED
    return DirectoryEntry(DIR_EXCLUSIVE, frozenset({node}), node)


def share_with_owner(owner: int, node: int, local: bool,
                     exclusive: bool) -> DirectoryEntry:
    """The home forwarded *node*'s request to the remote *owner* (3-hop).
    An *exclusive* request moves ownership to the requester; a read
    leaves owner and requester sharing, a *local* requester untracked."""
    if exclusive:
        return make_exclusive(node, local)
    return DirectoryEntry(
        DIR_SHARED, frozenset((owner,) if local else (owner, node)), None)


def remove_sharer(entry: DirectoryEntry, node: int) -> DirectoryEntry:
    """*node* wrote the line back or gave its copy up.  A late write-back
    (the home already granted the line to another owner; the forward
    crossed the write-back in flight) leaves the entry as it is.  The
    remaining sharers go back to limited pointers once they fit."""
    if entry.state == DIR_EXCLUSIVE and entry.owner != node:
        return entry
    remaining = entry.sharers - {node}
    if not remaining:
        return _UNCACHED
    return DirectoryEntry(
        DIR_SHARED if len(remaining) <= MAX_POINTERS else DIR_SHARED_COARSE,
        remaining, None)


class DirectoryStore:
    """Home-side directory for the lines whose home is one node.

    Backed by a plain dict but every read/write round-trips through the
    44-bit codec so representation limits (pointer overflow, coarse-vector
    over-invalidation) are honoured, and a modelled line is exactly as
    expressive as the hardware's ECC-resident bits.
    """

    def __init__(self, node: int, num_nodes: int) -> None:
        self.node = node
        self.num_nodes = num_nodes
        self._bits: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def read(self, line: int) -> DirectoryEntry:
        self.reads += 1
        bits = self._bits.get(line)
        if bits is None:
            return _UNCACHED
        return decode(bits, self.num_nodes)

    def write(self, line: int, entry: DirectoryEntry) -> None:
        self.writes += 1
        if entry.state == DIR_UNCACHED:
            self._bits.pop(line, None)
        else:
            self._bits[line] = encode(entry, self.num_nodes)

    def items(self):
        """Iterate ``(line, DirectoryEntry)`` over every non-UNCACHED line
        (decoded through the 44-bit codec; used by the protocol
        sanitizer's cross-consistency audit).  Does not bump ``reads`` —
        auditing must not perturb the access statistics it audits."""
        for line, bits in self._bits.items():
            yield line, decode(bits, self.num_nodes)


def ecc_accounting(line_bytes: int = 64) -> Dict[str, int]:
    """Reproduce the ECC-widening arithmetic of Section 2.5.2.

    SEC-DED ECC over k data bits needs r check bits with 2**r >= k + r + 1.
    64-bit granularity needs 8 check bits per word; 256-bit granularity
    needs 10.  Over a 64-byte line the widening frees
    ``8 * 8 - 2 * 10 = 44`` bits.
    """
    def secded_bits(data_bits: int) -> int:
        r = 0
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r + 1  # +1 for double-error detection

    line_bits = line_bytes * 8
    fine = (line_bits // 64) * secded_bits(64)
    coarse = (line_bits // 256) * secded_bits(256)
    return {
        "ecc_bits_64b_granularity": fine,
        "ecc_bits_256b_granularity": coarse,
        "freed_bits_per_line": fine - coarse,
    }
