"""Duplicate L1 tag/state directory kept at the L2 controllers (§2.3).

To avoid snooping the L1s, each L2 controller maintains an exact duplicate
of the tag and state of every L1 line that maps to its bank (by address
interleaving).  The duplicate state is extended with the notion of
**ownership**: the owner of a line is the L2 (when it holds a valid copy),
an L1 holding it exclusive, or one of the sharing L1s — typically the last
requester.  Only the owner writes the line back on replacement, which gives
a near-optimal L2 (victim-cache) fill policy without extra tag-lookup
cycles on the L2 hit path.

The paper bounds the overhead of the duplicate tags at less than 1/32 of
the total on-chip memory; :func:`duplicate_tag_overhead` reproduces that
accounting and is checked by a unit test.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from .config import ChipConfig
from .messages import MESI

#: Sentinel owner value meaning "the L2 itself holds the valid copy".
L2_OWNER = -1


class DupEntry:
    """Duplicate tag/state for one line with at least one on-chip copy.

    ``sharers`` maps each holding L1's cache id (cpu*2+instr) to its MESI
    state, an exact duplicate of the L1's own; it is the one record of
    which L1s hold the line and how."""

    __slots__ = ("sharers", "owner")

    def __init__(self) -> None:
        self.sharers: Dict[int, MESI] = {}
        self.owner: Optional[int] = None  # cache id, L2_OWNER, None

    def add(self, cache_id: int, state: MESI, make_owner: bool) -> None:
        """L1 *cache_id* holds the line in *state*; it becomes the owner
        when *make_owner* says so or when the line has no owner."""
        self.sharers[cache_id] = state
        if make_owner or self.owner is None:
            self.owner = cache_id

    def remove(self, cache_id: int) -> bool:
        """L1 *cache_id* no longer holds the line, and an ownership it
        held goes with it.  True when no sharer and no owner is left."""
        self.sharers.pop(cache_id, None)
        if self.owner == cache_id:
            self.owner = None
        return not self.sharers and self.owner is None


class DuplicateTags:
    """Duplicate L1 tags for the subset of lines mapping to one L2 bank."""

    def __init__(self, bank: int) -> None:
        self.bank = bank
        self.entries: Dict[int, DupEntry] = {}

    def entry(self, line: int) -> Optional[DupEntry]:
        return self.entries.get(line)

    def sharers(self, line: int) -> Set[int]:
        e = self.entries.get(line)
        return set(e.sharers) if e else set()

    def owner(self, line: int) -> Optional[int]:
        e = self.entries.get(line)
        return e.owner if e else None

    def l1_owner(self, line: int) -> Optional[int]:
        """The owning *L1* cache id, if the owner is an L1 (not the L2)."""
        o = self.owner(line)
        return o if o is not None and o != L2_OWNER else None

    # -- updates (driven by the L2 transaction flow) -----------------------

    def add_sharer(self, line: int, cache_id: int, state: MESI,
                   make_owner: bool) -> DupEntry:
        e = self.entries.get(line)
        if e is None:
            e = self.entries[line] = DupEntry()
        e.add(cache_id, state, make_owner)
        return e

    def set_l2_owner(self, line: int) -> DupEntry:
        """The L2 holds a copy of *line* and claims its ownership."""
        e = self.entries.get(line)
        if e is None:
            e = self.entries[line] = DupEntry()
        e.owner = L2_OWNER
        return e

    def set_state(self, line: int, cache_id: int, state: MESI) -> None:
        e = self.entries.get(line)
        if e is not None and cache_id in e.sharers:
            e.sharers[cache_id] = state

    def remove_sharer(self, line: int, cache_id: int) -> None:
        """L1 replacement or invalidation: drop one sharer; ownership moves
        to the L2 only when the transaction flow says so (the caller
        decides whether a write-back accompanied the removal)."""
        e = self.entries.get(line)
        if e is not None and e.remove(cache_id):
            del self.entries[line]

    def drop_line(self, line: int) -> None:
        """Remove every trace of a line (all L1 copies invalidated and the
        L2 copy gone)."""
        self.entries.pop(line, None)

    def audit_owner_sanity(self, l2_resident) -> list:
        """Structural ownership check for the protocol sanitizer.

        Returns ``[(line, why), ...]`` for every entry whose ownership is
        inconsistent: an owner that is neither the L2 nor a recorded
        sharer, or an L2-owner claim for a line the L2 does not hold
        (*l2_resident* is the set of L2-resident line addresses).
        """
        problems = []
        for line, e in self.entries.items():
            if e.owner is None:
                continue
            if e.owner == L2_OWNER:
                if line not in l2_resident:
                    problems.append(
                        (line, "owner is the L2 but the L2 holds no copy"))
            elif e.owner not in e.sharers:
                problems.append(
                    (line, f"owner cache {e.owner} is not a sharer "
                           f"({sorted(e.sharers)})"))
        return problems

    def promote_any_owner(self, line: int) -> Optional[int]:
        """When the owner L1 leaves and other sharers remain, hand
        ownership to one of the remaining sharers (the hardware keeps the
        last requester; any deterministic choice preserves the invariant
        that exactly one owner exists)."""
        e = self.entries.get(line)
        if e is None or e.owner is not None or not e.sharers:
            return None
        new_owner = min(e.sharers)
        e.owner = new_owner
        return new_owner


def duplicate_tag_overhead(config: ChipConfig) -> float:
    """Duplicate-tag storage as a fraction of total on-chip memory.

    Per L1 line the controllers mirror the physical tag plus the 2-bit
    state and the ownership bit.  The paper states the total is under 1/32
    of the on-chip memory.
    """
    l1_lines_per_cache = config.l1.size_bytes // config.l1.line_bytes
    total_l1_lines = l1_lines_per_cache * 2 * config.cpus  # iL1 + dL1
    # 40-bit physical addresses: tag = 40 - set index - 6 offset bits.
    import math

    set_bits = int(math.log2(config.l1.sets))
    tag_bits = 40 - set_bits - 6
    bits_per_line = tag_bits + 2 + 1  # tag + MESI + ownership
    dup_tag_bits = total_l1_lines * bits_per_line
    on_chip_bits = (config.l1.size_bytes * 2 * config.cpus
                    + config.l2.size_bytes) * 8
    return dup_tag_bits / on_chip_bits
