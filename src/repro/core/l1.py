"""First-level instruction and data caches (Section 2.1).

64 KB, two-way set-associative, 64-byte lines, virtually indexed /
physically tagged, single-cycle, *blocking*.  Each line carries a 2-bit
MESI state.  The instruction and data caches share virtually the same
design, so — unlike other Alpha implementations — the instruction cache is
kept coherent by hardware, which is what makes the L2's no-inclusion policy
uniform across I and D streams.

The L1 is a passive structure in this model: the CPU calls :meth:`lookup`
(hits are folded into CPU time), and the chip's transaction flow calls
:meth:`fill` / :meth:`invalidate` / :meth:`downgrade`.  Ownership (used by
the L2's writeback-filtering policy) is a per-line bit granted by the L2 at
fill time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..mem.addr import LINE_SHIFT
from .config import L1Params
from .messages import INVALID, MESI, MODIFIED, SHARED, AccessKind


@dataclass(slots=True)
class L1Line:
    """One resident cache line."""

    tag: int
    state: MESI
    owner: bool = False       # L2-granted ownership (write-back filter)
    dirty: bool = False
    version: int = 0          # data-token for the coherence checker

    @property
    def addr(self) -> int:
        """The line's address."""
        return self.tag << LINE_SHIFT


class LookupResult(NamedTuple):
    """Outcome of a CPU-side lookup.  Immutable: :meth:`L1Cache.lookup`
    hands out the shared instances below instead of allocating one per
    access."""

    hit: bool
    needs_upgrade: bool
    state: MESI


MISS = LookupResult(False, False, MESI.INVALID)
#: a store that found the line SHARED
NEEDS_UPGRADE = LookupResult(False, True, MESI.SHARED)
#: hit results, indexed by the line's MESI state
HITS = tuple(LookupResult(True, False, state) for state in MESI)

_WRITE_KINDS = frozenset(
    {AccessKind.STORE, AccessKind.STORE_COND, AccessKind.WH64})


class L1Cache:
    """One first-level cache (instruction or data)."""

    def __init__(self, params: L1Params, cpu_id: int, is_instr: bool) -> None:
        self.params = params
        self.cpu_id = cpu_id
        self.is_instr = is_instr
        self.num_sets = params.sets
        self.assoc = params.assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"set count must be a power of two, got {self.num_sets}")
        self._set_mask = self.num_sets - 1
        # Each set is an OrderedDict tag -> L1Line; most recent at the end.
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.n_lookups = 0
        self.n_hits = 0
        self.n_upgrades = 0

    def counters(self) -> dict:
        """Snapshot of the plain hit/miss counters (the L1 keeps bare ints
        on its single-cycle lookup path; this is the sampler/export
        interface to them)."""
        return {"lookups": self.n_lookups, "hits": self.n_hits,
                "upgrades": self.n_upgrades}

    # -- geometry ----------------------------------------------------------

    def _index(self, addr: int) -> int:
        return (addr >> LINE_SHIFT) & self._set_mask

    def _tag(self, addr: int) -> int:
        return addr >> LINE_SHIFT

    # -- CPU side ------------------------------------------------------------

    def lookup(self, addr: int, kind: AccessKind) -> LookupResult:
        """CPU access: hit test + LRU update + dirty marking on store hits.

        A store that finds the line SHARED is a *needs_upgrade* miss: the
        data is present but an EXCLUSIVE coherence request must still be
        issued (Section 2.5.3's third request type).  (:meth:`fill`
        refuses INVALID, so every resident line is a hit candidate.)
        """
        self.n_lookups += 1
        tag = addr >> LINE_SHIFT
        lru_set = self.sets[tag & self._set_mask]
        line = lru_set.get(tag)
        if line is None:
            return MISS
        lru_set.move_to_end(tag)
        if kind in _WRITE_KINDS:
            if line.state is SHARED:
                self.n_upgrades += 1
                return NEEDS_UPGRADE
            # E -> M transition is silent on-chip.
            line.state = MODIFIED
            line.dirty = True
            line.version += 1
        self.n_hits += 1
        return HITS[line.state]

    # -- chip side -----------------------------------------------------------

    def peek(self, addr: int) -> Optional[L1Line]:
        """Non-destructive lookup (no LRU update)."""
        tag = addr >> LINE_SHIFT
        return self.sets[tag & self._set_mask].get(tag)

    def choose_victim(self, addr: int) -> Optional[int]:
        """Line address that :meth:`fill` would evict, or None."""
        lru_set = self.sets[self._index(addr)]
        if self._tag(addr) in lru_set or len(lru_set) < self.assoc:
            return None
        victim_tag = next(iter(lru_set))
        return victim_tag << LINE_SHIFT

    def fill(
        self,
        addr: int,
        state: MESI,
        owner: bool,
        version: int = 0,
        dirty: bool = False,
    ) -> Optional[L1Line]:
        """Install a line, returning the replaced line (if any) for the
        caller (the L2 transaction flow) to route: owner lines write back
        to the L2, non-owner lines just update the duplicate tags.  The
        victim has left the cache, so the caller reads it as it was."""
        if state == INVALID:
            raise ValueError("cannot fill an INVALID line")
        tag = addr >> LINE_SHIFT
        lru_set = self.sets[tag & self._set_mask]
        existing = lru_set.get(tag)
        if existing is not None:
            existing.state = state
            existing.owner = owner
            existing.dirty = dirty or existing.dirty
            existing.version = max(version, existing.version)
            lru_set.move_to_end(tag)
            return None
        victim = None
        if len(lru_set) >= self.assoc:
            victim = lru_set.popitem(last=False)[1]
        lru_set[tag] = L1Line(tag, state, owner, dirty, version)
        return victim

    def invalidate(self, addr: int) -> Optional[L1Line]:
        """Remove a line (on-chip invalidations need no ack: the intra-chip
        switch's ordering guarantees make them safe — Section 2.3).
        Returns the removed line so the caller can recover dirty data."""
        tag = addr >> LINE_SHIFT
        return self.sets[tag & self._set_mask].pop(tag, None)

    def downgrade(self, addr: int) -> Optional[L1Line]:
        """M/E -> S transition (remote or local read of an exclusive line).
        Returns the line (with its pre-downgrade dirtiness preserved for
        the caller to write back if needed)."""
        line = self.peek(addr)
        if line is None:
            return None
        line.state = SHARED
        return line

    def set_owner(self, addr: int, owner: bool) -> None:
        """L2 moves the ownership token between sharers."""
        line = self.peek(addr)
        if line is not None:
            line.owner = owner

    # -- stats -----------------------------------------------------------

    def iter_lines(self):
        """Iterate ``(line_addr, L1Line)`` over every resident line (no
        LRU side effects; used by the duplicate-tag mirror audit)."""
        for lru_set in self.sets:
            for line in lru_set.values():
                yield line.tag << LINE_SHIFT, line

    @property
    def hit_rate(self) -> float:
        return self.n_hits / self.n_lookups if self.n_lookups else 0.0

    def resident_lines(self) -> int:
        return sum(len(s) for s in self.sets)

    def __repr__(self) -> str:  # pragma: no cover
        flavour = "iL1" if self.is_instr else "dL1"
        return f"{flavour}(cpu={self.cpu_id}, lines={self.resident_lines()})"
