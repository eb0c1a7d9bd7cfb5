"""Transaction State Register File (TSRF) — Section 2.5.1.

Each protocol engine owns 16 TSRF entries.  An entry represents the state
of one protocol thread: addresses, microcode program counter, timer, and
scratch state variables.  A thread waiting for a response parks in a
waiting state; the incoming response is matched against the entry by
transaction address.

The 16-entry bound is architectural: it is what makes Piranha's network
buffering requirement independent of system size (Section 2.5.3, with
cruise-missile invalidates bounding messages per entry at four).

The TSRF also anchors the RAS hooks of Section 2.7: every entry carries a
timer, and the engine can encapsulate a timed-out entry's state in a
control message directed at recovery software.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .microcode import END

TSRF_ENTRIES = 16


class TsrfFullError(Exception):
    """No free TSRF entry; the input controller must stall the message."""


@dataclass
class TsrfEntry:
    """One protocol thread's architected state."""

    index: int
    valid: bool = False
    addr: int = 0
    pc: int = END
    #: waiting mode: None (runnable/idle), "external", "local"
    waiting: Optional[str] = None
    #: timer (ps timestamp of allocation) for time-out based error recovery
    timer: int = 0
    #: protocol state variables (requester, type, ack counts, ...)
    vars: Dict[str, Any] = field(default_factory=dict)

    def reset(self) -> None:
        self.valid = False
        self.addr = 0
        self.pc = END
        self.waiting = None
        self.timer = 0
        self.vars = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "free" if not self.valid else (self.waiting or "runnable")
        return f"TSRF[{self.index}]({state}, addr={self.addr:#x}, pc={self.pc})"


class Tsrf:
    """The 16-entry register file with address-based matching.

    ``live`` (valid entries) and ``high_water`` (its maximum) are kept as
    counters updated on allocate/free, so the engine's occupancy checks
    on every message cost O(1) instead of a scan of all entries;
    :func:`repro.core.checker.audit_tsrf` cross-checks them against a
    scan.
    """

    def __init__(self, entries: int = TSRF_ENTRIES) -> None:
        self.entries: List[TsrfEntry] = [TsrfEntry(i) for i in range(entries)]
        self.live = 0
        self.high_water = 0
        self.allocations = 0
        self.frees = 0
        self.alloc_failures = 0

    def allocate(self, addr: int, pc: int, now_ps: int, **vars: Any) -> TsrfEntry:
        """Claim a free entry for a new protocol thread."""
        for entry in self.entries:
            if not entry.valid:
                entry.valid = True
                entry.addr = addr
                entry.pc = pc
                entry.waiting = None
                entry.timer = now_ps
                entry.vars = vars  # a fresh dict: **vars always builds one
                self.allocations += 1
                self.live += 1
                if self.live > self.high_water:
                    self.high_water = self.live
                return entry
        self.alloc_failures += 1
        raise TsrfFullError(f"all {len(self.entries)} TSRF entries busy")

    def free(self, entry: TsrfEntry) -> None:
        if entry.valid:
            self.frees += 1
            self.live -= 1
        entry.reset()

    def match(self, addr: int, waiting: str) -> Optional[TsrfEntry]:
        """Find the entry waiting (in mode *waiting*) on transaction *addr*."""
        for entry in self.entries:
            if entry.valid and entry.waiting == waiting and entry.addr == addr:
                return entry
        return None

    def find(self, addr: int) -> Optional[TsrfEntry]:
        """Find any valid entry for *addr* (used for the early-forwarded-
        request race, which piggybacks on the outstanding request's entry)."""
        for entry in self.entries:
            if entry.valid and entry.addr == addr:
                return entry
        return None

    def occupancy(self) -> int:
        return self.live

    @property
    def free_count(self) -> int:
        return len(self.entries) - self.live

    def timed_out(self, now_ps: int, timeout_ps: int) -> List[TsrfEntry]:
        """Entries older than *timeout_ps* (RAS error-recovery hook)."""
        return [
            e for e in self.entries
            if e.valid and now_ps - e.timer > timeout_ps
        ]

    # -- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """All 16 entries (including in-flight protocol-thread ``vars``,
        which may hold closures — the checkpoint pickler handles those)
        plus occupancy counters."""
        return dict(self.__dict__)

    def load_state(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    def __getstate__(self) -> Dict[str, Any]:
        return self.state_dict()

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.load_state(state)
