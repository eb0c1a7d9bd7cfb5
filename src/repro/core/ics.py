"""Intra-Chip Switch (ICS) — Section 2.2.

Conceptually a crossbar interconnecting the 27 on-chip clients (8 CPUs'
iL1/dL1 pairs, 8 L2 banks, 2 protocol engines, packet switch, system
control).  The interface is uni-directional and push-only: the initiator
always sources data, transfers are atomic, and each port moves one 64-bit
word per 500 MHz cycle with back-to-back transfers and no dead cycles.

Two logical lanes (low / high priority) avoid intra-chip protocol
deadlocks; they share the eight physical datapaths (the paper adds ready
lines, not wires).  Internal capacity is 32 GB/s — about 3x the memory
bandwidth — so an optimal schedule is not critical; we model datapath
occupancy and a fixed crossing latency.

The atomic-transfer ordering property is what lets the L2 controllers skip
acknowledgements for on-chip invalidations (Section 2.3).
"""

from __future__ import annotations

from ..sim.engine import Clock, Component, Simulator, ns
from .config import ChipConfig

#: Number of internal 64-bit datapaths along the chip spine.
DATAPATHS = 8
#: Payload moved per datapath per cycle (64 bits + ECC).
BYTES_PER_CYCLE = 8

LANE_LOW = 0
LANE_HIGH = 1
_LANES = (LANE_LOW, LANE_HIGH)


class IntraChipSwitch(Component):
    """Occupancy + latency model of the ICS."""

    def __init__(self, sim: Simulator, name: str, config: ChipConfig) -> None:
        super().__init__(sim, name)
        self.config = config
        self.clock = Clock(config.core.clock_mhz if config.core.model == "inorder"
                           else 500.0)
        self.base_latency_ps = ns(config.lat.ics)
        self._datapath_free = [0] * DATAPATHS
        self.c_transfers = self.stats.counter("transfers")
        self.c_bytes = self.stats.counter("bytes")
        self.c_lane = [
            self.stats.counter("lane_low_transfers"),
            self.stats.counter("lane_high_transfers"),
        ]
        self.c_conflicts = self.stats.counter("datapath_conflicts")
        #: picoseconds transfers spent queued for a datapath (only touched
        #: on the conflict branch, so the uncontended path stays flat)
        self.a_queue_wait = self.stats.accumulator("datapath_wait_ps")

    def transfer_delay(self, size_bytes: int, lane: int = LANE_LOW) -> int:
        """Reserve a datapath and return the total picoseconds until the
        transfer completes (queueing + crossing latency + serialisation).

        Callers fold the returned delay into their event schedule; the
        switch itself holds no packet state (it is push-only and atomic).
        """
        if size_bytes <= 0:
            raise ValueError("transfer size must be positive")
        if lane not in _LANES:
            raise ValueError(f"unknown ICS lane {lane}")
        now = self.sim.now
        # Pick the earliest-free datapath (the hardware pre-allocates via
        # the target-hint mechanism; earliest-free is equivalent here).
        # index(min(...)) picks the same first-minimal path as
        # min(range, key=...) but stays in C — this is a per-miss hot path.
        free = self._datapath_free
        earliest = min(free)
        path = free.index(earliest)
        start = now if now > earliest else earliest
        if start > now:
            self.c_conflicts.inc()
            self.a_queue_wait.add(start - now)
        cycles = -(-size_bytes // BYTES_PER_CYCLE)  # ceil division
        free[path] = start + cycles * self.clock.period_ps
        # counters bumped in place: this runs once per L1 miss
        self.c_transfers.value += 1
        self.c_bytes.value += size_bytes
        self.c_lane[lane].value += 1
        return (start - now) + self.base_latency_ps

    def utilization(self) -> float:
        """Fraction of aggregate datapath-time used so far."""
        if self.now == 0:
            return 0.0
        used = self.c_bytes.value / BYTES_PER_CYCLE * self.clock.period_ps
        return used / (self.now * DATAPATHS)
