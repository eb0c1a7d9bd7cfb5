"""Reliability, Availability and Serviceability hooks (Section 2.7).

Piranha's RAS story leans on the *programmability* of the protocol
engines: by changing the semantics of memory accesses, the engines can
implement persistent memory regions, memory mirroring, and checks for
dual-redundant execution — on top of elementary features like protocol
error recovery (TSRF time-outs encapsulated into control messages for
recovery software), error logging and hot-swappable links.

This module implements those hooks over the simulated system:

* :class:`ProtocolWatchdog` — scans the TSRFs for timed-out transactions
  and encapsulates their state into error-log records directed at the
  system controller (the paper's protocol-error-recovery mechanism);
* :class:`PersistentMemory` — registers persistent regions with
  capability checks on write access and write-through-to-safe-memory
  semantics at transaction boundaries;
* :class:`MemoryMirror` — intervenes on memory write-backs to duplicate
  them onto a mirror node's memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..mem.addr import line_addr
from ..sim.engine import Component, Simulator, ns


class CapabilityError(PermissionError):
    """Write to a persistent region without the required capability."""


class ProtocolWatchdog(Component):
    """Periodic TSRF time-out scan (protocol error recovery).

    When a protocol thread exceeds ``timeout_ns``, its state is captured
    in an error record and logged with the node's system controller —
    exactly the "encapsulated in a control message and directed to
    recovery or diagnostic software" mechanism of the paper.
    """

    def __init__(self, sim: Simulator, system, timeout_ns: float = 100_000.0,
                 scan_interval_ns: float = 50_000.0) -> None:
        super().__init__(sim, "ras.watchdog")
        self.system = system
        self.timeout_ps = ns(timeout_ns)
        self.interval_ps = ns(scan_interval_ns)
        self.c_scans = self.stats.counter("scans")
        self.c_timeouts = self.stats.counter("timeouts_detected")
        self._armed = False

    def arm(self) -> None:
        if not self._armed:
            self._armed = True
            self.schedule(self.interval_ps, self._scan)

    def _scan(self) -> None:
        self.c_scans.inc()
        for node in self.system.nodes:
            for engine in (node.home_engine, node.remote_engine):
                for entry in engine.tsrf.timed_out(self.now, self.timeout_ps):
                    self.c_timeouts.inc()
                    node.syscontrol.log_error({
                        "kind": "protocol-timeout",
                        "engine": engine.name,
                        "tsrf": entry.index,
                        "addr": entry.addr,
                        "pc": entry.pc,
                        "age_ps": self.now - entry.timer,
                    })
        if self.system.sim.pending:
            self.schedule(self.interval_ps, self._scan)


@dataclass
class PersistentRegion:
    """One battery-backed persistent memory region."""

    base: int
    size: int
    capability: int

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class PersistentMemory:
    """Persistent memory regions with engine-enforced capability checks.

    The protocol engines "intervene in accesses to persistent areas and
    perform capability checks or persistent memory barriers"; here the
    intervention is installed as a bank-level write filter, and
    :meth:`barrier` models forcing volatile (cached) state to safe memory
    at a transaction boundary.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.regions: List[PersistentRegion] = []
        self._held: Dict[int, Set[int]] = {}  # cpu-global id -> capabilities
        self.writes_checked = 0
        self.barriers = 0
        self.flushed_lines = 0

    def register_region(self, base: int, size: int, capability: int) -> PersistentRegion:
        region = PersistentRegion(base, size, capability)
        self.regions.append(region)
        return region

    def grant(self, agent: int, capability: int) -> None:
        self._held.setdefault(agent, set()).add(capability)

    def revoke(self, agent: int, capability: int) -> None:
        self._held.get(agent, set()).discard(capability)

    def region_of(self, addr: int) -> Optional[PersistentRegion]:
        for region in self.regions:
            if region.contains(addr):
                return region
        return None

    def check_write(self, agent: int, addr: int) -> None:
        """Raises :class:`CapabilityError` on unauthorised writes."""
        region = self.region_of(addr)
        if region is None:
            return
        self.writes_checked += 1
        if region.capability not in self._held.get(agent, set()):
            raise CapabilityError(
                f"agent {agent} wrote {addr:#x} in persistent region "
                f"{region.base:#x} without capability {region.capability}"
            )

    def barrier(self, node_id: int) -> int:
        """Persistent memory barrier: force every cached dirty line of the
        persistent regions on *node_id* back to (battery-backed) memory.
        Returns the number of lines flushed."""
        self.barriers += 1
        node = self.system.nodes[node_id]
        flushed = 0
        for bank in node.banks:
            for lset in bank.sets:
                for tag, l2line in list(lset.items()):
                    addr = tag << 6
                    if l2line.dirty and self.region_of(addr) is not None:
                        node.mem_write_back(addr, l2line.version,
                                            bank.bank_idx)
                        l2line.dirty = False
                        flushed += 1
            for l1 in node.l1i + node.l1d:
                for cset in l1.sets:
                    for line in cset.values():
                        addr = line.tag << 6
                        if line.dirty and self.region_of(addr) is not None:
                            self.system.mem_versions[line_addr(addr)] = max(
                                self.system.mem_versions.get(line_addr(addr), 0),
                                line.version,
                            )
                            line.dirty = False
                            flushed += 1
        self.flushed_lines += flushed
        return flushed


class MemoryMirror:
    """Automatic data mirroring via protocol-engine intervention.

    Every committed memory write on a primary node is duplicated onto the
    mirror node's memory image (paper: the engines "can be programmed to
    intervene on memory accesses to provide automatic data mirroring").
    """

    def __init__(self, system, primary: int, mirror: int) -> None:
        if primary == mirror:
            raise ValueError("mirror node must differ from primary")
        self.system = system
        self.primary = primary
        self.mirror = mirror
        self.mirrored_lines: Dict[int, int] = {}
        self.c_mirrored = 0
        self._install()

    def _install(self) -> None:
        self.system.nodes[self.primary].mem_write_back = self._intercepted

    def _intercepted(self, line: int, version: int, bank_idx: int) -> None:
        node = self.system.nodes[self.primary]
        # the class's method: the instance attribute is this interceptor
        type(node).mem_write_back(node, line, version, bank_idx)
        self.mirrored_lines[line] = version
        self.c_mirrored += 1

    def verify(self) -> bool:
        """Mirror consistency: every mirrored line's version must be at
        least the last value the primary committed."""
        versions = self.system.mem_versions
        return all(
            versions.get(line, 0) >= version
            for line, version in self.mirrored_lines.items()
        )
