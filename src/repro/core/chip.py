"""The Piranha processing node: full chip assembly (Figure 1).

One chip integrates eight Alpha CPU cores with per-core iL1/dL1 caches, the
intra-chip switch, eight L2 banks each with a private memory controller and
RDRAM channel, the home and remote protocol engines, the packet-switch /
output-queue / router / input-queue interconnect stack, and the system
controller.  Modules communicate exclusively through the connections of
Figure 1; this class is the wiring harness plus the small amount of glue
(address steering, reply routing) the packet switch provides.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..interconnect.packets import Packet, PacketType
from ..mem.addr import LINE_SHIFT, line_addr
from ..sim.engine import Component, Simulator, ns
from .config import ChipConfig
from .cpu import CpuCore, make_cpu
from .ics import LANE_LOW, IntraChipSwitch
from .l1 import L1Cache
from .l2 import L2Bank
from .messages import MESI, CacheId, MemRequest, RequestType
from .protocol_engine import REPLY_TYPES, ProtocolEngine
from .rdram import MemoryController
from .syscontrol import SystemControl


#: packet types steered to the home engine, the remote engine and the
#: system controller (Section 2.6.2); replies go to the waiting engine
_HOME_TYPES = frozenset({
    PacketType.READ, PacketType.READ_EXCLUSIVE, PacketType.EXCLUSIVE,
    PacketType.EXCLUSIVE_NO_DATA, PacketType.WRITEBACK})
_REMOTE_TYPES = frozenset({
    PacketType.FWD_READ, PacketType.FWD_READ_EXCLUSIVE,
    PacketType.INVALIDATE, PacketType.CMI_INVALIDATE})
_SYSCONTROL_TYPES = frozenset({PacketType.INTERRUPT, PacketType.CONTROL})


def _mirror_bucket(state):
    """A MESI state as the duplicate tags can know it: E and M are one
    bucket (silent E->M upgrades never cross the ICS)."""
    return "X" if state in (MESI.EXCLUSIVE, MESI.MODIFIED) else state


class PiranhaChip(Component):
    """A single Piranha processing (or I/O) node."""

    def __init__(self, sim: Simulator, config: ChipConfig, system,
                 node_id: int = 0) -> None:
        super().__init__(sim, f"node{node_id}")
        self.config = config
        self.system = system
        self.node_id = node_id

        #: sanitizer checker (shared with the system, fixed at build)
        checker = system.checker
        self.checker = checker
        #: system geometry, bound once here (before the banks, which read
        #: ``num_nodes``) rather than looked up through the system on
        #: every message
        self.num_nodes: int = system.num_nodes
        self.topology = system.topology
        self.dirstore = system.dirstores[node_id]
        #: home node id for an address (8 KB-interleaved)
        self.home_of: Callable[[int], int] = system.address_map.home_of

        # -- first-level caches + CPUs ------------------------------------
        self.l1i: List[L1Cache] = []
        self.l1d: List[L1Cache] = []
        #: every L1 indexed by its duplicate-tag cache id
        #: (:class:`~repro.core.messages.CacheId`); additional dL1-fronted
        #: clients (the I/O chip's PCI/X interface reuses the dL1 module —
        #: Section 2's I/O node description) append pseudo-CPU slots
        self.l1s: List[L1Cache] = [None] * (2 * config.cpus)
        self.cpus: List[CpuCore] = []
        for cpu in range(config.cpus):
            self.l1i.append(L1Cache(config.l1, cpu, is_instr=True))
            self.l1d.append(L1Cache(config.l1, cpu, is_instr=False))
            self.l1s[CacheId.encode(cpu, False)] = self.l1d[cpu]
            self.l1s[CacheId.encode(cpu, True)] = self.l1i[cpu]
            self.cpus.append(
                make_cpu(sim, f"{self.name}.cpu{cpu}", self, cpu, config)
            )

        # -- intra-chip switch + L2 + memory -------------------------------
        banks = config.l2.banks
        if banks & (banks - 1):
            raise ValueError(f"bank count must be a power of two, got {banks}")
        self._bank_mask = banks - 1
        self.ics = IntraChipSwitch(sim, f"{self.name}.ics", config)
        self.banks: List[L2Bank] = []
        self.mcs: List[MemoryController] = []
        for b in range(banks):
            mc = MemoryController(sim, f"{self.name}.mc{b}", config)
            self.mcs.append(mc)
            self.banks.append(
                L2Bank(sim, f"{self.name}.l2b{b}", self, b, config, mc)
            )

        # -- protocol engines (idle in single-node systems) -----------------
        self.home_engine = ProtocolEngine(
            sim, f"{self.name}.he", self, is_home=True
        )
        self.remote_engine = ProtocolEngine(
            sim, f"{self.name}.re", self, is_home=False
        )

        # -- system control -------------------------------------------------
        self.syscontrol = SystemControl(sim, f"{self.name}.sc", self)

        self.t_l1_detect = ns(config.lat.l1_miss_detect)
        #: sanitizer trace (shared with the system's checker, if any):
        #: cached here so the packet / engine hot paths pay one attribute
        #: test instead of two when tracing is off
        self.trace = checker.trace if checker is not None else None
        #: transaction-probe collector (shared, system-wide); cached for
        #: the same one-attribute-test reason as the trace.  None unless
        #: PiranhaSystem.enable_probes() ran before the chip was built
        #: (enable_probes() refreshes this cache when called later).
        self.probes = system.probes
        self._send_packet_fn: Optional[Callable[[Packet], bool]] = None
        self.c_packets_sent = self.stats.counter("packets_sent")
        self.c_acks_completed = self.stats.counter("ack_sets_completed")
        #: eager exclusive grants whose invalidation acks are still in
        #: flight: cpu -> set of line addresses; memory barriers wait here
        self._pending_acks: Dict[int, set] = {}
        self._fence_waiters: Dict[int, List[Callable[[], None]]] = {}

    def is_home(self, addr: int) -> bool:
        """True when this node is the home of *addr*."""
        return self.home_of(addr) == self.node_id

    def mem_version(self, line: int) -> int:
        """Committed memory version of *line* (authoritative image)."""
        return self.system.mem_versions.get(line, 0)

    def set_mem_version(self, line: int, version: int) -> None:
        """Commit *version* to memory (monotonic)."""
        versions = self.system.mem_versions
        if version > versions.get(line, 0):
            versions[line] = version

    # -----------------------------------------------------------------------
    # Address steering / module lookup
    # -----------------------------------------------------------------------

    def bank_for(self, addr: int) -> L2Bank:
        """The L2 bank *addr* interleaves to (low line-address bits)."""
        return self.banks[(addr >> LINE_SHIFT) & self._bank_mask]

    def l1_of(self, cpu_id: int, is_instr: bool) -> L1Cache:
        """A CPU's iL1 or dL1 (extra dL1 clients use pseudo-CPU slots)."""
        return self.l1s[CacheId.encode(cpu_id, is_instr)]

    def register_extra_cache(self, cache: L1Cache) -> int:
        """Attach an additional dL1-style client (PCI/X interface); returns
        its cache id (the next pseudo-CPU's dL1 slot)."""
        cache_id = CacheId.encode(cache.cpu_id, cache.is_instr)
        if cache_id != len(self.l1s):
            raise ValueError(f"extra cache id {cache_id} is not the next "
                             f"free slot {len(self.l1s)}")
        self.l1s.append(cache)
        return cache_id

    # -----------------------------------------------------------------------
    # Memory-system entry points
    # -----------------------------------------------------------------------

    def issue_miss(self, req: MemRequest, reqtype: RequestType) -> None:
        """An L1 miss leaves the CPU: charge miss detection plus the ICS
        crossing, then hand to the owning L2 bank."""
        bank = self.bank_for(req.addr)
        if self.probes is not None and req.probe is None:
            req.probe = self.probes.maybe_attach(
                req.txn_id, req.cpu_id, self.node_id, reqtype, self.sim.now)
        delay = self.t_l1_detect + self.ics.transfer_delay(16, LANE_LOW)
        self.schedule(delay, bank.request, req, reqtype)

    def issue_miss_from_cache(self, req: MemRequest, reqtype: RequestType,
                              cache_id: int) -> None:
        """Entry point for extra dL1 clients (the I/O chip's PCI bridge);
        identical path to a CPU miss."""
        self.issue_miss(req, reqtype)

    def mem_write_back(self, line: int, version: int, bank_idx: int) -> None:
        """Dirty L2 victim with a local home: write straight to memory."""
        self.mcs[bank_idx].write_line(line)
        self.set_mem_version(line, version)

    def register_pending_acks(self, cpu_id: int, addr: int) -> None:
        """An eager exclusive grant to *cpu_id* has invalidation acks
        outstanding; fences by that CPU must wait for them."""
        self._pending_acks.setdefault(cpu_id, set()).add(addr)

    def note_acks_complete(self, addr: int) -> None:
        """All invalidation acks for one eager grant have arrived."""
        self.c_acks_completed.value += 1
        for cpu_id, lines in list(self._pending_acks.items()):
            lines.discard(addr)
            if not lines:
                del self._pending_acks[cpu_id]
                for resume in self._fence_waiters.pop(cpu_id, []):
                    self.schedule(0, resume)

    def fence(self, cpu_id: int, resume: Callable[[], None]) -> bool:
        """Memory barrier: returns True when no acks are outstanding for
        *cpu_id*; otherwise registers *resume* and returns False."""
        if not self._pending_acks.get(cpu_id):
            return True
        self._fence_waiters.setdefault(cpu_id, []).append(resume)
        return False

    # -----------------------------------------------------------------------
    # Network plumbing
    # -----------------------------------------------------------------------

    def attach_network(self, send_packet: Callable[[Packet], bool]) -> None:
        """Wire this node's packet switch to its router's output queue."""
        self._send_packet_fn = send_packet

    def send_packet(self, pkt: Packet) -> None:
        """Inject an inter-node packet via the OQ (retrying on backpressure)."""
        if self._send_packet_fn is None:
            raise RuntimeError(
                f"{self.name}: inter-node packet {pkt} in a single-node "
                f"system (no network attached)"
            )
        self.c_packets_sent.value += 1
        if self.trace is not None:
            self.trace.record("pkt_send", self.node_id, line_addr(pkt.addr),
                              f"{pkt.ptype.name} -> node{pkt.dst}")
        if not self._send_packet_fn(pkt):
            # OQ full: retry after a cycle (the paper's flow control).
            self.schedule(2000, self.send_packet, pkt)
            self.c_packets_sent.value -= 1
        elif pkt.probe is not None:
            # stamp only on the accepted offer so backpressure retries
            # don't inflate the hop count
            pkt.probe.stamp("pkt_send", self.sim.now)

    def deliver_packet(self, pkt: Packet) -> bool:
        """IQ disposition target: steer by packet type (Section 2.6.2)."""
        if self.trace is not None:
            self.trace.record("pkt_recv", self.node_id, line_addr(pkt.addr),
                              f"{pkt.ptype.name} <- node{pkt.src}")
        if pkt.probe is not None:
            pkt.probe.stamp("pkt_recv", self.sim.now)
        ptype = pkt.ptype
        if ptype in REPLY_TYPES:
            # replies match whichever engine has the waiting TSRF entry:
            # scan the home engine once and hand it the entry it found
            home = self.home_engine
            entry = home.match_reply(line_addr(pkt.addr), int(ptype))
            if entry is not None:
                return home.deliver_external(pkt, entry)
            return self.remote_engine.deliver_external(pkt)
        if ptype in _HOME_TYPES:
            return self.home_engine.deliver_external(pkt)
        if ptype in _REMOTE_TYPES:
            return self.remote_engine.deliver_external(pkt)
        if ptype in _SYSCONTROL_TYPES:
            return self.syscontrol.deliver(pkt)
        raise RuntimeError(f"{self.name}: unroutable packet {pkt}")

    # -----------------------------------------------------------------------
    # Workload control
    # -----------------------------------------------------------------------

    def cpu_finished(self, cpu_id: int) -> None:
        """A CPU's workload thread completed."""
        self.system.cpu_finished(self.node_id, cpu_id)

    # -----------------------------------------------------------------------
    # Aggregated statistics
    # -----------------------------------------------------------------------

    def miss_breakdown(self) -> Dict[str, int]:
        """Chip-wide Figure 6b decomposition of L1 misses."""
        total = {"l2_hit": 0, "l2_fwd": 0, "l2_miss": 0}
        for bank in self.banks:
            for key, value in bank.miss_breakdown().items():
                total[key] += value
        return total

    def audit_duplicate_tags(self) -> None:
        """Verify the §2.3 invariant that the duplicate L1 tags are an
        *exact* mirror of the L1 contents (call at quiesce).

        Raises AssertionError on any divergence: a dup entry naming a line
        its L1 doesn't hold, an L1-resident line missing from the dup
        tags, a state mismatch, a line with multiple/zero owners while
        copies exist, or an entry with no sharer and no owner.
        """
        # collect actual L1 contents per cache id
        actual: Dict[int, Dict[int, object]] = {
            cache_id: dict(l1.iter_lines())
            for cache_id, l1 in enumerate(self.l1s)}
        for bank in self.banks:
            for line_addr_, entry in bank.dup.entries.items():
                assert entry.sharers or entry.owner is not None, (
                    f"{self.name}: dup entry for {line_addr_:#x} has no "
                    f"sharer and no owner"
                )
                for sharer, mirrored in entry.sharers.items():
                    held = actual.get(sharer, {}).get(line_addr_)
                    assert held is not None, (
                        f"{self.name}: dup tags list cache {sharer} for "
                        f"{line_addr_:#x} but its L1 does not hold it"
                    )
                    # E and M are indistinguishable to the L2 controller
                    # exactly as in hardware; anything else must match.
                    assert (_mirror_bucket(mirrored)
                            == _mirror_bucket(held.state)), (
                        f"{self.name}: dup state {mirrored} != L1 state "
                        f"{held.state} for {line_addr_:#x} cache {sharer}"
                    )
        # reverse direction: every resident L1 line is in the dup tags
        for cache_id, lines in actual.items():
            for line_addr_ in lines:
                bank = self.bank_for(line_addr_)
                assert cache_id in bank.dup.sharers(line_addr_), (
                    f"{self.name}: L1 cache {cache_id} holds "
                    f"{line_addr_:#x} but the duplicate tags do not know"
                )

    def on_chip_resident_bytes(self) -> int:
        """Total live on-chip data (the non-inclusion payoff: grows with
        CPU count because L1 contents are not duplicated in the L2)."""
        lines = sum(b.resident_lines() for b in self.banks)
        for l1 in self.l1s:
            lines += l1.resident_lines()
        return lines * 64
