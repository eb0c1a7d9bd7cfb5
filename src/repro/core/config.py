"""Configuration presets reproducing Table 1 of the paper.

Three processor designs are compared:

* **Piranha (P8)** — the ASIC prototype: eight 500 MHz single-issue
  in-order cores, 64 KB 2-way L1s, a shared 1 MB 8-way non-inclusive L2
  (16 ns hit / 24 ns forward), 80 ns local memory.
* **OOO** — a next-generation 1 GHz 4-issue out-of-order processor
  (Alpha 21364-like) with a 64-entry instruction window, 1.5 MB 6-way L2
  (12 ns hit), 80 ns local memory.
* **P8F** — the full-custom Piranha: 1.25 GHz cores, 12 ns / 16 ns L2.

All designs share 64-byte lines, 64 KB 2-way L1s, 120 ns remote and 180 ns
remote-dirty latencies.  Derived single-issue (INO) and reduced-core
(P1/P2/P4) variants used in Figures 5-7 are generated from these presets.

End-to-end latencies are *composed* from module latencies; the composition
functions at the bottom are unit-tested to reproduce Table 1 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..sim.engine import Clock


@dataclass(frozen=True)
class CoreParams:
    """One processor core."""

    model: str = "inorder"          # "inorder" | "ooo"
    clock_mhz: float = 500.0
    issue_width: int = 1
    window_size: int = 0            # instruction window (OOO only)
    #: fraction of a miss's latency the OOO window can hide (derived from
    #: window occupancy; in-order cores hide nothing)
    overlap_ns: float = 0.0
    #: additional outstanding non-blocking misses the core can sustain
    max_outstanding: int = 1

    def clock(self) -> Clock:
        """This core's clock domain."""
        return Clock(self.clock_mhz)


@dataclass(frozen=True)
class L1Params:
    """Per-core split instruction/data first-level caches (Section 2.1)."""

    size_bytes: int = 64 * 1024
    assoc: int = 2
    line_bytes: int = 64

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class L2Params:
    """Shared second-level cache (Section 2.3)."""

    size_bytes: int = 1024 * 1024
    assoc: int = 8
    banks: int = 8
    line_bytes: int = 64
    inclusive: bool = False         # Piranha's headline no-inclusion policy
    pending_entries: int = 16       # concurrent outstanding transactions/bank

    @property
    def sets_per_bank(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes * self.banks)


@dataclass(frozen=True)
class LatencyParams:
    """Module latencies (ns) whose compositions reproduce Table 1.

    ``l2_hit = l1_miss_detect + ics + l2_tag + l2_data + ics``
    ``l2_fwd = l1_miss_detect + ics + l2_tag + ics + owner_l1 + ics``
    ``local_mem = l1_miss_detect + ics + l2_tag + mc_overhead + dram_random
    + ics``
    """

    l1_miss_detect: float = 2.0
    ics: float = 2.0
    l2_tag: float = 4.0
    l2_data: float = 6.0
    owner_l1: float = 12.0
    mc_overhead: float = 10.0
    dram_random: float = 60.0       # critical word (Section 2.4)
    dram_page_hit: float = 40.0
    dram_rest_of_line: float = 30.0
    # Inter-node legs.  ``remote_mem_ns`` / ``remote_dirty_ns`` are the
    # Table 1 end-to-end targets for adjacent nodes; the event-driven
    # multi-chip simulation composes them from the per-leg constants below
    # plus real router/RDRAM latencies, and a calibration test checks the
    # emergent values against the targets.
    protocol_engine: float = 4.0    # engine send/receive microcode service
    he_dispatch: float = 4.0        # home-engine dispatch + directory logic
    net_oneway_short: float = 8.0   # OQ + 2-cycle serialisation + wire + IQ
    net_oneway_long: float = 24.0   # short + 16 ns extra serialisation
    #: input/output controller stages + TSRF dispatch at a forwarded-to
    #: owner node (3-hop transactions only)
    owner_node_pad: float = 22.0
    remote_mem_ns: float = 120.0
    remote_dirty_ns: float = 180.0

    def l2_hit(self) -> float:
        """Composed L2-hit latency (Table 1: 16 ns on P8)."""
        return self.l1_miss_detect + self.ics + self.l2_tag + self.l2_data + self.ics

    def l2_fwd(self) -> float:
        """Composed L1-to-L1 forward latency (Table 1: 24 ns on P8)."""
        return (
            self.l1_miss_detect + self.ics + self.l2_tag + self.ics
            + self.owner_l1 + self.ics
        )

    def local_memory(self) -> float:
        """Composed local-memory latency (Table 1: 80 ns)."""
        return (
            self.l1_miss_detect + self.ics + self.l2_tag
            + self.mc_overhead + self.dram_random + self.ics
        )

    def remote_memory(self) -> float:
        """Adjacent-node 2-hop read serviced by home memory (Table 1)."""
        return self.remote_mem_ns

    def remote_dirty(self) -> float:
        """Adjacent-node 3-hop read serviced by a dirty remote owner
        (Table 1)."""
        return self.remote_dirty_ns

    def remote_memory_composed(self) -> float:
        """Per-leg composition of the 2-hop remote read; the calibration
        test checks this against ``remote_mem_ns``."""
        local_leg = self.l1_miss_detect + self.ics + self.l2_tag
        return (
            local_leg
            + self.protocol_engine + self.net_oneway_short       # RE -> home
            + self.he_dispatch                                    # HE
            + self.mc_overhead + self.dram_random                 # data+dir
            + self.net_oneway_long                                # reply
            + self.ics
        )

    def remote_dirty_composed(self) -> float:
        """Per-leg composition of the 3-hop remote-dirty read: the home
        fetches the directory from memory, forwards to the owner node, and
        the owner replies directly to the requester (reply forwarding)."""
        return (
            self.remote_memory_composed()
            - self.net_oneway_long                               # data not from home
            + self.net_oneway_short                              # fwd to owner
            + self.owner_node_pad                                 # owner dispatch
            + self.he_dispatch                                    # owner engine
            + self.ics + self.l2_tag + self.ics                   # owner L2 path
            + self.owner_l1 + self.ics                            # dirty data in L1
            + self.protocol_engine                                # reply send
            + self.net_oneway_long                                # reply to requester
        )


@dataclass(frozen=True)
class MemoryParams:
    """Direct Rambus memory system (Section 2.4)."""

    controllers: int = 8
    rdram_per_channel: int = 32
    channel_gb_s: float = 1.6
    page_bytes: int = 512
    #: internal banks per RDRAM device, each with its own open page: with
    #: 8 channels x 32 devices x 8 banks the chip can hold the paper's
    #: "as many as 2K (512-byte) pages open" (Section 2.4)
    banks_per_device: int = 8
    page_keep_open_ns: float = 1000.0  # ~1 us keep-open policy


@dataclass(frozen=True)
class ChipConfig:
    """A complete node configuration (Table 1 column + structure)."""

    name: str
    cpus: int
    core: CoreParams
    l1: L1Params = field(default_factory=L1Params)
    l2: L2Params = field(default_factory=L2Params)
    lat: LatencyParams = field(default_factory=LatencyParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    is_io_node: bool = False

    def with_cpus(self, cpus: int, name: Optional[str] = None) -> "ChipConfig":
        """Derive a reduced-core variant (P1/P2/P4 in the paper)."""
        return replace(self, cpus=cpus, name=name or f"{self.name}x{cpus}")

    def table1_row(self) -> Dict[str, object]:
        """This configuration's Table 1 column."""
        ghz = self.core.clock_mhz / 1000.0
        return {
            "Processor Speed": f"{ghz:g} GHz" if ghz >= 1 else f"{self.core.clock_mhz:g} MHz",
            "Type": self.core.model,
            "Issue Width": self.core.issue_width,
            "Instruction Window Size": self.core.window_size or "-",
            "Cache Line Size": f"{self.l1.line_bytes} bytes",
            "L1 Cache Size": f"{self.l1.size_bytes // 1024} KB",
            "L1 Cache Associativity": f"{self.l1.assoc}-way",
            "L2 Cache Size": f"{self.l2.size_bytes / (1024 * 1024):g}MB",
            "L2 Cache Associativity": f"{self.l2.assoc}-way",
            "L2 Hit / L2 Fwd Latency": (
                f"{self.lat.l2_hit():g} ns / "
                + (f"{self.lat.l2_fwd():g} ns" if self.cpus > 1 else "NA")
            ),
            "Local Memory Latency": f"{self.lat.local_memory():g} ns",
            "Remote Memory Latency": f"{round(self.lat.remote_memory()):g} ns",
            "Remote Dirty Latency": f"{round(self.lat.remote_dirty()):g} ns",
        }


# ---------------------------------------------------------------------------
# Table 1 presets
# ---------------------------------------------------------------------------

#: Piranha ASIC prototype (P8): 8 single-issue in-order 500 MHz cores.
PIRANHA_P8 = ChipConfig(
    name="P8",
    cpus=8,
    core=CoreParams(model="inorder", clock_mhz=500.0, issue_width=1),
    l2=L2Params(size_bytes=1024 * 1024, assoc=8),
    lat=LatencyParams(
        l1_miss_detect=2.0, ics=2.0, l2_tag=4.0, l2_data=6.0,
        owner_l1=12.0, mc_overhead=10.0,
    ),
)

#: Next-generation out-of-order processor (Alpha 21364-like).
OOO = ChipConfig(
    name="OOO",
    cpus=1,
    core=CoreParams(
        model="ooo", clock_mhz=1000.0, issue_width=4, window_size=64,
        overlap_ns=6.0, max_outstanding=8,
    ),
    l2=L2Params(size_bytes=1536 * 1024, assoc=6, banks=8),
    lat=LatencyParams(
        l1_miss_detect=1.0, ics=1.0, l2_tag=3.0, l2_data=6.0,
        owner_l1=10.0, mc_overhead=14.0,
    ),
)

#: Hypothetical single-issue in-order core otherwise identical to OOO
#: (the INO configuration of Figure 5).
INO = ChipConfig(
    name="INO",
    cpus=1,
    core=CoreParams(model="inorder", clock_mhz=1000.0, issue_width=1),
    l2=OOO.l2,
    lat=OOO.lat,
)

#: Full-custom Piranha (P8F): 1.25 GHz cores, custom SRAM latencies.
PIRANHA_P8F = ChipConfig(
    name="P8F",
    cpus=8,
    core=CoreParams(model="inorder", clock_mhz=1250.0, issue_width=1),
    l2=L2Params(size_bytes=1536 * 1024, assoc=6),
    lat=LatencyParams(
        l1_miss_detect=0.8, ics=1.0, l2_tag=3.0, l2_data=6.2,
        owner_l1=9.2, mc_overhead=14.2,
    ),
)

#: Hypothetical single-CPU Piranha chip (P1 of Figure 5).
PIRANHA_P1 = PIRANHA_P8.with_cpus(1, "P1")
PIRANHA_P2 = PIRANHA_P8.with_cpus(2, "P2")
PIRANHA_P4 = PIRANHA_P8.with_cpus(4, "P4")

#: Pessimistic sensitivity study (Section 4): 400 MHz CPUs, 32 KB
#: direct-mapped L1s, 22 ns / 32 ns L2 latencies.
PIRANHA_P8_PESSIMISTIC = ChipConfig(
    name="P8-pessimistic",
    cpus=8,
    core=CoreParams(model="inorder", clock_mhz=400.0, issue_width=1),
    l1=L1Params(size_bytes=32 * 1024, assoc=1),
    l2=L2Params(size_bytes=1024 * 1024, assoc=8),
    lat=LatencyParams(
        l1_miss_detect=2.5, ics=2.5, l2_tag=6.0, l2_data=8.5,
        owner_l1=16.0, mc_overhead=9.0,
    ),
)

PRESETS: Dict[str, ChipConfig] = {
    "P1": PIRANHA_P1,
    "P2": PIRANHA_P2,
    "P4": PIRANHA_P4,
    "P8": PIRANHA_P8,
    "P8F": PIRANHA_P8F,
    "OOO": OOO,
    "INO": INO,
    "P8-pessimistic": PIRANHA_P8_PESSIMISTIC,
}


def preset(name: str) -> ChipConfig:
    """Look up a named configuration preset."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def table1() -> Dict[str, Dict[str, object]]:
    """Regenerate Table 1 (P8 / OOO / P8F columns)."""
    return {name: PRESETS[name].table1_row() for name in ("P8", "OOO", "P8F")}
