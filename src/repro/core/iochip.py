"""The Piranha I/O node (Figure 2).

An I/O chip is a stripped-down processing chip: one CPU, one L2 bank with
its memory controller, and a two-link router (no routing table needed).
From the programmer's point of view the CPU on the I/O chip is
indistinguishable from one on a processing chip, and the I/O node's memory
fully participates in the global coherence protocol — I/O is a
*full-fledged member of the interconnect*.

The PCI/X interface reuses the first-level **data cache module** (dL1) to
talk to the memory system: the dL1 gives the PCI/X bridge address
translation, access to I/O-space registers, and interrupt generation.  DMA
transfers therefore move through the ordinary coherence protocol — reads
pull cache lines like a CPU load, writes take ownership like a CPU store.

Having a real CPU on the I/O node enables the optimisations the paper
lists: scheduling device drivers on it for low-latency I/O access, or
interpreting accesses to virtual control registers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional

from ..sim.engine import Component, Simulator
from .chip import PiranhaChip
from .config import ChipConfig
from .l1 import L1Cache
from .messages import AccessKind, MemRequest, ReplySource, request_for


def io_node_config(base: ChipConfig) -> ChipConfig:
    """Derive the I/O-chip configuration from a processing-chip config:
    one CPU and a single L2/MC module (Section 2)."""
    return replace(
        base,
        name=f"{base.name}-io",
        cpus=1,
        l2=replace(base.l2, banks=1,
                   size_bytes=base.l2.size_bytes // base.l2.banks),
        is_io_node=True,
    )


@dataclass
class DmaTransfer:
    """Bookkeeping for one DMA burst."""

    addr: int
    lines: int
    is_write: bool
    done_lines: int = 0
    start_ps: int = 0
    end_ps: int = 0


class PciInterface(Component):
    """PCI/X bridge fronted by its own dL1 module.

    DMA requests issue one coherence transaction per line through the
    bridge's dL1; completions raise an interrupt through the system
    controller.  Device-register reads/writes go through the same port
    (modelled as uncached single-line transactions).
    """

    def __init__(self, sim: Simulator, chip: PiranhaChip,
                 link_mb_s: float = 533.0) -> None:
        super().__init__(sim, f"{chip.name}.pci")
        self.chip = chip
        self.dl1 = L1Cache(chip.config.l1, cpu_id=chip.config.cpus,
                           is_instr=False)
        self.cache_id = chip.register_extra_cache(self.dl1)
        #: PCI/X 64-bit @ 66 MHz ~ 533 MB/s: per-line transfer time
        self.line_transfer_ps = int(64 / (link_mb_s * 1e6) * 1e12)
        self.c_dma_reads = self.stats.counter("dma_read_lines")
        self.c_dma_writes = self.stats.counter("dma_write_lines")
        self.c_register_ops = self.stats.counter("register_accesses")
        self.transfers: List[DmaTransfer] = []

    # -- DMA ---------------------------------------------------------------

    def dma(self, addr: int, lines: int, is_write: bool,
            on_done: Optional[Callable[[DmaTransfer], None]] = None,
            interrupt_vector: Optional[int] = None) -> DmaTransfer:
        """Start a DMA burst of ``lines`` cache lines at ``addr``."""
        if lines < 1:
            raise ValueError("DMA burst needs at least one line")
        transfer = DmaTransfer(addr=addr, lines=lines, is_write=is_write,
                               start_ps=self.now)
        self.transfers.append(transfer)
        self._issue_line(transfer, 0, on_done, interrupt_vector)
        return transfer

    def _issue_line(self, transfer: DmaTransfer, index: int,
                    on_done, vector) -> None:
        addr = transfer.addr + index * 64
        kind = AccessKind.WH64 if transfer.is_write else AccessKind.LOAD
        result = self.dl1.lookup(addr, kind)
        if result.hit:
            self._line_finished(transfer, index, on_done, vector)
            return
        req = MemRequest(
            cpu_id=self.chip.config.cpus,  # the bridge's pseudo-CPU slot
            kind=kind, addr=addr, is_instr=False,
            done=partial(self._line_finished, transfer, index, on_done,
                         vector),
            node=self.chip.node_id,
        )
        req.issue_time = self.now
        # The bridge's dL1 misses enter the memory system like any CPU's.
        self.chip.issue_miss_from_cache(req, request_for(kind, result.state),
                                        self.cache_id)

    def _line_finished(self, transfer: DmaTransfer, index: int, on_done,
                       vector, latency_ps: int = 0,
                       source: ReplySource = ReplySource.L1_HIT) -> None:
        (self.c_dma_writes if transfer.is_write else self.c_dma_reads).inc()
        transfer.done_lines += 1
        # PCI-side serialisation per line
        next_delay = self.line_transfer_ps
        if transfer.done_lines >= transfer.lines:
            transfer.end_ps = self.now + next_delay
            self.schedule(next_delay, self._complete, transfer,
                          on_done, vector)
        else:
            self.schedule(next_delay, self._issue_line, transfer,
                          index + 1, on_done, vector)

    def _complete(self, transfer: DmaTransfer, on_done, vector) -> None:
        if vector is not None:
            self.chip.syscontrol.raise_interrupt(self.chip.node_id, vector)
        if on_done is not None:
            on_done(transfer)

    # -- device registers ------------------------------------------------

    def register_read(self, device_addr: int) -> int:
        """Uncached device-register read (constant PCI latency)."""
        self.c_register_ops.inc()
        return 0

    def register_write(self, device_addr: int, value: int) -> None:
        self.c_register_ops.inc()


class IoNode:
    """A complete Piranha I/O node: stripped-down chip + PCI/X bridge."""

    def __init__(self, system, base_config: ChipConfig, node_id: int) -> None:
        self.config = io_node_config(base_config)
        self.chip = PiranhaChip(system.sim, self.config, system,
                                node_id=node_id)
        self.pci = PciInterface(system.sim, self.chip)

    @property
    def cpu(self):
        """The driver CPU — indistinguishable from a processing-chip CPU."""
        return self.chip.cpus[0]
