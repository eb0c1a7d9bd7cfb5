"""Direct Rambus DRAM channel with open-page scheduling (Section 2.4).

Each L2 bank owns one memory controller and one RDRAM channel of up to 32
devices.  A channel moves 1.6 GB/s; a random access returns the critical
word in 60 ns with the rest of the 64-byte line following over another
30 ns.  A hit to an **open page** (512-byte pages) cuts the access latency
from 60 ns to 40 ns, and the controller's page-scheduling policy — keeping
pages open for about a microsecond — achieves over 50% open-page hit rates
on OLTP, which the corresponding benchmark reproduces.

The controller engine tracks open pages per device with a keep-open
deadline, models channel occupancy (the 1.6 GB/s pipe serialises line
transfers), and reports hit-rate statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..sim.engine import Component, Simulator, ns
from .config import ChipConfig, LatencyParams, MemoryParams


@dataclass(slots=True)
class MemAccessResult:
    """Timing outcome of one line access."""

    critical_word_ps: int   # delay until the critical word is available
    line_done_ps: int       # delay until the full line has transferred
    page_hit: bool


class RdramChannel(Component):
    """One Rambus channel: open-page tracking + bandwidth occupancy."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        lat: LatencyParams,
        mem: MemoryParams,
    ) -> None:
        super().__init__(sim, name)
        self.lat = lat
        self.mem = mem
        self.t_random = ns(lat.dram_random)
        self.t_page_hit = ns(lat.dram_page_hit)
        self.t_rest = ns(lat.dram_rest_of_line)
        self.keep_open_ps = ns(mem.page_keep_open_ns)
        #: 64 bytes over 1.6 GB/s = 40 ns of channel occupancy per line.
        self.t_line_transfer = int(64 / (mem.channel_gb_s * 1e9) * 1e12)
        self._page_bytes = mem.page_bytes
        self._devices = mem.rdram_per_channel
        self._device_banks = mem.banks_per_device
        #: open pages: (device, bank) -> (page address, close deadline)
        self._open_pages: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._channel_free = 0
        self.c_accesses = self.stats.counter("accesses")
        self.c_page_hits = self.stats.counter("page_hits")
        self.c_reads = self.stats.counter("reads")
        self.c_writes = self.stats.counter("writes")
        self.c_queued = self.stats.counter("queued_behind_channel")

    # -- access ------------------------------------------------------------

    def access(self, addr: int, is_write: bool = False,
               probe=None) -> MemAccessResult:
        """Perform one line read/write; returns its timing."""
        now = self.sim.now
        self.c_accesses.value += 1
        if is_write:
            self.c_writes.value += 1
        else:
            self.c_reads.value += 1
        # pages interleave across the channel's RDRAM devices, and a
        # device's consecutive pages rotate across its internal banks,
        # each of which keeps its own page open
        page = addr // self._page_bytes
        devices = self._devices
        key = (page % devices, (page // devices) % self._device_banks)
        open_info = self._open_pages.get(key)
        page_hit = (
            open_info is not None
            and open_info[0] == page
            and now <= open_info[1]
        )
        if page_hit:
            self.c_page_hits.value += 1
        access_ps = self.t_page_hit if page_hit else self.t_random

        # Channel occupancy: each line holds the 1.6 GB/s channel for its
        # 40 ns data transfer; device access (row activation) pipelines
        # with the previous line's transfer, so sustained throughput is
        # bandwidth-limited while an unloaded access sees full latency.
        start = self._channel_free
        if start > now:
            self.c_queued.value += 1
        else:
            start = now
        critical = (start - now) + access_ps
        done = critical + self.t_rest
        self._channel_free = start + self.t_line_transfer

        # Keep the page open for ~1 us from this access.
        self._open_pages[key] = (page, now + self.keep_open_ps)
        if probe is not None:
            # whole access charged in one event: stamp the critical word
            # at its computed future time (channel queueing included)
            probe.stamp("mem_data", now + critical)
            probe.note("dram_page_hit", page_hit)
        return MemAccessResult(critical, done, page_hit)

    def warm_access(self, addr: int, is_write: bool = False) -> bool:
        """Page-state-only access for functional warming.

        Counts the access and updates the open-page table exactly like
        :meth:`access`, but leaves channel occupancy alone: fast-forward
        passes no simulated time, so accumulating 40 ns of transfer
        backlog per warmed line at a frozen clock would poison the next
        detailed window with a phantom queue.  Returns the page-hit
        outcome.
        """
        now = self.sim.now
        self.c_accesses.value += 1
        if is_write:
            self.c_writes.value += 1
        else:
            self.c_reads.value += 1
        page = addr // self._page_bytes
        devices = self._devices
        key = (page % devices, (page // devices) % self._device_banks)
        open_info = self._open_pages.get(key)
        page_hit = (
            open_info is not None
            and open_info[0] == page
            and now <= open_info[1]
        )
        if page_hit:
            self.c_page_hits.value += 1
        self._open_pages[key] = (page, now + self.keep_open_ps)
        return page_hit

    def forgive_backlog(self) -> None:
        """Drop any channel backlog beyond the current time (warm-phase
        write-backs route through the detailed :meth:`access` path and
        would otherwise stack occupancy at a frozen clock)."""
        if self._channel_free > self.now:
            self._channel_free = self.now

    # -- stats -------------------------------------------------------------

    @property
    def page_hit_rate(self) -> float:
        if self.c_accesses.value == 0:
            return 0.0
        return self.c_page_hits.value / self.c_accesses.value

    def open_page_count(self) -> int:
        """Pages currently within their keep-open window."""
        now = self.now
        return sum(1 for _page, deadline in self._open_pages.values()
                   if deadline >= now)


class MemoryController(Component):
    """Memory controller engine fronting one RDRAM channel.

    Unlike the other chip modules the MC has no direct ICS access: the
    owning L2 controller issues line-granularity reads/writes for data and
    the associated directory (Section 2.4), paying ``mc_overhead`` for the
    engine + RAC crossing.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: ChipConfig,
    ) -> None:
        super().__init__(sim, name)
        self.channel = RdramChannel(sim, f"{name}.rdram", config.lat, config.memory)
        self.t_overhead = ns(config.lat.mc_overhead)
        self._bank_bits = (config.l2.banks - 1).bit_length()

    def _channel_addr(self, addr: int) -> int:
        """De-interleave: the L2 banks stripe consecutive lines across the
        controllers, so the lines one channel stores are 512 bytes apart in
        physical address space; compacting them restores page locality."""
        line = addr >> 6
        return ((line >> self._bank_bits) << 6) | (addr & 63)

    def read_line(self, addr: int, probe=None) -> MemAccessResult:
        """Read a line (data + in-ECC directory bits arrive together);
        the channel's result, shifted by the controller overhead."""
        res = self.channel.access(self._channel_addr(addr), False, probe)
        if probe is not None:
            # shift the channel's critical-word stamp by the MC overhead
            # so the mem_data hop covers engine + RAC + DRAM end-to-end
            label, t = probe.stamps[-1]
            if label == "mem_data":
                probe.stamps[-1] = (label, t + self.t_overhead)
        res.critical_word_ps += self.t_overhead
        res.line_done_ps += self.t_overhead
        return res

    def write_line(self, addr: int) -> MemAccessResult:
        """Write a line (data and/or updated directory bits)."""
        res = self.channel.access(self._channel_addr(addr), True)
        res.critical_word_ps += self.t_overhead
        res.line_done_ps += self.t_overhead
        return res

    def warm_read_line(self, addr: int) -> bool:
        """Timing-free line read for functional warming: advances the
        channel's page state (and access counters) without occupying the
        channel.  Returns the page-hit outcome."""
        return self.channel.warm_access(self._channel_addr(addr),
                                        is_write=False)
