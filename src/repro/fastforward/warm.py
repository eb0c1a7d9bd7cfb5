"""Functional (event-free) warming of the memory hierarchy.

Fast-forward phases advance the machine *without the event queue*: work
items are pulled straight off each CPU's workload thread in batches and
their cache effects applied synchronously — L1 lookups (with their LRU /
silent-upgrade side effects) and, for L1 misses, the L2 bank's
:meth:`~repro.core.l2.L2Bank.warm_request`, which changes the same objects
through the same fill routine as the detailed service path (duplicate
tags, victim-cache flow, DRAM page state, checker hooks).  No
simulated time passes and no timing is charged; the point is that a
detailed measurement window opened right after a fast-forward phase sees
the L1s, L2, duplicate tags, directory and DRAM row buffers in the state
a monolithic run would have left them.

Items are pulled as flat per-CPU reference-stream chunks, one
:meth:`~repro.workloads.base.WorkloadThread.take` call each, so the
per-item cost is the generator's own; the cache mutations themselves are
inherently sequential.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import itemgetter
from typing import Dict, Optional

from ..core.cpu import WARMUP_DONE
from ..core.messages import IFETCH, MEMBAR, WH64, CacheId, request_for
from ..mem.addr import LINE_SHIFT

#: work items pulled from a thread per batch during fast-forward periods
CHUNK_ITEMS = 2048

_INSTRUCTIONS = itemgetter(0)


class FunctionalWarmer:
    """Event-free executor for workload reference streams.

    One warmer serves a whole sampled run; it keeps aggregate telemetry
    (items, instructions, references, warm-served vs declined misses)
    that the orchestrator surfaces under ``extras["sampling"]["warm"]``.
    """

    def __init__(self) -> None:
        self.items = 0
        self.instructions = 0
        self.refs = 0
        self.l1_hits = 0
        self.warmed = 0    # L1 misses served by the warm path
        self.skipped = 0   # L1 misses declined (not warm-eligible)
        self.skimmed = 0   # items consumed without cache application
        self.membars = 0

    def summary(self) -> Dict[str, int]:
        return {
            "items": self.items,
            "instructions": self.instructions,
            "refs": self.refs,
            "l1_hits": self.l1_hits,
            "warmed_misses": self.warmed,
            "skipped_misses": self.skipped,
            "skimmed_items": self.skimmed,
            "membars": self.membars,
        }

    # -- stream consumption ------------------------------------------------

    def collect(self, cpu, max_items: Optional[int] = None,
                stop_at_boundary: bool = False,
                tail: Optional[int] = None):
        """Consume items from *cpu*'s thread WITHOUT applying them yet.

        Counts instructions as it goes and keeps the last *tail* items
        (all of them when ``tail`` is None) for later application via
        :meth:`apply_interleaved` — items are plain tuples, so applying
        them after collection is identical to applying them at
        consumption time (the warm path is time-free).  Dropping all but
        the tail of a long span is the classic warming-window
        approximation: the recency state the next detailed window reads
        is rebuilt by the tail, while the skimmed prefix only costs
        stream generation, a fraction of a full cache update's cost
        (DESIGN.md §4n).

        With ``stop_at_boundary=True`` consumption stops after the
        warm-up sentinel (which is never buffered).  Returns
        ``(buffered_items, consumed, hit_boundary, exhausted)``.
        """
        thread = cpu.thread
        consumed = 0
        hit_boundary = False
        exhausted = False
        buf = deque(maxlen=tail)
        until = WARMUP_DONE if stop_at_boundary else None
        remaining = (int(max_items) if max_items is not None
                     and not stop_at_boundary else -1)
        while remaining:
            want = CHUNK_ITEMS if remaining < 0 else min(CHUNK_ITEMS,
                                                         remaining)
            batch, hit_boundary = thread.take(want, until)
            consumed += len(batch) + hit_boundary
            self.instructions += sum(map(_INSTRUCTIONS, batch))
            buf.extend(batch)
            if hit_boundary:
                break
            if len(batch) < want:
                exhausted = True
                break
            if remaining > 0:
                remaining -= len(batch)
        self.items += consumed
        self.skimmed += consumed - len(buf)
        return buf, consumed, hit_boundary, exhausted

    def apply_interleaved(self, buffers, batch: int = 128) -> None:
        """Apply collected item buffers, round-robin across CPUs.

        *buffers* is a list of ``(cpu, items)`` pairs.  Interleaving in
        small batches matters for shared lines: applying one CPU's whole
        span before the next would leave every contended line owned by
        the last CPU processed, skewing the L1-forward mix the following
        detailed window measures.

        Each item's cache effects are applied inline, with no time and no
        event: a fence is an instant no-op (no eager-grant acks can be
        outstanding between events) that only keeps its counter moving,
        a reference looks up its L1, and an L1 miss is served by
        its bank's :meth:`~repro.core.l2.L2Bank.warm_request`.
        """
        work = []
        for cpu, items in buffers:
            chip = cpu.chip
            work.append((cpu, chip.banks, len(chip.banks) - 1, chip.l1s,
                         CacheId.encode(cpu.cpu_id, True),
                         CacheId.encode(cpu.cpu_id, False), iter(items)))
        line_mask = ~((1 << LINE_SHIFT) - 1)
        refs = l1_hits = warmed = skipped = membars = 0
        while work:
            still = []
            for entry in work:
                cpu, banks, bank_mask, l1s, icache, dcache, it = entry
                n = 0
                for _instrs, kind, addr, _dep in islice(it, batch):
                    n += 1
                    if kind is None:
                        continue
                    if kind == MEMBAR:
                        membars += 1
                        cpu.c_membar.value += 1
                        continue
                    refs += 1
                    cache_id = icache if kind == IFETCH else dcache
                    result = l1s[cache_id].lookup(addr, kind)
                    if result.hit:
                        l1_hits += 1
                        continue
                    if kind == WH64:
                        cpu.c_wh64.value += 1
                    if banks[(addr >> LINE_SHIFT) & bank_mask].warm_request(
                            cache_id, request_for(kind, result.state),
                            addr & line_mask) is None:
                        skipped += 1
                    else:
                        warmed += 1
                if n == batch:
                    still.append(entry)
            work = still
        self.refs += refs
        self.l1_hits += l1_hits
        self.warmed += warmed
        self.skipped += skipped
        self.membars += membars
