"""Functional (event-free) warming of the memory hierarchy.

Fast-forward phases advance the machine *without the event queue*: work
items are pulled straight off each CPU's workload thread and their cache
effects applied synchronously — L1 lookups (with their LRU /
silent-upgrade side effects) and, for L1 misses, the L2 bank's
:meth:`~repro.core.l2.L2Bank.warm_request`, which makes the detailed
service path's miss decision and changes the same objects through the
same fill routine (duplicate tags, victim-cache flow, DRAM page state,
checker hooks).  No simulated time passes and no timing is charged; the
point is that a detailed measurement window opened right after a
fast-forward phase sees the L1s, L2, duplicate tags, directory and DRAM
row buffers in the state a monolithic run would have left them.

The warm-up streams: :meth:`FunctionalWarmer.warm_up` pulls one
``SLICE_ITEMS`` slice per CPU with one
:meth:`~repro.workloads.base.WorkloadThread.take` call, applies it, and
moves to the next CPU, so no more than one slice per CPU is ever held.
Fast-forward periods keep only a bounded tail of each CPU's span
(:meth:`~FunctionalWarmer.collect`) and apply the tails in the same
round-robin slices (:meth:`~FunctionalWarmer.apply_interleaved`).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import itemgetter
from typing import Dict, List, Tuple

from ..core.cpu import WARMUP_DONE
from ..core.messages import IFETCH, MEMBAR, WH64, CacheId, request_for
from ..mem.addr import LINE_SHIFT

#: work items pulled from a thread per batch during fast-forward periods
CHUNK_ITEMS = 2048
#: work items one CPU applies before the next CPU's turn.  Interleaving
#: in small slices matters for shared lines: applying one CPU's whole
#: span before the next would leave every contended line owned by the
#: last CPU processed, skewing the L1-forward mix the following detailed
#: window measures
SLICE_ITEMS = 128

_INSTRUCTIONS = itemgetter(0)
_LINE_MASK = ~((1 << LINE_SHIFT) - 1)


def _lane(cpu) -> tuple:
    """What applying one CPU's items needs, looked up once per phase:
    the CPU, its chip's banks and bank mask, its L1s, and its
    instruction and data cache ids."""
    chip = cpu.chip
    return (cpu, chip.banks, len(chip.banks) - 1, chip.l1s,
            CacheId.encode(cpu.cpu_id, True),
            CacheId.encode(cpu.cpu_id, False))


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

    def warm_up(self, cpus) -> List[Tuple[int, bool]]:
        """Consume and apply each of *cpus*' threads through its warm-up
        sentinel, one ``SLICE_ITEMS`` slice per CPU in turn.

        A CPU drops out of the rotation at its sentinel (consumed, never
        applied) or when its thread ends before it.  Returns one
        ``(consumed, exhausted)`` pair per CPU, in order; *exhausted* is
        True for a thread that ended short of its sentinel.
        """
        lanes = [_lane(cpu) for cpu in cpus]
        consumed = [0] * len(lanes)
        exhausted = [False] * len(lanes)
        live = list(range(len(lanes)))
        while live:
            still = []
            for i in live:
                lane = lanes[i]
                items, hit = lane[0].thread.take(SLICE_ITEMS, WARMUP_DONE)
                consumed[i] += len(items) + hit
                self.instructions += sum(map(_INSTRUCTIONS, items))
                self._apply(lane, items)
                if hit:
                    self.skimmed += 1   # the sentinel is never applied
                elif len(items) < SLICE_ITEMS:
                    exhausted[i] = True
                else:
                    still.append(i)
            live = still
        self.items += sum(consumed)
        return list(zip(consumed, exhausted))

    def collect(self, cpu, max_items: int, tail: int):
        """Consume *max_items* items from *cpu*'s thread WITHOUT applying
        them yet.

        Counts instructions as it goes and keeps the last *tail* items
        for later application via :meth:`apply_interleaved`: items are
        plain tuples, so applying them after collection is identical to
        applying them at consumption time (the warm path is time-free).
        Dropping all but the tail of a long span is the classic
        warming-window approximation: the recency state the next
        detailed window reads is rebuilt by the tail, while the skimmed
        prefix only costs stream generation, a fraction of a full cache
        update's cost (DESIGN.md §4n).  Returns ``(buffered_items,
        consumed, exhausted)``.
        """
        thread = cpu.thread
        consumed = 0
        exhausted = False
        buf = deque(maxlen=tail)
        remaining = int(max_items)
        while remaining > 0:
            want = min(CHUNK_ITEMS, remaining)
            batch, _hit = thread.take(want)
            consumed += len(batch)
            self.instructions += sum(map(_INSTRUCTIONS, batch))
            buf.extend(batch)
            if len(batch) < want:
                exhausted = True
                break
            remaining -= len(batch)
        self.items += consumed
        self.skimmed += consumed - len(buf)
        return buf, consumed, exhausted

    def apply_interleaved(self, buffers) -> None:
        """Apply collected item buffers, one ``SLICE_ITEMS`` slice per
        CPU in turn.  *buffers* is a list of ``(cpu, items)`` pairs."""
        work = [(_lane(cpu), iter(items)) for cpu, items in buffers]
        while work:
            work = [(lane, it) for lane, it in work
                    if self._apply(lane, list(islice(it, SLICE_ITEMS)))
                    == SLICE_ITEMS]

    def _apply(self, lane: tuple, items: list) -> int:
        """Apply one CPU's *items* with no time and no event: a fence is
        an instant no-op (no eager-grant acks can be outstanding between
        events) that only keeps its counter moving, a reference looks up
        its L1, and an L1 miss is served by its bank's
        :meth:`~repro.core.l2.L2Bank.warm_request`.  Returns the number
        of items applied."""
        cpu, banks, bank_mask, l1s, icache, dcache = lane
        line_mask = _LINE_MASK
        refs = l1_hits = warmed = skipped = membars = 0
        for _instrs, kind, addr, _dep in items:
            if kind is None:
                continue
            if kind == MEMBAR:
                membars += 1
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
        cpu.c_membar.value += membars
        self.refs += refs
        self.l1_hits += l1_hits
        self.warmed += warmed
        self.skipped += skipped
        self.membars += membars
        return len(items)
