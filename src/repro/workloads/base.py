"""Workload-model substrate.

The paper evaluates Piranha with SimOS-Alpha running Oracle (OLTP modelled
after TPC-B, DSS after TPC-D Q6).  We cannot run Oracle; instead each
workload is a *statistical reference-stream model* parameterised from the
memory-system behaviour the paper and its companion studies report: large
instruction and data footprints and high communication-miss rates for
OLTP, tight scan loops with high spatial locality for DSS.

A workload supplies one :class:`WorkloadThread` per (node, cpu).  A thread
iterates work items ``(instructions, kind, addr, dependent)``:

* ``instructions`` — instructions executed (1 cycle each on the in-order
  cores; scaled by available ILP on the OOO baseline);
* ``kind`` — an :class:`~repro.core.messages.AccessKind` or None;
* ``addr`` — byte address of the access;
* ``dependent`` — False marks an independent (streaming) access that an
  out-of-order window can overlap with others.

Address-space layout is shared by all CPUs and nodes (a shared-memory
database), carved into :class:`Region` objects with distinct locality
models.  All randomness is drawn from named deterministic substreams.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple

from ..core.messages import IFETCH, AccessKind
from ..sim.rng import substream

LINE = 64

WorkItem = Tuple[int, Optional[AccessKind], int, bool]


class WorkloadThread:
    """Iterator wrapper carrying per-workload attributes (e.g. ILP).

    Threads are the one checkpoint-hostile piece of live simulation state:
    the work-item stream is a running generator, which CPython cannot
    pickle.  Instead of serialising the frame, a thread counts the items
    it has emitted and remembers where it came from (its workload and
    (node, cpu) slot, bound by
    :meth:`~repro.core.system.PiranhaSystem.attach_workload`).  A restored
    thread rebuilds lazily: on the first ``__next__`` after a restore it
    asks the workload for a fresh thread for the same slot — workload
    generators draw all randomness from named
    :func:`~repro.sim.rng.substream`\\ s, so the fresh stream is identical
    — and fast-forwards it by the emitted count.  Rebuilding on first use
    (rather than during unpickling) keeps restore independent of pickle's
    object-graph ordering.
    """

    def __init__(self, gen: Iterator[WorkItem], ilp: float = 1.0,
                 name: str = "") -> None:
        self._gen: Optional[Iterator[WorkItem]] = gen
        self.ilp = ilp
        self.name = name
        self.emitted = 0
        self.exhausted = False
        #: (workload, node, cpu) rebuild recipe; None until the thread is
        #: attached through PiranhaSystem.attach_workload
        self.source = None

    def bind_source(self, workload, node: int, cpu: int) -> None:
        """Record the rebuild recipe for checkpoint/restore."""
        self.source = (workload, node, cpu)

    def __iter__(self) -> "WorkloadThread":
        return self

    def __next__(self) -> WorkItem:
        gen = self._gen
        if gen is None:
            gen = self._rebuild()
        try:
            item = next(gen)
        except StopIteration:
            self.exhausted = True
            raise
        self.emitted += 1
        return item

    def take(self, limit: int, until: Optional[int] = None
             ) -> Tuple[List[WorkItem], bool]:
        """Pull up to *limit* items in one call rather than one
        ``__next__`` each.  With *until*, stop after the first access-free
        item at address *until* (a sentinel: consumed, not returned).

        Returns ``(items, hit_sentinel)``; ``emitted``, exhaustion and the
        lazy rebuild after a restore advance exactly as the same run of
        ``__next__`` calls would advance them.
        """
        gen = self._gen
        if gen is None:
            if self.exhausted:
                return [], False
            gen = self._rebuild()
        if until is None:
            items = list(islice(gen, limit))
        else:
            items = []
            append = items.append
            for item in islice(gen, limit):
                if item[1] is None and item[2] == until:
                    self.emitted += len(items) + 1
                    return items, True
                append(item)
        self.emitted += len(items)
        if len(items) < limit:
            self.exhausted = True
        return items, False

    def _rebuild(self) -> Iterator[WorkItem]:
        """Regenerate and fast-forward the stream after a restore."""
        if self.exhausted:
            raise StopIteration
        if self.source is None:
            raise RuntimeError(
                f"workload thread {self.name!r} was restored without a "
                f"rebuild source; attach threads via "
                f"PiranhaSystem.attach_workload")
        workload, node, cpu = self.source
        fresh = workload.thread_for(node, cpu)
        if fresh is None:
            raise RuntimeError(
                f"workload thread {self.name!r}: thread_for({node}, {cpu}) "
                f"returned None on rebuild")
        gen = fresh._gen
        for _ in range(self.emitted):
            next(gen)
        self._gen = gen
        return gen

    # -- checkpoint/restore ----------------------------------------------

    def __getstate__(self) -> dict:
        """Everything except the live generator."""
        if (self.source is None and not self.exhausted
                and self._gen is not None):
            raise TypeError(
                f"workload thread {self.name!r} is not checkpointable: it "
                f"was attached without a rebuild source (use "
                f"PiranhaSystem.attach_workload)")
        state = dict(self.__dict__)
        del state["_gen"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._gen = None  # rebuilt lazily on the next __next__


class Workload:
    """Base class: a workload builds one thread per (node, cpu).

    Each subclass names its unit of work in the class attribute
    ``units_attr``: the field of its ``params`` that counts the measured
    units per CPU, which the harness reports results in.
    """

    name = "workload"
    #: instruction-level parallelism the OOO core can extract (the paper:
    #: small for OLTP due to dependent chains, larger for DSS loops)
    ilp = 1.0
    #: why sampled mode cannot measure this workload ("" when it can);
    #: :class:`~repro.fastforward.SampledRun` refuses before any event
    sampled_refusal = ""

    def thread_for(self, node: int, cpu: int) -> Optional[WorkloadThread]:
        raise NotImplementedError


class ZipfSampler:
    """Zipf(alpha) sampler over [0, n) using an inverse-CDF table."""

    def __init__(self, n: int, alpha: float) -> None:
        if n < 1:
            raise ValueError("need at least one element")
        self.n = n
        self.alpha = alpha
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        total = sum(weights)
        acc = 0.0
        #: cumulative rank probabilities; ``bisect_left(cdf, u)`` is a
        #: rank, or ``n`` when float rounding leaves ``cdf[-1] < u``
        self.cdf: List[float] = []
        for w in weights:
            acc += w / total
            self.cdf.append(acc)

    def sample(self, u: float) -> int:
        """Map a uniform [0,1) variate to a rank (0 is hottest)."""
        return min(bisect.bisect_left(self.cdf, u), self.n - 1)


@dataclass(frozen=True)
class Region:
    """A contiguous address-space region of ``lines`` cache lines."""

    name: str
    base: int
    lines: int

    @property
    def bytes(self) -> int:
        return self.lines * LINE

    @property
    def end(self) -> int:
        return self.base + self.bytes

    def line_addr(self, index: int) -> int:
        if not 0 <= index < self.lines:
            raise IndexError(f"{self.name}: line {index} of {self.lines}")
        return self.base + index * LINE


class AddressSpaceBuilder:
    """Allocates non-overlapping regions on large alignment boundaries."""

    def __init__(self, base: int = 0x0000_0000, align: int = 1 << 20) -> None:
        self._next = base
        self._align = align
        self.regions: List[Region] = []

    def region(self, name: str, lines: int) -> Region:
        base = self._next
        region = Region(name, base, lines)
        self.regions.append(region)
        size = lines * LINE
        self._next = (base + size + self._align - 1) // self._align * self._align
        return region

    def validate(self) -> None:
        spans = sorted((r.base, r.end, r.name) for r in self.regions)
        for (b1, e1, n1), (b2, e2, n2) in zip(spans, spans[1:]):
            if b2 < e1:
                raise ValueError(f"regions {n1} and {n2} overlap")


class CodeWalk:
    """Instruction-stream model: a zipf-weighted walk over code blocks.

    The code region is divided into basic-block *runs*; picking a run emits
    its lines sequentially, one IFETCH per line with ``instrs_per_line``
    instructions of execution folded in.  Zipf-weighted block selection
    produces the hot/warm/cold code behaviour of a large database engine.

    The walk draws nothing from a thread's random stream: its rank
    permutation comes from a fixed substream, so one walk serves every
    thread of a workload.  ``runs[rank]`` is the run of zipf rank *rank*
    as a ready-made tuple of IFETCH items, and :meth:`run` maps a thread's
    uniform variate to one.
    """

    def __init__(self, region: Region, alpha: float = 0.75,
                 run_lines: int = 6, instrs_per_line: int = 16) -> None:
        self.region = region
        self.run_lines = run_lines
        self.instrs_per_line = instrs_per_line
        self.num_starts = max(1, region.lines // run_lines)
        self.cdf = ZipfSampler(self.num_starts, alpha).cdf
        # Hash ranks around the region so hot blocks are scattered (as
        # linked object code is), not clustered at the base.
        perm = list(range(self.num_starts))
        substream(0xC0DE, region.name, "perm").shuffle(perm)
        self.runs: List[Tuple[WorkItem, ...]] = [
            tuple((instrs_per_line, IFETCH,
                   region.line_addr((start + i) % region.lines), True)
                  for i in range(run_lines))
            for start in (block * run_lines for block in perm)]
        # bisect past the last CDF entry (float rounding) picks the last
        # rank, as ZipfSampler.sample clamps it
        self.runs.append(self.runs[-1])

    def run(self, u: float) -> Tuple[WorkItem, ...]:
        """The basic-block run a uniform [0,1) variate *u* picks."""
        return self.runs[bisect.bisect_left(self.cdf, u)]


def interleave_order(num_code: int, num_data: int,
                     data_per_code_line: float = 1.0) -> List[int]:
    """Where each item goes when data references are woven between
    instruction-fetch lines, so the reference mix approximates a real
    instruction stream (roughly one data reference per few instructions).

    Indexes the concatenation ``code_items + data_items``: after each code
    item, the data items its accumulated share ``data_per_code_line``
    (a float ``carry``) has earned, then whatever data is left."""
    order: List[int] = []
    di = 0
    carry = 0.0
    for ci in range(num_code):
        order.append(ci)
        carry += data_per_code_line
        while carry >= 1.0 and di < num_data:
            order.append(num_code + di)
            di += 1
            carry -= 1.0
    order.extend(range(num_code + di, num_code + num_data))
    return order


# -- random draws without the stdlib's per-draw frames ------------------------
#
# ``random.Random.randrange`` and ``.shuffle`` reach the Mersenne Twister
# through ``_randbelow_with_getrandbits``.  The two helpers below are that
# algorithm written out on top of ``getrandbits``: the same calls on the
# same generator, so the same values, without two to three Python frames
# per draw.  tests/property/test_draw_props.py holds them to the stdlib.


def randbelow(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` for ``getrandbits = rng.getrandbits``."""
    if n <= 0:
        raise ValueError("empty range for randbelow()")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def shuffle(getrandbits, x: list) -> None:
    """``rng.shuffle(x)`` for ``getrandbits = rng.getrandbits``."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


class NodeShards:
    """Node-local sampling within a region under the round-robin home map.

    Homes are assigned per 8 KB chunk of the physical address space
    (:class:`repro.mem.addr.AddressMap`), so the chunks of a region that
    are homed at a given node form that node's *shard*.  Database engines
    running on NUMA machines work hard to allocate a client's rows, log
    stripes and scratch memory out of node-local shards; the workloads use
    this helper to model that locality (a ``numa_locality`` probability
    picks the local shard, otherwise the whole region).
    """

    def __init__(self, region: Region, num_nodes: int,
                 granularity: int = 8192) -> None:
        self.region = region
        self.num_nodes = num_nodes
        self.chunk_lines = granularity // LINE
        base_chunk = region.base // granularity
        total_chunks = -(-region.bytes // granularity)
        self._chunks_by_node: List[List[int]] = [[] for _ in range(num_nodes)]
        for c in range(total_chunks):
            home = (base_chunk + c) % num_nodes
            self._chunks_by_node[home].append(c)

    def local_chunks(self, node: int) -> List[int]:
        return self._chunks_by_node[node]

    def sample_line(self, rng, node: int) -> int:
        """A uniformly random line index homed at *node* (falls back to the
        whole region when the node owns no chunk of it)."""
        getrandbits = rng.getrandbits
        chunks = self._chunks_by_node[node]
        if not chunks:
            return randbelow(getrandbits, self.region.lines)
        chunk = chunks[randbelow(getrandbits, len(chunks))]
        lo = chunk * self.chunk_lines
        hi = min(lo + self.chunk_lines, self.region.lines)
        if lo >= self.region.lines:
            return randbelow(getrandbits, self.region.lines)
        return lo + randbelow(getrandbits, hi - lo)

    def local_line(self, node: int, index: int) -> int:
        """Deterministic mapping of a local cursor to node-homed lines
        (used for append streams like history/log stripes)."""
        chunks = self._chunks_by_node[node]
        if not chunks:
            return index % self.region.lines
        chunk = chunks[(index // self.chunk_lines) % len(chunks)]
        line = chunk * self.chunk_lines + index % self.chunk_lines
        return line % self.region.lines

