"""DSS workload modelled after Query 6 of TPC-D (Section 3.1).

Q6 scans the largest table in the database (``lineitem``) evaluating a
date/discount/quantity predicate and accumulating a revenue aggregate.
The paper runs it with Oracle's Parallel Query Optimization over an
in-memory 500 MB database, decomposed into four server processes per CPU.

The memory-system signature (and what the model reproduces):

* a small, tight instruction loop (the SQL executor's scan/filter path)
  that fits comfortably in the L1 I-cache;
* a sequential table scan with high spatial locality — every row brings a
  handful of *independent* line misses that an out-of-order window (or
  MSHR-style overlap) hides almost entirely;
* heavy per-row computation (interpreted predicate evaluation and
  aggregation in a real database engine) — execution is dominated by CPU
  busy time, so clock speed and issue width pay off directly (the paper:
  OOO's faster clock alone nearly doubles performance over P1, with almost
  another doubling from wide issue);
* essentially no inter-CPU communication: each server process scans a
  disjoint partition (near-linear CMP scaling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.messages import IFETCH, LOAD, STORE
from ..sim.rng import substream
from .base import AddressSpaceBuilder, Workload, WorkloadThread


@dataclass(frozen=True)
class DssParams:
    """Tunable shape parameters for the DSS (TPC-D Q6) model."""

    #: rows each CPU scans in the measured phase
    rows: int = 260
    warmup_rows: int = 40
    #: scan-loop code footprint: 48 lines = 3 KB (fits any L1I)
    code_lines: int = 48
    #: instructions of executor work per row (predicate + aggregate in an
    #: interpreted SQL engine; dominates execution time)
    instrs_per_row: int = 2000
    #: lines per table row (~180-byte rows: Oracle row format + overhead)
    lines_per_row: int = 3
    #: per-CPU table partition (scanned sequentially, far larger than L2)
    partition_lines: int = 1 << 16
    #: fraction of scan loads that are dependent (aggregation carried
    #: dependencies); the rest stream through the OOO window
    dependent_fraction: float = 0.2
    #: private per-CPU aggregation state
    agg_lines: int = 16
    #: final result merge into a shared buffer (one line per CPU chunk)
    result_lines: int = 64
    seed: int = 6000


class DssWorkload(Workload):
    """TPC-D Q6-like parallel scan over partitioned table data."""

    name = "dss"
    #: loops expose useful ILP to a wide OOO core (paper [35])
    ilp = 1.7

    def __init__(self, params: Optional[DssParams] = None,
                 cpus_per_node: int = 8, num_nodes: int = 1) -> None:
        self.params = params or DssParams()
        self.cpus_per_node = cpus_per_node
        self.num_nodes = num_nodes
        p = self.params
        total_cpus = cpus_per_node * num_nodes
        space = AddressSpaceBuilder()
        self.code = space.region("code", p.code_lines)
        self.result = space.region("result", p.result_lines)
        self.agg = space.region("agg", p.agg_lines * total_cpus)
        self.table = space.region("table", p.partition_lines * total_cpus)
        space.validate()
        self.space = space

    def thread_for(self, node: int, cpu: int) -> Optional[WorkloadThread]:
        if node >= self.num_nodes or cpu >= self.cpus_per_node:
            return None
        p = self.params
        global_cpu = node * self.cpus_per_node + cpu
        rng = substream(p.seed, "dss", node, cpu)
        part_base = global_cpu * p.partition_lines
        agg_base = global_cpu * p.agg_lines

        def gen() -> Iterator:
            from ..core.cpu import WARMUP_DONE

            cursor = 0
            #: executor work is emitted as a handful of instruction-fetch
            #: chunks per row, walking the resident scan loop
            chunks = 8
            instrs_per_chunk = p.instrs_per_row // chunks
            total_rows = p.rows + p.warmup_rows
            for row in range(total_rows):
                if row == p.warmup_rows:
                    yield (0, None, WARMUP_DONE, True)
                # row fetch: sequential lines, overlappable (streaming)
                for i in range(p.lines_per_row):
                    line = part_base + (cursor + i) % p.partition_lines
                    dep = rng.random() < p.dependent_fraction
                    yield (4, LOAD, self.table.line_addr(line), dep)
                cursor = (cursor + p.lines_per_row) % p.partition_lines
                # per-row executor work over the scan loop's code lines
                for c in range(chunks):
                    code_line = (row * chunks + c) % p.code_lines
                    yield (instrs_per_chunk, IFETCH,
                           self.code.line_addr(code_line), True)
                # aggregation state update (private, hits)
                yield (6, STORE,
                       self.agg.line_addr(agg_base + row % p.agg_lines), True)
                # periodic result-buffer merge (the only sharing)
                if row % 64 == 63:
                    yield (20, STORE,
                           self.result.line_addr(global_cpu % p.result_lines),
                           True)

        return WorkloadThread(gen(), ilp=self.ilp, name=f"dss-n{node}c{cpu}")
