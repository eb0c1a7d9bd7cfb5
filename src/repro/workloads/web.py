"""Web-server / search workload (Section 6).

The paper expects Piranha to suit web-serving workloads with explicit
thread-level parallelism, citing that the AltaVista search engine
"exhibits behavior similar to decision support (DSS) workloads" [4]:
index-scan loops with high spatial locality and little inter-thread
communication, but — unlike a pure table scan — with a zipf-hot cached
index portion and per-query result assembly.

The model: each CPU serves a stream of queries; a query walks several
posting-list segments (sequential line runs at random index locations,
with a zipf-hot head that stays cache-resident), scores candidates
(CPU-heavy loop), and appends to a private result buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.messages import IFETCH, LOAD, STORE
from ..sim.rng import substream
from .base import AddressSpaceBuilder, Workload, WorkloadThread, ZipfSampler


@dataclass(frozen=True)
class WebParams:
    """Tunable shape parameters for the search/web model."""

    queries: int = 150
    warmup_queries: int = 40
    #: service loop code (fits the L1I, like DSS)
    code_lines: int = 64
    #: shared in-memory index: 16 MB of posting lists
    index_lines: int = 1 << 18
    index_zipf: float = 0.9
    #: posting-list segments walked per query and their run length
    segments_per_query: int = 4
    segment_lines: int = 8
    #: scoring work per segment line (instructions)
    instrs_per_line: int = 220
    #: private per-CPU result buffer
    result_lines: int = 32
    seed: int = 7000


class WebWorkload(Workload):
    """AltaVista-like search serving (DSS-shaped, zipf-hot index)."""

    name = "web"
    units_attr = "queries"
    ilp = 1.65  # loop-heavy scoring exposes ILP, like DSS

    def __init__(self, params: Optional[WebParams] = None,
                 cpus_per_node: int = 8, num_nodes: int = 1) -> None:
        self.params = params or WebParams()
        self.cpus_per_node = cpus_per_node
        self.num_nodes = num_nodes
        p = self.params
        total_cpus = cpus_per_node * num_nodes
        space = AddressSpaceBuilder()
        self.code = space.region("code", p.code_lines)
        self.index = space.region("index", p.index_lines)
        self.result = space.region("result", p.result_lines * total_cpus)
        space.validate()
        self.space = space
        segments = p.index_lines // p.segment_lines
        self._segment_sampler = ZipfSampler(segments, p.index_zipf)

    def thread_for(self, node: int, cpu: int) -> Optional[WorkloadThread]:
        if node >= self.num_nodes or cpu >= self.cpus_per_node:
            return None
        p = self.params
        global_cpu = node * self.cpus_per_node + cpu
        rng = substream(p.seed, "web", node, cpu)
        result_base = global_cpu * p.result_lines

        def gen() -> Iterator:
            from ..core.cpu import WARMUP_DONE

            total = p.queries + p.warmup_queries
            for query in range(total):
                if query == p.warmup_queries:
                    yield (0, None, WARMUP_DONE, True)
                for seg in range(p.segments_per_query):
                    rank = self._segment_sampler.sample(rng.random())
                    start = rank * p.segment_lines
                    for i in range(p.segment_lines):
                        line = start + i
                        # posting-list lines stream through the window
                        yield (4, LOAD,
                               self.index.line_addr(line), False)
                        # scoring work over the resident service loop
                        code_line = (query * 7 + seg * 3 + i) % p.code_lines
                        yield (p.instrs_per_line, IFETCH,
                               self.code.line_addr(code_line), True)
                # result assembly (private, hits)
                yield (30, STORE,
                       self.result.line_addr(result_base
                                             + query % p.result_lines), True)

        return WorkloadThread(gen(), ilp=self.ilp, name=f"web-n{node}c{cpu}")
