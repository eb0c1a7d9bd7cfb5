"""Synthetic microbenchmarks.

Small, precisely-shaped reference streams used by unit/integration tests
and the ablation benchmarks: private streaming, shared read-only data,
migratory read-modify-write lines, producer/consumer pairs, and uniform
random soups.  Unlike the commercial-workload models these make no claim
of realism — they isolate one memory-system behaviour each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.messages import LOAD, STORE, WH64
from ..sim.rng import substream
from .base import AddressSpaceBuilder, Workload, WorkloadThread


@dataclass(frozen=True)
class MicroParams:
    iterations: int = 1000
    warmup: int = 100
    lines: int = 256
    write_fraction: float = 0.3
    work_per_access: int = 4
    seed: int = 9000


class _MicroBase(Workload):
    ilp = 1.5

    def __init__(self, params: Optional[MicroParams] = None,
                 cpus_per_node: int = 8, num_nodes: int = 1) -> None:
        self.params = params or MicroParams()
        self.cpus_per_node = cpus_per_node
        self.num_nodes = num_nodes
        space = AddressSpaceBuilder()
        total_cpus = cpus_per_node * num_nodes
        self.shared = space.region("shared", self.params.lines)
        self.private = space.region("private",
                                    self.params.lines * total_cpus)
        space.validate()
        self.space = space

    def _emit(self, node: int, cpu: int, rng) -> Iterator:
        raise NotImplementedError

    def thread_for(self, node: int, cpu: int) -> Optional[WorkloadThread]:
        if node >= self.num_nodes or cpu >= self.cpus_per_node:
            return None
        rng = substream(self.params.seed, self.name, node, cpu)

        def gen() -> Iterator:
            from ..core.cpu import WARMUP_DONE

            p = self.params
            it = self._emit(node, cpu, rng)
            for i in range(p.warmup):
                nxt = next(it, None)
                if nxt is None:
                    break
                yield nxt
            yield (0, None, WARMUP_DONE, True)
            for i in range(p.iterations):
                nxt = next(it, None)
                if nxt is None:
                    break
                yield nxt

        return WorkloadThread(gen(), ilp=self.ilp,
                              name=f"{self.name}-n{node}c{cpu}")


class PrivateStream(_MicroBase):
    """Each CPU streams sequentially through its own region (no sharing)."""

    name = "private-stream"

    def _emit(self, node: int, cpu: int, rng) -> Iterator:
        p = self.params
        base = (node * self.cpus_per_node + cpu) * p.lines
        i = 0
        while True:
            yield (p.work_per_access, LOAD,
                   self.private.line_addr(base + i % p.lines), False)
            i += 1


class SharedReadOnly(_MicroBase):
    """All CPUs read the same lines (code-like sharing; forwards + hits)."""

    name = "shared-read"

    def _emit(self, node: int, cpu: int, rng) -> Iterator:
        p = self.params
        while True:
            line = rng.randrange(p.lines)
            yield (p.work_per_access, LOAD,
                   self.shared.line_addr(line), True)


class MigratoryWrites(_MicroBase):
    """Read-modify-write of hot shared lines: classic migratory sharing —
    lines ping between owners, exercising forwards and invalidations."""

    name = "migratory"

    def _emit(self, node: int, cpu: int, rng) -> Iterator:
        p = self.params
        hot = max(1, p.lines // 16)
        while True:
            line = rng.randrange(hot)
            yield (p.work_per_access, LOAD,
                   self.shared.line_addr(line), True)
            yield (p.work_per_access, STORE,
                   self.shared.line_addr(line), True)


class ProducerConsumer(_MicroBase):
    """Even CPUs write a buffer region, odd CPUs read it (one-way flow)."""

    name = "producer-consumer"

    def _emit(self, node: int, cpu: int, rng) -> Iterator:
        p = self.params
        producer = (node * self.cpus_per_node + cpu) % 2 == 0
        i = 0
        while True:
            line = i % p.lines
            if producer:
                yield (p.work_per_access, WH64,
                       self.shared.line_addr(line), True)
            else:
                yield (p.work_per_access, LOAD,
                       self.shared.line_addr(line), True)
            i += 1


class UniformRandom(_MicroBase):
    """Uniform random loads/stores over the shared region."""

    name = "uniform"

    def _emit(self, node: int, cpu: int, rng) -> Iterator:
        p = self.params
        while True:
            line = rng.randrange(p.lines)
            kind = STORE if rng.random() < p.write_fraction else LOAD
            yield (p.work_per_access, kind, self.shared.line_addr(line), True)
