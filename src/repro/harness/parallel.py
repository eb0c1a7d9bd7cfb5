"""Experiment-level parallelism: fan independent points across processes.

Each simulation point is an independent, deterministic, single-threaded
program — the ideal unit for process-level parallelism.  :func:`run_jobs`
takes a list of :class:`Job` specs, answers what it can from the memo /
disk caches, and fans the remaining points out over a
``ProcessPoolExecutor``.  Workers run the shared
:func:`~repro.harness.runner.simulate` implementation, so a parallel run
produces bit-for-bit the same measurement payload as a serial one (see
DESIGN.md, "Determinism").

Parallelism is opt-in: pass ``jobs=N``, or set ``REPRO_JOBS=N`` in the
environment (``REPRO_JOBS=0`` means one worker per CPU core).  With one
job — the default — everything runs serially in-process, exactly as
before this layer existed.

Jobs whose workload factory cannot be pickled (closures, lambdas) fall
back to serial execution transparently; the picklable factories in
:mod:`repro.harness.experiments` cover every standard workload.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.config import ChipConfig
from .runner import (
    RunResult,
    RunSpec,
    cached_result,
    run_spec,
    simulate_spec,
    store_result,
)


@dataclass(frozen=True)
class Job:
    """One simulation point: a config, a workload factory, a node count
    and the :class:`RunSpec` to measure it under (resolved on
    construction, so a bad mode fails before any cache lookup)."""

    config: ChipConfig
    factory: Callable[[ChipConfig, int], object]
    num_nodes: int = 1
    spec: RunSpec = RunSpec()
    #: route through the warm-checkpoint store (restore-or-snapshot at the
    #: warm-up boundary); execution strategy only — never part of a cache
    #: key, results are byte-identical either way
    warmup: bool = False
    #: telemetry stream target (a *path string* for parallel jobs —
    #: open handles don't pickle); workers stream from their own process
    telemetry: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "spec", self.spec.resolve())


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1.

    0 (or a negative value) means "use every CPU core".
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _execute(job: Job) -> RunResult:
    """Worker-side entry: plain simulation.  Cache reads and writes stay
    in the parent so workers never race on the cache directory — with
    one exception: warm checkpoints are written worker-side (atomic
    tmp+rename, and distinct points never share a key), because shipping
    multi-megabyte snapshots back through the result pickle would cost
    more than the race it avoids."""
    return simulate_spec(job.config, job.factory, job.num_nodes, job.spec,
                         job.warmup, job.telemetry)


def _picklable(job: Job) -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


def run_jobs(jobs_list: Sequence[Job], jobs: Optional[int] = None,
             ) -> List[RunResult]:
    """Execute every job, in order, using up to *jobs* worker processes.

    Results are returned in input order.  Cached points (memo or disk)
    are answered immediately and never dispatched; fresh results are
    written back to both caches by the parent.
    """
    jobs_list = list(jobs_list)
    n_workers = resolve_jobs(jobs)
    results: List[Optional[RunResult]] = [None] * len(jobs_list)

    misses: List[int] = []
    for i, job in enumerate(jobs_list):
        cached = cached_result(job.config, job.factory, job.num_nodes,
                               job.spec)
        if cached is not None:
            results[i] = cached
        else:
            misses.append(i)

    if not misses:
        return results  # type: ignore[return-value]

    parallel_idx = [i for i in misses if _picklable(jobs_list[i])]
    serial_idx = [i for i in misses if i not in set(parallel_idx)]
    if n_workers <= 1 or len(parallel_idx) <= 1:
        serial_idx = misses
        parallel_idx = []

    if parallel_idx:
        workers = min(n_workers, len(parallel_idx))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fresh = pool.map(_execute, [jobs_list[i] for i in parallel_idx])
            for i, result in zip(parallel_idx, fresh):
                job = jobs_list[i]
                store_result(result, job.config, job.factory, job.num_nodes,
                             job.spec)
                results[i] = result

    for i in serial_idx:
        job = jobs_list[i]
        results[i] = run_spec(job.config, job.factory, job.num_nodes,
                              job.spec, job.warmup, job.telemetry)

    return results  # type: ignore[return-value]
