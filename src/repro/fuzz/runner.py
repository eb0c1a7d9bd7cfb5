"""Execute fuzz programs against the live simulator and cross-check.

:class:`FuzzWorkload` adapts a :class:`~repro.fuzz.program.FuzzProgram`
to the standard workload interface, so a fuzz run flows through the
harness's single shared measurement path
(:func:`repro.harness.runner.simulate`) like any experiment.  Two
optional workload hooks carry the fuzz-specific wiring:

* ``bind_system(system)`` — attach per-CPU completion observers
  (``CpuCore.obs_hook``), install the program's protocol mutation (if
  any), and stand up the :class:`~repro.fuzz.reference.ReferenceChecker`;
* ``post_run(system, result)`` — audit the quiesced system's residue
  and publish the reference telemetry as ``RunResult.extras["fuzz"]``.

Observation happens *at completion time, inside the completing event*:
the CPU fires ``obs_hook`` synchronously from the hit path and from the
miss-completion callback, so the L1 peek sees exactly the version the
access observed — no later invalidation can slip in between.  (Peeking
when the generator resumes would race the asynchronous batch-break
resume window.)

:func:`run_fuzz_program` wraps one program execution into a
:class:`FuzzVerdict`: either a clean pass with telemetry, or a captured
violation (reference, sanitizer, or stall) with a stable signature and
the tail of the protocol trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from ..checkpoint import PeriodicCheckpointer, replay_final_window
from ..core.checker import CoherenceViolation, violation_signature
from ..core.config import preset
from ..core.cpu import WARMUP_DONE
from ..core.messages import AccessKind
from ..harness.runner import RunResult, simulate
from ..mem.addr import LINE_SHIFT
from ..workloads.base import Workload, WorkloadThread
from .mutations import apply_mutation
from .program import OP_KINDS, FuzzProgram, Reproducer
from .reference import MemoryModelViolation, ReferenceChecker
from .shrink import shrink


@dataclass
class _FuzzUnits:
    """Exposes the per-CPU op count as the harness's measured units."""

    ops: int


class FuzzWorkload(Workload):
    """One FuzzProgram as a harness workload (one thread per used CPU)."""

    name = "fuzz"
    units_attr = "ops"
    ilp = 1.0
    sampled_refusal = ("the memory-model reference checker follows only "
                       "accesses the detailed path completes, so the items "
                       "functional warming consumes would desync it")

    def __init__(self, program: FuzzProgram,
                 checkpoint_every_ps: int = 0) -> None:
        program.validate()
        self.program = program
        self.params = _FuzzUnits(
            ops=max(1, program.op_count // program.total_cpus))
        self.reference = ReferenceChecker(program.total_cpus)
        self.cursors: List[int] = [0] * program.total_cpus
        self.system = None
        self.mutation_ticker = None
        #: simulated-time period for the in-memory snapshot flight
        #: recorder (0 = off); see :func:`run_fuzz_program`'s bisection
        self.checkpoint_every_ps = checkpoint_every_ps
        self.checkpointer = None

    # -- workload interface ------------------------------------------------

    def thread_for(self, node: int, cpu: int) -> Optional[WorkloadThread]:
        p = self.program
        if node >= p.nodes or cpu >= p.cpus_per_node:
            return None
        gcpu = node * p.cpus_per_node + cpu
        ops = p.ops[gcpu]
        pool = p.pool

        def gen() -> Iterator:
            yield (0, None, WARMUP_DONE, True)
            for kind, slot, gap in ops:
                if kind == "mb":
                    yield (gap, AccessKind.MEMBAR, 0, True)
                else:
                    yield (gap, OP_KINDS[kind], pool[slot], True)

        return WorkloadThread(gen(), ilp=self.ilp, name=f"fuzz-n{node}c{cpu}")

    # -- harness hooks -----------------------------------------------------

    def bind_system(self, system) -> None:
        """Install completion observers and the program's mutation."""
        p = self.program
        self.system = system
        if self.checkpoint_every_ps:
            self.checkpointer = PeriodicCheckpointer(
                system, self.checkpoint_every_ps)
            self.checkpointer.start()
        if p.mutation:
            self.mutation_ticker = apply_mutation(system, p.mutation,
                                                  p.mutation_period)
        for node in range(p.nodes):
            chip = system.nodes[node]
            for cpu in range(p.cpus_per_node):
                gcpu = node * p.cpus_per_node + cpu
                chip.cpus[cpu].obs_hook = partial(
                    self._observe, gcpu, chip.l1_of(cpu, False))

    def _observe(self, gcpu: int, l1d, kind: AccessKind, addr: int) -> None:
        """Completion observer of global CPU *gcpu* (whose dL1 is *l1d*):
        match the access against the program, then feed the reference."""
        ops = self.program.ops[gcpu]
        idx = self.cursors[gcpu]
        if idx >= len(ops):
            raise RuntimeError(
                f"fuzz desync: cpu{gcpu} completed more accesses than "
                f"its program holds ({len(ops)})")
        op_kind, slot, _gap = ops[idx]
        self.cursors[gcpu] = idx + 1
        if op_kind == "mb":
            if kind != AccessKind.MEMBAR:
                raise RuntimeError(
                    f"fuzz desync: cpu{gcpu} op#{idx} expected membar, "
                    f"observed {kind.name}")
            self.reference.on_membar(gcpu)
            return
        expect = self.program.pool[slot]
        if kind == AccessKind.MEMBAR or addr != expect:
            raise RuntimeError(
                f"fuzz desync: cpu{gcpu} op#{idx} expected "
                f"{op_kind}@{expect:#x}, observed "
                f"{kind.name}@{addr:#x}")
        line = l1d.peek(addr)
        if line is None:
            raise MemoryModelViolation(
                "vanished-fill",
                f"reference[vanished-fill]: cpu{gcpu} op#{idx} "
                f"line={addr:#x} completed but no L1 copy exists")
        if op_kind == "ld":
            self.reference.on_read(gcpu, idx, addr, line.version)
        else:
            self.reference.on_write(gcpu, idx, addr, line.version, op_kind)

    def post_run(self, system, result: RunResult) -> None:
        """Quiesced-residue audit + telemetry export."""
        p = self.program
        for gcpu, cursor in enumerate(self.cursors):
            if cursor != len(p.ops[gcpu]):
                raise RuntimeError(
                    f"fuzz desync: cpu{gcpu} completed {cursor} of "
                    f"{len(p.ops[gcpu])} ops")
        pool_lines = set(p.pool)
        surviving: List[Tuple[str, int, int]] = []
        for chip in system.nodes:
            for label, caches in (("il1", chip.l1i), ("dl1", chip.l1d)):
                for l1 in caches:
                    for la, l1line in l1.iter_lines():
                        if la in pool_lines:
                            surviving.append((
                                f"node{chip.node_id}.{label}{l1.cpu_id}",
                                la, l1line.version))
            for bank in chip.banks:
                for lset in bank.sets:
                    for tag, l2line in lset.items():
                        la = tag << LINE_SHIFT
                        if la in pool_lines:
                            surviving.append((
                                f"node{chip.node_id}.l2b{bank.bank_idx}",
                                la, l2line.version))
                for la, version in bank.wb_buffer.items():
                    if la in pool_lines:
                        surviving.append((
                            f"node{chip.node_id}.wb{bank.bank_idx}",
                            la, version))
        mem = {la: v for la, v in system.mem_versions.items()
               if la in pool_lines}
        self.reference.final_check(surviving, mem)
        extras: Dict[str, float] = dict(self.reference.counts())
        extras["ops_executed"] = float(sum(self.cursors))
        if self.mutation_ticker is not None:
            extras["mutation_fired"] = float(self.mutation_ticker.fired)
        result.extras["fuzz"] = extras


@dataclass(frozen=True)
class FuzzFactory:
    """Cache-keyable workload factory (``workload_token`` uses the
    canonical program JSON, so identical programs share cache entries)."""

    program_json: str

    @property
    def cache_token(self) -> str:
        return self.program_json

    def __call__(self, config, num_nodes: int) -> FuzzWorkload:
        import json

        return FuzzWorkload(FuzzProgram.from_dict(json.loads(
            self.program_json)))


@dataclass
class FuzzVerdict:
    """Outcome of one program execution."""

    ok: bool
    signature: str = ""
    kind: str = ""
    message: str = ""
    counts: Dict[str, float] = field(default_factory=dict)
    trace_window: List[str] = field(default_factory=list)
    result: Optional[RunResult] = None
    #: violation-bisection outcome when periodic checkpointing was armed:
    #: :func:`~repro.checkpoint.replay_final_window`'s info dict (empty
    #: otherwise)
    bisect: Dict[str, object] = field(default_factory=dict)


def _trace_tail(workload: FuzzWorkload, last: int = 48) -> List[str]:
    system = workload.system
    checker = getattr(system, "checker", None) if system is not None else None
    trace = getattr(checker, "trace", None) if checker is not None else None
    if trace is None:
        return []
    return [ev.format() for ev in trace.events(last=last)]


def run_fuzz_program(program: FuzzProgram, check: bool = True,
                     trace_capacity: int = 2048,
                     checkpoint_every_ps: int = 0) -> FuzzVerdict:
    """Run one program deterministically; never raises on a violation.

    ``check=True`` (the default) arms both oracles: the structural
    sanitizer (continuous audits + quiesce verify) and the reference
    checker (always on — it rides the workload hooks).  A violation
    from either — or a stalled simulation — becomes a failed verdict
    carrying :func:`~repro.core.checker.violation_signature` and the
    protocol-trace tail.

    ``checkpoint_every_ps`` arms the snapshot flight recorder: on a
    violation the last pre-violation snapshot is restored and the final
    window replayed at full trace fidelity (see
    :func:`~repro.checkpoint.replay_final_window`); the outcome lands in
    ``FuzzVerdict.bisect``.
    """
    program.validate()
    config = preset(program.config)
    if program.cpus_per_node > config.cpus:
        raise ValueError(
            f"program wants {program.cpus_per_node} CPUs/node but "
            f"{program.config} has {config.cpus}")
    if program.op_count == 0:
        return FuzzVerdict(ok=True)
    workload = FuzzWorkload(program, checkpoint_every_ps=checkpoint_every_ps)
    try:
        result = simulate(
            config, lambda _cfg, _n: workload, num_nodes=program.nodes,
            check_coherence=check,
            trace_capacity=trace_capacity if check else 0,
        )
    except (MemoryModelViolation, CoherenceViolation, RuntimeError) as exc:
        return FuzzVerdict(
            ok=False,
            signature=violation_signature(exc),
            kind=getattr(exc, "kind", type(exc).__name__),
            message=str(exc),
            counts=dict(workload.reference.counts()),
            trace_window=_trace_tail(workload),
            bisect=replay_final_window(workload.checkpointer,
                                       trace_capacity),
        )
    return FuzzVerdict(ok=True,
                       counts=dict(result.extras.get("fuzz", {})),
                       result=result)


def shrink_failure(program: FuzzProgram, verdict: FuzzVerdict,
                   budget: int = 400, log=None) -> Reproducer:
    """Delta-debug a failing program to a minimal reproducer."""

    def run(candidate: FuzzProgram) -> FuzzVerdict:
        return run_fuzz_program(candidate, check=True, trace_capacity=512)

    outcome = shrink(program, verdict.signature, run, budget=budget, log=log)
    final = run(outcome.program)
    return Reproducer(
        program=outcome.program,
        signature=final.signature,
        kind=final.kind,
        message=final.message,
        trace_window=final.trace_window,
        shrunk_from_ops=program.op_count,
        shrink_runs=outcome.runs,
    )


def replay(repro: Reproducer, check: bool = True) -> FuzzVerdict:
    """Re-run a reproducer exactly as recorded (mutation included)."""
    return run_fuzz_program(repro.program, check=check, trace_capacity=512)
