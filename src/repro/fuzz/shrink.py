"""Delta-debugging shrinker for failing fuzz programs.

Given a failing :class:`~repro.fuzz.program.FuzzProgram` and the stable
*signature* of its violation, the shrinker searches for a smaller
program that still fails **with the same signature** — re-running the
simulator deterministically for every candidate (the simulator has no
hidden state, so reproduction is exact).  Passes, applied to fixpoint
under a run budget:

1. **drop CPUs** — empty out one CPU's op list at a time;
2. **merge CPUs** — append one CPU's ops onto another and empty it
   (two racing actors often reduce to one actor with a reordered mix);
3. **compact the shape** — once trailing CPUs/nodes are empty, shrink
   ``cpus_per_node`` and ``nodes`` so the reproducer names the smallest
   system that fails;
4. **ddmin op lists** — classic Zeller delta debugging per CPU,
   removing chunks at exponentially finer granularity;
5. **shrink the pool** — drop unreferenced addresses and renumber the
   remaining slots densely;
6. **normalise gaps** — set every inter-op gap to 1 (timing bias that
   stopped mattering disappears from the reproducer).

Every candidate is memoised by canonical JSON, so revisited programs
cost nothing against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .program import FuzzProgram, Op


@dataclass
class ShrinkOutcome:
    program: FuzzProgram
    runs: int           # simulations spent
    exhausted: bool     # True if the run budget cut the search short


class _Search:
    """Budgeted, memoised does-it-still-fail oracle."""

    def __init__(self, signature: str, run_fn: Callable, budget: int,
                 log: Optional[Callable[[str], None]]) -> None:
        self.signature = signature
        self.run_fn = run_fn
        self.budget = budget
        self.runs = 0
        self.exhausted = False
        self._memo: Dict[str, bool] = {}
        self._log = log

    def reproduces(self, candidate: FuzzProgram) -> bool:
        key = candidate.canonical_json()
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.runs >= self.budget:
            self.exhausted = True
            return False
        self.runs += 1
        try:
            candidate.validate()
            verdict = self.run_fn(candidate)
            ok = (not verdict.ok) and verdict.signature == self.signature
        except ValueError:
            ok = False
        self._memo[key] = ok
        if ok and self._log is not None:
            self._log(f"shrink: {candidate.op_count} ops still fail "
                      f"({self.runs} runs)")
        return ok


def _ddmin(ops: Sequence[Op], still_fails: Callable[[List[Op]], bool]) -> List[Op]:
    """Zeller's ddmin over one op list: remove chunks, halving the chunk
    size whenever a full sweep removes nothing."""
    ops = list(ops)
    chunk = max(1, len(ops) // 2)
    while ops:
        removed = False
        i = 0
        while i < len(ops):
            candidate = ops[:i] + ops[i + chunk:]
            if still_fails(candidate):
                ops = candidate
                removed = True
            else:
                i += chunk
        if not removed:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return ops


def _with_cpu(ops, gcpu: int, new_ops) -> List[tuple]:
    out = list(ops)
    out[gcpu] = tuple(new_ops)
    return out


def _compact_shape(program: FuzzProgram) -> Optional[FuzzProgram]:
    """Shrink nodes/cpus_per_node to cover only non-empty op lists."""
    per_node = [
        program.ops[n * program.cpus_per_node:(n + 1) * program.cpus_per_node]
        for n in range(program.nodes)
    ]
    # Trailing fully-empty nodes go first.
    while len(per_node) > 1 and all(not ops for ops in per_node[-1]):
        per_node.pop()
    # Then the common trailing empty CPU slots of every node.
    cpus = program.cpus_per_node
    while cpus > 1 and all(not node_ops[cpus - 1] for node_ops in per_node):
        cpus -= 1
    nodes = len(per_node)
    if nodes == program.nodes and cpus == program.cpus_per_node:
        return None
    new_ops = [node_ops[c] for node_ops in per_node for c in range(cpus)]
    return program.with_shape(nodes, cpus, new_ops)


def _compact_pool(program: FuzzProgram) -> Optional[FuzzProgram]:
    """Drop unreferenced pool slots and renumber the rest densely."""
    used = program.used_slots()
    if len(used) == len(program.pool):
        return None
    if not used:
        return None
    remap = {old: new for new, old in enumerate(used)}
    pool = [program.pool[s] for s in used]
    ops = [
        tuple((k, 0 if k == "mb" else remap[s], g) for k, s, g in cpu_ops)
        for cpu_ops in program.ops
    ]
    return program.with_pool(pool, ops)


def _flat_gaps(program: FuzzProgram) -> FuzzProgram:
    ops = [tuple((k, s, 1) for k, s, _g in cpu_ops)
           for cpu_ops in program.ops]
    return program.with_ops(ops)


def shrink(program: FuzzProgram, signature: str, run_fn: Callable,
           budget: int = 400,
           log: Optional[Callable[[str], None]] = None) -> ShrinkOutcome:
    """Minimise *program* while it keeps failing with *signature*.

    ``run_fn(program) -> FuzzVerdict`` must be deterministic.  Returns
    the smallest program found within *budget* simulations.
    """
    search = _Search(signature, run_fn, budget, log)
    best = program
    improved = True
    while improved and not search.exhausted:
        improved = False

        # 1. drop whole CPUs
        for gcpu in range(best.total_cpus):
            if not best.ops[gcpu]:
                continue
            candidate = best.with_ops(_with_cpu(best.ops, gcpu, ()))
            if search.reproduces(candidate):
                best = candidate
                improved = True

        # 2. merge CPU pairs (j's ops appended to i)
        active = [g for g in range(best.total_cpus) if best.ops[g]]
        for i in active:
            for j in active:
                if i >= j or not best.ops[i] or not best.ops[j]:
                    continue
                merged = _with_cpu(best.ops, i, best.ops[i] + best.ops[j])
                candidate = best.with_ops(_with_cpu(merged, j, ()))
                if search.reproduces(candidate):
                    best = candidate
                    improved = True

        # 3. shape compaction
        candidate = _compact_shape(best)
        if candidate is not None and search.reproduces(candidate):
            best = candidate
            improved = True

        # 4. ddmin each CPU's op list
        for gcpu in range(best.total_cpus):
            if not best.ops[gcpu]:
                continue
            current = best

            def cpu_fails(new_ops: List[Op], _g=gcpu) -> bool:
                return search.reproduces(
                    current.with_ops(_with_cpu(current.ops, _g, new_ops)))

            minimal = _ddmin(best.ops[gcpu], cpu_fails)
            if len(minimal) < len(best.ops[gcpu]):
                best = best.with_ops(_with_cpu(best.ops, gcpu, minimal))
                improved = True

        # 5. pool compaction
        candidate = _compact_pool(best)
        if candidate is not None and search.reproduces(candidate):
            best = candidate
            improved = True

        # 6. gap normalisation
        candidate = _flat_gaps(best)
        if (candidate.canonical_json() != best.canonical_json()
                and search.reproduces(candidate)):
            best = candidate
            improved = True

    return ShrinkOutcome(best, search.runs, search.exhausted)
