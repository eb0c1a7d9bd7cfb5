"""Cross-model validation: functional reference vs timed machine.

Every kernel in :mod:`repro.isa.kernels` runs through both execution
models and the results are compared three ways:

1. **Architectural ground truth** — the final memory image of the timed
   run must be *bit-identical* to the functional reference (which itself
   must be identical across several seeded interleavings: the kernels
   are determinate, so any divergence is a model bug, not noise).
2. **Exact structural counters** — event counts that follow from the
   program text alone (``mb`` retirements, ``wh64`` issues, zero
   ``stq_c`` failures for lock-free kernels) must match exactly.
3. **Statistical-model tolerances** — measured miss rates, the
   sharing/forwarding mix and the stall decomposition must land inside
   per-kernel declared ranges (:data:`TOLERANCES`), the same style of
   prediction the statistical workload models in :mod:`repro.workloads`
   encode.  The ranges are deliberately generous — they gate on the
   *shape* of the behaviour (communication kernels must communicate,
   private kernels must not), not on exact latencies.

:func:`run_suite` emits a ``repro-xval/1`` JSON document;
:func:`validate_report` structurally checks one (the CI artifact gate).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from .kernels import (
    KERNEL_NAMES,
    KERNELS,
    IsaKernelFactory,
    IsaKernelParams,
    expected_membars,
    expected_wh64,
    run_functional,
    scaled_params,
)

XVAL_SCHEMA = "repro-xval/1"

#: declared tolerance ranges per kernel (see DESIGN.md section 4j).
#: ``l1_miss_rate`` bounds misses/lookups; ``fwd_frac`` bounds the
#: L1-to-L1 share of the miss-service mix (result.miss_fwd_frac);
#: ``mem_stall_frac`` bounds memory's share of total stall time;
#: ``comm_per_unit`` bounds communication misses (L1 forwards + remote
#: dirty) per communication unit (lock handoff / barrier arrival /
#: message / increment).  Communication checks apply only when more
#: than one CPU runs (a single CPU cannot share).
TOLERANCES: Dict[str, Dict[str, Tuple[float, float]]] = {
    "spinlock": {
        "l1_miss_rate": (1e-5, 0.5),
        "fwd_frac": (0.02, 1.0),
        "mem_stall_frac": (0.0, 0.9),
        "comm_per_unit": (0.2, 60.0),
    },
    "barrier": {
        "l1_miss_rate": (1e-5, 0.5),
        "fwd_frac": (0.02, 1.0),
        "mem_stall_frac": (0.0, 0.9),
        "comm_per_unit": (0.3, 60.0),
    },
    "ring": {
        "l1_miss_rate": (1e-5, 0.5),
        "fwd_frac": (0.02, 1.0),
        "mem_stall_frac": (0.0, 0.9),
        "comm_per_unit": (0.3, 30.0),
    },
    "memcpy": {
        "l1_miss_rate": (1e-4, 0.3),
        "fwd_frac": (0.0, 0.0),         # fully private: no forwarding
        "mem_stall_frac": (0.1, 1.0),   # cold fills dominate
        "comm_per_unit": (0.0, 0.0),
    },
    "false_sharing": {
        "l1_miss_rate": (1e-4, 0.7),
        "fwd_frac": (0.02, 1.0),
        "mem_stall_frac": (0.0, 0.9),
        "comm_per_unit": (0.02, 10.0),
    },
}


def comm_units(kernel: str, nthreads: int, params: IsaKernelParams) -> int:
    """The kernel's natural communication-event count (the denominator
    of the ``comm_per_unit`` prediction)."""
    m = params.iterations
    if kernel in ("spinlock", "barrier", "false_sharing"):
        return nthreads * m
    if kernel == "ring":
        return max(1, (nthreads // 2) * m)
    return max(1, nthreads * m)     # memcpy: lines copied


def fit_params(kernel: str, nthreads: int,
               params: IsaKernelParams) -> IsaKernelParams:
    """Clamp parameters to the shared data layout for a thread count
    (memcpy's per-CPU blocks must all fit the source/dest regions)."""
    if kernel == "memcpy":
        cap = max(1, 64 // max(1, nthreads))
        if params.iterations > cap:
            params = dataclasses.replace(params, iterations=cap)
    return dataclasses.replace(params, kernel=kernel)


@dataclasses.dataclass
class Check:
    """One cross-model comparison: exact or range."""

    name: str
    kind: str                      # "exact" | "range"
    measured: float
    expected: Optional[float] = None   # exact checks
    lo: Optional[float] = None         # range checks
    hi: Optional[float] = None

    @property
    def ok(self) -> bool:
        if self.kind == "exact":
            return self.measured == self.expected
        return self.lo <= self.measured <= self.hi

    def as_dict(self) -> dict:
        doc = {"name": self.name, "kind": self.kind,
               "measured": self.measured, "ok": self.ok}
        if self.kind == "exact":
            doc["expected"] = self.expected
        else:
            doc["lo"] = self.lo
            doc["hi"] = self.hi
        return doc


def kernel_checks(kernel: str, nthreads: int, nodes: int,
                  params: IsaKernelParams, result, isa: dict) -> List[Check]:
    """Build the check list for one timed run (see module docstring)."""
    tol = TOLERANCES[kernel]
    counters = isa["counters"]
    checks = [
        Check("membars", "exact", isa["membars"],
              expected=expected_membars(kernel, nthreads, params)),
        Check("wh64_issued", "exact", isa["wh64_issued"],
              expected=expected_wh64(kernel, nthreads, params)),
        Check("halted_cpus", "exact",
              sum(1 for c in isa["cpus"].values() if c["halted"]),
              expected=nthreads),
    ]
    if not KERNELS[kernel].uses_llsc:
        failures = sum(c["stq_c_failures"] for c in isa["cpus"].values())
        checks.append(Check("stq_c_failures", "exact", failures,
                            expected=0))

    lookups = max(1, counters["l1_lookups"])
    misses = counters["l1_lookups"] - counters["l1_hits"]
    lo, hi = tol["l1_miss_rate"]
    checks.append(Check("l1_miss_rate", "range", misses / lookups,
                        lo=lo, hi=hi))

    stall = isa["stall_ps"]
    total_stall = max(1, sum(stall.values()))
    mem_stall = (stall["local_mem"] + stall["remote_mem"]
                 + stall["remote_dirty"])
    lo, hi = tol["mem_stall_frac"]
    checks.append(Check("mem_stall_frac", "range", mem_stall / total_stall,
                        lo=lo, hi=hi))

    comm = counters["l2_fwds"] + counters["l2_remote_dirty"]
    if nthreads > 1:
        lo, hi = tol["fwd_frac"]
        checks.append(Check("fwd_frac", "range", result.miss_fwd_frac,
                            lo=lo, hi=hi))
        lo, hi = tol["comm_per_unit"]
        units = comm_units(kernel, nthreads, params)
        checks.append(Check("comm_per_unit", "range", comm / units,
                            lo=lo, hi=hi))
        if kernel in ("spinlock", "barrier", "false_sharing"):
            # write sharing must force ownership changes somewhere
            checks.append(Check("upgrades_present", "range",
                                counters["l1_upgrades"]
                                + counters["l2_upgrades"],
                                lo=1, hi=float("inf")))
    else:
        checks.append(Check("comm_misses_single_cpu", "exact", comm,
                            expected=0))
    if kernel == "memcpy":
        # the negative control: a private kernel must never forward
        checks.append(Check("l2_fwds", "exact", counters["l2_fwds"],
                            expected=0))
    if nodes == 1:
        remote = (counters["l2_remote_mem"] + counters["l2_remote_dirty"])
        checks.append(Check("remote_misses_single_node", "exact", remote,
                            expected=0))
    return checks


def cross_validate(kernel: str, config: str = "P8", nodes: int = 1,
                   params: Optional[IsaKernelParams] = None,
                   seeds: Sequence[int] = (0, 1, 2),
                   probe_rate: int = 64, **run_kw) -> dict:
    """Run one kernel through both models; return its report block."""
    from ..core.config import preset
    from ..harness.runner import run_configured

    nthreads = preset(config).cpus * nodes
    params = fit_params(kernel, nthreads,
                        params or IsaKernelParams(kernel=kernel))

    runs = [run_functional(kernel, nthreads, params, seed=seed)
            for seed in seeds]
    reference = runs[0]
    images_identical = all(run.image == reference.image for run in runs)

    timed = run_configured(preset(config), IsaKernelFactory(params),
                           num_nodes=nodes, probe_rate=probe_rate, **run_kw)
    isa = timed.extras["isa"]
    memory_match = (images_identical
                    and isa["mem_digest"] == reference.digest)

    checks = kernel_checks(kernel, nthreads, nodes, params, timed, isa)
    ok = memory_match and all(check.ok for check in checks)

    probes = {}
    metrics = timed.extras.get("metrics")
    if metrics and metrics.get("probes"):
        probes = {cls: blk["count"]
                  for cls, blk in metrics["probes"]["classes"].items()
                  if blk["count"]}

    return {
        "kernel": kernel,
        "config": config,
        "nodes": nodes,
        "nthreads": nthreads,
        "params": dataclasses.asdict(params),
        "functional": {
            "seeds": list(seeds),
            "mem_digest": reference.digest,
            "images_identical": images_identical,
            "retired": reference.retired,
            "stq_c_failures": reference.stq_c_failures,
            "interleaved_steps": [run.steps for run in runs],
        },
        "timed": {
            "mem_digest": isa["mem_digest"],
            "units": timed.units,
            "time_per_unit_ns": timed.time_per_unit_ns,
            "busy_frac": timed.busy_frac,
            "miss_hit_frac": timed.miss_hit_frac,
            "miss_fwd_frac": timed.miss_fwd_frac,
            "miss_mem_frac": timed.miss_mem_frac,
            "counters": isa["counters"],
            "membars": isa["membars"],
            "wh64_issued": isa["wh64_issued"],
            "stall_ps": isa["stall_ps"],
            "stq_c_failures": {tid: c["stq_c_failures"]
                               for tid, c in isa["cpus"].items()},
            "probes": probes,
        },
        "memory_match": memory_match,
        "checks": [check.as_dict() for check in checks],
        "ok": ok,
    }


def run_suite(kernels: Sequence[str] = KERNEL_NAMES, config: str = "P8",
              nodes: int = 1, scale: float = 1.0,
              seeds: Sequence[int] = (0, 1, 2),
              probe_rate: int = 64, **run_kw) -> dict:
    """Cross-validate a set of kernels; return the ``repro-xval/1`` doc."""
    reports = {}
    for kernel in kernels:
        reports[kernel] = cross_validate(
            kernel, config=config, nodes=nodes,
            params=scaled_params(kernel, scale), seeds=seeds,
            probe_rate=probe_rate, **run_kw)
    checks = sum(len(r["checks"]) for r in reports.values())
    failed = sum(1 for r in reports.values()
                 for c in r["checks"] if not c["ok"])
    return {
        "schema": XVAL_SCHEMA,
        "config": config,
        "nodes": nodes,
        "scale": scale,
        "kernels": reports,
        "summary": {
            "kernels": len(reports),
            "passed": sum(1 for r in reports.values() if r["ok"]),
            "checks": checks,
            "checks_failed": failed,
        },
        "ok": all(r["ok"] for r in reports.values()),
    }


_REPORT_KEYS = ("kernel", "config", "nodes", "nthreads", "params",
                "functional", "timed", "memory_match", "checks", "ok")


def validate_report(doc: dict) -> List[str]:
    """Structural validation of a ``repro-xval/1`` document; returns a
    list of problems (empty = valid).  Used by the CI artifact gate."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["report is not an object"]
    if doc.get("schema") != XVAL_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, "
                        f"expected {XVAL_SCHEMA!r}")
    kernels = doc.get("kernels")
    if not isinstance(kernels, dict) or not kernels:
        problems.append("no kernel reports")
        return problems
    for name, report in kernels.items():
        for key in _REPORT_KEYS:
            if key not in report:
                problems.append(f"{name}: missing key {key!r}")
        checks = report.get("checks", [])
        if not isinstance(checks, list) or not checks:
            problems.append(f"{name}: no checks")
            continue
        for check in checks:
            if not {"name", "kind", "measured", "ok"} <= set(check):
                problems.append(f"{name}: malformed check {check!r}")
                break
            if check["kind"] == "exact" and "expected" not in check:
                problems.append(
                    f"{name}: exact check {check['name']!r} "
                    f"without expected value")
            if check["kind"] == "range" and not {"lo", "hi"} <= set(check):
                problems.append(
                    f"{name}: range check {check['name']!r} "
                    f"without bounds")
        checks_ok = all(c["ok"] for c in checks)
        expect_ok = bool(report.get("memory_match")) and checks_ok
        if bool(report.get("ok")) != expect_ok:
            problems.append(f"{name}: ok flag inconsistent with checks")
        funcdoc = report.get("functional", {})
        timeddoc = report.get("timed", {})
        if report.get("memory_match"):
            if funcdoc.get("mem_digest") != timeddoc.get("mem_digest"):
                problems.append(
                    f"{name}: memory_match set but digests differ")
    if bool(doc.get("ok")) != all(bool(r.get("ok"))
                                  for r in kernels.values()):
        problems.append("top-level ok flag inconsistent with kernels")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        problems.append("missing summary block")
    return problems
