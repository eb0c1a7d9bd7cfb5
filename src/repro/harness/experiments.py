"""Per-figure / per-table experiment definitions (DESIGN.md's index).

Each ``figureN()`` / ``tableN()`` function regenerates the corresponding
paper result and returns a structured record including the paper's
reference values, so callers (benchmarks, EXPERIMENTS.md) can print
paper-vs-measured rows.

Workload factories are frozen dataclasses rather than closures so that
(a) they pickle across the process-pool boundary
(:mod:`repro.harness.parallel`) and (b) their reprs serve as stable disk
cache tokens (:func:`repro.harness.cache.workload_token`).  Figures that
simulate several independent points dispatch them through
:func:`run_points`, which honours ``REPRO_JOBS``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import preset, table1
from ..isa.kernels import IsaKernelFactory
from ..workloads.dss import DssParams, DssWorkload
from ..workloads.micro import MicroParams, MigratoryWrites
from ..workloads.oltp import OltpParams, OltpWorkload
from ..workloads.tpcc import TpccWorkload, tpcc_params
from ..workloads.web import WebParams, WebWorkload
from .parallel import Job, run_jobs
from .runner import RunResult, RunSpec, scale_factor


def _oltp_scaled(scale: float) -> OltpParams:
    base = OltpParams()
    return replace(
        base,
        transactions=max(20, int(base.transactions * scale)),
        warmup_transactions=max(40, int(base.warmup_transactions * scale)),
    )


# Each factory's ``scaled(scale)`` is its workload's one scale -> params
# rule; ``params=None`` applies it at ``REPRO_SCALE``, and the CLI's
# ``--scale`` applies it through :func:`scaled_factory`.


@dataclass(frozen=True)
class OltpFactory:
    """TPC-B-like OLTP workload builder (picklable, cache-tokenable)."""

    params: Optional[OltpParams] = None
    scaled = staticmethod(_oltp_scaled)

    def __call__(self, config, num_nodes):
        return OltpWorkload(self.params or self.scaled(scale_factor()),
                            cpus_per_node=config.cpus, num_nodes=num_nodes)


@dataclass(frozen=True)
class DssFactory:
    """DSS (TPC-D-like scan) workload builder."""

    params: Optional[DssParams] = None

    @staticmethod
    def scaled(scale: float) -> DssParams:
        base = DssParams()
        return replace(base, rows=max(60, int(base.rows * scale)))

    def __call__(self, config, num_nodes):
        return DssWorkload(self.params or self.scaled(scale_factor()),
                           cpus_per_node=config.cpus, num_nodes=num_nodes)


@dataclass(frozen=True)
class TpccFactory:
    """TPC-C-like workload builder (derives params from the TPC-B base,
    which is what ``params`` and ``scaled`` hold)."""

    params: Optional[OltpParams] = None
    scaled = staticmethod(_oltp_scaled)

    def __call__(self, config, num_nodes):
        base = tpcc_params(self.params or self.scaled(scale_factor()))
        return TpccWorkload(base, cpus_per_node=config.cpus,
                            num_nodes=num_nodes)


@dataclass(frozen=True)
class WebFactory:
    """AltaVista-like web-search workload builder."""

    params: Optional[WebParams] = None

    @staticmethod
    def scaled(scale: float) -> WebParams:
        base = WebParams()
        return replace(base, queries=max(40, int(base.queries * scale)))

    def __call__(self, config, num_nodes):
        return WebWorkload(self.params or self.scaled(scale_factor()),
                           cpus_per_node=config.cpus, num_nodes=num_nodes)


@dataclass(frozen=True)
class MigratoryFactory:
    """Migratory-writes microbenchmark builder."""

    params: Optional[MicroParams] = None

    @staticmethod
    def scaled(scale: float) -> MicroParams:
        base = MicroParams()
        return replace(base, iterations=max(200, int(base.iterations * scale)))

    def __call__(self, config, num_nodes):
        return MigratoryWrites(self.params or self.scaled(scale_factor()),
                               cpus_per_node=config.cpus, num_nodes=num_nodes)


#: name -> factory class: the one workload table (CLI choices, ``repro
#: list``, sweeps, figures)
FACTORIES = {
    "oltp": OltpFactory,
    "dss": DssFactory,
    "tpcc": TpccFactory,
    "web": WebFactory,
    "migratory": MigratoryFactory,
    "isa": IsaKernelFactory,
}

#: units attribute measured per workload
UNITS_ATTR = {
    "oltp": "transactions",
    "dss": "rows",
    "tpcc": "transactions",
    "web": "queries",
    "migratory": "iterations",
    "isa": "iterations",
}


def scaled_factory(name: str, scale: float):
    """The :data:`FACTORIES` entry *name* with its params fixed by the
    workload's scale rule at *scale* (what ``--scale`` builds)."""
    cls = FACTORIES[name]
    return cls(cls.scaled(scale))


def run_points(points: Sequence[Tuple[str, str, int]],
               jobs: Optional[int] = None) -> List[RunResult]:
    """Run ``(workload, config_name, num_nodes)`` points, honouring
    ``REPRO_JOBS``: the independent simulations behind one figure fan out
    across worker processes, serially when unset."""
    return run_jobs([
        Job(config=preset(config_name), factory=FACTORIES[workload](),
            num_nodes=num_nodes,
            spec=RunSpec(units_attr=UNITS_ATTR[workload]))
        for workload, config_name, num_nodes in points
    ], jobs=jobs)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def table1_parameters() -> Dict[str, Dict[str, object]]:
    """Regenerate Table 1 from the configuration presets."""
    return table1()


# ---------------------------------------------------------------------------
# Figure 5: single-chip execution-time comparison
# ---------------------------------------------------------------------------

#: normalised execution times the paper's Figure 5 reports (OOO = 100)
FIGURE5_PAPER = {
    "oltp": {"P1": 233, "OOO": 100, "INO": 145, "P8": 34},
    "dss": {"P1": 355, "OOO": 100, "INO": 190, "P8": 44},
}


def figure5(workload: str = "oltp") -> Dict[str, object]:
    """Normalised execution time (OOO=100) with busy / L2 / mem breakdown
    for P1, OOO, INO and P8."""
    names = ("P1", "OOO", "INO", "P8")
    results = dict(zip(names, run_points([(workload, n, 1) for n in names])))
    # per-chip throughput comparison: normalise per-chip time per unit of
    # work (P8's 8 CPUs all contribute)
    per_chip_time = {
        name: r.time_per_unit_ns / r.cpus for name, r in results.items()
    }
    base = per_chip_time["OOO"]
    normalized = {name: 100.0 * t / base for name, t in per_chip_time.items()}
    return {
        "workload": workload,
        "results": results,
        "normalized": normalized,
        "paper": FIGURE5_PAPER[workload],
        "speedup_p8_over_ooo": normalized["OOO"] / normalized["P8"],
        "speedup_ooo_over_p1": normalized["P1"] / normalized["OOO"],
        "speedup_ino_over_p1": normalized["P1"] / normalized["INO"],
    }


# ---------------------------------------------------------------------------
# Figure 6a: Piranha speedup vs on-chip CPUs (OLTP)
# ---------------------------------------------------------------------------

FIGURE6A_PAPER = {1: 1.0, 2: 1.9, 4: 3.7, 8: 6.9}


def figure6a() -> Dict[str, object]:
    counts = (1, 2, 4, 8)
    results = dict(zip(
        counts, run_points([("oltp", f"P{n}", 1) for n in counts])))
    base = results[1].throughput
    speedups = {n: r.throughput / base for n, r in results.items()}
    return {"results": results, "speedups": speedups,
            "paper": FIGURE6A_PAPER}


# ---------------------------------------------------------------------------
# Figure 6b: L1-miss service breakdown vs CPU count (OLTP)
# ---------------------------------------------------------------------------

FIGURE6B_PAPER = {
    1: {"hit": 0.90, "fwd": 0.00, "mem": 0.10},
    2: {"hit": 0.75, "fwd": 0.13, "mem": 0.12},
    4: {"hit": 0.55, "fwd": 0.30, "mem": 0.15},
    8: {"hit": 0.38, "fwd": 0.45, "mem": 0.17},
}


def figure6b() -> Dict[str, object]:
    counts = (1, 2, 4, 8)
    results = run_points([("oltp", f"P{n}", 1) for n in counts])
    rows = {
        n: {"hit": r.miss_hit_frac, "fwd": r.miss_fwd_frac,
            "mem": r.miss_mem_frac}
        for n, r in zip(counts, results)
    }
    return {"measured": rows, "paper": FIGURE6B_PAPER}


# ---------------------------------------------------------------------------
# Figure 7: multi-chip OLTP scaling (P4 chips vs OOO chips)
# ---------------------------------------------------------------------------

FIGURE7_PAPER = {"piranha_4chip": 3.0, "ooo_4chip": 2.6,
                 "single_chip_ratio": 1.5}


def figure7() -> Dict[str, object]:
    counts = (1, 2, 4)
    points = ([("oltp", "P4", n) for n in counts]
              + [("oltp", "OOO", n) for n in counts])
    results = run_points(points)
    piranha = dict(zip(counts, results[:3]))
    ooo = dict(zip(counts, results[3:]))
    return {
        "piranha": piranha,
        "ooo": ooo,
        "piranha_speedups": {
            n: r.throughput / piranha[1].throughput for n, r in piranha.items()
        },
        "ooo_speedups": {
            n: r.throughput / ooo[1].throughput for n, r in ooo.items()
        },
        "single_chip_ratio": piranha[1].throughput / ooo[1].throughput,
        "paper": FIGURE7_PAPER,
    }


# ---------------------------------------------------------------------------
# Figure 8: full-custom Piranha (P8F)
# ---------------------------------------------------------------------------

FIGURE8_PAPER = {"oltp": 5.0, "dss": 5.3}


def figure8() -> Dict[str, object]:
    out = {}
    for workload in ("oltp", "dss"):
        p8f, ooo, p8 = run_points(
            [(workload, name, 1) for name in ("P8F", "OOO", "P8")])
        out[workload] = {
            "p8f_over_ooo": p8f.throughput / ooo.throughput,
            "p8_over_ooo": p8.throughput / ooo.throughput,
            "paper_p8f_over_ooo": FIGURE8_PAPER[workload],
        }
    return out


# ---------------------------------------------------------------------------
# Section 4 text: TPC-C robustness and pessimistic sensitivity
# ---------------------------------------------------------------------------

def tpcc_sensitivity() -> Dict[str, float]:
    """P8 outperforms OOO by over a factor of 3 on TPC-C."""
    p8, ooo = run_points([("tpcc", "P8", 1), ("tpcc", "OOO", 1)])
    return {
        "p8_over_ooo": p8.throughput / ooo.throughput,
        "paper_lower_bound": 3.0,
    }


def pessimistic_sensitivity() -> Dict[str, float]:
    """400 MHz CPUs / 32 KB 1-way L1s / 22-32 ns L2: the paper reports a
    29% execution-time increase, with P8 still 2.25x over OOO."""
    p8, pess, ooo = run_points(
        [("oltp", "P8", 1), ("oltp", "P8-pessimistic", 1), ("oltp", "OOO", 1)])
    return {
        "exec_time_increase": pess.time_per_unit_ns / p8.time_per_unit_ns - 1,
        "pess_over_ooo": pess.throughput / ooo.throughput,
        "paper_exec_time_increase": 0.29,
        "paper_pess_over_ooo": 2.25,
    }
