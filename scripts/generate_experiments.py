"""Regenerate EXPERIMENTS.md: run every paper experiment and record
paper-vs-measured values.  (The benchmark suite asserts the same shapes;
this script snapshots the numbers into the document.)"""

import io
import sys
from contextlib import redirect_stdout

from repro.harness import (
    figure5,
    figure6a,
    figure6b,
    figure7,
    figure8,
    pessimistic_sensitivity,
    table1_parameters,
    tpcc_sensitivity,
)
from repro.area import floorplan_summary
from repro.core import preset


def main() -> None:
    out = io.StringIO()

    def w(text=""):
        out.write(text + "\n")

    w("# EXPERIMENTS — paper vs. measured")
    w()
    w("Every table and figure in the evaluation section of *Piranha: A")
    w("Scalable Architecture Based on Single-Chip Multiprocessing* (ISCA")
    w("2000), regenerated by this repository's benchmark suite")
    w("(`pytest benchmarks/ --benchmark-only`).  Absolute times are not")
    w("comparable — the substrate is a synthetic workload model over a")
    w("transaction-level simulator — so the recorded quantities are the")
    w("paper's *relative* results: normalised times, speedups, breakdown")
    w("fractions and trends.  This file was generated by")
    w("`python scripts/generate_experiments.py`.")
    w()

    # Table 1 ------------------------------------------------------------
    w("## Table 1 — processor design parameters")
    w()
    w("Regenerated exactly from the configuration presets"
      " (`bench_table1_params.py`).  The module-latency decompositions")
    w("recompose to the paper's values (unit-tested):")
    w()
    t = table1_parameters()
    w("| Parameter | P8 | OOO | P8F |")
    w("|---|---|---|---|")
    for param in t["P8"]:
        w(f"| {param} | {t['P8'][param]} | {t['OOO'][param]} "
          f"| {t['P8F'][param]} |")
    w()

    # Figure 5 -----------------------------------------------------------
    w("## Figure 5 — single-chip performance (P1 / INO / OOO / P8)")
    w()
    for wl in ("oltp", "dss"):
        fig = figure5(wl)
        w(f"### {wl.upper()} (normalised execution time, OOO = 100)")
        w()
        w("| Config | Paper | Measured | busy / L2 / mem |")
        w("|---|---|---|---|")
        for name in ("P1", "INO", "OOO", "P8"):
            r = fig["results"][name]
            w(f"| {name} | {fig['paper'][name]} "
              f"| {fig['normalized'][name]:.0f} "
              f"| {r.busy_frac:.2f} / {r.l2_frac:.2f} / {r.mem_frac:.2f} |")
        w()
        w(f"- OOO over P1: paper ~{2.3 if wl == 'oltp' else 3.6}x, "
          f"measured {fig['speedup_ooo_over_p1']:.2f}x")
        w(f"- INO over P1: paper ~{1.6 if wl == 'oltp' else 1.9}x, "
          f"measured {fig['speedup_ino_over_p1']:.2f}x")
        w(f"- **P8 over OOO (per chip): paper "
          f"{'2.9' if wl == 'oltp' else '2.3'}x, measured "
          f"{fig['speedup_p8_over_ooo']:.2f}x**")
        w()

    # Figure 6a ----------------------------------------------------------
    w("## Figure 6a — Piranha OLTP speedup vs on-chip CPUs")
    w()
    fa = figure6a()
    w("| CPUs | Paper | Measured |")
    w("|---|---|---|")
    for n in (1, 2, 4, 8):
        w(f"| {n} | {fa['paper'][n]:.1f} | {fa['speedups'][n]:.2f} |")
    w()
    w("The paper: 'a speedup of nearly seven times with eight on-chip")
    w("CPUs relative to a single CPU'.")
    w()

    # Figure 6b ----------------------------------------------------------
    w("## Figure 6b — L1-miss service breakdown (OLTP)")
    w()
    fb = figure6b()
    w("| CPUs | L2 hit (paper/meas) | L2 fwd (paper/meas) "
      "| L2 miss (paper/meas) |")
    w("|---|---|---|---|")
    for n in (1, 2, 4, 8):
        p, m = fb["paper"][n], fb["measured"][n]
        w(f"| {n} | {p['hit']:.2f} / {m['hit']:.2f} "
          f"| {p['fwd']:.2f} / {m['fwd']:.2f} "
          f"| {p['mem']:.2f} / {m['mem']:.2f} |")
    w()
    w("Trends reproduced: the L2-hit share falls steeply with CPU count,")
    w("the L1-to-L1 forward share grows from zero, and the memory share")
    w("stays roughly constant under 20% past one CPU.  Our forward share")
    w("peaks lower than the paper's (~0.3 vs ~0.45): the synthetic shared")
    w("working set is somewhat more L2-resident than Oracle's.")
    w()

    # Figure 7 -----------------------------------------------------------
    w("## Figure 7 — multi-chip (NUMA) OLTP scaling")
    w()
    f7 = figure7()
    w("| Chips | Piranha (P4/chip) | OOO |")
    w("|---|---|---|")
    for n in (1, 2, 4):
        w(f"| {n} | {f7['piranha_speedups'][n]:.2f} "
          f"| {f7['ooo_speedups'][n]:.2f} |")
    w()
    w(f"- paper: Piranha 3.0x vs OOO 2.6x at four chips; measured "
      f"{f7['piranha_speedups'][4]:.2f}x vs {f7['ooo_speedups'][4]:.2f}x")
    w(f"- single-chip P4 over OOO: paper ~1.5x, measured "
      f"{f7['single_chip_ratio']:.2f}x")
    w()

    # Figure 8 -----------------------------------------------------------
    w("## Figure 8 — full-custom Piranha (P8F)")
    w()
    f8 = figure8()
    w("| Workload | P8F/OOO paper | P8F/OOO measured | P8/OOO measured |")
    w("|---|---|---|---|")
    for wl in ("oltp", "dss"):
        w(f"| {wl.upper()} | {f8[wl]['paper_p8f_over_ooo']:.1f} "
          f"| {f8[wl]['p8f_over_ooo']:.2f} | {f8[wl]['p8_over_ooo']:.2f} |")
    w()

    # Figure 9 -----------------------------------------------------------
    w("## Figure 9 — floor-plan area budget")
    w()
    fp = floorplan_summary(preset("P8"))
    w(f"- paper: roughly 75% of the processing node is CPUs + L1/L2;"
      f" measured {fp['cores_and_caches_fraction']:.0%}")
    w(f"- modelled die area: {fp['total_mm2']:.0f} mm^2 "
      f"(0.18 um ASIC estimates)")
    w()

    # Section 4 text results ----------------------------------------------
    w("## Section 4 text results")
    w()
    tp = tpcc_sensitivity()
    w(f"- **TPC-C**: paper 'P8 outperforms OOO by over a factor of 3';"
      f" measured {tp['p8_over_ooo']:.2f}x")
    pe = pessimistic_sensitivity()
    w(f"- **Pessimistic parameters** (400 MHz, 32 KB 1-way L1, 22/32 ns"
      f" L2): paper +29% execution time and 2.25x over OOO; measured"
      f" +{pe['exec_time_increase']:.0%} and"
      f" {pe['pess_over_ooo']:.2f}x.  (Our model is more sensitive to the"
      f" direct-mapped L1 than Oracle was; direction and conclusion hold.)")
    w()

    # Micro-claims ---------------------------------------------------------
    w("## Micro-architecture claims (sections 2.3-2.6)")
    w()
    w("Regenerated by dedicated benchmarks:")
    w()
    w("- **Open-page policy (2.4)**: paper 'keeping pages open for about")
    w("  1 us yields >50% hit rate on OLTP'.  Measured: a sharp knee just")
    w("  below 1 us and ~40% at 1 us (>10x the closed-page policy);")
    w("  our synthetic stream carries less block-level temporal locality")
    w("  than Oracle's buffer cache, so the magnitude lands short while")
    w("  the threshold behaviour and ordering reproduce")
    w("  (`bench_rdram_open_page.py`).")
    w("- **Duplicate L1 tags (2.3)**: overhead measured < 1/32 of on-chip")
    w("  memory (unit test); dup tags audited as an exact mirror of the")
    w("  L1s at quiesce in every integration test.")
    w("- **Non-inclusion (2.3)**: <~10% of L2 lines duplicated in L1s;")
    w("  the head-to-head A/B against a conventional inclusive L2 shows")
    w("  the paper's design point ~1.3x faster on OLTP with a ~2.5x lower")
    w("  memory-miss share (`bench_l2_noninclusion.py`).")
    w("- **CMI (2.5.3)**: at most 4 invalidation messages per request at")
    w("  every sharer-set size; 128-header buffering bound; latency beats")
    w("  home-fan-out for large sets (`bench_cmi_invalidation.py`).")
    w("- **Protocol engines (2.5.1)**: remote read = 4 microinstructions")
    w("  at the requester's RE (unit-tested against the microstore);")
    w("  ~5-15 instructions/transaction under OLTP; protocol fits in a")
    w("  few hundred of the 1024 microstore words")
    w("  (`bench_protocol_engine.py`).")
    w("- **Cores-vs-cache trade (4)**: trading CPUs for L2 capacity loses")
    w("  throughput at every point tried (`bench_cores_vs_cache.py`).")
    w("- **Web/search (6)**: the AltaVista-like model lands in DSS's")
    w("  regime — busy-dominated, near-linear CMP scaling, P8/OOO ~2.2x")
    w("  (`bench_web_workload.py`).")
    w()
    w("## How to re-run")
    w()
    w("```bash")
    w("pytest benchmarks/ --benchmark-only        # full (about 10 min)")
    w("REPRO_SCALE=0.5 pytest benchmarks/ --benchmark-only   # quick pass")
    w("python scripts/generate_experiments.py     # refresh this file")
    w("```")
    w()
    w("Every benchmark that simulates a Piranha system measures through the")
    w("harness's `run_jobs`, so `REPRO_JOBS=N` fans its points out over N")
    w("worker processes and the result cache answers a re-run of unchanged")
    w("code without simulating")
    w("(`REPRO_NO_CACHE=1` forces re-simulation).  The one exception is the")
    w("§2.3 non-inclusion A/B (`bench_l2_noninclusion.py`): it counts the")
    w("lines held in both an L1 and the L2 by walking the drained machine, so")
    w("its two points run uncached through `build_system` + `run_system`.")

    with open("EXPERIMENTS.md", "w") as fh:
        fh.write(out.getvalue())
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
