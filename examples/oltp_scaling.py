#!/usr/bin/env python3
"""OLTP scaling study: Piranha vs the out-of-order baseline (Figures 5/6).

Sweeps the on-chip CPU count (P1, P2, P4, P8), runs the same OLTP workload
on the 1 GHz 4-issue out-of-order chip (OOO) and its in-order twin (INO),
and prints the speedup curve and miss-breakdown trends of Figure 6 along
with the per-chip comparison of Figure 5.

The points run through the cached harness (``run_jobs``): set
``REPRO_JOBS=N`` to simulate them on N worker processes; a re-run
answers from the result cache.

Run:  python examples/oltp_scaling.py
"""

from repro import OltpParams, preset
from repro.harness import Job, OltpFactory, format_table, run_jobs


def main() -> None:
    # the calibrated defaults (80 measured / 150 warm-up transactions);
    # smaller runs under-warm the caches and inflate the ratios
    factory = OltpFactory(OltpParams())
    configs = ["P1", "P2", "P4", "P8", "INO", "OOO"]
    print(f"running {len(configs)} configurations ...")
    results = dict(zip(configs, run_jobs(
        [Job(preset(name), factory) for name in configs])))

    base = results["P1"].throughput
    rows = []
    for name in configs:
        r = results[name]
        rows.append([
            name,
            f"{r.throughput / base:.2f}",
            f"{r.miss_hit_frac:.2f}", f"{r.miss_fwd_frac:.2f}",
            f"{r.miss_mem_frac:.2f}",
        ])
    print()
    print(format_table(
        ["config", "speedup vs P1", "L2 hit", "L2 fwd", "L2 miss"],
        rows, title="OLTP scaling (Figure 6a speedups, Figure 6b breakdown)"))

    p8, ooo, ino = (results[k].throughput for k in ("P8", "OOO", "INO"))
    print(f"\nFigure 5 headline factors:")
    print(f"  OOO / P1  = {ooo / base:.2f}   (paper ~2.3)")
    print(f"  INO / P1  = {ino / base:.2f}   (paper ~1.6)")
    print(f"  P8  / OOO = {p8 / ooo:.2f}   (paper ~2.9)")
    print(f"  P8  / P1  = {p8 / base:.2f}   (paper: speedup of nearly 7)")


if __name__ == "__main__":
    main()
