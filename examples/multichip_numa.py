#!/usr/bin/env python3
"""Glueless multi-chip Piranha (Figures 3 and 7).

Builds 1-, 2- and 4-node systems of 4-CPU Piranha chips connected by the
hot-potato interconnect, runs OLTP across them, and reports the NUMA
scaling curve plus inter-node protocol statistics: engine traffic and
packets, read from each result's per-node counter rollup
(``extras["counters"]``).

The points run through the cached harness (``run_jobs``): set
``REPRO_JOBS=N`` to simulate them on N worker processes; a re-run
answers from the result cache.

Run:  python examples/multichip_numa.py
"""

from repro import OltpParams, preset
from repro.harness import Job, OltpFactory, format_table, run_jobs

NODES = (1, 2, 4)


def main() -> None:
    factory = OltpFactory(OltpParams(transactions=30, warmup_transactions=60))
    # (shortened for a quick demo; the benchmark suite uses the full
    #  calibrated scale, where the ratios match the paper most closely)
    print("running " + ", ".join(f"{n}-node ({n * 4} CPUs)" for n in NODES)
          + " systems ...")
    results = run_jobs([Job(preset("P4"), factory, num_nodes=n)
                        for n in NODES])
    base = results[0].throughput
    rows = []
    for nodes, result in zip(NODES, results):
        counters = result.extras["counters"]
        rows.append([
            nodes, nodes * 4, f"{result.throughput / base:.2f}",
            sum(n["engines"]["he"]["threads"] for n in counters),
            sum(n["engines"]["re"]["instructions"] for n in counters),
            sum(n["packets_sent"] for n in counters),
        ])
    print()
    print(format_table(
        ["chips", "CPUs", "speedup", "home-engine txns",
         "remote-engine instrs", "packets"],
        rows, title="Figure 7: multi-chip OLTP scaling (P4 chips)"))
    print("\npaper: 3.0x at four Piranha chips (vs 2.6x for OOO chips);")
    print("the protocol engines and interconnect stay idle at one node and")
    print("carry all coherence traffic beyond it.")


if __name__ == "__main__":
    main()
