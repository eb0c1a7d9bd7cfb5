#!/usr/bin/env python3
"""Quickstart: simulate the eight-CPU Piranha chip running OLTP.

Builds a single-chip P8 system, attaches the TPC-B-like OLTP workload,
runs it to completion, and prints the Figure 5-style execution-time
breakdown plus the Figure 6b-style L1-miss decomposition.

Run:  python examples/quickstart.py
"""

from repro import OltpParams, OltpWorkload, PIRANHA_P8, PiranhaSystem
from repro.harness import breakdown_bar


def main() -> None:
    params = OltpParams(transactions=40, warmup_transactions=60)
    # (shortened for a quick demo; the benchmark suite uses the full
    #  calibrated scale, where the ratios match the paper most closely)
    workload = OltpWorkload(params, cpus_per_node=PIRANHA_P8.cpus)

    system = PiranhaSystem(PIRANHA_P8, num_nodes=1)
    system.attach_workload(workload)

    print(f"simulating {PIRANHA_P8.cpus} CPUs x "
          f"{params.transactions} transactions (after "
          f"{params.warmup_transactions} warm-up) ...")
    finish_ps = system.run_to_completion()

    summary = system.execution_summary()
    total = summary["total_ps"]
    txns = params.transactions * PIRANHA_P8.cpus
    print(f"\nsimulated time : {finish_ps / 1e6:.1f} us")
    print(f"instructions   : {summary['instructions']:,}")
    print(f"throughput     : {txns / (finish_ps / 1e12) / 1e3:.0f}k "
          f"transactions/s per chip")

    print("\nexecution-time breakdown (Figure 5 style):")
    print("  " + breakdown_bar(
        "P8 OLTP",
        summary["busy_ps"] / total,
        summary["l2_stall_ps"] / total,
        summary["mem_stall_ps"] / total,
    ))
    print("  (# = CPU busy, = = L2 hit/forward stall, . = memory stall)")

    mb = system.miss_breakdown()
    misses = sum(mb.values())
    print("\nL1-miss service breakdown (Figure 6b style):")
    print(f"  served by the shared L2      : {mb['l2_hit'] / misses:6.1%}")
    print(f"  forwarded to another L1      : {mb['l2_fwd'] / misses:6.1%}")
    print(f"  served by memory             : {mb['l2_miss'] / misses:6.1%}")

    chip = system.nodes[0]
    print(f"\non-chip resident data: {chip.on_chip_resident_bytes() / 1024:.0f} KB "
          f"(non-inclusive L1s + L2)")
    page_hits = sum(mc.channel.c_page_hits.value for mc in chip.mcs)
    accesses = sum(mc.channel.c_accesses.value for mc in chip.mcs)
    print(f"RDRAM open-page hit rate: {page_hits / accesses:.0%}")


if __name__ == "__main__":
    main()
