#!/usr/bin/env python3
"""Design-space exploration around the Piranha design point (Section 4).

Uses the sweep harness to revisit three trade-offs the paper discusses:

1. cores vs L2 capacity ("such a trade-off does not seem advantageous");
2. the non-inclusive L2 vs a conventional inclusive one (Section 2.3);
3. the memory controller's page keep-open window (Section 2.4).

Run:  python examples/design_space.py
"""

import dataclasses

from repro import OltpParams, preset
from repro.harness import (Job, OltpFactory, format_table,
                           record_from_result, run_configured, run_jobs)
from repro.harness.sweep import replace_field, sweep_configs

PARAMS = OltpParams(transactions=30, warmup_transactions=60)
OLTP_FACTORY = OltpFactory(PARAMS)


def cores_vs_cache() -> None:
    print("1. trading CPUs for L2 capacity (OLTP throughput per chip)")
    variants = [(8, 1024), (6, 1280), (4, 1536), (2, 1792)]
    rows = []
    base = None
    for cpus, kb in variants:
        config = preset("P8").with_cpus(cpus, f"P{cpus}")
        config = replace_field(config, "l2.size_bytes", kb * 1024)
        record = record_from_result(run_configured(config, OLTP_FACTORY))
        if base is None:
            base = record["throughput"]
        rows.append([cpus, kb, f"{record['throughput'] / base:.2f}",
                     f"{record['mem_frac']:.2f}"])
    print(format_table(["CPUs", "L2 KB", "throughput vs P8", "mem stall"],
                       rows))
    print("   -> every trade-down loses; the paper: 'does not seem "
          "advantageous'\n")


def inclusion() -> None:
    print("2. non-inclusive vs inclusive L2 (the Section 2.3 choice)")
    rows = []
    for inclusive in (False, True):
        config = dataclasses.replace(
            preset("P8"),
            l2=dataclasses.replace(preset("P8").l2, inclusive=inclusive))
        record = record_from_result(run_configured(config, OLTP_FACTORY))
        rows.append(["inclusive" if inclusive else "non-inclusive",
                     f"{record['time_per_unit_ns']:.0f}",
                     f"{record['miss_mem_frac']:.2f}"])
    print(format_table(["policy", "ns per transaction", "L1-miss mem share"],
                       rows))
    print("   -> inclusion forfeits the aggregate-L1 megabyte of on-chip "
          "capacity\n")


def keep_open() -> None:
    print("3. RDRAM page keep-open window (Section 2.4)")
    factory = OltpFactory(dataclasses.replace(PARAMS,
                                              block_io_lines_per_txn=32))
    windows_ns = (0.0, 500.0, 1000.0, 4000.0)
    configs = sweep_configs(preset("P8"), "memory.page_keep_open_ns",
                            windows_ns)
    results = run_jobs([Job(config, factory) for config in configs])
    rows = [[f"{window_ns:.0f}",
             f"{r.extras['counters'][0]['memory']['page_hit_rate']:.2f}"]
            for window_ns, r in zip(windows_ns, results)]
    print(format_table(["keep-open (ns)", "page-hit rate"], rows))
    print("   -> the knee sits just below the paper's ~1 us policy")


def main() -> None:
    cores_vs_cache()
    inclusion()
    keep_open()


if __name__ == "__main__":
    main()
