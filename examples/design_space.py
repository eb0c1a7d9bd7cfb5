#!/usr/bin/env python3
"""Design-space exploration around the Piranha design point (Section 4).

Uses the sweep harness to revisit three trade-offs the paper discusses:

1. cores vs L2 capacity ("such a trade-off does not seem advantageous");
2. the non-inclusive L2 vs a conventional inclusive one (Section 2.3);
3. the memory controller's page keep-open window (Section 2.4).

Run:  python examples/design_space.py
"""

import dataclasses

from repro import OltpParams, OltpWorkload, preset
from repro.core import PiranhaSystem
from repro.harness import format_table, record_from_result, run_configured
from repro.harness.sweep import replace_field

PARAMS = OltpParams(transactions=30, warmup_transactions=60)


def oltp_factory(config, num_nodes):
    return OltpWorkload(PARAMS, cpus_per_node=config.cpus,
                        num_nodes=num_nodes)


def cores_vs_cache() -> None:
    print("1. trading CPUs for L2 capacity (OLTP throughput per chip)")
    variants = [(8, 1024), (6, 1280), (4, 1536), (2, 1792)]
    rows = []
    base = None
    for cpus, kb in variants:
        config = preset("P8").with_cpus(cpus, f"P{cpus}")
        config = replace_field(config, "l2.size_bytes", kb * 1024)
        record = record_from_result(run_configured(config, oltp_factory))
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
        record = record_from_result(run_configured(config, oltp_factory))
        rows.append(["inclusive" if inclusive else "non-inclusive",
                     f"{record['time_per_unit_ns']:.0f}",
                     f"{record['miss_mem_frac']:.2f}"])
    print(format_table(["policy", "ns per transaction", "L1-miss mem share"],
                       rows))
    print("   -> inclusion forfeits the aggregate-L1 megabyte of on-chip "
          "capacity\n")


def keep_open() -> None:
    print("3. RDRAM page keep-open window (Section 2.4)")
    rows = []
    params = dataclasses.replace(PARAMS, block_io_lines_per_txn=32)

    def factory(config, num_nodes):
        return OltpWorkload(params, cpus_per_node=config.cpus)

    for window_ns in (0.0, 500.0, 1000.0, 4000.0):
        config = replace_field(preset("P8"), "memory.page_keep_open_ns",
                               window_ns)
        system = PiranhaSystem(config, num_nodes=1)
        system.attach_workload(factory(config, 1))
        system.run_to_completion()
        hits = sum(mc.channel.c_page_hits.value
                   for mc in system.nodes[0].mcs)
        accesses = sum(mc.channel.c_accesses.value
                       for mc in system.nodes[0].mcs)
        rows.append([f"{window_ns:.0f}",
                     f"{hits / max(1, accesses):.2f}"])
    print(format_table(["keep-open (ns)", "page-hit rate"], rows))
    print("   -> the knee sits just below the paper's ~1 us policy")


def main() -> None:
    cores_vs_cache()
    inclusion()
    keep_open()


if __name__ == "__main__":
    main()
