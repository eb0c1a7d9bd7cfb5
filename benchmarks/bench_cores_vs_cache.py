"""Section 4 design-space note: trading CPUs for a larger L2.

'Since the fraction of L2 miss stall time is relatively small, the
improvement from even an infinite L2 would be modest.  Moreover, since
Piranha CPUs are small, relatively little SRAM can be added per CPU
removed.  As a result, such a trade-off does not seem advantageous.'

The sweep compares the stock P8 against variants that give up CPUs for
proportionally more L2, on OLTP throughput per chip.
"""

import dataclasses

import pytest

from repro.core import preset
from repro.harness import (Job, OltpFactory, format_table, run_jobs,
                           scale_factor)
from repro.workloads import OltpParams


def _variant_config(cpus: int, l2_kb: int):
    config = preset("P8").with_cpus(cpus, f"P{cpus}-{l2_kb}KB")
    return dataclasses.replace(
        config, l2=dataclasses.replace(config.l2, size_bytes=l2_kb * 1024))


def sweep():
    # a Piranha core + L1s is worth very roughly 128 KB of ASIC SRAM
    variants = [(8, 1024), (6, 1280), (4, 1536)]
    scale = scale_factor()
    params = OltpParams(
        transactions=max(20, int(60 * scale)),
        warmup_transactions=max(30, int(100 * scale)),
    )
    # independent points: fan out via the parallel/cached harness
    results = run_jobs([
        Job(config=_variant_config(cpus, kb), factory=OltpFactory(params))
        for cpus, kb in variants
    ])
    return {key: r.throughput for key, r in zip(variants, results)}


def test_cores_beat_cache(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base = results[(8, 1024)]
    print()
    print(format_table(
        ["CPUs", "L2 (KB)", "OLTP throughput vs P8"],
        [[cpus, kb, f"{tput / base:.2f}"]
         for (cpus, kb), tput in results.items()],
        title="Section 4: trading CPUs for L2 capacity (OLTP)"))

    # the stock 8-CPU chip beats every trade-down
    for (cpus, kb), tput in results.items():
        if cpus < 8:
            assert tput < base
