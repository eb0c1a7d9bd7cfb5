"""Section 2.3 ablations: the non-inclusive L2 and the ownership filter.

Quantifies the design choices the paper calls out:

* **non-inclusion A/B**: the same P8 chip simulated with a conventional
  inclusive L2 ("maintaining data inclusion in our 1MB L2 can potentially
  waste its full capacity with duplicate data") — the non-inclusive design
  must win on OLTP throughput and memory-miss share;
* **duplication**: under non-inclusion almost no line is duplicated
  between the L1s and the L2;
* **ownership-filtered write-backs**: among L1 replacements, only the
  owner's replacement writes back to the L2 — non-owner replacements are
  silent.
"""

import pytest

from repro.core import preset
from repro.harness import (OltpFactory, format_table, replace_field,
                           scale_factor)
from repro.harness.runner import RunSpec, build_system, run_system
from repro.workloads import OltpParams


def run_p8(inclusive=False):
    scale = scale_factor()
    factory = OltpFactory(OltpParams(
        transactions=max(20, int(60 * scale)),
        warmup_transactions=max(30, int(100 * scale)),
    ))
    config = replace_field(preset("P8"), "l2.inclusive", inclusive)
    system, _ = build_system(config, factory)
    result = run_system(system, RunSpec())
    l2 = result.extras["counters"][0]["l2"]

    # the duplication walk: which lines sit in an L1 and in the L2 at
    # once (no counter tracks it, so it reads the drained machine)
    node = system.nodes[0]
    l1_lines = {tag for l1 in node.l1i + node.l1d
                for s in l1.sets for tag in s}
    l2_lines = {tag for bank in node.banks for s in bank.sets for tag in s}
    duplicated = len(l1_lines & l2_lines)
    return {
        "l1_lines": len(l1_lines),
        "l2_lines": l2["resident_lines"],
        "duplicated": duplicated,
        "duplication_fraction": duplicated / max(1, l2["resident_lines"]),
        "filtered_replacements": l2["filtered_evictions"],
        "owner_writebacks": l2["owner_writebacks"],
        "on_chip_bytes": node.on_chip_resident_bytes(),
        "time_per_txn_ns": result.time_per_unit_ns,
        "mem_miss_frac": result.miss_mem_frac,
    }


def ab_comparison():
    return {"noninclusive": run_p8(False), "inclusive": run_p8(True)}


def test_noninclusion(benchmark):
    ab = benchmark.pedantic(ab_comparison, rounds=1, iterations=1)
    stats = ab["noninclusive"]
    incl = ab["inclusive"]

    print()
    print(format_table(["metric", "value"], [
        ["distinct lines in L1s", stats["l1_lines"]],
        ["lines in L2", stats["l2_lines"]],
        ["duplicated (in both)", stats["duplicated"]],
        ["L2 duplication fraction", f"{stats['duplication_fraction']:.3f}"],
        ["owner write-backs", stats["owner_writebacks"]],
        ["filtered (silent) replacements", stats["filtered_replacements"]],
        ["on-chip resident bytes", stats["on_chip_bytes"]],
    ], title="Section 2.3: non-inclusion + ownership-filter ablation"))

    # Non-inclusion: an inclusive hierarchy would have EVERY L1 line
    # duplicated in the L2 (duplication fraction near aggregate-L1/L2);
    # Piranha's is a small residue of in-flight transitions.
    assert stats["duplication_fraction"] < 0.25
    # The victim L2 holds a meaningful working set of its own
    assert stats["l2_lines"] > 1000
    # The ownership filter suppresses a visible share of write-backs
    total = stats["filtered_replacements"] + stats["owner_writebacks"]
    assert stats["filtered_replacements"] / total > 0.05
    # aggregate on-chip contents exceed the 1 MB L2 alone
    assert stats["on_chip_bytes"] > 1024 * 1024
    # A/B: the paper's design point beats the inclusive alternative
    speedup = incl["time_per_txn_ns"] / stats["time_per_txn_ns"]
    print(f"\n  inclusive-L2 ablation: non-inclusion is {speedup:.2f}x "
          f"faster on OLTP (memory-miss share "
          f"{stats['mem_miss_frac']:.2f} vs {incl['mem_miss_frac']:.2f})")
    assert speedup > 1.1
    assert incl["mem_miss_frac"] > stats["mem_miss_frac"] * 1.5
