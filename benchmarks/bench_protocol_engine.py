"""Section 2.5.1: protocol-engine occupancy and microcode economy.

The paper argues the specialised microcoded engines achieve much lower
latency and occupancy than a general-purpose protocol processor (FLASH):
typical transactions take only a few instructions per engine (a remote
read costs four at the requester's remote engine), and the whole protocol
fits in ~hundreds of the 1024 microstore words.  This benchmark measures
engine behaviour under a multi-node OLTP run.
"""

import pytest

from repro.core import preset
from repro.core.microprograms import build_home_program, build_remote_program
from repro.harness import (Job, OltpFactory, format_table, run_jobs,
                           scale_factor)
from repro.workloads import OltpParams


def run_multinode():
    scale = scale_factor()
    params = OltpParams(
        transactions=max(15, int(40 * scale)),
        warmup_transactions=max(20, int(60 * scale)),
    )
    result = run_jobs([Job(preset("P4"), OltpFactory(params), num_nodes=2)])[0]

    stats = {"per_node": []}
    for node in result.extras["counters"]:
        for name, engine in node["engines"].items():
            threads = engine["threads"]
            instrs = engine["instructions"]
            stats["per_node"].append({
                "engine": f"{node['node']}.{name}",
                "threads": threads,
                "instructions": instrs,
                "instr_per_thread": instrs / threads if threads else 0.0,
                "tsrf_high_water": engine["tsrf_high_water"],
                "tsrf_stalls": engine["tsrf_stalls"],
            })
    remote = build_remote_program()
    home = build_home_program()
    stats["microstore"] = {
        "remote_words": remote.words_used,
        "home_words": home.words_used,
        "capacity": 1024,
    }
    return stats


def test_engine_occupancy(benchmark):
    stats = benchmark.pedantic(run_multinode, rounds=1, iterations=1)

    print()
    print(format_table(
        ["engine", "threads", "instrs", "instrs/thread", "TSRF peak",
         "TSRF stalls"],
        [[e["engine"], e["threads"], e["instructions"],
          f"{e['instr_per_thread']:.1f}", e["tsrf_high_water"],
          e["tsrf_stalls"]]
         for e in stats["per_node"]],
        title="Section 2.5.1: protocol-engine occupancy (2-node OLTP)"))
    ms = stats["microstore"]
    print(f"\n  microstore: remote={ms['remote_words']} "
          f"home={ms['home_words']} of {ms['capacity']} words")

    busy = [e for e in stats["per_node"] if e["threads"] > 0]
    assert busy, "no engine saw traffic"
    for e in busy:
        # a handful of instructions per transaction, not hundreds
        # (the FLASH comparison: low occupancy is the point)
        assert e["instr_per_thread"] < 20
        # 16 TSRF entries were enough most of the time
        assert e["tsrf_high_water"] <= 16
    assert ms["remote_words"] < 1024 and ms["home_words"] < 1024
