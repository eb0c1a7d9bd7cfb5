"""Section 6: web-server / search workloads.

'Previous studies have shown that some web server applications, such as
the AltaVista search engine, exhibit behavior similar to decision support
(DSS) workloads.'  The benchmark runs the search model on P8 and OOO and
checks it lands in DSS's regime: busy-dominated, with a Piranha advantage
close to the DSS factor (~2.3x) rather than the OLTP one (~2.9x).
"""

import pytest

from repro.core import preset
from repro.harness import (Job, WebFactory, format_table, paper_vs_measured,
                           run_jobs, scale_factor)
from repro.workloads.web import WebParams

CONFIGS = ("P1", "P8", "OOO")


def experiment():
    scale = scale_factor()
    factory = WebFactory(WebParams(queries=max(50, int(150 * scale)),
                                   warmup_queries=max(20, int(40 * scale))))
    return dict(zip(CONFIGS, run_jobs([Job(preset(name), factory)
                                       for name in CONFIGS])))


def test_web_is_dss_shaped(benchmark):
    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    p8_over_ooo = results["P8"].throughput / results["OOO"].throughput
    p8_over_p1 = results["P8"].throughput / results["P1"].throughput
    print()
    print(format_table(
        ["config", "busy fraction", "throughput vs P1"],
        [[n, f"{r.busy_frac:.2f}",
          f"{r.throughput / results['P1'].throughput:.2f}"]
         for n, r in results.items()],
        title="Section 6: search/web workload"))
    print(paper_vs_measured("Web ~ DSS", [
        ("P8 / OOO", "~2.3 (DSS-like)", p8_over_ooo),
        ("busy-dominated", "> 0.7", results["P8"].busy_frac),
    ]))

    # DSS-shaped: busy-dominated, near-linear CMP scaling, a P8 advantage
    # in DSS's band rather than OLTP's
    assert results["P8"].busy_frac > 0.65
    assert 6.5 <= p8_over_p1 <= 8.2
    assert 1.7 <= p8_over_ooo <= 2.9
