"""Performance-monitoring report (the SC's performance-monitoring duty).

Section 2 lists performance monitoring among the system controller's
functions.  This module rolls every module's counters into one structured
report per node — CPUs, L1s, ICS, L2 banks, memory channels, protocol
engines, router — and renders it as text.  The harness stores the
rollup of every measured run in ``RunResult.extras["counters"]``
(:func:`~repro.harness.runner.assemble_result`), which the CLI's
``--report`` flag renders::

    from repro.harness.perfmon import render_report
    print(render_report(result.extras["counters"]))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .report import format_table


def node_report(node, now_ps: Optional[int] = None) -> Dict[str, object]:
    """Collect one node's performance counters.

    Pass *now_ps* (usually ``system.sim.now``) to also include
    time-weighted means — quantities like TSRF occupancy need the end of
    the measurement window to close their last integration segment."""
    cpus = []
    for cpu in node.cpus:
        total = cpu.total_ps or 1
        cpus.append({
            "name": cpu.name,
            "instructions": cpu.instructions,
            "refs": cpu.refs,
            "misses": cpu.misses,
            "l1_miss_rate": cpu.misses / cpu.refs if cpu.refs else 0.0,
            "busy_frac": cpu.busy_ps / total,
            "membars": cpu.c_membar.value,
        })
    l1 = {
        "iL1_hit_rate": _avg(c.hit_rate for c in node.l1i),
        "dL1_hit_rate": _avg(c.hit_rate for c in node.l1d),
    }
    banks = {
        "requests": sum(b.c_requests.value for b in node.banks),
        "hits": sum(b.c_hits.value for b in node.banks),
        "fwds": sum(b.c_fwds.value for b in node.banks),
        "mem": sum(b.c_local_mem.value + b.c_remote_mem.value
                   + b.c_remote_dirty.value for b in node.banks),
        "upgrades": sum(b.c_upgrades.value for b in node.banks),
        "owner_writebacks": sum(b.c_l1_wb_owner.value for b in node.banks),
        "filtered_evictions": sum(b.c_l1_evict_clean.value
                                  for b in node.banks),
        "l2_evictions": sum(b.c_l2_evictions.value for b in node.banks),
        "conflicts": sum(b.c_conflicts.value for b in node.banks),
        "resident_lines": sum(b.resident_lines() for b in node.banks),
    }
    page_hits = sum(mc.channel.c_page_hits.value for mc in node.mcs)
    accesses = sum(mc.channel.c_accesses.value for mc in node.mcs)
    memory = {
        "reads": sum(mc.channel.c_reads.value for mc in node.mcs),
        "writes": sum(mc.channel.c_writes.value for mc in node.mcs),
        # pooled over the channels, not a mean of per-channel rates
        "page_hit_rate": page_hits / accesses if accesses else 0.0,
        "queued": sum(mc.channel.c_queued.value for mc in node.mcs),
    }
    ics = {
        "transfers": node.ics.c_transfers.value,
        "bytes": node.ics.c_bytes.value,
        "utilization": node.ics.utilization(),
        "conflicts": node.ics.c_conflicts.value,
    }
    engines = {}
    for engine in (node.home_engine, node.remote_engine):
        block = {
            "threads": engine.c_threads.value,
            "instructions": engine.c_instructions.value,
            "tsrf_high_water": engine.tsrf.high_water,
            "tsrf_stalls": engine.c_tsrf_stalls.value,
            # Explicit 0.0 when no timestamp closes the window: report
            # consumers diff node blocks key-by-key, so an idle engine
            # (never-updated tracker) must not drop the key.
            "tsrf_mean_occupancy": (engine.tw_tsrf.mean(now_ps)
                                    if now_ps is not None else 0.0),
        }
        engines[engine.name.split(".")[-1]] = block
    return {
        "node": node.name,
        "cpus": cpus,
        "l1": l1,
        "l2": banks,
        "memory": memory,
        "ics": ics,
        "engines": engines,
        "packets_sent": node.c_packets_sent.value,
    }


def system_report(system, now_ps: Optional[int] = None) -> List[Dict[str, object]]:
    """Per-node reports for a whole system."""
    return [node_report(node, now_ps=now_ps) for node in system.nodes]


def _avg(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def render_report(reports: List[Dict[str, object]]) -> str:
    """Render node reports as text tables."""
    sections = []
    for report in reports:
        rows = []
        l2 = report["l2"]
        mem = report["memory"]
        ics = report["ics"]
        rows.append(["CPU instructions",
                     sum(c["instructions"] for c in report["cpus"])])
        rows.append(["CPU L1-miss rate",
                     f"{_avg(c['l1_miss_rate'] for c in report['cpus']):.3f}"])
        rows.append(["iL1 / dL1 hit rate",
                     f"{report['l1']['iL1_hit_rate']:.3f} / "
                     f"{report['l1']['dL1_hit_rate']:.3f}"])
        rows.append(["L2 requests (hit/fwd/mem)",
                     f"{l2['requests']} ({l2['hits']}/{l2['fwds']}/"
                     f"{l2['mem']})"])
        rows.append(["L2 owner WBs / filtered", f"{l2['owner_writebacks']} / "
                     f"{l2['filtered_evictions']}"])
        rows.append(["L2 pending conflicts", l2["conflicts"]])
        rows.append(["memory reads/writes", f"{mem['reads']}/{mem['writes']}"])
        rows.append(["page-hit rate", f"{mem['page_hit_rate']:.2f}"])
        rows.append(["ICS transfers / util",
                     f"{ics['transfers']} / {ics['utilization']:.3f}"])
        for name, eng in report["engines"].items():
            rows.append([f"{name} threads/instrs",
                         f"{eng['threads']}/{eng['instructions']}"])
        rows.append(["packets sent", report["packets_sent"]])
        sections.append(format_table(["counter", "value"], rows,
                                     title=report["node"]))
    return "\n\n".join(sections)
