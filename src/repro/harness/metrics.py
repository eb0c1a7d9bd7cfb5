"""Structured metrics export: one registry, one stable schema.

Everything the simulator can observe — the per-class transaction-probe
latency histograms and hop decompositions, the interval time-series, and
the performance-monitor counter rollup — is serialised into a single JSON
document with a versioned schema identifier.  The document is built from
deterministic simulation state only (no wall-clock, no host identity), so
the serial path, the ProcessPool path and both result caches all produce
byte-identical metrics for the same point.

The document rides :attr:`RunResult.extras` under the ``"metrics"`` key:
it is attached inside :func:`~repro.harness.runner.simulate`, survives the
pickle round-trip from pool workers, and is stored/recalled by the memo
and disk caches like any other extra.

Schema (``repro-metrics/1``)::

    {
      "schema": "repro-metrics/1",
      "run": {config, cpus, nodes, workload, units, throughput, ...},
      "probes": ProbeCollector.as_dict() | null,
      "timeseries": IntervalSampler.as_dict() | null,
      "counters": [perfmon node reports]
    }

``repro run --metrics out.json`` writes this document;
``scripts/validate_metrics.py`` checks an emitted file against
:func:`validate_metrics` plus a probe-vs-counter latency cross-check.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: Versioned schema identifier; bump when the document shape changes.
SCHEMA = "repro-metrics/1"


def metrics_doc(system, result, probe_rate: int = 0,
                sample_interval_ps: int = 0) -> Dict[str, object]:
    """Assemble the full metrics document from a finished system and the
    :class:`~repro.harness.runner.RunResult` measured from it (the
    run-summary block)."""
    from .perfmon import system_report

    now = system.sim.now
    run = {
        "config": result.config,
        "cpus": result.cpus,
        "nodes": result.nodes,
        "workload": result.workload,
        "units": result.units,
        "time_per_unit_ns": result.time_per_unit_ns,
        "throughput": result.throughput,
        "busy_frac": result.busy_frac,
        "l2_frac": result.l2_frac,
        "mem_frac": result.mem_frac,
        "miss_hit_frac": result.miss_hit_frac,
        "miss_fwd_frac": result.miss_fwd_frac,
        "miss_mem_frac": result.miss_mem_frac,
    }
    run["finish_ps"] = now
    run["probe_rate"] = probe_rate
    run["sample_interval_ps"] = sample_interval_ps
    return {
        "schema": SCHEMA,
        "run": run,
        "probes": system.probes.as_dict() if system.probes is not None
        else None,
        "timeseries": system.sampler.as_dict() if system.sampler is not None
        else None,
        "counters": system_report(system, now_ps=now),
        # independent cross-check data for the probe means (see
        # counter_latency_ns): CPU-side per-source stall accounting
        "stall_latency": counter_latency_ns(system),
    }


def counter_latency_ns(system) -> Dict[str, Dict[str, float]]:
    """Mean L1-miss service latency per :class:`ReplySource`, computed
    from CPU stall accounting (``stall_ps`` / ``stall_counts``) — fully
    independent of the probe path, so probe means can be validated
    against it.  Exact for in-order cores (every miss blocks for its full
    latency); OOO cores hide part of the latency, so only use this check
    on in-order configs."""
    totals: Dict[str, List[float]] = {}
    for cpu in system.all_cpus():
        for source, count in cpu.stall_counts.items():
            if not count:
                continue
            entry = totals.setdefault(source.name.lower(), [0.0, 0.0])
            entry[0] += cpu.stall_ps[source]
            entry[1] += count
    return {
        name: {"count": c, "mean_ns": ps / c / 1000.0 if c else 0.0}
        for name, (ps, c) in totals.items()
    }


def validate_metrics(doc: Dict[str, object]) -> List[str]:
    """Structural validation against the documented schema; returns a
    list of problems (empty when the document conforms)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("run", "probes", "timeseries", "counters"):
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    run = doc.get("run")
    if isinstance(run, dict):
        for key in ("config", "nodes", "busy_frac", "l2_frac", "mem_frac",
                    "finish_ps", "probe_rate", "sample_interval_ps"):
            if key not in run:
                problems.append(f"run block missing {key!r}")
    elif run is not None:
        problems.append("run block is not an object")
    probes = doc.get("probes")
    if isinstance(probes, dict):
        for key in ("rate", "attached", "completed", "classes", "by_source"):
            if key not in probes:
                problems.append(f"probes block missing {key!r}")
        for cls, block in (probes.get("classes") or {}).items():
            for key in ("count", "mean_ns", "p50_ns", "histogram", "hops"):
                if key not in block:
                    problems.append(f"probe class {cls!r} missing {key!r}")
            hist = block.get("histogram", {})
            edges = hist.get("edges_ns", [])
            bins = hist.get("bins", [])
            if len(bins) != len(edges) + 1:
                problems.append(
                    f"probe class {cls!r}: {len(bins)} bins for "
                    f"{len(edges)} edges (want edges+1)")
            if sum(bins) != block.get("count"):
                problems.append(
                    f"probe class {cls!r}: histogram mass {sum(bins)} != "
                    f"count {block.get('count')}")
    ts = doc.get("timeseries")
    if isinstance(ts, dict):
        for key in ("interval_ps", "count", "intervals"):
            if key not in ts:
                problems.append(f"timeseries block missing {key!r}")
        for i, rec in enumerate(ts.get("intervals") or []):
            for key in ("index", "t0_ps", "t1_ps", "reset", "partial",
                        "deltas"):
                if key not in rec:
                    problems.append(f"interval {i} missing {key!r}")
            if rec.get("t1_ps", 0) <= rec.get("t0_ps", 0):
                problems.append(f"interval {i} has non-positive width")
    if not isinstance(doc.get("counters"), list):
        problems.append("counters block is not a list of node reports")
    return problems


def write_metrics(doc: Dict[str, object], path: str) -> None:
    """Serialise the document to *path* (stable key order)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def timeseries_csv(doc: Dict[str, object]) -> str:
    """Flatten the time-series block into CSV (one row per interval).

    Columns: the interval bounds/flags, then every delta, derived and
    gauge key (union over intervals, sorted) prefixed by its group.
    """
    ts = doc.get("timeseries") or {}
    intervals = ts.get("intervals") or []
    delta_keys: set = set()
    derived_keys: set = set()
    gauge_keys: set = set()
    for rec in intervals:
        delta_keys.update(rec.get("deltas", {}))
        derived_keys.update(rec.get("derived", {}))
        gauge_keys.update(rec.get("gauges", {}))
    header = (["index", "t0_ps", "t1_ps", "reset", "partial"]
              + [f"d_{k}" for k in sorted(delta_keys)]
              + [f"r_{k}" for k in sorted(derived_keys)]
              + [f"g_{k}" for k in sorted(gauge_keys)])
    lines = [",".join(header)]
    for rec in intervals:
        row = [str(rec.get("index", "")), str(rec.get("t0_ps", "")),
               str(rec.get("t1_ps", "")), str(int(bool(rec.get("reset")))),
               str(int(bool(rec.get("partial"))))]
        deltas = rec.get("deltas", {})
        derived = rec.get("derived", {})
        gauges = rec.get("gauges", {})
        row += [_num(deltas.get(k)) for k in sorted(delta_keys)]
        row += [_num(derived.get(k)) for k in sorted(derived_keys)]
        row += [_num(gauges.get(k)) for k in sorted(gauge_keys)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _num(value: Optional[float]) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))
