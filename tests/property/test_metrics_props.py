"""Property tests for the observability layer.

Two invariants the metrics consumers lean on:

* a transaction probe's hop decomposition is an exact *partition* of its
  end-to-end latency — every picosecond is assigned to exactly one hop
  label, whatever the stamp sequence looks like;
* :func:`validate_metrics` accepts a conforming document and rejects
  every single-field corruption of one (so schema drift cannot land
  silently).
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import RequestType
from repro.core.probe import LATENCY_EDGES_NS, TxnProbe
from repro.harness.metrics import SCHEMA, validate_metrics

# ---------------------------------------------------------------------------
# hop decomposition partitions latency

HOP_LABELS = ("l1_miss", "l2_lookup", "pkt_send", "dir_lookup", "fwd",
              "dram", "pkt_reply", "fill")

stamp_seqs = st.lists(
    st.tuples(st.sampled_from(HOP_LABELS), st.integers(0, 50_000)),
    min_size=1, max_size=24)


@settings(max_examples=200)
@given(t0=st.integers(0, 10_000), deltas=stamp_seqs)
def test_hop_decomposition_partitions_latency(t0, deltas):
    probe = TxnProbe(None, txn_id=1, cpu_id=0, node=0,
                     reqtype=RequestType.READ, now_ps=t0)
    t = t0
    for label, dt in deltas:
        t += dt
        probe.stamp(label, t)
    hops = probe.hop_decomposition()
    # exact partition: hop times sum to the end-to-end latency...
    assert sum(hops.values()) == probe.latency_ps() == t - t0
    # ...over exactly the labels that appear, each non-negative
    assert set(hops) == {label for label, _dt in deltas}
    assert all(dt >= 0 for dt in hops.values())


@settings(max_examples=60)
@given(t0=st.integers(0, 1000), deltas=stamp_seqs)
def test_hop_decomposition_merges_repeated_labels(t0, deltas):
    probe = TxnProbe(None, txn_id=1, cpu_id=0, node=0,
                     reqtype=RequestType.READ, now_ps=t0)
    expected = {}
    t = t0
    for label, dt in deltas:
        t += dt
        probe.stamp(label, t)
        expected[label] = expected.get(label, 0) + dt
    assert probe.hop_decomposition() == expected


# ---------------------------------------------------------------------------
# validate_metrics: conforming documents pass, corrupted ones fail


def minimal_doc():
    """The smallest document exercising every validated block."""
    edges = list(LATENCY_EDGES_NS)
    return {
        "schema": SCHEMA,
        "run": {
            "config": "P8", "cpus": 8, "nodes": 1, "workload": "oltp",
            "units": 20, "time_per_unit_ns": 1.0, "throughput": 1.0,
            "busy_frac": 0.5, "l2_frac": 0.3, "mem_frac": 0.2,
            "miss_hit_frac": 0.6, "miss_fwd_frac": 0.2,
            "miss_mem_frac": 0.2, "finish_ps": 1000,
            "probe_rate": 64, "sample_interval_ps": 0,
        },
        "probes": {
            "rate": 64, "attached": 3, "completed": 2,
            "classes": {
                "l2_hit": {
                    "count": 2, "mean_ns": 40.0, "p50_ns": 40.0,
                    "histogram": {"edges_ns": edges,
                                  "bins": [2] + [0] * len(edges)},
                    "hops": {},
                },
            },
            "by_source": {},
        },
        "timeseries": {
            "interval_ps": 100, "count": 2,
            "intervals": [
                {"index": 0, "t0_ps": 0, "t1_ps": 100, "reset": False,
                 "partial": False, "deltas": {}},
                {"index": 1, "t0_ps": 100, "t1_ps": 200, "reset": False,
                 "partial": False, "deltas": {}},
            ],
        },
        "counters": [],
    }


def test_minimal_doc_conforms():
    assert validate_metrics(minimal_doc()) == []


def _del(*path):
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    corrupt.__name__ = "del_" + "_".join(str(p) for p in path)
    return corrupt


def _set(value, *path):
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    corrupt.__name__ = "set_" + "_".join(str(p) for p in path)
    return corrupt


#: every corruption flips exactly one field of a conforming document
CORRUPTIONS = [
    _set("repro-metrics/0", "schema"),
    _del("run"),
    _del("probes"),
    _del("timeseries"),
    _del("counters"),
    _set(3, "run"),
    _set({}, "counters"),
    _del("run", "config"),
    _del("run", "busy_frac"),
    _del("run", "finish_ps"),
    _del("run", "probe_rate"),
    _del("probes", "rate"),
    _del("probes", "classes"),
    _del("probes", "classes", "l2_hit", "count"),
    _del("probes", "classes", "l2_hit", "histogram"),
    _del("probes", "classes", "l2_hit", "hops"),
    # histogram mass no longer equals the class count
    _set([1] + [0] * len(LATENCY_EDGES_NS),
         "probes", "classes", "l2_hit", "histogram", "bins"),
    # bins/edges length contract broken
    _set([0, 1], "probes", "classes", "l2_hit", "histogram", "bins"),
    _del("timeseries", "interval_ps"),
    _del("timeseries", "intervals", 1, "deltas"),
    _del("timeseries", "intervals", 0, "partial"),
    # interval running backwards (and zero-width: both non-positive)
    _set(40, "timeseries", "intervals", 1, "t1_ps"),
    _set(100, "timeseries", "intervals", 1, "t1_ps"),
]


@settings(max_examples=len(CORRUPTIONS) * 3)
@given(st.sampled_from(CORRUPTIONS))
def test_validate_metrics_rejects_single_field_corruption(corrupt):
    doc = minimal_doc()
    corrupt(doc)
    problems = validate_metrics(doc)
    assert problems, f"{corrupt.__name__} slipped past validate_metrics"


@settings(max_examples=40)
@given(st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=4,
                unique_by=lambda c: c.__name__))
def test_validate_metrics_rejects_stacked_corruptions(corruptions):
    doc = minimal_doc()
    pristine = copy.deepcopy(doc)
    for corrupt in corruptions:
        try:
            corrupt(doc)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier corruption already removed the parent
    if doc == pristine:  # every corruption hit a removed parent
        return
    assert validate_metrics(doc)


# ---------------------------------------------------------------------------
# the real document honours both invariants


def test_real_metrics_doc_conforms_and_partitions():
    from repro.core.config import preset
    from repro.harness.experiments import MigratoryFactory
    from repro.harness.runner import run_configured
    from repro.workloads import MicroParams

    # P2, not P1: migratory needs a second CPU to ping-pong against
    # before the measured phase sees any L1 misses to probe
    result = run_configured(
        preset("P2"), MigratoryFactory(MicroParams(iterations=200)),
        probe_rate=8)
    doc = result.extras["metrics"]
    assert validate_metrics(doc) == []
    samples = doc["probes"]["samples"]
    assert samples, "probe_rate=8 over 200 iterations must sample misses"
    for sample in samples:
        stamps = sample["stamps"]
        hop_sum_ps = stamps[-1][1] - stamps[0][1]
        assert abs(hop_sum_ps / 1000.0 - sample["latency_ns"]) < 1e-6
