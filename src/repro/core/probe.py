"""Sampled transaction probes: per-miss latency attribution.

The paper's Table 2 and Figure 6 argue from *where a miss spends its
time* — L2-hit vs. local-memory vs. 2-hop remote vs. 3-hop remote-dirty
service, and the per-hop costs inside each class.  Counters can only
approximate that by arithmetic over aggregate sums; probes measure it
directly.  Every Nth L1 miss gets a :class:`TxnProbe` attached to its
:class:`~repro.core.messages.MemRequest`.  The probe rides the
transaction end-to-end — through the ICS, the L2 bank, the protocol
engines, every interconnect packet, and the memory channel — collecting
``(hop_label, time_ps)`` stamps, and is classified and aggregated by the
chip-wide :class:`ProbeCollector` when the request completes.

Hot-path discipline: the untagged path (the other N-1 of every N misses,
and *all* misses when probes are disabled) costs one ``is None``
attribute test per stamp point and allocates nothing.  Components must
always guard with ``if probe is not None`` before touching a probe.

Hop labels, in the order a transaction can visit them:

``issue``
    L1 miss detected, request handed to the chip (always the first stamp).
``bank``
    arrival at the home L2 bank's controller (delta from the previous
    stamp covers L1 miss-detect + the ICS request transfer; repeated
    arrivals due to same-line conflict serialisation re-stamp, so
    conflict wait time lands here too).
``l2_tag``
    L2 bank tag + duplicate-L1-tag lookup done.
``l2_data``
    L2 data array read done (L2-hit path).
``fwd_owner``
    owning L1 serviced a forwarded request (L2_FWD path).
``mem_data``
    memory channel delivered the critical word (local or home memory).
``owner_fetch``
    remote dirty owner's L2/L1 fetch done (3-hop path).
``pe_dispatch``
    a protocol engine picked the transaction's TSRF entry for execution.
``pkt_send`` / ``pkt_recv``
    packet handed to / delivered from the inter-node interconnect.
``pkt_transit``
    packet forwarded through an intermediate router hop.
``fill``
    the fill reached the requesting L1 and the CPU restarted (always the
    last stamp, at completion time).

The per-hop decomposition assigns each consecutive stamp delta to the
*later* stamp's label, so hop sums partition the end-to-end latency
exactly (tested as an invariant).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import PS_PER_NS
from ..sim.stats import Accumulator, Histogram
from .messages import ReplySource, RequestType

#: Latency histogram bin edges, in nanoseconds.  Spans L2 hits (a few
#: dozen ns at 500 MHz) through 3-hop remote-dirty misses (>1 us under
#: load); fixed so histograms from different runs are comparable.
LATENCY_EDGES_NS = (
    25, 50, 75, 100, 150, 200, 300, 400, 600, 800,
    1200, 1600, 2400, 3200, 4800,
)

#: Transaction classes, mirroring Table 2's latency rows.  ``upgrade``
#: captures exclusive requests on an already-shared line (no data
#: transfer); the rest follow the servicing :class:`ReplySource`.
PROBE_CLASSES = (
    "l2_hit", "l2_fwd", "local_mem", "remote_clean", "remote_dirty",
    "upgrade",
)

_SOURCE_CLASS = {
    ReplySource.L1_HIT: "l2_hit",       # defensive: probes attach on misses
    ReplySource.L2_HIT: "l2_hit",
    ReplySource.L2_FWD: "l2_fwd",
    ReplySource.LOCAL_MEM: "local_mem",
    ReplySource.REMOTE_MEM: "remote_clean",
    ReplySource.REMOTE_DIRTY: "remote_dirty",
}


class TxnProbe:
    """Timestamps one sampled transaction's hops.

    Mutable scratch object owned by its :class:`ProbeCollector`; not a
    dataclass to keep attach cheap (``__slots__``, no default machinery).
    """

    __slots__ = ("txn_id", "cpu_id", "node", "reqtype", "stamps", "notes",
                 "collector", "done")

    def __init__(self, collector: "ProbeCollector", txn_id: int, cpu_id: int,
                 node: int, reqtype: RequestType, now_ps: int) -> None:
        self.collector = collector
        self.txn_id = txn_id
        self.cpu_id = cpu_id
        self.node = node
        self.reqtype = reqtype
        #: ordered ``(hop_label, time_ps)`` pairs; first is always "issue"
        self.stamps: List[tuple] = [("issue", now_ps)]
        self.notes: Dict[str, object] = {}
        self.done = False

    def stamp(self, label: str, time_ps: int) -> None:
        """Record reaching *label* at *time_ps* (may be a computed future
        time when a component charges its whole delay in one event).
        Stamps after completion — e.g. the post-fill invalidation
        campaign of an eager exclusive grant — are dropped: they are not
        part of the miss's critical path."""
        if not self.done:
            self.stamps.append((label, time_ps))

    def note(self, key: str, value) -> None:
        """Attach a free-form annotation (e.g. ``dram_page_hit``)."""
        if not self.done:
            self.notes[key] = value

    def latency_ps(self) -> int:
        return self.stamps[-1][1] - self.stamps[0][1]

    def hop_decomposition(self) -> Dict[str, int]:
        """Per-hop time: each consecutive stamp delta is assigned to the
        later stamp's label (summing repeats, e.g. multiple ``pkt_send``
        hops of a 3-hop miss).  Values sum to :meth:`latency_ps`."""
        hops: Dict[str, int] = {}
        stamps = self.stamps
        prev_t = stamps[0][1]
        for label, t in stamps[1:]:
            hops[label] = hops.get(label, 0) + (t - prev_t)
            prev_t = t
        return hops

    def finish(self, now_ps: int, source: ReplySource) -> None:
        """Close the probe and fold it into the collector's aggregates."""
        if self.done:
            return
        if self.stamps[-1][1] != now_ps:
            # Defensive: every completion path stamps "fill" at the
            # completing event's time, but keep the hop-sum == latency
            # invariant even if one doesn't.
            self.stamps.append(("fill", now_ps))
        self.done = True
        self.collector.finish(self, source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TxnProbe(txn={self.txn_id}, cpu={self.cpu_id}, "
                f"stamps={len(self.stamps)}, done={self.done})")


def classify(reqtype: RequestType, source: ReplySource) -> str:
    """Map a completed transaction to its Table-2 class.

    Classification uses the *issue-time* request type: an EXCLUSIVE
    (upgrade) that the bank degrades to READ_EXCLUSIVE after a conflict
    still counts as an upgrade attempt from the CPU's point of view.
    """
    if reqtype == RequestType.EXCLUSIVE:
        return "upgrade"
    return _SOURCE_CLASS[source]


class ProbeCollector:
    """Samples misses at a fixed rate and aggregates completed probes.

    Aggregates per class: an end-to-end latency :class:`Histogram` (ns),
    a latency :class:`Accumulator`, and per-hop accumulators (one per
    hop label, in ps, accumulating each probe's summed time in that
    hop).  ``by_source`` additionally buckets latency by the raw
    :class:`ReplySource` regardless of class, which is what the
    counter-vs-probe cross-check in CI compares (CPUs account stall per
    source, not per class).  The first *max_samples* completed probes
    are kept verbatim for trace-level inspection in the metrics export.
    """

    def __init__(self, rate: int, max_samples: int = 64) -> None:
        if rate < 1:
            raise ValueError(f"probe rate must be >= 1, got {rate}")
        self.rate = int(rate)
        self.max_samples = int(max_samples)
        #: optional ``cb(probe, source, cls)`` invoked after each probe is
        #: folded into the aggregates; the span tracer hangs here.  Runs
        #: only for probed (1-in-rate) completions, never on the hot path.
        self.on_finish = None
        self._tick = 0
        self.attached = 0
        self.completed = 0
        self.hist: Dict[str, Histogram] = {}
        self.lat: Dict[str, Accumulator] = {}
        self.hops: Dict[str, Dict[str, Accumulator]] = {}
        self.by_source: Dict[str, Accumulator] = {}
        self.samples: List[Dict[str, object]] = []
        for cls in PROBE_CLASSES:
            self.hist[cls] = Histogram(f"lat_{cls}", LATENCY_EDGES_NS)
            self.lat[cls] = Accumulator(f"lat_{cls}")
            self.hops[cls] = {}
        for src in ReplySource:
            self.by_source[src.name.lower()] = Accumulator(src.name.lower())

    # -- attach / finish -------------------------------------------------

    def maybe_attach(self, txn_id: int, cpu_id: int, node: int,
                     reqtype: RequestType, now_ps: int) -> Optional[TxnProbe]:
        """Return a fresh probe for every ``rate``-th call, else None.

        The caller (``PiranhaChip.issue_miss``) invokes this once per L1
        miss, so "every Nth miss" is chip-arrival order — deterministic
        for a given seed/config."""
        self._tick += 1
        if self._tick % self.rate:
            return None
        self.attached += 1
        return TxnProbe(self, txn_id, cpu_id, node, reqtype, now_ps)

    def finish(self, probe: TxnProbe, source: ReplySource) -> None:
        cls = classify(probe.reqtype, source)
        lat_ps = probe.latency_ps()
        lat_ns = lat_ps / PS_PER_NS
        self.completed += 1
        self.hist[cls].add(lat_ns)
        self.lat[cls].add(lat_ns)
        self.by_source[source.name.lower()].add(lat_ns)
        cls_hops = self.hops[cls]
        for label, dt_ps in probe.hop_decomposition().items():
            acc = cls_hops.get(label)
            if acc is None:
                acc = cls_hops[label] = Accumulator(label)
            acc.add(dt_ps)
        if len(self.samples) < self.max_samples:
            # NOTE: no txn_id here — it comes from a process-global
            # counter, and the metrics document must be identical across
            # serial/parallel/cached paths; completion order already
            # identifies a sample within the run
            self.samples.append({
                "seq": self.completed,
                "cpu_id": probe.cpu_id,
                "node": probe.node,
                "reqtype": probe.reqtype.name.lower(),
                "class": cls,
                "source": source.name.lower(),
                "latency_ns": lat_ns,
                "stamps": [[label, t] for label, t in probe.stamps],
                "notes": dict(probe.notes),
            })
        cb = self.on_finish
        if cb is not None:
            cb(probe, source, cls)

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Zero every aggregate (warm-up boundary).  In-flight probes are
        untouched: a transaction straddling the boundary completes into
        the post-reset aggregates, matching how the CPUs' per-source
        stall counters treat it."""
        self.attached = 0
        self.completed = 0
        self.samples = []
        for cls in PROBE_CLASSES:
            self.hist[cls].reset()
            self.lat[cls].reset()
            self.hops[cls] = {}
        for acc in self.by_source.values():
            acc.reset()

    # -- export ----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-able aggregate summary (schema documented in DESIGN.md)."""
        def pct(h: Histogram, q: float) -> Optional[float]:
            p = h.percentile(q)
            return None if p == float("inf") else p

        classes: Dict[str, object] = {}
        for cls in PROBE_CLASSES:
            hist = self.hist[cls]
            lat = self.lat[cls]
            classes[cls] = {
                "count": lat.count,
                "mean_ns": lat.mean,
                "min_ns": lat.min,
                "max_ns": lat.max,
                "p50_ns": pct(hist, 0.50),
                "p90_ns": pct(hist, 0.90),
                "p99_ns": pct(hist, 0.99),
                "histogram": {"edges_ns": list(hist.edges),
                              "bins": list(hist.bins)},
                "hops": {
                    label: {"count": acc.count,
                            "mean_ns": acc.mean / PS_PER_NS,
                            "total_ns": acc.total / PS_PER_NS}
                    for label, acc in sorted(self.hops[cls].items())
                },
            }
        return {
            "rate": self.rate,
            "attached": self.attached,
            "completed": self.completed,
            "classes": classes,
            "by_source": {
                name: {"count": acc.count, "mean_ns": acc.mean,
                       "total_ns": acc.total}
                for name, acc in self.by_source.items()
            },
            "samples": list(self.samples),
        }
