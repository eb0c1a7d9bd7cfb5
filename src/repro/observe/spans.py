"""Causal span tracer: transaction timelines from probe hop stamps.

:class:`~repro.core.probe.TxnProbe` already records the full causal
history of a sampled coherence transaction as ordered ``(label,
time_ps)`` stamps.  The :class:`SpanCollector` promotes each completed
probe into a *span tree*: one root span covering the whole miss
(issue → fill) with one child span per consecutive stamp pair, each
assigned to a component **track** (cpu, l2 bank, protocol engine,
router, RDRAM channel, ...).  Because each child span is the delta
between two stamps — assigned to the *later* stamp's label, exactly
like :meth:`TxnProbe.hop_decomposition` — the children partition the
root span with no gaps and no overlap, and the sum of child durations
equals the end-to-end latency by construction (tested as an invariant
against the probe latency histograms).

Export is a single ``repro-trace/1`` JSON document that is
*simultaneously* valid Chrome trace-event / Perfetto input: the Chrome
JSON object format ignores unknown top-level keys, so the document
carries both the structured ``txns`` span trees (for tooling and the
validator) and a ``traceEvents`` array (for ``ui.perfetto.dev`` /
``chrome://tracing``).  In the viewer each node is a process row and
each component track a thread row; the root span renders on a ``txn``
track above its children.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..sim.engine import PS_PER_NS

#: Schema identifier carried in (and checked against) every trace doc.
TRACE_SCHEMA = "repro-trace/1"

#: Hop label → component track.  Tracks group spans into per-component
#: timeline rows; unknown labels fall into "misc" rather than failing,
#: so new stamp points degrade gracefully.
HOP_TRACKS: Dict[str, str] = {
    "issue": "cpu",
    "bank": "l2_bank",
    "l2_tag": "l2_bank",
    "l2_data": "l2_bank",
    "fwd_owner": "owner_l1",
    "mem_data": "rdram",
    "owner_fetch": "owner_node",
    "pe_dispatch": "protocol_engine",
    "pkt_send": "network_if",
    "pkt_recv": "network_if",
    "pkt_transit": "router",
    "fill": "l1_fill",
}

#: Track display order: "txn" is the root-span row, then components in
#: roughly the order a remote miss visits them.  Doubles as the tid
#: assignment for the Chrome export (index in this tuple).
TRACKS = (
    "txn", "cpu", "l2_bank", "protocol_engine", "network_if", "router",
    "owner_node", "owner_l1", "rdram", "l1_fill", "misc",
)

_TRACK_TID = {name: i for i, name in enumerate(TRACKS)}


class SpanCollector:
    """Builds one span tree per completed probe, up to ``max_txns``.

    Installed as the :class:`~repro.core.probe.ProbeCollector`'s
    ``on_finish`` hook by :meth:`PiranhaSystem.enable_span_trace`; runs
    only for probed transactions (1-in-``rate`` of misses), so the
    untagged hot path is untouched.  Like the collector's verbatim
    samples, txn records deliberately omit the process-global ``txn_id``
    so the trace document is deterministic across serial / parallel /
    cached execution paths.
    """

    def __init__(self, max_txns: int = 256) -> None:
        if max_txns < 1:
            raise ValueError(f"max_txns must be >= 1, got {max_txns}")
        self.max_txns = int(max_txns)
        self.seen = 0
        self.txns: List[Dict[str, object]] = []

    # -- collection ------------------------------------------------------

    def on_probe_finish(self, probe, source, cls: str) -> None:
        """ProbeCollector.finish hook: promote *probe* into a span tree."""
        self.seen += 1
        if len(self.txns) >= self.max_txns:
            return
        stamps = probe.stamps
        t0 = stamps[0][1]
        t1 = stamps[-1][1]
        spans: List[Dict[str, object]] = []
        prev_t = t0
        for label, t in stamps[1:]:
            # Zero-duration spans are kept: dropping them would break the
            # "children partition the root" invariant that the validator
            # and the reconcile test rely on.
            spans.append({
                "label": label,
                "track": HOP_TRACKS.get(label, "misc"),
                "t0_ps": prev_t,
                "t1_ps": t,
                "dur_ps": t - prev_t,
            })
            prev_t = t
        self.txns.append({
            "seq": self.seen,
            "node": probe.node,
            "cpu": probe.cpu_id,
            "class": cls,
            "source": source.name.lower(),
            "reqtype": probe.reqtype.name.lower(),
            "t0_ps": t0,
            "t1_ps": t1,
            "latency_ps": t1 - t0,
            "spans": spans,
            "notes": dict(probe.notes),
        })

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Drop warm-up transactions (module-stats reset boundary)."""
        self.seen = 0
        self.txns = []

    # -- export ----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "max_txns": self.max_txns,
            "seen": self.seen,
            "kept": len(self.txns),
            "txns": self.txns,
        }


# -- Chrome trace-event export -------------------------------------------

def chrome_events(txns: List[Dict[str, object]],
                  protocol_events: Optional[List] = None) -> List[Dict]:
    """Render span trees as Chrome trace-event dicts.

    Layout: ``pid`` = Piranha node, ``tid`` = component track (per
    :data:`TRACKS`).  Each transaction emits one complete ("X") root
    event on the ``txn`` track plus one "X" child per span on its
    component track.  Timestamps are microseconds of *simulated* time
    (Chrome's ``ts`` unit), durations likewise — fractional µs keeps
    full picosecond precision as Perfetto parses doubles into ns.

    *protocol_events* (optional :class:`~repro.core.trace.TraceEvent`
    records) become instant ("i") markers on the protocol-engine track,
    giving the timeline fills/invals/dispatches context between spans.
    """
    _ps_to_us = 1.0 / (PS_PER_NS * 1000.0)
    events: List[Dict] = []
    nodes = sorted({t["node"] for t in txns})
    if protocol_events:
        nodes = sorted(set(nodes) | {ev.node for ev in protocol_events})
    for node in nodes:
        events.append({
            "name": "process_name", "ph": "M", "pid": node, "tid": 0,
            "args": {"name": f"node {node}"},
        })
        for track, tid in _TRACK_TID.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": node, "tid": tid,
                "args": {"name": track},
            })
            events.append({
                "name": "thread_sort_index", "ph": "M", "pid": node,
                "tid": tid, "args": {"sort_index": tid},
            })
    for txn in txns:
        pid = txn["node"]
        root_args = {
            "class": txn["class"], "source": txn["source"],
            "reqtype": txn["reqtype"], "cpu": txn["cpu"],
            "latency_ns": txn["latency_ps"] / PS_PER_NS,
        }
        root_args.update(txn.get("notes") or {})
        events.append({
            "name": f"{txn['class']} miss",
            "cat": txn["class"],
            "ph": "X",
            "ts": txn["t0_ps"] * _ps_to_us,
            "dur": txn["latency_ps"] * _ps_to_us,
            "pid": pid,
            "tid": _TRACK_TID["txn"],
            "args": root_args,
        })
        for span in txn["spans"]:
            events.append({
                "name": span["label"],
                "cat": txn["class"],
                "ph": "X",
                "ts": span["t0_ps"] * _ps_to_us,
                "dur": span["dur_ps"] * _ps_to_us,
                "pid": pid,
                "tid": _TRACK_TID.get(span["track"], _TRACK_TID["misc"]),
                "args": {"txn_seq": txn["seq"]},
            })
    if protocol_events:
        pe_tid = _TRACK_TID["protocol_engine"]
        for ev in protocol_events:
            events.append({
                "name": ev.kind,
                "cat": "protocol",
                "ph": "i",
                "s": "t",
                "ts": ev.time_ps * _ps_to_us,
                "pid": ev.node,
                "tid": pe_tid,
                "args": {"line": ev.line, "detail": ev.detail},
            })
    return events


def trace_doc(spans: SpanCollector, config: str, num_nodes: int,
              probe_rate: int,
              protocol_events: Optional[List] = None) -> Dict[str, object]:
    """Assemble the ``repro-trace/1`` document.

    One document, two audiences: ``txns`` holds the structured span
    trees (schema-validated, machine-consumable), ``traceEvents`` the
    Chrome rendering of the same data.  Both Perfetto and
    ``chrome://tracing`` accept the object format with extra top-level
    keys, so the file loads in a viewer unmodified.
    """
    return {
        "schema": TRACE_SCHEMA,
        "config": config,
        "num_nodes": num_nodes,
        "probe_rate": probe_rate,
        "time_unit": "ps",
        "displayTimeUnit": "ns",
        "tracks": list(TRACKS),
        "max_txns": spans.max_txns,
        "seen": spans.seen,
        "kept": len(spans.txns),
        "txns": spans.txns,
        "traceEvents": chrome_events(spans.txns, protocol_events),
    }


def write_trace(path: str, doc: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# -- validation ----------------------------------------------------------

_TXN_KEYS = ("seq", "node", "cpu", "class", "source", "reqtype",
             "t0_ps", "t1_ps", "latency_ps", "spans", "notes")
_SPAN_KEYS = ("label", "track", "t0_ps", "t1_ps", "dur_ps")


def validate_trace(doc: Dict[str, object]) -> List[str]:
    """Check *doc* against ``repro-trace/1``; return a list of problems
    (empty == valid).  Mirrors ``validate_metrics``'s contract so the
    two validators compose in CI.

    Beyond shape, this enforces the causal invariants the tracer
    guarantees: within each transaction the child spans are contiguous
    (span[i].t1 == span[i+1].t0), cover exactly [t0, t1], have
    non-negative durations, and their durations sum to ``latency_ps``.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != TRACE_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {TRACE_SCHEMA!r}")
    for key in ("config", "num_nodes", "probe_rate", "tracks", "txns",
                "traceEvents"):
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    txns = doc.get("txns")
    if not isinstance(txns, list):
        problems.append("txns is not a list")
        txns = []
    known_tracks = set(doc.get("tracks") or TRACKS)
    for i, txn in enumerate(txns):
        where = f"txns[{i}]"
        if not isinstance(txn, dict):
            problems.append(f"{where} is not an object")
            continue
        for key in _TXN_KEYS:
            if key not in txn:
                problems.append(f"{where} missing key {key!r}")
        spans = txn.get("spans")
        if not isinstance(spans, list) or not spans:
            problems.append(f"{where}.spans missing or empty")
            continue
        t0, t1 = txn.get("t0_ps"), txn.get("t1_ps")
        lat = txn.get("latency_ps")
        if t0 is None or t1 is None or lat is None:
            continue
        if t1 - t0 != lat:
            problems.append(f"{where}: latency_ps {lat} != t1-t0 {t1 - t0}")
        prev_t = t0
        dur_sum = 0
        for j, span in enumerate(spans):
            swhere = f"{where}.spans[{j}]"
            for key in _SPAN_KEYS:
                if key not in span:
                    problems.append(f"{swhere} missing key {key!r}")
            if span.get("track") not in known_tracks:
                problems.append(
                    f"{swhere} unknown track {span.get('track')!r}")
            s0, s1, dur = (span.get("t0_ps"), span.get("t1_ps"),
                           span.get("dur_ps"))
            if s0 is None or s1 is None or dur is None:
                continue
            if s0 != prev_t:
                problems.append(
                    f"{swhere} not contiguous: t0_ps {s0} != prev t1 {prev_t}")
            if s1 - s0 != dur:
                problems.append(f"{swhere}: dur_ps {dur} != t1-t0 {s1 - s0}")
            if dur < 0:
                problems.append(f"{swhere}: negative duration {dur}")
            prev_t = s1
            dur_sum += dur
        if prev_t != t1:
            problems.append(
                f"{where}: spans end at {prev_t}, txn ends at {t1}")
        if dur_sum != lat:
            problems.append(
                f"{where}: span durations sum to {dur_sum}, "
                f"latency_ps is {lat}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        problems.append("traceEvents is not a list")
    else:
        for i, ev in enumerate(events):
            if not isinstance(ev, dict) or "ph" not in ev or "pid" not in ev:
                problems.append(f"traceEvents[{i}] malformed")
                break
            if ev["ph"] == "X" and ("ts" not in ev or "dur" not in ev):
                problems.append(f"traceEvents[{i}] 'X' event missing ts/dur")
                break
    return problems
