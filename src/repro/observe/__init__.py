"""Flight-deck observability: causal span traces, host profiling, and
live run telemetry.

Three tools on top of the probe/sampler substrate:

* :mod:`repro.observe.spans` promotes :class:`~repro.core.probe.TxnProbe`
  hop stamps into parent/child span trees (one tree per sampled coherence
  transaction) and exports them as a ``repro-trace/1`` document that is
  simultaneously Chrome trace-event / Perfetto JSON — open any run in a
  timeline viewer.
* :mod:`repro.observe.hostprof` attributes the simulator's *own* host
  time to layers and functions with a ``SIGPROF`` stack sampler wrapped
  around a run from outside; the simulator carries no profiling hook.
* :mod:`repro.observe.telemetry` streams heartbeat/progress records
  (interval-sampler deltas, sampled-window confidence intervals,
  checkpoint events) as JSONL to a file or fd, consumed live by
  ``repro watch``.

Spans and telemetry thread through :mod:`repro.harness.runner`; spans
fold into the result cache key (see DESIGN.md section 4i), a telemetry
stream never does.
"""

from .hostprof import HostProfiler
from .spans import (
    TRACE_SCHEMA,
    SpanCollector,
    chrome_events,
    trace_doc,
    validate_trace,
    write_trace,
)
from .telemetry import TelemetryStream, read_records, render_record

__all__ = [
    "HostProfiler",
    "SpanCollector",
    "TRACE_SCHEMA",
    "TelemetryStream",
    "chrome_events",
    "read_records",
    "render_record",
    "trace_doc",
    "validate_trace",
    "write_trace",
]
