"""Live run telemetry: heartbeat / progress JSONL stream.

A running simulation is a black box from the outside — the interval
sampler, sampled-window CI bounds and checkpoint cadence all exist *in*
the process but are only visible after the run ends.
:class:`TelemetryStream` flips that: hooked into the harness, it writes
one flushed JSON line per event to a file, fd, or file-like object, so
an operator can follow the run live with ``repro watch``.

Record kinds, all carrying ``{"kind": ..., "wall": <unix seconds>}``:

``run_start``
    config/workload/nodes banner, emitted before the first event fires.
``interval``
    one interval-sampler record (deltas + derived IPC/miss gauges),
    emitted from the sampler's ``on_record`` hook as the simulation
    crosses each sampling period.
``window``
    one sampled-mode measurement window with running per-class 95% CI
    half-widths — convergence is visible while the run is in flight.
``checkpoint``
    a periodic checkpointer capture (simulated time + snapshot size).
``run_end``
    terminal record with exit summary; ``repro watch`` stops here.

Streams are host-side observers: they are never part of the
deterministic result payload, never pickled into checkpoints (the
sampler's ``__getstate__`` strips its ``on_record`` hook), and their
settings fold into the result-cache key only as an enable marker — a
cache hit answers without re-streaming, which the CLI reports.

Readers are torn-line safe: the writer flushes whole lines, but a
reader polling the file can still observe a *partial* final line —
including one cut mid-way through a multi-byte UTF-8 sequence, which a
text-mode read would turn into a :class:`UnicodeDecodeError` rather
than a skippable bad line.  Both :func:`read_records` and
:func:`follow_records` therefore read *bytes*, split on newlines, and
decode/parse only complete lines; the unfinished tail is retried on the
next poll instead of raised.
"""

from __future__ import annotations

import io
import json
import os
import time
from typing import Dict, Iterator, List, Optional, Union

Target = Union[str, int, io.IOBase]


class TelemetryStream:
    """Writes telemetry records as JSON lines to a path, fd, or file."""

    def __init__(self, target: Target) -> None:
        self._owns = False
        if isinstance(target, str):
            self._fh = open(target, "w", encoding="utf-8")
            self._owns = True
        elif isinstance(target, int):
            self._fh = os.fdopen(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
        self.records_written = 0

    def emit(self, kind: str, **fields) -> None:
        """Write one record; flushes so a tailing reader sees it now."""
        record: Dict[str, object] = {"kind": kind, "wall": time.time()}
        record.update(fields)
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        self.records_written += 1

    # Hook adapters ------------------------------------------------------

    def on_interval(self, record: Dict[str, object]) -> None:
        """IntervalSampler ``on_record`` hook."""
        self.emit("interval", **record)

    def close(self) -> None:
        """Flush (always) and close (if this stream opened the handle).

        The flush covers non-owned targets too: a caller handing in a
        buffered file object gets its terminal ``run_end`` pushed to
        disk here even if it never closes the handle itself — a watcher
        tailing the file must not hang on a finished stream whose last
        line is stuck in a userspace buffer.
        """
        if not self._fh.closed:
            try:
                self._fh.flush()
            except (OSError, ValueError):
                pass
        if self._owns and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TelemetryStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- consumption (repro watch) -------------------------------------------

def parse_line(line: bytes) -> Optional[Dict[str, object]]:
    """Decode and parse one raw JSONL line; None for blank/torn lines.

    Tolerates every way a racing reader can catch the writer mid-line:
    truncated JSON, a half-written multi-byte UTF-8 sequence, or a line
    that is not a JSON object at all.  The caller retries torn lines on
    its next poll (:func:`follow_records`) or simply skips them
    (:func:`read_records`).
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


def read_records(path: str) -> List[Dict[str, object]]:
    """Parse every complete record currently in the file.  A partially
    written trailing line (reader racing the writer) is skipped — the
    file is read as bytes, so a line cut inside a multi-byte UTF-8
    sequence skips like any other torn line instead of raising."""
    records: List[Dict[str, object]] = []
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return records
    for line in data.split(b"\n"):
        record = parse_line(line)
        if record is not None:
            records.append(record)
    return records


def follow_records(path: str, timeout_s: float = 30.0,
                   poll_s: float = 0.2) -> Iterator[Dict[str, object]]:
    """Yield records as they appear, like ``tail -f``.

    Stops at a ``run_end`` record, or after *timeout_s* with no new
    record (covers a writer that died without a terminal record).

    The file is polled in *binary* mode with only complete lines
    decoded: a partially-flushed final line — even one split inside a
    multi-byte UTF-8 character, which a text-mode read would raise on —
    stays buffered as the unfinished tail and is re-parsed once the
    writer completes it.
    """
    offset = 0
    deadline = time.monotonic() + timeout_s
    buf = b""
    while True:
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                chunk = fh.read()
                offset = fh.tell()
        except FileNotFoundError:
            chunk = b""
        if chunk:
            deadline = time.monotonic() + timeout_s
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                record = parse_line(line)
                if record is None:
                    continue
                yield record
                if record.get("kind") == "run_end":
                    return
        if time.monotonic() > deadline:
            return
        time.sleep(poll_s)


def render_record(record: Dict[str, object]) -> str:
    """One-line human rendering for the ``repro watch`` console."""
    kind = record.get("kind", "?")
    if kind == "run_start":
        return (f"run_start  config={record.get('config')} "
                f"workload={record.get('workload')} "
                f"nodes={record.get('num_nodes')} "
                f"mode={record.get('mode', 'detailed')}")
    if kind == "interval":
        t1 = record.get("t1_ps", 0)
        derived = record.get("derived") or {}
        bits = [f"interval[{record.get('index')}]",
                f"t={t1 / 1e6:.1f}us" if isinstance(t1, (int, float)) else ""]
        for key in ("ipc", "l1_miss_rate", "l2_miss_rate"):
            if key in derived:
                bits.append(f"{key}={derived[key]:.4f}")
        if record.get("partial"):
            bits.append("(partial)")
        if record.get("reset"):
            bits.append("(reset)")
        return "  ".join(b for b in bits if b)
    if kind == "window":
        ci = record.get("ci") or {}
        worst = max((v for v in ci.values()
                     if isinstance(v, (int, float))), default=None)
        tail = f"worst_ci={worst:.4f}" if worst is not None else "ci=n/a"
        return (f"window[{record.get('index')}]  "
                f"items={record.get('items')}  {tail}")
    if kind == "checkpoint":
        return (f"checkpoint  t={record.get('time_ps', 0) / 1e6:.1f}us  "
                f"bytes={record.get('bytes')}")
    if kind == "run_end":
        return (f"run_end  items={record.get('items')}  "
                f"sim_wall_s={record.get('sim_wall_s', 0):.2f}"
                + ("  (cached)" if record.get("cached") else ""))
    return json.dumps(record)
