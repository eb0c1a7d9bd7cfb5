"""Ring-buffered protocol event trace (the sanitizer's flight recorder).

The paper debugs its microcoded coherence protocols with formal tools;
the runtime stand-in is this bounded trace: every fill, invalidation,
downgrade, protocol-engine thread dispatch and inter-node packet
send/receive is appended to a fixed-capacity ring buffer.  When a
:class:`~repro.core.checker.CoherenceViolation` fires, the last events —
filtered to the violating line — are attached to the exception, so a
protocol bug arrives with its own replayable history instead of a bare
assertion.

The buffer is a ``collections.deque(maxlen=capacity)``: recording is
O(1), memory is bounded regardless of run length, and a full workload
can run traced with negligible overhead.  Events can be filtered by
line address, node, or event kind (``repro run --trace N --line 0x...
--node N`` exposes this from the CLI).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Default ring capacity: enough history to span several protocol
#: transactions per line without unbounded growth.
DEFAULT_CAPACITY = 512

#: Event kinds recorded by the instrumented modules.
KINDS = ("fill", "inval", "downgrade", "dispatch", "pkt_send", "pkt_recv")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded protocol event."""

    seq: int          # global sequence number (monotonic, never wraps)
    time_ps: int
    kind: str         # one of KINDS
    node: int
    line: int         # line address (or -1 when not line-addressed)
    detail: str       # free-form: state, packet type, engine label, ...

    def format(self) -> str:
        return (f"#{self.seq:<7d} {self.time_ps:>12d} ps  node{self.node}"
                f"  {self.kind:<9s} line={self.line:#x}  {self.detail}")


def _no_clock() -> int:
    """Clock of a free-standing trace: every event stamps 0."""
    return 0


class ProtocolTrace:
    """Bounded ring buffer of :class:`TraceEvent` records.

    ``clock`` is bound by :class:`~repro.core.system.PiranhaSystem` to the
    simulator's ``now``; a free-standing trace (unit tests) stamps 0.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._buf: deque = deque(maxlen=capacity)
        self._seq = 0
        self.clock: Callable[[], int] = _no_clock
        self.counts: Dict[str, int] = {k: 0 for k in KINDS}

    # -- recording --------------------------------------------------------

    def record(self, kind: str, node: int, line: int, detail: str = "") -> None:
        """Append one event (O(1); oldest event drops when full)."""
        self._buf.append(TraceEvent(
            seq=self._seq, time_ps=self.clock(), kind=kind, node=node,
            line=line, detail=detail,
        ))
        self._seq += 1
        if kind in self.counts:
            self.counts[kind] += 1
        else:
            self.counts[kind] = 1

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including those that scrolled out)."""
        return self._seq

    def events(self, line: Optional[int] = None, node: Optional[int] = None,
               kind: Optional[str] = None,
               last: Optional[int] = None) -> List[TraceEvent]:
        """Buffered events, optionally filtered, oldest first.

        ``last`` keeps only the most recent N *after* filtering.
        """
        out = [
            ev for ev in self._buf
            if (line is None or ev.line == line)
            and (node is None or ev.node == node)
            and (kind is None or ev.kind == kind)
        ]
        if last is not None and last >= 0:
            out = out[len(out) - last:] if last else []
        return out

    def dump(self, line: Optional[int] = None, node: Optional[int] = None,
             last: int = 32, header: str = "protocol trace") -> str:
        """Human-readable dump of the last *last* (filtered) events."""
        events = self.events(line=line, node=node, last=last)
        scope = []
        if line is not None:
            scope.append(f"line={line:#x}")
        if node is not None:
            scope.append(f"node={node}")
        scope_s = f" [{', '.join(scope)}]" if scope else ""
        lines = [f"--- {header}{scope_s}: last {len(events)} of "
                 f"{self.recorded} recorded (ring capacity {self.capacity}) ---"]
        if not events:
            lines.append("(no matching events in the ring buffer)")
        lines.extend(ev.format() for ev in events)
        return "\n".join(lines)

    def summary(self) -> Dict[str, int]:
        """Per-kind totals plus buffer occupancy (telemetry-friendly)."""
        out = dict(self.counts)
        out["buffered"] = len(self._buf)
        out["recorded"] = self._seq
        return out
