"""Protocol sanitizer: coherence invariants, structural audits, traces.

The paper verifies its coherence protocols with formal methods (Section
3.4); the runtime stand-in is this sanitizer layer:

* :class:`CoherenceChecker` audits every fill / invalidation /
  downgrade across all nodes as it happens:

  - **single writer per node**: an exclusive/modified fill must be the
    only on-node copy (on-chip invalidations are atomic over the ICS);
  - **eager-reply discipline**: when a node gains an exclusive copy,
    copies at *other* nodes may transiently survive (eager exclusive
    replies grant ownership before invalidation acks return) but must be
    invalidated before the system quiesces, and may never be upgraded
    meanwhile;
  - **version monotonicity**: fill versions never regress below the
    line's committed version.

* the **structural audits** (:func:`audit_system` and the individual
  ``audit_*`` functions) verify the state the protocol leaves behind:
  exact duplicate-tag mirroring, L1/L2 non-inclusion, TSRF leaks, and
  home-directory/on-chip cross-consistency.  The continuous-safe subset
  runs mid-simulation (:meth:`~repro.core.system.PiranhaSystem.
  enable_continuous_audit`); the full set runs at quiesce.

* every checker hook feeds the bounded
  :class:`~repro.core.trace.ProtocolTrace`; any
  :class:`CoherenceViolation` raised with a trace attached carries the
  last events for the violating line, so a protocol bug is replayable
  instead of opaque.

Tests and the harness run simulations with the checker attached and call
:func:`audit_system` at the end; the CLI exposes the same path via
``repro run --check`` (see DESIGN.md, "Protocol sanitizer").
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from .messages import MESI
from .trace import ProtocolTrace


class CoherenceViolation(AssertionError):
    """A protocol invariant was broken."""


def violation_signature(exc: BaseException) -> str:
    """Stable identity of a failure, for same-bug matching while
    shrinking a fuzz program or replaying a snapshot.  Violations
    carrying a machine-readable ``kind`` (the reference checker's) use it
    directly; anything else falls back to the exception class plus its
    first message line with addresses and counts normalised away."""
    kind = getattr(exc, "kind", None)
    if kind:
        return f"{type(exc).__name__}:{kind}"
    text = str(exc).splitlines()[0] if str(exc) else ""
    text = re.sub(r"0x[0-9a-fA-F]+", "#", text)
    text = re.sub(r"\d+", "#", text)
    return f"{type(exc).__name__}:{text}"


Holder = Tuple[int, int]  # (node, cache_id)


@dataclass
class LineAudit:
    holders: Dict[Holder, MESI] = field(default_factory=dict)
    committed_version: int = 0
    #: holders invalidated-in-flight by an eager exclusive grant
    stale: Set[Holder] = field(default_factory=set)


class CoherenceChecker:
    """Audits fills/invalidations across every node of a system.

    Pass a :class:`~repro.core.trace.ProtocolTrace` to capture the event
    history that accompanies any violation; ``CoherenceChecker.with_trace()``
    builds the pair in one call.
    """

    def __init__(self, trace: Optional[ProtocolTrace] = None) -> None:
        self.lines: Dict[int, LineAudit] = {}
        self.fills = 0
        self.invalidations = 0
        self.downgrades = 0
        self.trace = trace

    @classmethod
    def with_trace(cls, capacity: int = 0) -> "CoherenceChecker":
        """Checker plus an attached trace (default ring capacity)."""
        trace = ProtocolTrace(capacity) if capacity else ProtocolTrace()
        return cls(trace=trace)

    def _audit(self, line: int) -> LineAudit:
        audit = self.lines.get(line)
        if audit is None:
            audit = LineAudit()
            self.lines[line] = audit
        return audit

    def violation(self, message: str, line: Optional[int] = None) -> None:
        """Raise a :class:`CoherenceViolation`, attaching the trace history
        for *line* (when a trace is recording)."""
        raise CoherenceViolation(decorate_violation(message, self.trace, line))

    def on_fill(self, node: int, cache_id: int, line: int, state: MESI,
                version: int) -> None:
        """Audit one cache fill against the invariants."""
        self.fills += 1
        if self.trace is not None:
            self.trace.record("fill", node, line,
                              f"cache={cache_id} {state.name} v{version}")
        audit = self._audit(line)
        holder = (node, cache_id)
        if holder in audit.stale:
            # A refill can legitimately race ahead of the invalidation that
            # made the copy stale (unordered network); the fresh fill must
            # carry the newer epoch, and the late invalidation is epoch-
            # filtered at the receiving bank.
            if version < audit.committed_version:
                self.violation(
                    f"line {line:#x}: {holder} refilled a stale copy with "
                    f"an old version {version} < {audit.committed_version}",
                    line,
                )
            audit.stale.discard(holder)
        if version < audit.committed_version and state in (MESI.MODIFIED,):
            self.violation(
                f"line {line:#x}: exclusive fill with regressed version "
                f"{version} < {audit.committed_version}", line,
            )
        if state in (MESI.EXCLUSIVE, MESI.MODIFIED):
            for other, other_state in list(audit.holders.items()):
                if other == holder:
                    continue
                if other[0] == node:
                    self.violation(
                        f"line {line:#x}: node {node} granted "
                        f"{state.name} while {other} still holds "
                        f"{other_state.name} on the same node", line,
                    )
                # Cross-node survivors are the eager-reply transient; they
                # must die before quiesce.
                audit.stale.add(other)
                del audit.holders[other]
            audit.committed_version = max(audit.committed_version, version)
        audit.holders[holder] = state

    def on_downgrade(self, node: int, cache_id: int, line: int) -> None:
        """An exclusive/modified holder dropped to SHARED."""
        self.downgrades += 1
        if self.trace is not None:
            self.trace.record("downgrade", node, line, f"cache={cache_id}")
        audit = self.lines.get(line)
        if audit is None:
            return
        holder = (node, cache_id)
        if holder in audit.holders:
            audit.holders[holder] = MESI.SHARED

    def on_invalidate(self, node: int, cache_id: int, line: int) -> None:
        """A holder's copy was invalidated (or silently evicted)."""
        self.invalidations += 1
        if self.trace is not None:
            self.trace.record("inval", node, line, f"cache={cache_id}")
        audit = self.lines.get(line)
        if audit is None:
            return
        holder = (node, cache_id)
        audit.holders.pop(holder, None)
        audit.stale.discard(holder)

    def verify_quiesced(self) -> None:
        """Assert end-state invariants once the simulation has drained."""
        for line, audit in self.lines.items():
            if audit.stale:
                self.violation(
                    f"line {line:#x}: stale copies never invalidated: "
                    f"{sorted(audit.stale)}", line,
                )
            exclusive = [
                h for h, s in audit.holders.items()
                if s in (MESI.EXCLUSIVE, MESI.MODIFIED)
            ]
            if len(exclusive) > 1:
                self.violation(
                    f"line {line:#x}: multiple exclusive holders "
                    f"{exclusive}", line,
                )
            if exclusive and len(audit.holders) > 1:
                others = set(audit.holders) - set(exclusive)
                self.violation(
                    f"line {line:#x}: exclusive holder {exclusive[0]} "
                    f"coexists with {sorted(others)}", line,
                )

    def telemetry(self) -> Dict[str, float]:
        """Deterministic checker counters (for ``RunResult.extras``)."""
        out = {
            "checker_fills": float(self.fills),
            "checker_invalidations": float(self.invalidations),
            "checker_downgrades": float(self.downgrades),
            "checker_lines": float(len(self.lines)),
        }
        if self.trace is not None:
            out["trace_events"] = float(self.trace.recorded)
        return out


def decorate_violation(message: str, trace: Optional[ProtocolTrace],
                       line: Optional[int] = None) -> str:
    """Append the bounded trace history for *line* to a violation message."""
    if trace is None:
        return message
    dump = trace.dump(line=line, header="violation trace")
    return f"{message}\n{dump}"


# ---------------------------------------------------------------------------
# Structural audits (the sanitizer's quiesce / continuous audit set)
# ---------------------------------------------------------------------------


def _trace_of(system) -> Optional[ProtocolTrace]:
    checker = getattr(system, "checker", None)
    return checker.trace if checker is not None else None


def audit_duplicate_tags(system) -> int:
    """Run every node's exact duplicate-tag mirror audit (§2.3).

    Divergence raises :class:`CoherenceViolation` with the violating
    line's trace history attached.  Returns the number of nodes audited.
    Continuous-safe: the L1 fill/evict paths update the duplicate tags in
    the same event, so the mirror is exact between events.
    """
    for node in system.nodes:
        try:
            node.audit_duplicate_tags()
        except AssertionError as exc:
            raise CoherenceViolation(
                decorate_violation(str(exc), _trace_of(system))
            ) from None
    return len(system.nodes)


def audit_non_inclusion(system) -> int:
    """L1/L2 non-inclusion invariants (§2.3's clean-exclusive rule).

    In Piranha's non-inclusive design an exclusive/modified L1 copy and
    an L2-resident copy of the same line cannot coexist: the L2 drops its
    copy on every exclusive grant, otherwise a silent E->M upgrade in the
    L1 would leave the L2 serving stale data.  Also checks duplicate-tag
    ownership sanity (the owner is the L2, one of the sharers, or vacant,
    and an L2-owner claim implies an L2-resident line).  Returns the
    number of L2-resident lines inspected.  Continuous-safe.
    """
    trace = _trace_of(system)
    inspected = 0
    for node in system.nodes:
        for bank in node.banks:
            for line in bank.resident_line_addrs():
                inspected += 1
                if bank.inclusive:
                    continue
                entry = bank.dup.entry(line)
                if entry is None:
                    continue
                for sharer, state in entry.sharers.items():
                    if state in (MESI.EXCLUSIVE, MESI.MODIFIED):
                        raise CoherenceViolation(decorate_violation(
                            f"{node.name}: non-inclusion violated for "
                            f"{line:#x}: L2 bank {bank.bank_idx} holds a "
                            f"copy while L1 cache {sharer} holds "
                            f"{state.name}", trace, line))
            problems = bank.dup.audit_owner_sanity(
                l2_resident=bank.resident_line_set())
            if problems:
                line, why = problems[0]
                raise CoherenceViolation(decorate_violation(
                    f"{node.name}: duplicate-tag ownership broken for "
                    f"{line:#x}: {why}", trace, line))
    return inspected


def audit_tsrf(system, quiesced: bool = True,
               timeout_ps: Optional[int] = None) -> int:
    """TSRF-leak detection (§2.5.1's 16-entry architectural bound).

    At quiesce every entry must have been freed (allocations == frees,
    occupancy 0) and no message may still be parked waiting for an entry.
    Mid-run (``quiesced=False``) an entry older than *timeout_ps* is
    reported as leaked — the timed-out-transaction scan of §2.7's
    TSRF timers.  At any time, the TSRF's O(1) live count
    must equal a scan of its entries (and allocations minus frees), with
    the high-water mark between it and the file size.  Returns total TSRF
    entries inspected.
    """
    trace = _trace_of(system)
    inspected = 0
    now = system.sim.now
    for node in system.nodes:
        for engine in (node.home_engine, node.remote_engine):
            tsrf = engine.tsrf
            inspected += len(tsrf.entries)
            busy = [e for e in tsrf.entries if e.valid]
            if (tsrf.live != len(busy)
                    or tsrf.live != tsrf.allocations - tsrf.frees
                    or not tsrf.live <= tsrf.high_water <= len(tsrf.entries)):
                raise CoherenceViolation(decorate_violation(
                    f"{engine.name}: TSRF counters out of step with its "
                    f"entries: live={tsrf.live}, scan={len(busy)}, "
                    f"allocations-frees={tsrf.allocations - tsrf.frees}, "
                    f"high_water={tsrf.high_water}", trace))
            if quiesced:
                if busy:
                    raise CoherenceViolation(decorate_violation(
                        f"{engine.name}: TSRF leak at quiesce: "
                        f"{len(busy)} entries never freed: "
                        f"{[repr(e) for e in busy]}", trace,
                        busy[0].addr))
                if engine.stalled:
                    raise CoherenceViolation(decorate_violation(
                        f"{engine.name}: {len(engine.stalled)} messages "
                        f"still stalled waiting for a TSRF entry at "
                        f"quiesce", trace))
            elif timeout_ps is not None:
                hung = engine.tsrf.timed_out(now, timeout_ps)
                if hung:
                    e = hung[0]
                    raise CoherenceViolation(decorate_violation(
                        f"{engine.name}: TSRF entry {e.index} for "
                        f"{e.addr:#x} has been live {now - e.timer} ps "
                        f"(> {timeout_ps} ps): leaked or hung protocol "
                        f"thread", trace, e.addr))
    if quiesced:
        for node in system.nodes:
            for bank in node.banks:
                leaks = (set(bank.pending) | bank._sharing_wb_due
                         | bank._local_inval_due)
                if leaks:
                    line = sorted(leaks)[0]
                    raise CoherenceViolation(decorate_violation(
                        f"{bank.name}: serialisation state leaked at "
                        f"quiesce for {line:#x} (pending="
                        f"{sorted(bank.pending)}, sharing_wb_due="
                        f"{sorted(bank._sharing_wb_due)}, "
                        f"local_inval_due="
                        f"{sorted(bank._local_inval_due)})", trace, line))
    return inspected


def audit_directory(system) -> int:
    """Home-directory vs. on-chip state cross-consistency (§2.5.2).

    Quiesce-only (mid-flight transactions legitimately leave the
    directory behind the caches).  Verified both ways:

    * **no hidden copies**: every on-chip copy of a remote-home line is
      covered by the home's directory entry (the directory may
      over-approximate — silent clean evictions, coarse vectors — but
      never under-approximate);
    * **exclusive owners exist**: a directory entry naming a remote
      exclusive owner is backed by an actual copy at that node;
    * **write-back buffers drained**: the no-NAK guarantee means every
      buffered write-back has been acked by quiesce.

    Returns the number of (node, line) holdings cross-checked.
    """
    trace = _trace_of(system)
    if system.num_nodes <= 1:
        return 0
    from .directory import DirState

    checked = 0
    holdings: Dict[int, Dict[int, str]] = {}  # node -> line -> evidence
    for node in system.nodes:
        held: Dict[int, str] = {}
        for bank in node.banks:
            for line in bank.wb_buffer:
                raise CoherenceViolation(decorate_violation(
                    f"{node.name}: write-back buffer entry for {line:#x} "
                    f"never acked by the home (no-NAK guarantee broken)",
                    trace, line))
            for line in bank.resident_line_addrs():
                held.setdefault(line, "L2")
            for line, entry in bank.dup.entries.items():
                if entry.sharers:
                    held.setdefault(line, f"L1 sharers {sorted(entry.sharers)}")
        holdings[node.node_id] = held

    for node_id, held in holdings.items():
        for line, evidence in held.items():
            home = system.address_map.home_of(line)
            if home == node_id:
                continue  # home-node copies are covered by on-chip state
            checked += 1
            entry = system.dirstores[home].read(line)
            covered = (node_id in entry.sharers
                       or entry.owner == node_id)
            if not covered:
                raise CoherenceViolation(decorate_violation(
                    f"node{node_id} holds {line:#x} ({evidence}) but home "
                    f"node{home}'s directory entry is {entry.state.name} "
                    f"sharers={sorted(entry.sharers)} — hidden remote copy",
                    trace, line))

    for home_id, store in enumerate(system.dirstores):
        for line, entry in store.items():
            if entry.state != DirState.EXCLUSIVE:
                continue
            checked += 1
            owner_held = holdings.get(entry.owner, {})
            if line not in owner_held:
                raise CoherenceViolation(decorate_violation(
                    f"home node{home_id} directory says node{entry.owner} "
                    f"owns {line:#x} exclusively, but that node holds no "
                    f"copy — lost exclusive owner", trace, line))
    return checked


def audit_system(system, quiesced: bool = True,
                 tsrf_timeout_ps: Optional[int] = None) -> Dict[str, float]:
    """Run the full sanitizer audit set; returns deterministic telemetry.

    This is the single audit entry point shared by the CLI (``repro run
    --check``), the harness (``check_coherence=True``) and the continuous
    mid-run audits, so no caller can silently verify less than another.
    Raises :class:`CoherenceViolation` (with trace history when a trace
    is attached) on the first broken invariant.
    """
    telemetry: Dict[str, float] = {}
    checker = getattr(system, "checker", None)
    if checker is not None:
        if quiesced:
            checker.verify_quiesced()
        telemetry.update(checker.telemetry())
    telemetry["audit_nodes"] = float(audit_duplicate_tags(system))
    telemetry["audit_l2_lines"] = float(audit_non_inclusion(system))
    telemetry["audit_tsrf_entries"] = float(
        audit_tsrf(system, quiesced=quiesced, timeout_ps=tsrf_timeout_ps))
    telemetry["audit_dir_holdings"] = float(
        audit_directory(system) if quiesced else 0)
    telemetry["audit_quiesced"] = 1.0 if quiesced else 0.0
    return telemetry
