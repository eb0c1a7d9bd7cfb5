"""Host self-profiler: where does the *simulator's* wall-clock go?

The ROADMAP's speed items (PDES sharding, the vectorized warm kernel)
need attribution data — which (component, event-class) pairs burn the
host CPU — before anything can be optimised with confidence.  Python's
cProfile answers that at 2-4x slowdown and per-function (not
per-component) granularity; this profiler instead hooks the one place
every simulated event passes through, the dispatch loop in
:meth:`Simulator.run`, and samples 1-in-``rate`` events with
``perf_counter_ns`` bracketing.

Cost model:

* **Disabled** (``sim.profiler is None``): one attribute test per
  ``run()`` *call*, not per event — the profiled loop is a separate
  method, so the hot run-to-drain loop is byte-for-byte untouched and
  event records stay bit-identical (gated by the golden-digest tests).
* **Enabled**: one counter increment per event, plus two
  ``perf_counter_ns`` calls and a dict update per *sampled* event.
  At the default 1/16 rate this measures <5% overhead (tracked in
  BENCH_observability.json).

Attribution key: events are classified by the bound method they fire —
``(type(fn.__self__).__name__, fn.__name__)`` — which lands exactly on
the component/event-class grid (``("MemoryChannel", "_deliver")``,
``("CpuShim", "_batch")``, ...).  Periodic ticks unwrap to their inner
callback with an ``every:`` prefix so samplers and audits are
attributed to themselves, not to the ticker shim.

The profiler scales each sampled duration by the sampling rate, so
``est_ns`` totals estimate full wall-clock per key; ``share`` is the
fraction of *sampled* time and is rate-independent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

ProfKey = Tuple[str, str]


def event_key(fn) -> ProfKey:
    """Classify an event callback into a (component, event-class) pair."""
    inner = getattr(fn, "fn", None)
    if inner is not None and type(fn).__name__ == "_PeriodicTick":
        comp, name = event_key(inner)
        return (comp, f"every:{name}")
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return (type(owner).__name__, fn.__name__)
    name = getattr(fn, "__name__", None)
    if name is not None:
        return ("function", name)
    return (type(fn).__name__, "__call__")


class HostProfiler:
    """Sampled wall-clock attribution over dispatch-loop events.

    Attach with ``sim.profiler = HostProfiler(rate)`` (or through
    ``build_system(..., RunSpec(profile=rate))``); :meth:`Simulator.run`
    switches to its profiled loop when the attribute is set.  Picklable (plain
    ints/dicts), so it survives the ProcessPool and rides checkpoints —
    though wall-clock numbers are host-specific and therefore live in
    ``RunResult.extras``, outside the deterministic payload.
    """

    def __init__(self, rate: int = 16) -> None:
        if rate < 1:
            raise ValueError(f"profile sample rate must be >= 1, got {rate}")
        self.rate = int(rate)
        self.events_seen = 0
        self.events_sampled = 0
        self.sampled_ns = 0
        #: (component, event-class) -> [sample_count, total_ns]
        self.buckets: Dict[ProfKey, List[int]] = {}

    # -- recording (called from Simulator._run_profiled) -----------------

    def record(self, fn, dt_ns: int) -> None:
        self.events_sampled += 1
        self.sampled_ns += dt_ns
        key = event_key(fn)
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [1, dt_ns]
        else:
            bucket[0] += 1
            bucket[1] += dt_ns

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        self.events_seen = 0
        self.events_sampled = 0
        self.sampled_ns = 0
        self.buckets = {}

    def merge(self, other: "HostProfiler") -> None:
        """Fold another profiler's buckets in (multi-phase runs)."""
        self.events_seen += other.events_seen
        self.events_sampled += other.events_sampled
        self.sampled_ns += other.sampled_ns
        for key, (count, total) in other.buckets.items():
            bucket = self.buckets.get(key)
            if bucket is None:
                self.buckets[key] = [count, total]
            else:
                bucket[0] += count
                bucket[1] += total

    # -- export ----------------------------------------------------------

    def report_rows(self) -> List[Dict[str, object]]:
        """Ranked hot-spot rows, hottest first."""
        total = self.sampled_ns or 1
        rows = []
        for (comp, event), (count, t_ns) in self.buckets.items():
            rows.append({
                "component": comp,
                "event": event,
                "samples": count,
                "sampled_ns": t_ns,
                "mean_ns": t_ns / count,
                "est_ns": t_ns * self.rate,
                "share": t_ns / total,
            })
        rows.sort(key=lambda r: (-r["sampled_ns"], r["component"], r["event"]))
        return rows

    def as_dict(self) -> Dict[str, object]:
        return {
            "rate": self.rate,
            "events_seen": self.events_seen,
            "events_sampled": self.events_sampled,
            "sampled_ns": self.sampled_ns,
            "est_total_ns": self.sampled_ns * self.rate,
            "hotspots": self.report_rows(),
        }

    def render(self, limit: int = 20) -> str:
        """Human-readable ranked table for ``repro profile``."""
        rows = self.report_rows()[:limit]
        lines = [
            f"host profile: {self.events_seen} events, "
            f"{self.events_sampled} sampled (1/{self.rate}), "
            f"{self.sampled_ns / 1e6:.1f} ms sampled wall-clock",
            f"{'component':<24} {'event':<28} {'share':>6} "
            f"{'samples':>8} {'mean us':>8} {'est ms':>8}",
        ]
        for r in rows:
            lines.append(
                f"{r['component']:<24} {r['event']:<28} "
                f"{r['share'] * 100:>5.1f}% {r['samples']:>8} "
                f"{r['mean_ns'] / 1e3:>8.2f} {r['est_ns'] / 1e6:>8.1f}"
            )
        if len(self.report_rows()) > limit:
            lines.append(f"... {len(self.buckets) - limit} more keys")
        return "\n".join(lines)

    # -- checkpoint/restore ----------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)

    def load_state(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    def __getstate__(self) -> Dict[str, object]:
        return self.state_dict()

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.load_state(state)
