"""Sampled-simulation (fast-forward) subsystem tests.

The load-bearing property is the **bit-identity gate**: a detailed
measurement window restored from a checkpoint must be indistinguishable
from the same window run on the live machine.  With
``warming="detailed"`` a :class:`SampledRun` performs *no* approximation
— every span runs through the full event-driven model — so a
:class:`RestoringRun` (every window on a snapshot-rebuilt machine,
generators replayed from seed) and a plain :class:`SampledRun` (one live
machine throughout) must agree bit-for-bit on the measurement payload,
every per-window record, and final simulated time.  That pins the
checkpoint subsystem as a faithful hand-off mechanism, which is what
lets functional fast-forward trust its snapshots.

Functional-warming behaviour (state equivalence, declines, statistics)
is tested at unit scale.  A warm start from the warm-checkpoint store
must reproduce the cold sampled payload bit for bit, at unit scale and
at the quarter-scale P8 OLTP point with the default window and period,
and so must a warm snapshot restored by hand and run through
``run_system`` (the machine itself says it is past its warm-up).
Cross-mode *accuracy* is a statistical property, not a correctness
invariant, so it is not asserted here: perfbench's ``p8-oltp-sampled``
workload gates it (``warm.sample_error``).
"""

import os

import pytest

from repro.checkpoint import restore_system, snapshot_bytes
from repro.core.config import preset
from repro.core.messages import AccessKind
from repro.fastforward import FunctionalWarmer, PhaseStream, SampledRun
from repro.harness.experiments import OltpFactory
from repro.harness.runner import (RunSpec, assemble_result, build_system,
                                  simulate)
from repro.sim.engine import Simulator
from repro.workloads import OltpParams

from .test_golden_digests import payload_digest

#: small but non-trivial: enough post-warm items for 2+ windows at the
#: test window/period, explicit so REPRO_SCALE cannot perturb the tests
OLTP_SMALL = OltpParams(transactions=24, warmup_transactions=30)
WINDOW = 300
PERIOD = 1200


class RestoringRun(SampledRun):
    """A sampled run that rebuilds the machine from a snapshot of itself
    before every measurement window.  The restored workload threads have
    no live generators, so each one replays its stream from seed."""

    restores = 0

    def _run_detailed(self, budget, until_warm, record):
        if record:
            self.system = restore_system(snapshot_bytes(self.system))
            self.restores += 1
        super()._run_detailed(budget, until_warm, record)


def _sampled(warming: str, check: bool = False, nodes: int = 1,
             run_cls=SampledRun):
    config = preset("P8" if nodes == 1 else "P2")
    factory = OltpFactory(OLTP_SMALL)
    system, _wl = build_system(config, factory, nodes,
                               RunSpec(check_coherence=check))
    run = run_cls(system, window=WINDOW, period=PERIOD, warming=warming)
    run.run()
    result = assemble_result(run.system, RunSpec().resolve(), sampled=run)
    return run, result


# ---------------------------------------------------------------------------
# the gate: restored windows are bit-identical to live windows
# ---------------------------------------------------------------------------

class TestBitIdentityGate:
    def test_restore_equals_live_detailed_warming(self):
        live_run, live = _sampled("detailed")
        rest_run, rest = _sampled("detailed", run_cls=RestoringRun)
        assert payload_digest(live) == payload_digest(rest)
        assert live_run.windows == rest_run.windows
        assert live_run.system.sim.now == rest_run.system.sim.now
        # the restore path really did round-trip the machine
        assert rest_run.restores == len(rest_run.windows) >= 2


# ---------------------------------------------------------------------------
# sampled-mode behaviour
# ---------------------------------------------------------------------------

class TestSampledRun:
    def test_deterministic(self):
        run1, res1 = _sampled("functional")
        run2, res2 = _sampled("functional")
        assert payload_digest(res1) == payload_digest(res2)
        assert run1.windows == run2.windows

    def test_windows_and_confidence_document(self):
        run, result = _sampled("functional")
        assert len(run.windows) >= 2
        sampling = result.extras["sampling"]
        assert sampling["mode"] == "sampled"
        assert sampling["windows"] == len(run.windows)
        assert sampling["measured_items"] > 0
        assert sampling["ff_items"] > sampling["measured_items"]
        err = sampling["error"]
        for cls in ("busy_frac", "l2_frac", "mem_frac", "miss_hit_frac",
                    "miss_fwd_frac", "miss_mem_frac", "ps_per_item"):
            assert err[cls]["n"] == len(run.windows)
            assert err[cls]["ci95"] >= 0.0
        # extrapolated totals exist and are sane
        assert result.time_per_unit_ns > 0
        assert abs(result.busy_frac + result.l2_frac
                   + result.mem_frac - 1.0) < 1e-9

    def test_functional_close_to_detailed_smallscale(self):
        # shape check, deliberately loose: the functional and detailed
        # regimes must tell the same qualitative story even at toy scale
        _, func = _sampled("functional")
        _, det = _sampled("detailed")
        assert abs(func.busy_frac - det.busy_frac) < 0.15
        assert abs(func.mem_frac - det.mem_frac) < 0.15

    def test_sampled_run_with_sanitizer(self):
        # warm-path state mutations must satisfy the full protocol audit
        run, result = _sampled("functional", check=True)
        assert result.extras.get("audit_violations", 0) == 0
        assert run.warmer.warmed > 0

    def test_multinode_smoke(self):
        run, result = _sampled("functional", nodes=2)
        assert len(run.windows) >= 1
        assert result.nodes == 2
        # multi-node declines are expected (engine-bound lines), and the
        # decline path must leave the stream advancing statistically
        assert run.warmer.items > 0

    def test_single_shot_and_validation(self):
        config = preset("P8")
        system, _ = build_system(config, OltpFactory(OLTP_SMALL), 1)
        run = SampledRun(system, window=WINDOW, period=PERIOD)
        run.run()
        with pytest.raises(RuntimeError):
            run.run()
        with pytest.raises(ValueError):
            SampledRun(system, window=0, period=PERIOD)
        with pytest.raises(ValueError):
            SampledRun(system, window=WINDOW, period=-1)
        with pytest.raises(ValueError):
            SampledRun(system, window=WINDOW, period=PERIOD, warming="x")


# ---------------------------------------------------------------------------
# functional warmer units
# ---------------------------------------------------------------------------

class TestFunctionalWarmer:
    def _one_cpu_system(self):
        config = preset("P1")
        system, _ = build_system(config, OltpFactory(OLTP_SMALL), 1)
        (cpu,) = [c for n in system.nodes for c in n.cpus
                  if c.thread is not None]
        return system, cpu

    def test_advance_counts_and_boundary(self):
        _, cpu = self._one_cpu_system()
        warmer = FunctionalWarmer()
        ((consumed, exhausted),) = warmer.warm_up([cpu])
        assert cpu.thread.emitted == consumed  # through the sentinel
        assert not exhausted
        assert warmer.items == consumed
        assert warmer.refs > 0
        assert warmer.l1_hits + warmer.warmed + warmer.skipped == warmer.refs
        summary = warmer.summary()
        assert summary["items"] == consumed
        assert summary["instructions"] == warmer.instructions

    def test_warm_up_holds_one_slice_per_cpu(self, monkeypatch):
        # the warm-up streams: every take asks for one slice, so a CPU's
        # span is never buffered whole
        from repro.fastforward.warm import SLICE_ITEMS
        from repro.workloads.base import WorkloadThread

        from .test_golden_digests import OLTP_Q

        limits = []
        take = WorkloadThread.take

        def recording_take(thread, limit, until=None):
            limits.append(limit)
            return take(thread, limit, until)

        monkeypatch.setattr(WorkloadThread, "take", recording_take)
        system, _ = build_system(preset("P8"), OltpFactory(OLTP_Q), 1)
        run = SampledRun(system, window=WINDOW, period=PERIOD)
        run._functional_warm()
        assert len(limits) > 8 and max(limits) == SLICE_ITEMS
        assert system.warmed_up

    def test_thread_ending_before_sentinel_is_exhausted(self):
        # a thread that runs dry inside its warm-up span is marked
        # exhausted there and never runs in a detailed window
        from repro.workloads.base import WorkloadThread

        system, _ = build_system(preset("P2"), OltpFactory(OLTP_SMALL), 1)
        cpu = system.nodes[0].cpus[0]
        items = [(2, AccessKind.LOAD, 0x10000 + 64 * i, True)
                 for i in range(300)]
        cpu.attach(WorkloadThread(iter(items)))
        run = SampledRun(system, window=WINDOW, period=PERIOD)
        run.run()
        assert run._key(cpu) in run._exhausted
        assert cpu.thread.emitted == len(items)
        assert cpu.instructions == 0   # nothing after the warm boundary
        assert run.windows and run.measured_items > 0

    def test_tail_skims_prefix(self):
        _, cpu = self._one_cpu_system()
        warmer = FunctionalWarmer()
        buf, consumed, _ex = warmer.collect(cpu, 500, 64)
        assert consumed == 500
        assert len(buf) == 64
        assert warmer.skimmed == 500 - 64

    def test_warm_state_matches_detailed_occupancy(self):
        # after warming one CPU's span functionally, the L1s/L2 hold the
        # same *lines* a detailed run of the same span holds (P1: no
        # cross-CPU interleaving concerns, no timing-dependent ordering)
        def lines_of(system):
            held = set()
            for node in system.nodes:
                for l1 in list(node.l1i) + list(node.l1d):
                    held |= {ln.tag for s in l1.sets for ln in s.values()}
                for bank in node.banks:
                    held |= {(bank.bank_idx, t)
                             for s in bank.sets for t in s}
            return held

        config = preset("P1")
        sys_f, _ = build_system(config, OltpFactory(OLTP_SMALL), 1)
        (cpu_f,) = [c for n in sys_f.nodes for c in n.cpus
                    if c.thread is not None]
        FunctionalWarmer().warm_up([cpu_f])

        sys_d, _ = build_system(config, OltpFactory(OLTP_SMALL), 1)
        run = SampledRun(sys_d, window=WINDOW, period=0, warming="detailed")
        run._run_detailed(None, until_warm=True, record=False)
        assert lines_of(sys_f) == lines_of(run.system)


# ---------------------------------------------------------------------------
# phase streams and the clock jump
# ---------------------------------------------------------------------------

class TestPhaseStream:
    def test_budget_and_exhaustion(self):
        items = [(1, AccessKind.LOAD, i * 64, True) for i in range(5)]
        stream = PhaseStream(iter(items))
        stream.grant(3)
        assert [next(stream) for _ in range(3)] == items[:3]
        with pytest.raises(StopIteration):
            next(stream)
        assert stream.consumed == 3 and not stream.exhausted
        stream.grant(10)
        assert list(stream) == items[3:]
        assert stream.exhausted

    def test_ilp_mirrors_thread(self):
        class T:
            ilp = 2.5

            def __next__(self):
                raise StopIteration

        assert PhaseStream(T()).ilp == 2.5


class TestAdvanceTo:
    def test_monotonic_and_guarded(self):
        sim = Simulator()
        sim.advance_to(1000)
        assert sim.now == 1000
        with pytest.raises(ValueError):
            sim.advance_to(500)
        fired = []
        sim.schedule_at(2000, lambda: fired.append(True))
        with pytest.raises(RuntimeError):
            sim.advance_to(3000)  # pending event at 2000 ps
        sim.run()
        sim.advance_to(3000)
        assert sim.now == 3000 and fired


# ---------------------------------------------------------------------------
# harness integration: cache keys and the warm store
# ---------------------------------------------------------------------------

class TestHarnessIntegration:
    def test_simulate_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            simulate(preset("P1"), OltpFactory(OLTP_SMALL), mode="turbo")

    def test_sampled_mode_refuses_fuzz_before_any_event(self, monkeypatch):
        """Functional warming consumes items the fuzz reference checker
        never sees, so a sampled fuzz run would only fail after
        simulating (a desync); it is refused before the first event."""
        from repro.fuzz import generate, params_for
        from repro.fuzz.runner import FuzzFactory
        from repro.harness.runner import run_configured
        from repro.sim.engine import Simulator

        def no_events(self, *args, **kwargs):
            raise AssertionError("simulated before refusing")

        monkeypatch.setattr(Simulator, "run", no_events)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        program = generate(params_for(0, total_ops=2000, nodes=1,
                                      config="P2", cpus_per_node=2))
        with pytest.raises(ValueError, match="sampled mode cannot run the "
                                             "fuzz workload"):
            run_configured(preset("P2"), FuzzFactory(program.canonical_json()),
                           1, mode="sampled")

    @pytest.mark.parametrize("warming", ["functional", "detailed"])
    def test_restored_warm_snapshot_needs_no_flag(self, warming):
        """A machine restored from a sampled warm snapshot is past its
        warm-up boundary, so ``run_system`` with no extra argument skips
        the warm-up and reproduces the cold run's payload (P8, quarter-
        scale OLTP, the golden sampled settings)."""
        from repro.checkpoint import WarmCapture
        from repro.harness.runner import run_system

        from .test_golden_digests import OLTP_Q, SAMPLED

        spec = RunSpec(**dict(SAMPLED, warming=warming)).resolve()
        system, _wl = build_system(preset("P8"), OltpFactory(OLTP_Q), 1,
                                   spec)
        capture = WarmCapture(system)
        cold = run_system(system, spec)
        assert capture.captured
        warm = run_system(restore_system(capture.payload), spec)
        assert (warm.extras["sampling"]["windows"]
                == cold.extras["sampling"]["windows"] > 0)
        assert payload_digest(warm) == payload_digest(cold)
        assert warm.extras["sampling"]["skip_warm"]

    def test_warm_store_roundtrip(self, tmp_path, monkeypatch):
        """A warm start restores the boundary snapshot and its payload
        equals the cold run's bit for bit: at the small test point, and
        at the quarter-scale P8 OLTP point (20 + 40 transactions) with
        the default window and period."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        config = preset("P8")
        points = [
            ("small", OLTP_SMALL, dict(window=WINDOW, period=PERIOD)),
            ("quarter", OltpParams(transactions=20, warmup_transactions=40),
             {}),
        ]
        for name, params, sampling in points:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
            factory = OltpFactory(params)
            cold = simulate(config, factory, mode="sampled", warmup=True,
                            **sampling)
            warm = simulate(config, factory, mode="sampled", warmup=True,
                            **sampling)
            assert not cold.extras["sampling"]["skip_warm"]
            assert warm.extras["sampling"]["skip_warm"]
            # restoring the warm snapshot changes nothing measurable
            assert payload_digest(cold) == payload_digest(warm)
            ckpts = list((tmp_path / name / "checkpoints").rglob("*.ckpt"))
            assert len(ckpts) == 1
