"""Unit tests for the discrete-event engine and clock domains."""

import pytest

from repro.sim import Clock, Simulator, ns
from repro.sim.engine import Component


class TestClock:
    def test_piranha_asic_period(self):
        assert Clock(500).period_ps == 2000

    def test_ooo_period(self):
        assert Clock(1000).period_ps == 1000

    def test_full_custom_period(self):
        assert Clock(1250).period_ps == 800

    def test_cycles(self):
        assert Clock(500).cycles(3) == 6000

    def test_fractional_cycles(self):
        assert Clock(500).cycles(1.5) == 3000

    def test_next_edge_aligned(self):
        assert Clock(500).next_edge(4000) == 4000

    def test_next_edge_unaligned(self):
        assert Clock(500).next_edge(4001) == 6000

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Clock(0)


class TestNsConversion:
    def test_integral(self):
        assert ns(80) == 80_000

    def test_fractional(self):
        assert ns(1.5) == 1500


class TestSimulator:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(300, fired.append, "c")
        sim.schedule(100, fired.append, "a")
        sim.schedule(200, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_time_events_fire_fifo(self, sim):
        fired = []
        for tag in range(10):
            sim.schedule(50, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_now_advances(self, sim):
        times = []
        sim.schedule(100, lambda: times.append(sim.now))
        sim.schedule(250, lambda: times.append(sim.now))
        sim.run()
        assert times == [100, 250]

    def test_cannot_schedule_into_past(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_run_until(self, sim):
        fired = []
        sim.schedule(100, fired.append, 1)
        sim.schedule(500, fired.append, 2)
        sim.run(until_ps=200)
        assert fired == [1]
        assert sim.now == 200
        sim.run()
        assert fired == [1, 2]

    def test_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(i + 1, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_chained_scheduling(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 4:
                sim.schedule(10, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 40

    def test_events_fired_counter(self, sim):
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_fired == 7

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_pending_counts_queued_events(self, sim):
        for i in range(5):
            sim.schedule(10 * (i + 1), lambda: None)
        assert sim.pending == 5
        sim.run(max_events=2)
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0


class TestRunBounds:
    def test_until_edge_event_at_boundary_fires(self, sim):
        fired = []
        sim.schedule(200, fired.append, "edge")
        sim.schedule(201, fired.append, "past")
        sim.run(until_ps=200)
        assert fired == ["edge"]
        assert sim.now == 200

    def test_until_with_empty_tail_keeps_last_event_time(self, sim):
        sim.schedule(50, lambda: None)
        sim.run(until_ps=500)
        # queue drained before the horizon: now stays at the last event
        assert sim.now == 50

    def test_max_events_within_same_timestamp_batch(self, sim):
        fired = []
        for i in range(6):
            sim.schedule(100, fired.append, i)
        assert sim.run(max_events=4) == 4
        assert fired == [0, 1, 2, 3]
        assert sim.run() == 2
        assert fired == list(range(6))

    def test_until_and_max_combined(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(10 * (i + 1), fired.append, i)
        sim.run(until_ps=35, max_events=2)
        assert fired == [0, 1]
        sim.run(until_ps=35)
        assert fired == [0, 1, 2]
        assert sim.now == 35

    def test_same_timestamp_rescheduling_stays_fifo(self, sim):
        fired = []

        def fires_and_schedules(tag):
            fired.append(tag)
            if tag == "first":
                sim.schedule(0, fired.append, "nested")

        sim.schedule(100, fires_and_schedules, "first")
        sim.schedule(100, fires_and_schedules, "second")
        sim.run(until_ps=100)
        assert fired == ["first", "second", "nested"]


class TestComponent:
    def test_component_has_stats_and_schedule(self, sim):
        comp = Component(sim, "test.module")
        fired = []
        comp.schedule(100, fired.append, 1)
        sim.run()
        assert fired == [1]
        assert comp.name == "test.module"
        comp.stats.counter("x").inc()
        assert comp.stats.counter("x").value == 1

    def test_component_now(self, sim):
        comp = Component(sim, "c")
        seen = []
        comp.schedule(123, lambda: seen.append(comp.now))
        sim.run()
        assert seen == [123]
