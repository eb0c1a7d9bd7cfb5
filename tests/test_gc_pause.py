"""The cyclic-collector pause around a run (DESIGN.md §5b).

:func:`~repro.harness.runner.run_system` disables the cyclic garbage
collector for the run and leaves it as it found it, also when the run
raises.  The pause is only safe because the model makes no reference
cycles while it runs: garbage that only the collector can free would
pile up for the whole run.  The second class checks that on every
workload and on the sampled, multi-node and observed paths: with the
collector off, a run leaves nothing for ``gc.collect()`` to free while
its system is still referenced.  Each point runs once first and that run
is not checked: imports and one-time caches may make cycles once per
process.
"""

import gc

import pytest

from repro.core.config import preset
from repro.harness.experiments import (
    FACTORIES,
    OltpFactory,
    scaled_factory,
)
from repro.harness.runner import RunSpec, build_system, run_system
from repro.workloads import OltpParams

SMALL_OLTP = OltpFactory(OltpParams(transactions=4, warmup_transactions=4))

#: name -> (preset, factory, nodes, RunSpec fields)
POINTS = {
    **{name: ("P2", scaled_factory(name, 0.05), 1, {})
       for name in FACTORIES},
    "oltp-sampled": ("P2", SMALL_OLTP, 1,
                     dict(mode="sampled", window=40, period=200)),
    "oltp-P2x2": ("P2", SMALL_OLTP, 2, {}),
    "oltp-P2x2-sampled": ("P2", SMALL_OLTP, 2,
                          dict(mode="sampled", window=40, period=200)),
    "oltp-observed": ("P2", SMALL_OLTP, 1,
                      dict(probe_rate=4, trace_spans=16,
                           sample_interval_ps=5_000_000,
                           check_coherence=True, trace_capacity=256)),
}


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _build(name):
    config, factory, nodes, fields = POINTS[name]
    spec = RunSpec(**fields).resolve()
    system, _workload = build_system(preset(config), factory, nodes, spec)
    return system, spec


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_collector_as_found(self, restore_gc, enabled):
        system, spec = _build("migratory")
        gc.enable() if enabled else gc.disable()
        run_system(system, spec)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_raising_run_leaves_collector_as_found(self, restore_gc,
                                                   monkeypatch, enabled):
        system, spec = _build("migratory")
        seen = []

        def fail(*_args):
            seen.append(gc.isenabled())
            raise RuntimeError("run failed")

        monkeypatch.setattr(system, "run_to_completion", fail)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="run failed"):
            run_system(system, spec)
        assert seen == [False]
        assert gc.isenabled() is enabled


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_run_leaves_no_cycles(self, restore_gc, name):
        system, spec = _build(name)
        run_system(system, spec)
        system, spec = _build(name)
        gc.collect()
        gc.disable()
        result = run_system(system, spec)
        assert gc.collect() == 0
        assert system.sim.pending == 0 and result.units > 0
