"""Property tests for :class:`~repro.harness.runner.RunSpec` cache keys.

The resolved spec's digest is the only key of the result caches, so two
properties make the caches sound:

* every resolved field is identity: changing any one of them to another
  valid value changes the key (no setting can alias another's entry);
* raw specs that resolve equal share a key, and equal keys mean equal
  results — the same deterministic payload and the same deterministic
  extras documents (``metrics``, ``trace``).
"""

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import preset
from repro.harness import MigratoryFactory
from repro.harness.runner import (MODES, SAMPLED_PERIOD, SAMPLED_WINDOW,
                                  SPAN_PROBE_RATE, WARMINGS, RunSpec,
                                  run_configured, simulate)
from repro.workloads import MicroParams

FACTORY = MigratoryFactory(MicroParams(iterations=120, warmup=30))

#: valid values of every RunSpec field
FIELD_VALUES = {
    "check_coherence": st.booleans(),
    "trace_capacity": st.integers(0, 4096),
    "probe_rate": st.integers(0, 256),
    "sample_interval_ps": st.integers(0, 10**8),
    "mode": st.sampled_from(MODES),
    "window": st.integers(0, 2000),
    "period": st.integers(0, 10_000),
    "warming": st.sampled_from(WARMINGS),
    "trace_spans": st.integers(0, 512),
}

raw_specs = st.builds(RunSpec, **FIELD_VALUES)


def key(spec, config="P1"):
    return spec.key(preset(config), FACTORY, 1)


def test_every_field_has_a_strategy():
    assert set(FIELD_VALUES) == {f.name for f in dataclasses.fields(RunSpec)}


# ---------------------------------------------------------------------------
# (a) every resolved field is part of the key


@settings(max_examples=300)
@given(raw=raw_specs, name=st.sampled_from(sorted(FIELD_VALUES)),
       data=st.data())
def test_changing_any_resolved_field_changes_the_key(raw, name, data):
    spec = raw.resolve()
    value = data.draw(FIELD_VALUES[name], label=name)
    assume(value != getattr(spec, name))
    changed = dataclasses.replace(spec, **{name: value}).resolve()
    # a change that resolution undoes (a detailed run's window, the
    # implied span probe rate) is not a change of a resolved field
    assume(getattr(changed, name) == value)
    assert key(changed) != key(spec)


# ---------------------------------------------------------------------------
# (b) raw specs that resolve equal share a key, and equal keys give
# equal results


@st.composite
def equivalent_pair(draw, specs=raw_specs):
    """A raw spec and a twin differing only in settings its resolution
    makes explicit or discards."""
    spec = draw(specs)
    twin = spec
    if spec.trace_spans and spec.probe_rate in (0, SPAN_PROBE_RATE):
        twin = dataclasses.replace(
            twin, probe_rate=draw(st.sampled_from((0, SPAN_PROBE_RATE))))
    if spec.mode == "sampled":
        if spec.window in (0, SAMPLED_WINDOW):
            twin = dataclasses.replace(
                twin, window=draw(st.sampled_from((0, SAMPLED_WINDOW))))
        if spec.period in (0, SAMPLED_PERIOD):
            twin = dataclasses.replace(
                twin, period=draw(st.sampled_from((0, SAMPLED_PERIOD))))
    else:
        twin = dataclasses.replace(
            twin, window=draw(FIELD_VALUES["window"]),
            period=draw(FIELD_VALUES["period"]),
            warming=draw(FIELD_VALUES["warming"]))
    return spec, twin


@settings(max_examples=300)
@given(pair=equivalent_pair())
def test_equivalent_raw_specs_share_a_key(pair):
    spec, twin = pair
    assert spec.resolve() == twin.resolve()
    assert key(spec) == key(twin)


#: cheap runnable specs on the tiny migratory point: window/period
#: choices include the defaults, which the twin may leave implicit
runnable_specs = st.builds(
    RunSpec,
    check_coherence=st.booleans(),
    trace_capacity=st.sampled_from((0, 64)),
    probe_rate=st.sampled_from((0, 4, SPAN_PROBE_RATE)),
    sample_interval_ps=st.sampled_from((0, 10_000_000)),
    mode=st.sampled_from(MODES),
    window=st.sampled_from((0, 30, SAMPLED_WINDOW)),
    period=st.sampled_from((0, 60, SAMPLED_PERIOD)),
    warming=st.sampled_from(WARMINGS),
    trace_spans=st.sampled_from((0, 8)),
)


def deterministic_view(result):
    return (result.payload_tuple(),
            json.dumps(result.extras.get("metrics"), sort_keys=True),
            json.dumps(result.extras.get("trace"), sort_keys=True))


@settings(max_examples=25)
@given(pair=equivalent_pair(runnable_specs),
       config=st.sampled_from(("P1", "P2")))
def test_equal_keys_give_equal_results(pair, config):
    spec, twin = pair
    assert key(spec, config) == key(twin, config)
    runs = [simulate(preset(config), FACTORY,
                     **dataclasses.asdict(s)) for s in (spec, twin)]
    assert deterministic_view(runs[0]) == deterministic_view(runs[1])


# ---------------------------------------------------------------------------
# (c) sampled-mode settings fold at their effective values


def test_sampled_settings_fold_at_effective_values():
    detailed = RunSpec()
    sampled = RunSpec(mode="sampled")
    explicit = RunSpec(mode="sampled", window=SAMPLED_WINDOW,
                       period=SAMPLED_PERIOD)
    # a detailed run ignores every sampled-mode setting
    assert RunSpec(window=5, period=7, warming="detailed").resolve() == \
        detailed.resolve()
    # defaults resolve before keying: explicit default == omitted
    assert sampled.resolve() == explicit.resolve()
    assert key(sampled) == key(explicit)
    # an estimate never answers for (or is answered by) a detailed run
    assert key(sampled) != key(detailed)
    assert key(sampled) != key(dataclasses.replace(sampled,
                                                   warming="detailed"))


def test_bad_options_fail_before_any_lookup():
    for bad in (RunSpec(mode="turbo"), RunSpec(warming="lukewarm")):
        with pytest.raises(ValueError):
            bad.resolve()
    with pytest.raises(ValueError):
        run_configured(preset("P1"), FACTORY, mode="turbo")
    with pytest.raises(TypeError):
        run_configured(preset("P1"), FACTORY, bogus=("x",))
