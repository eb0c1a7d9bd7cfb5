"""Golden-digest regression tests for canonical simulation results.

Four canonical points — P1 and P8, each under quarter-scale OLTP and
DSS with *explicit* workload parameters (so ``REPRO_SCALE`` cannot
perturb them) — are pinned as SHA-256 digests of the deterministic
measurement payload in ``tests/golden/digests.json``.  Three multi-node
points (a cross-node ISA spinlock, four-node OLTP and a fixed-seed
four-node fuzz program) pin the protocol engines, directory and
interconnect the single-chip points never reach.  Three more single-chip
points pin the on-chip request path's rarer branches: the OOO core's
streaming misses and pending-entry waiters, the inclusive-L2 ablation,
and a one-chip fuzz program's upgrades, barriers and same-line races.
An eight-node fuzz point reaches what four nodes cannot: cruise-missile
invalidates and coarse-vector directory entries (four nodes have at most
three remote sharers).
Five sampled points pin functional warming (``L2Bank.warm_request``)
and the sampled run's phase lifecycle: P8, the inclusive-L2 ablation,
P8 under the protocol sanitizer's checker hooks, P2x2, whose multi-node
declines leave misses cold, and the OOO core, the only sampled run whose
CPUs carry drain and fence flags across phases.  For those the warmer's
``extras["sampling"]["warm"]`` counters are pinned next to the digest,
and so is a digest of the whole ``extras["sampling"]`` document
(windows, item counts and per-class confidence intervals).

For the sampled points a third digest, ``warm_state``, pins the machine
at the warm-up boundary (:func:`machine_state_digest`): every L1 and L2
line, the duplicate tags, the banks' in-flight and partial-directory
tables, the directory stores, the DRAM open-page tables and the memory
image, walked in a fixed order with no help from pickle.

For the points in :data:`COUNTER_POINTS` a second digest covers every
statistic of every component — CPUs, L1s, L2 banks, memory controllers
and RDRAM channels, the ICS, both protocol engines and their TSRFs, the
system controller, routers and their links, the IQs and OQs — plus each
directory store's read and write counts.  The payload digest never sees
the interconnect and engine counters; this one does.  Two of them are
sampled, so the counters also pin what the detailed windows leave on
the machine between phases.

The digest covers :meth:`RunResult.payload_tuple` exactly — every field
the harness documents as deterministic — so any unintentional behaviour
change in the core model shows up as a digest mismatch here, with the
full payload printed for diffing.  The same digest must come out of the
serial path, the ``run_jobs`` ProcessPool path, and a warm-cache
replay; that pins the determinism contract, not just the numbers.

When a *deliberate* model change shifts the numbers, regenerate with::

    PYTHONPATH=src python tests/test_golden_digests.py --regen
"""

import hashlib
import json
import os

import dataclasses

import pytest

from repro.core.config import preset
from repro.fuzz import generate, params_for
from repro.fuzz.runner import FuzzFactory
from repro.harness import Job, run_jobs
from repro.harness.experiments import DssFactory, OltpFactory
from repro.harness.runner import (RunSpec, build_system, run_configured,
                                  run_system)
from repro.isa.kernels import IsaKernelFactory, IsaKernelParams
from repro.sim.stats import Accumulator, Counter, Histogram, TimeWeighted
from repro.workloads import DssParams, OltpParams

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "digests.json")

#: quarter-scale parameters, spelled out so environment scaling and
#: default-parameter drift cannot reach them
OLTP_Q = OltpParams(transactions=20, warmup_transactions=38)
DSS_Q = DssParams(rows=65, warmup_rows=10)
ISA_MEMCPY = IsaKernelParams(kernel="memcpy", iterations=8)
ISA_SPINLOCK = IsaKernelParams(kernel="spinlock", iterations=4)
#: the benchmark's multi-node OLTP point (cold-miss heavy: most misses
#: cross the interconnect to a remote home engine)
OLTP_X4 = OltpParams(transactions=2, warmup_transactions=3)
#: the CI fuzz seed on four nodes, shrunk to a tier-1 budget
FUZZ_X4 = FuzzFactory(
    generate(params_for(2026, total_ops=800, nodes=4)).canonical_json())
#: the CI fuzz seed on eight nodes: enough remote sharers per line for
#: cruise-missile invalidates and coarse-vector directory entries
FUZZ_X8 = FuzzFactory(
    generate(params_for(2026, total_ops=3200, nodes=8)).canonical_json())
#: the same fuzz seed on one eight-CPU chip
FUZZ_P8 = FuzzFactory(generate(
    params_for(2026, total_ops=4000, nodes=1, cpus_per_node=8)
).canonical_json())
#: P8 with the inclusive-L2 ablation switched on
P8_INCLUSIVE = dataclasses.replace(
    preset("P8"), l2=dataclasses.replace(preset("P8").l2, inclusive=True))

#: sampled mode with every setting spelled out (six windows at OLTP_Q)
SAMPLED = dict(mode="sampled", window=100, period=500, warming="functional")

#: name -> (config or preset name, factory, num_nodes[, RunSpec fields]);
#: each point is measured in its workload's own unit (``units_attr``)
CANONICAL = {
    "P1-oltp": ("P1", OltpFactory(OLTP_Q), 1),
    "P8-oltp": ("P8", OltpFactory(OLTP_Q), 1),
    "P1-dss": ("P1", DssFactory(DSS_Q), 1),
    "P8-dss": ("P8", DssFactory(DSS_Q), 1),
    # real code through the machine: single-CPU private kernel and a
    # 32-CPU cross-node lock — the ISA path is bit-stability-gated too
    "P1-isa-memcpy": ("P1", IsaKernelFactory(ISA_MEMCPY), 1),
    "P8x4-isa-spinlock": ("P8", IsaKernelFactory(ISA_SPINLOCK), 4),
    # the multi-node protocol path: home/remote engines, TSRF, router
    "P8x4-oltp": ("P8", OltpFactory(OLTP_X4), 4),
    "P8x4-fuzz-2026": ("P8", FUZZ_X4, 4),
    "P8x8-fuzz-2026": ("P8", FUZZ_X8, 8),
    # the single-chip request path's rarer branches
    "OOO-oltp": ("OOO", OltpFactory(OLTP_Q), 1),
    "P8-inclusive-oltp": (P8_INCLUSIVE, OltpFactory(OLTP_Q), 1),
    "P8-fuzz-2026": ("P8", FUZZ_P8, 1),
    # functional warming: single chip, the inclusive ablation, the
    # checker hooks, and the multi-node declines
    "P8-oltp-sampled": ("P8", OltpFactory(OLTP_Q), 1, SAMPLED),
    "P8-inclusive-oltp-sampled": (P8_INCLUSIVE, OltpFactory(OLTP_Q), 1,
                                  SAMPLED),
    "P8-oltp-sampled-checked": ("P8", OltpFactory(OLTP_Q), 1,
                                dict(SAMPLED, check_coherence=True)),
    "P2x2-oltp-sampled": ("P2", OltpFactory(OLTP_Q), 2, SAMPLED),
    # the out-of-order core across sampled phases
    "OOO-oltp-sampled": ("OOO", OltpFactory(OLTP_Q), 1, SAMPLED),
}


#: points whose component statistics are pinned as well (see module doc)
COUNTER_POINTS = ("P8x4-oltp", "P8x8-fuzz-2026", "P8-oltp-sampled",
                  "P2x2-oltp-sampled")


def payload_digest(result) -> str:
    """SHA-256 over the canonical JSON of the deterministic payload.
    Floats go through ``repr`` (shortest round-trip form), so two
    payloads digest equally iff they are bit-for-bit equal."""
    payload = [repr(v) if isinstance(v, float) else v
               for v in result.payload_tuple()]
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_point(name: str):
    config, factory, nodes, *fields = CANONICAL[name]
    if isinstance(config, str):
        config = preset(config)
    return run_configured(config, factory, num_nodes=nodes,
                          **(fields[0] if fields else {}))


def _stat_values(stat):
    """The complete state of one statistic, as plain numbers."""
    if isinstance(stat, Counter):
        return stat.value
    if isinstance(stat, Accumulator):
        return [stat.count, stat.total, stat.min, stat.max, stat._sumsq]
    if isinstance(stat, TimeWeighted):
        return [stat._level, stat._last_time, stat._area, stat._max,
                stat._start_time]
    if isinstance(stat, Histogram):
        return [stat.samples, list(stat.bins)]
    raise TypeError(f"unknown statistic {stat!r}")


def component_counters(system) -> dict:
    """Every statistic of every component of a drained *system*, keyed by
    component and statistic name."""
    doc = {}

    def group(component):
        doc[component.name] = {name: _stat_values(stat) for name, stat
                               in component.stats._stats.items()}

    for node in system.nodes:
        group(node)
        for cpu in node.cpus:
            group(cpu)
            doc[cpu.name]["_core"] = [
                cpu.instructions, cpu.refs, cpu.misses, cpu.busy_ps,
                cpu.fence_stall_ps,
                sorted((s.name, ps) for s, ps in cpu.stall_ps.items())]
        for cache_id, l1 in enumerate(node.l1s):
            doc[f"{node.name}.l1[{cache_id}]"] = l1.counters()
        group(node.ics)
        for bank in node.banks:
            group(bank)
        for mc in node.mcs:
            group(mc)
            group(mc.channel)
        for engine in (node.home_engine, node.remote_engine):
            group(engine)
            tsrf = engine.tsrf
            doc[engine.name]["_tsrf"] = [tsrf.allocations, tsrf.frees,
                                         tsrf.alloc_failures,
                                         tsrf.high_water, tsrf.live]
        group(node.syscontrol)
    for node_id in sorted(system.routers):
        router = system.routers[node_id]
        group(router)
        doc[router.name]["_links"] = sorted(
            (dst, link.packets, link.free_at)
            for dst, link in router.links.items())
        group(router.iq)
        group(router.oq)
    for store in system.dirstores:
        doc[f"dir{store.node}"] = [store.reads, store.writes]
    return doc


def counters_digest(system) -> str:
    """SHA-256 over :func:`component_counters`; ``json`` writes floats in
    their shortest round-trip form, so equal digests mean equal bits."""
    blob = json.dumps(component_counters(system), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_point_system(name: str):
    """Run one canonical point uncached and keep the machine: returns
    ``(result, system)``."""
    config, factory, nodes, *fields = CANONICAL[name]
    if isinstance(config, str):
        config = preset(config)
    spec = RunSpec(**(fields[0] if fields else {}))
    system, _workload = build_system(config, factory, nodes, spec)
    return run_system(system, spec.resolve()), system


def machine_state_digest(system) -> str:
    """SHA-256 over what functional warming leaves on *system*, walked in
    a fixed order and independent of pickle: each L1's sets in index
    order with their lines in LRU order, each L2 bank's sets in load
    order, the duplicate tags sorted by line, the banks' pending,
    write-back-buffer and partial-directory tables, the directory
    stores, the DRAM open-page tables and the memory image."""
    nodes = []
    for node in system.nodes:
        l1s = [[[[line.tag, int(line.state), line.owner, line.dirty,
                  line.version] for line in lru_set.values()]
                for lru_set in l1.sets] for l1 in node.l1s]
        banks = []
        for bank in node.banks:
            banks.append({
                "sets": [[[l2line.tag, l2line.dirty, l2line.version]
                          for l2line in lset.values()]
                         for lset in bank.sets],
                "dup": [[line, sorted((cache_id, int(state)) for cache_id,
                                      state in e.sharers.items()), e.owner]
                        for line, e in sorted(bank.dup.entries.items())],
                "pending": sorted(bank.pending),
                "wb_buffer": sorted(bank.wb_buffer.items()),
                "our_mode": sorted(bank.our_mode.items()),
                "remote_cached": sorted(bank.remote_cached),
            })
        pages = [sorted(mc.channel._open_pages.items()) for mc in node.mcs]
        nodes.append({"l1s": l1s, "banks": banks, "open_pages": pages})
    doc = {
        "nodes": nodes,
        "directory": [sorted(store._bits.items())
                      for store in system.dirstores],
        "mem_versions": sorted(system.mem_versions.items()),
    }
    blob = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _WarmBoundary(Exception):
    """Stops a run at its warm-up boundary once the state is digested
    (what follows the boundary is pinned by the payload digest)."""


def warm_state_digest(name: str) -> str:
    """:func:`machine_state_digest` of a sampled point's machine, taken
    through the system's ``on_warm_boundary`` hook."""
    config, factory, nodes, fields = CANONICAL[name]
    if isinstance(config, str):
        config = preset(config)
    spec = RunSpec(**fields)
    system, _workload = build_system(config, factory, nodes, spec)
    digests = []

    def capture():
        digests.append(machine_state_digest(system))
        raise _WarmBoundary

    system.on_warm_boundary = capture
    try:
        run_system(system, spec.resolve())
    except _WarmBoundary:
        pass
    return digests[0]


#: the sampled points, whose warm-boundary state is pinned
SAMPLED_POINTS = tuple(name for name, point in sorted(CANONICAL.items())
                       if point[3:] and point[3].get("mode") == "sampled")


def warm_summary(result):
    """The functional warmer's counters of a sampled run, else None."""
    sampling = result.extras.get("sampling")
    return sampling["warm"] if sampling is not None else None


def sampling_digest(result):
    """SHA-256 over a sampled run's whole ``extras["sampling"]``
    document (floats in their shortest round-trip form), else None."""
    sampling = result.extras.get("sampling")
    if sampling is None:
        return None
    blob = json.dumps(sampling, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_golden_digest_serial(name):
    golden = load_golden()
    result = run_point(name)
    digest = payload_digest(result)
    assert digest == golden[name]["digest"], (
        f"{name}: payload drifted from golden.\n"
        f"  golden payload: {golden[name]['payload']}\n"
        f"  current payload: {list(result.payload_tuple())}\n"
        f"If this change is intentional, regenerate with "
        f"`python tests/test_golden_digests.py --regen`.")
    assert warm_summary(result) == golden[name].get("warm")
    assert sampling_digest(result) == golden[name].get("sampling")


@pytest.mark.parametrize("name", SAMPLED_POINTS)
def test_golden_warm_state(name):
    """Functional warming leaves the machine it always left."""
    golden = load_golden()
    assert warm_state_digest(name) == golden[name]["warm_state"], (
        f"{name}: the warm-boundary machine state drifted from golden.  "
        f"If this change is intentional, regenerate with "
        f"`python tests/test_golden_digests.py --regen`.")


@pytest.mark.parametrize("name", COUNTER_POINTS)
def test_golden_counters(name):
    """Every component statistic of a multi-node point is unchanged."""
    golden = load_golden()
    result, system = run_point_system(name)
    assert payload_digest(result) == golden[name]["digest"]
    assert counters_digest(system) == golden[name]["counters"], (
        f"{name}: component statistics drifted from golden.  If this "
        f"change is intentional, regenerate with "
        f"`python tests/test_golden_digests.py --regen`.")


def test_golden_digest_warm_cache():
    """A warm-cache (memo) replay returns the identical payload."""
    first = run_point("P1-oltp")
    second = run_point("P1-oltp")
    assert payload_digest(first) == payload_digest(second)
    assert first.payload_tuple() == second.payload_tuple()


def test_golden_digest_parallel_jobs(monkeypatch):
    """The ProcessPool path computes the same digests as the pinned
    goldens (cache disabled so workers actually simulate)."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    golden = load_golden()
    names = ["P1-oltp", "P1-isa-memcpy"]  # cheap points: workers re-simulate
    jobs = [Job(config=preset(CANONICAL[n][0]), factory=CANONICAL[n][1],
                num_nodes=CANONICAL[n][2])
            for n in names]
    results = run_jobs(jobs, jobs=2)
    for name, result in zip(names, results):
        assert payload_digest(result) == golden[name]["digest"], name


def regen() -> None:
    doc = {}
    for name in sorted(CANONICAL):
        result = run_point(name)
        doc[name] = {
            "digest": payload_digest(result),
            "payload": [repr(v) if isinstance(v, float) else v
                        for v in result.payload_tuple()],
        }
        if warm_summary(result) is not None:
            doc[name]["warm"] = warm_summary(result)
            doc[name]["sampling"] = sampling_digest(result)
            doc[name]["warm_state"] = warm_state_digest(name)
        if name in COUNTER_POINTS:
            _result, system = run_point_system(name)
            doc[name]["counters"] = counters_digest(system)
        print(f"{name}: {doc[name]['digest']}")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
