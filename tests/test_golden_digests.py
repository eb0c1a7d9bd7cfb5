"""Golden-digest regression tests for canonical simulation results.

Four canonical points — P1 and P8, each under quarter-scale OLTP and
DSS with *explicit* workload parameters (so ``REPRO_SCALE`` cannot
perturb them) — are pinned as SHA-256 digests of the deterministic
measurement payload in ``tests/golden/digests.json``.  Three multi-node
points (a cross-node ISA spinlock, four-node OLTP and a fixed-seed
four-node fuzz program) pin the protocol engines, directory and
interconnect the single-chip points never reach.

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

import pytest

from repro.fuzz import generate, params_for
from repro.fuzz.runner import FuzzFactory
from repro.harness import Job, run_jobs
from repro.harness.experiments import DssFactory, OltpFactory
from repro.harness.runner import RunSpec, run_workload
from repro.isa.kernels import IsaKernelFactory, IsaKernelParams
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

#: name -> (config, factory, units_attr, num_nodes)
CANONICAL = {
    "P1-oltp": ("P1", OltpFactory(OLTP_Q), "transactions", 1),
    "P8-oltp": ("P8", OltpFactory(OLTP_Q), "transactions", 1),
    "P1-dss": ("P1", DssFactory(DSS_Q), "rows", 1),
    "P8-dss": ("P8", DssFactory(DSS_Q), "rows", 1),
    # real code through the machine: single-CPU private kernel and a
    # 32-CPU cross-node lock — the ISA path is bit-stability-gated too
    "P1-isa-memcpy": ("P1", IsaKernelFactory(ISA_MEMCPY),
                      "iterations", 1),
    "P8x4-isa-spinlock": ("P8", IsaKernelFactory(ISA_SPINLOCK),
                          "iterations", 4),
    # the multi-node protocol path: home/remote engines, TSRF, router
    "P8x4-oltp": ("P8", OltpFactory(OLTP_X4), "transactions", 4),
    "P8x4-fuzz-2026": ("P8", FUZZ_X4, "ops", 4),
}


def payload_digest(result) -> str:
    """SHA-256 over the canonical JSON of the deterministic payload.
    Floats go through ``repr`` (shortest round-trip form), so two
    payloads digest equally iff they are bit-for-bit equal."""
    payload = [repr(v) if isinstance(v, float) else v
               for v in result.payload_tuple()]
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_point(name: str):
    config, factory, units, nodes = CANONICAL[name]
    return run_workload(config, factory, num_nodes=nodes, units_attr=units)


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


def test_golden_digest_warm_cache():
    """A warm-cache (memo) replay returns the identical payload."""
    first = run_point("P1-oltp")
    second = run_point("P1-oltp")
    assert payload_digest(first) == payload_digest(second)
    assert first.payload_tuple() == second.payload_tuple()


def test_golden_digest_parallel_jobs(monkeypatch):
    """The ProcessPool path computes the same digests as the pinned
    goldens (cache disabled so workers actually simulate)."""
    from repro.core.config import preset

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    golden = load_golden()
    names = ["P1-oltp", "P1-isa-memcpy"]  # cheap points: workers re-simulate
    jobs = [Job(config=preset(CANONICAL[n][0]), factory=CANONICAL[n][1],
                num_nodes=CANONICAL[n][3],
                spec=RunSpec(units_attr=CANONICAL[n][2]))
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
