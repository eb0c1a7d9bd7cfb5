"""Stream digests of the OLTP reference-stream generator.

Every thread's full item stream is pinned as a SHA-256 digest (plus its
length) in ``tests/golden/stream_digests.json``, for the perfbench sizes
at seeds 2000 and 7 (P8 and P8x4, detailed and sampled), a P2x2 system,
the TPC-C parameters and the open-page benchmark's block-I/O setting.
The simulation digests in ``test_golden_digests.py`` see only what the
caches make of a stream; these see the stream itself, item by item, so a
generator change that reorders or redraws anything fails here first.

When a *deliberate* workload change shifts the streams, regenerate with::

    PYTHONPATH=src python tests/test_workload_stream.py --regen
"""

import hashlib
import json
import os
import pickle
from dataclasses import replace

import pytest

from repro.workloads import OltpParams, OltpWorkload, TpccWorkload
from repro.workloads.tpcc import tpcc_params

STREAM_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "stream_digests.json")


def _oltp(transactions, warmup, cpus, nodes, **fields):
    def build():
        params = OltpParams(transactions=transactions,
                            warmup_transactions=warmup, **fields)
        return OltpWorkload(params, cpus_per_node=cpus, num_nodes=nodes)
    return build


def _tpcc(transactions, warmup, cpus, nodes):
    def build():
        params = replace(tpcc_params(), transactions=transactions,
                         warmup_transactions=warmup)
        return TpccWorkload(params, cpus_per_node=cpus, num_nodes=nodes)
    return build


#: name -> workload builder
CASES = {
    # the perfbench workloads (perfbench/bench.py WORKLOADS)
    "p8-oltp-s2000": _oltp(20, 40, 8, 1, seed=2000),
    "p8-oltp-s7": _oltp(20, 40, 8, 1, seed=7),
    "p8x4-oltp-s2000": _oltp(2, 3, 8, 4, seed=2000),
    "p8x4-oltp-s7": _oltp(2, 3, 8, 4, seed=7),
    "p8-oltp-sampled-s2000": _oltp(80, 150, 8, 1, seed=2000),
    "p8-oltp-sampled-s7": _oltp(80, 150, 8, 1, seed=7),
    # node-local shards and page-padded hot rows on a small system
    "p2x2-oltp": _oltp(10, 5, 2, 2),
    # TPC-C shape, one chip and two
    "tpcc-p4": _tpcc(20, 10, 4, 1),
    "tpcc-p2x2": _tpcc(10, 5, 2, 2),
    # benchmarks/bench_rdram_open_page.py's DB-writer block scans
    "p8-oltp-block-io": _oltp(20, 30, 8, 1, block_io_lines_per_txn=48),
}


def _plain(items):
    """Items with the access kind as a plain int (None -> -1)."""
    return [(n, -1 if k is None else int(k), a, d) for n, k, a, d in items]


def stream_digest(items) -> str:
    return hashlib.sha256(repr(_plain(items)).encode()).hexdigest()


def threads_of(workload):
    """``(name, thread)`` for every (node, cpu) slot, bound for restore."""
    for node in range(workload.num_nodes):
        for cpu in range(workload.cpus_per_node):
            thread = workload.thread_for(node, cpu)
            thread.bind_source(workload, node, cpu)
            yield f"n{node}c{cpu}", thread


def record(name: str) -> dict:
    return {slot: [len(items), stream_digest(items)]
            for slot, items in ((slot, list(thread))
                                for slot, thread in threads_of(CASES[name]()))}


def load_streams() -> dict:
    with open(STREAM_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_digest(name):
    """Every thread yields exactly the recorded items."""
    assert record(name) == load_streams()[name], (
        f"{name}: the workload stream changed.  If this is intentional, "
        f"regenerate with `python tests/test_workload_stream.py --regen`.")


@pytest.mark.parametrize("take_first", [True, False])
def test_restored_thread_continues_with_recorded_tail(take_first):
    """A thread checkpointed after k items (mid-transaction, past the
    warm-up sentinel) and restored yields exactly the rest of its
    recorded stream."""
    golden = load_streams()["p2x2-oltp"]["n1c1"]
    workload = CASES["p2x2-oltp"]()
    reference = list(workload.thread_for(1, 1))
    assert [len(reference), stream_digest(reference)] == golden
    k = 1003
    thread = workload.thread_for(1, 1)
    thread.bind_source(workload, 1, 1)
    if take_first:
        head, _hit = thread.take(k)
    else:
        head = [next(thread) for _ in range(k)]
    restored = pickle.loads(pickle.dumps(thread))
    assert restored.emitted == k
    tail = list(restored)
    assert head + tail == reference
    assert restored.emitted == len(reference)


def regen() -> None:
    doc = {name: record(name) for name in sorted(CASES)}
    with open(STREAM_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {STREAM_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
