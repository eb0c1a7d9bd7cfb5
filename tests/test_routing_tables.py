"""Routing-table digests of the interconnect topologies.

For every (node, destination) pair of each topology below, the minimal
next hops and the hop distance are pinned as one SHA-256 digest (plus the
pair count) in ``tests/golden/routing_digests.json``.  The routers follow
these tables, so a change in how they are computed moves every multi-node
result; this file fails first and names the topology.

When a *deliberate* routing change shifts the tables, regenerate with::

    PYTHONPATH=src python tests/test_routing_tables.py --regen
"""

import hashlib
import json
import os

import pytest

from repro.core.system import default_topology
from repro.interconnect.topology import (
    attach_io_nodes,
    fully_connected,
    line,
    mesh2d,
    ring,
)

ROUTING_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "routing_digests.json")


def _with_io(build, count):
    def make():
        topo = build()
        attach_io_nodes(topo, count)
        return topo
    return make


def _without(build, *links):
    def make():
        topo = build()
        topo.distance(0, 1)  # build the tables, so removal must rebuild them
        for a, b in links:
            topo.remove_link(a, b)
        return topo
    return make


#: name -> topology builder
CASES = {}
for _n in list(range(1, 9)) + [16]:
    CASES[f"default-{_n}"] = lambda n=_n: default_topology(n)
for _n in range(2, 9):
    CASES[f"ring-{_n}"] = lambda n=_n: ring(n)
for _n in range(1, 9):
    CASES[f"line-{_n}"] = lambda n=_n: line(n)
for _n in range(1, 6):
    CASES[f"full-{_n}"] = lambda n=_n: fully_connected(n)
for _w in range(1, 5):
    for _h in range(1, 5):
        CASES[f"mesh-{_w}x{_h}"] = lambda w=_w, h=_h: mesh2d(w, h)
CASES["ring-6-io-node-5"] = lambda: ring(6, io_nodes=[5])
CASES["ring-4+io-2"] = _with_io(lambda: ring(4), 2)
CASES["ring-8+io-3"] = _with_io(lambda: ring(8), 3)
CASES["default-4+io-1"] = _with_io(lambda: default_topology(4), 1)
CASES["ring-6-minus-0-1"] = _without(lambda: ring(6), (0, 1))
CASES["mesh-4x4-minus-5-6"] = _without(lambda: mesh2d(4, 4), (5, 6), (9, 13))


def routes(topo):
    """``(node, dest, minimal_next_hops, distance)`` for every pair."""
    return [(node, dest, tuple(topo.minimal_next_hops(node, dest)),
             topo.distance(node, dest))
            for node in topo.nodes for dest in topo.nodes if dest != node]


def record(name: str) -> list:
    table = routes(CASES[name]())
    return [len(table), hashlib.sha256(repr(table).encode()).hexdigest()]


def load_routing() -> dict:
    with open(ROUTING_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_routing_digest(name):
    """Every topology routes exactly as recorded."""
    assert record(name) == load_routing()[name], (
        f"{name}: the routing tables changed.  If this is intentional, "
        f"regenerate with `python tests/test_routing_tables.py --regen`.")


def regen() -> None:
    doc = {name: record(name) for name in sorted(CASES)}
    with open(ROUTING_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ROUTING_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
