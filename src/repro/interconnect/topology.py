"""Interconnect topologies (Section 2.6).

The Piranha router is topology independent: processing nodes expose four
point-to-point channels, I/O nodes two (redundancy), and the system scales
gluelessly to 1024 nodes over arbitrary graphs with dynamic
reconfigurability.  This module builds and validates such graphs and
computes the routing tables the routers consult.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Channel counts per node kind (Sections 2.6.1 and 2, Figure 2).
MAX_CHANNELS = {"proc": 4, "io": 2}
MAX_NODES = 1024


class TopologyError(ValueError):
    """Raised for malformed interconnect graphs."""


class Topology:
    """An interconnect graph plus routing tables.

    Nodes are integer ids with a ``kind`` (``"proc"`` or ``"io"``).
    Routing tables give, for each (node, destination) pair, the list of
    next-hop neighbours on *minimal* paths — the adaptive router picks
    among them and may deliberately misroute (hot potato) when all are
    busy.
    """

    def __init__(self) -> None:
        #: node -> kind, in insertion order
        self._kind: Dict[int, str] = {}
        #: node -> neighbours
        self._adj: Dict[int, Set[int]] = {}
        self._next_hops: Optional[Dict[int, Dict[int, Tuple[int, ...]]]] = None
        self._dist: Optional[Dict[int, Dict[int, int]]] = None

    # -- construction ----------------------------------------------------

    def add_node(self, node: int, kind: str = "proc") -> None:
        if kind not in MAX_CHANNELS:
            raise TopologyError(f"unknown node kind {kind!r}")
        if len(self._kind) >= MAX_NODES and node not in self._kind:
            raise TopologyError(f"Piranha systems scale to at most {MAX_NODES} nodes")
        self._kind[node] = kind
        self._adj.setdefault(node, set())
        self._invalidate()

    def add_link(self, a: int, b: int) -> None:
        """Connect two nodes with a bidirectional channel pair."""
        if a == b:
            raise TopologyError("self links are not allowed")
        for node in (a, b):
            if node not in self._kind:
                raise TopologyError(f"node {node} does not exist")
        for node in (a, b):
            limit = MAX_CHANNELS[self.kind(node)]
            if self.degree(node) >= limit and not self.has_link(a, b):
                raise TopologyError(
                    f"node {node} ({self.kind(node)}) already uses all "
                    f"{limit} channels"
                )
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._invalidate()

    def remove_link(self, a: int, b: int) -> None:
        """Dynamic reconfiguration / hot-swap: drop a channel pair.

        A removal that would cut *a* off from *b* (the link is a bridge)
        is refused and leaves the topology unchanged."""
        if not self.has_link(a, b):
            raise TopologyError(f"no link between {a} and {b}")
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        if b not in self._distances_from(a):
            self._adj[a].add(b)
            self._adj[b].add(a)
            raise TopologyError(
                f"removing link {a}-{b} would disconnect the interconnect")
        self._invalidate()

    def _invalidate(self) -> None:
        self._next_hops = None
        self._dist = None

    # -- queries ---------------------------------------------------------

    def kind(self, node: int) -> str:
        return self._kind[node]

    @property
    def nodes(self) -> List[int]:
        return sorted(self._kind)

    def neighbors(self, node: int) -> List[int]:
        return sorted(self._adj[node])

    def degree(self, node: int) -> int:
        """Channels *node* uses."""
        return len(self._adj[node])

    def has_link(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def _distances_from(self, source: int) -> Dict[int, int]:
        """Hop counts from *source* to every node it reaches (BFS)."""
        dist = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for node in frontier:
                hops = dist[node] + 1
                for nbr in self._adj[node]:
                    if nbr not in dist:
                        dist[nbr] = hops
                        reached.append(nbr)
            frontier = reached
        return dist

    def is_connected(self) -> bool:
        if not self._kind:
            return False
        return len(self._distances_from(next(iter(self._kind)))) == len(self._kind)

    def validate(self) -> None:
        """Check degree limits and connectivity; raises TopologyError."""
        if not self.is_connected():
            raise TopologyError("interconnect graph is not connected")
        for node in self._kind:
            limit = MAX_CHANNELS[self.kind(node)]
            if self.degree(node) > limit:
                raise TopologyError(
                    f"node {node} uses {self.degree(node)} channels, "
                    f"limit is {limit}"
                )

    # -- routing ---------------------------------------------------------

    def _build_tables(self) -> None:
        dist = {node: self._distances_from(node) for node in self._kind}
        next_hops: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        for node in self._kind:
            table: Dict[int, Tuple[int, ...]] = {}
            for dest in self._kind:
                if dest == node:
                    continue
                hops = tuple(
                    nbr
                    for nbr in self.neighbors(node)
                    if dist[nbr].get(dest, float("inf")) == dist[node][dest] - 1
                )
                table[dest] = hops
            next_hops[node] = table
        self._next_hops = next_hops
        self._dist = dist

    def minimal_next_hops(self, node: int, dest: int) -> Tuple[int, ...]:
        """Neighbours of *node* on minimal paths to *dest*."""
        if self._next_hops is None:
            self._build_tables()
        return self._next_hops[node][dest]

    def distance(self, a: int, b: int) -> int:
        """Hop count between two nodes."""
        if self._dist is None:
            self._build_tables()
        return self._dist[a][b]


# -- factories -----------------------------------------------------------


def ring(n: int, io_nodes: Iterable[int] = ()) -> Topology:
    """A ring of *n* nodes; nodes listed in *io_nodes* are I/O chips."""
    if n < 2:
        raise TopologyError("a ring needs at least two nodes")
    io_set = set(io_nodes)
    topo = Topology()
    for node in range(n):
        topo.add_node(node, "io" if node in io_set else "proc")
    for node in range(n):
        topo.add_link(node, (node + 1) % n)
    topo.validate()
    return topo


def line(n: int, io_nodes: Iterable[int] = ()) -> Topology:
    """A linear chain (used for tiny systems and unit tests)."""
    if n < 1:
        raise TopologyError("need at least one node")
    io_set = set(io_nodes)
    topo = Topology()
    for node in range(n):
        topo.add_node(node, "io" if node in io_set else "proc")
    for node in range(n - 1):
        topo.add_link(node, node + 1)
    if n > 1:
        topo.validate()
    return topo


def mesh2d(width: int, height: int) -> Topology:
    """A width x height 2-D mesh of processing nodes (max degree 4)."""
    if width < 1 or height < 1:
        raise TopologyError("mesh dimensions must be positive")
    topo = Topology()
    def node_id(x: int, y: int) -> int:
        return y * width + x
    for y in range(height):
        for x in range(width):
            topo.add_node(node_id(x, y), "proc")
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                topo.add_link(node_id(x, y), node_id(x + 1, y))
            if y + 1 < height:
                topo.add_link(node_id(x, y), node_id(x, y + 1))
    if width * height > 1:
        topo.validate()
    return topo


def fully_connected(n: int) -> Topology:
    """All-to-all; only legal up to 5 processing nodes (4 channels each)."""
    if n > MAX_CHANNELS["proc"] + 1:
        raise TopologyError(
            f"fully connected topology limited to {MAX_CHANNELS['proc'] + 1} "
            f"nodes by the four-channel budget"
        )
    topo = Topology()
    for node in range(n):
        topo.add_node(node, "proc")
    for a in range(n):
        for b in range(a + 1, n):
            topo.add_link(a, b)
    if n > 1:
        topo.validate()
    return topo


def attach_io_nodes(topo: Topology, count: int) -> List[int]:
    """Attach *count* I/O nodes, each dual-homed to the two processing nodes
    with the most free channels (redundancy per Section 2.6.1)."""
    added = []
    for _ in range(count):
        node_id = max(topo.nodes) + 1 if topo.nodes else 0
        proc_nodes = [n for n in topo.nodes if topo.kind(n) == "proc"]
        slots = sorted(
            proc_nodes,
            key=lambda n: (topo.degree(n), n),
        )
        hosts = [n for n in slots if topo.degree(n) < MAX_CHANNELS["proc"]][:2]
        if not hosts:
            raise TopologyError("no processing node has a free channel")
        topo.add_node(node_id, "io")
        for host in hosts:
            topo.add_link(node_id, host)
        added.append(node_id)
    topo.validate()
    return added
