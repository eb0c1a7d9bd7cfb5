"""The Piranha router (RT) — Section 2.6.1.

Derived from the S3.mp S-Connect: a topology-independent, **adaptive,
virtual cut-through** router built around a common buffer pool shared
across all priorities and virtual lanes.  When every minimal output is
busy, the router *hot-potato* misroutes the packet instead of holding it,
incrementing the packet's age; age escalates priority, so a misrouted
packet eventually wins arbitration everywhere.  This is the property that
lets Piranha's buffering grow linearly rather than quadratically with node
count.

Timing model: a packet that arrives (or is injected) is forwarded after a
single fall-through cycle when an output is free; links add serialisation
(2 or 10 interconnect cycles for Short/Long packets — 64 data bits per
500 MHz cycle) plus a fixed propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..sim.engine import Clock, Component, Simulator, ns
from .packets import Packet
from .queues import InputQueue, OutputQueue
from .topology import Topology


@dataclass(frozen=True)
class RouterParams:
    """Router/link timing and buffering parameters."""

    clock_mhz: float = 500.0       # interconnect (system) clock
    fall_through_cycles: int = 1   # optimised fall-through path (§2.6.2)
    propagation_ns: float = 2.0    # wire flight time between adjacent nodes
    buffer_pool: int = 32          # shared packet buffers per router
    age_per_priority: int = 4      # age ticks per priority escalation
    misroute_threshold: int = 2    # busy outputs tolerated before hot potato

    def clock(self) -> Clock:
        return Clock(self.clock_mhz)


class Link:
    """One direction of a point-to-point channel between two routers."""

    __slots__ = ("src", "dst", "free_at", "cycle_ps", "propagation_ps", "packets")

    def __init__(self, src: int, dst: int, params: RouterParams) -> None:
        self.src = src
        self.dst = dst
        self.free_at = 0
        self.cycle_ps = params.clock().period_ps
        self.propagation_ps = ns(params.propagation_ns)
        self.packets = 0

    def send(self, now: int, pkt: Packet) -> int:
        """Occupy the link for the packet's serialisation time; returns
        the arrival time at the far end.  The link is busy while
        ``free_at > now``."""
        self.free_at = max(now, self.free_at) + pkt.wire_cycles * self.cycle_ps
        self.packets += 1
        return self.free_at + self.propagation_ps


class Router(Component):
    """Per-node router: transit forwarding, local injection, local delivery."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        topology: Topology,
        iq: InputQueue,
        oq: OutputQueue,
        params: Optional[RouterParams] = None,
    ) -> None:
        super().__init__(sim, f"node{node_id}.rt")
        self.node_id = node_id
        self.topology = topology
        self.iq = iq
        self.oq = oq
        self.params = params or RouterParams()
        self._clock = self.params.clock()
        self._cycle_ps = self._clock.cycles(1)
        self._fall_through_ps = self._clock.cycles(
            self.params.fall_through_cycles)
        self.links: Dict[int, Link] = {}
        self.peers: Dict[int, "Router"] = {}
        #: destination -> minimal next hops that have an outgoing link
        #: (the topology's routing tables are fixed once built)
        self._minimal: Dict[int, Tuple[int, ...]] = {}
        self.buffered = 0
        self.c_transit = self.stats.counter("transit_packets")
        self.c_injected = self.stats.counter("injected_packets")
        self.c_delivered = self.stats.counter("delivered_packets")
        self.c_misroutes = self.stats.counter("misroutes")
        #: wire bytes transmitted on this router's outgoing links (header
        #: + data sections) — the interval sampler's router-traffic series
        self.c_bytes = self.stats.counter("transmitted_bytes")
        self.a_hops = self.stats.accumulator("delivered_age")
        self.a_latency = self.stats.accumulator("delivered_latency_ps")
        oq.attach_router(self._kick)

    # -- wiring ----------------------------------------------------------

    def connect(self, peer: "Router") -> None:
        """Create the outgoing half-channel towards *peer*."""
        self.links[peer.node_id] = Link(self.node_id, peer.node_id, self.params)
        self.peers[peer.node_id] = peer
        self._minimal.clear()

    # -- injection -------------------------------------------------------

    def _kick(self) -> None:
        """OQ signalled new work; drain it next cycle.

        The paper's policy: the router gives priority to transit traffic
        and accepts new packets only when it has free buffer space.
        """
        self.schedule(0, self._drain_oq)

    def _drain_oq(self) -> None:
        while self.buffered < self.params.buffer_pool:
            pkt = self.oq.pop()
            if pkt is None:
                return
            pkt.inject_time = self.sim.now
            self.c_injected.inc()
            self._handle(pkt)
        # Buffer pressure: retry once a cycle until space frees up.
        self.schedule(self._cycle_ps, self._drain_oq)

    def inject(self, pkt: Packet) -> bool:
        """Convenience entry point used by tests: push via the OQ."""
        return self.oq.offer(pkt)

    # -- forwarding ------------------------------------------------------

    def _handle(self, pkt: Packet) -> None:
        """A packet was injected here or finished flying over an incoming
        channel: deliver it locally or forward it."""
        if pkt.dst == self.node_id:
            self._deliver(pkt)
            return
        self.buffered += 1
        self.schedule(self._fall_through_ps, self._forward, pkt)

    def _deliver(self, pkt: Packet) -> None:
        if self.iq.receive(pkt):
            self.c_delivered.inc()
            self.a_hops.add(pkt.age)
            self.a_latency.add(self.sim.now - pkt.inject_time)
        else:
            # IQ full: hold the packet in the router buffer and retry; the
            # IQ is sized to make this rare (§2.6.2).
            self.schedule(self._cycle_ps, self._deliver, pkt)

    def _minimal_hops(self, dst: int) -> Tuple[int, ...]:
        hops = self._minimal.get(dst)
        if hops is None:
            hops = tuple(
                n for n in self.topology.minimal_next_hops(self.node_id, dst)
                if n in self.links
            )
            self._minimal[dst] = hops
        return hops

    def _forward(self, pkt: Packet) -> None:
        now = self.sim.now
        links = self.links
        minimal = self._minimal_hops(pkt.dst)
        # The free minimal output that frees earliest (first on ties).
        choice = None
        for n in minimal:
            free_at = links[n].free_at
            if free_at <= now and (choice is None or free_at < best):
                choice, best = n, free_at
        if choice is not None:
            self._transmit(pkt, choice)
            return
        # All minimal outputs busy: hot potato onto any free output, with
        # age increment and priority escalation.
        if len(minimal) <= self.params.misroute_threshold:
            for n, link in links.items():
                if link.free_at <= now:
                    pkt.age += 1
                    pkt.priority = min(
                        3, pkt.priority + pkt.age // self.params.age_per_priority)
                    self.c_misroutes.inc()
                    self._transmit(pkt, n)
                    return
        # Everything busy: wait for the earliest minimal link.
        earliest = min(links[n].free_at for n in minimal)
        self.schedule(max(self._cycle_ps, earliest - now), self._forward, pkt)

    def _transmit(self, pkt: Packet, neighbor: int) -> None:
        now = self.sim.now
        arrival = self.links[neighbor].send(now, pkt)
        self.buffered -= 1
        self.c_transit.inc()
        self.c_bytes.inc(pkt.size_bits // 8)
        if pkt.probe is not None:
            # one stamp per link hop, at the far-end arrival time, so
            # multi-hop flight shows up as accumulated pkt_transit time
            pkt.probe.stamp("pkt_transit", arrival)
        self.schedule(arrival - now, self.peers[neighbor]._handle, pkt)


def build_routers(
    sim: Simulator,
    topology: Topology,
    params: Optional[RouterParams] = None,
    iq_capacity: int = 64,
    oq_capacity: int = 16,
) -> Dict[int, Router]:
    """Instantiate and fully wire routers (+IQ/OQ) for every topology node."""
    routers: Dict[int, Router] = {}
    for node in topology.nodes:
        iq = InputQueue(sim, f"node{node}.iq", capacity=iq_capacity)
        oq = OutputQueue(sim, f"node{node}.oq", capacity=oq_capacity)
        routers[node] = Router(sim, node, topology, iq, oq, params)
    for node in topology.nodes:
        for nbr in topology.neighbors(node):
            routers[node].connect(routers[nbr])
    return routers
