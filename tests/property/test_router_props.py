"""Property-based tests for the interconnect: on random connected
topologies with random traffic, every packet is delivered exactly once."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.interconnect import Packet, PacketType, Topology, build_routers
from repro.sim import Simulator, substream


def random_topology(seed: int, n: int) -> Topology:
    """A random connected graph respecting the 4-channel budget."""
    rng = substream(seed, "topo")
    topo = Topology()
    for node in range(n):
        topo.add_node(node)
    # spanning chain keeps it connected
    for node in range(n - 1):
        topo.add_link(node, node + 1)
    # random extra links where channel budget allows
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or topo.has_link(a, b):
            continue
        if topo.degree(a) >= 4 or topo.degree(b) >= 4:
            continue
        topo.add_link(a, b)
    topo.validate()
    return topo


traffic = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9),
              st.sampled_from([PacketType.READ, PacketType.DATA_REPLY,
                               PacketType.INVAL_ACK])),
    min_size=1, max_size=60,
)


class TestDeliveryProperties:
    @settings(max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 1000), traffic)
    def test_every_packet_delivered_exactly_once(self, seed, flows):
        topo = random_topology(seed, 10)
        sim = Simulator()
        routers = build_routers(sim, topo, iq_capacity=256, oq_capacity=128)
        received = {n: [] for n in topo.nodes}
        for n in topo.nodes:
            routers[n].iq.set_default_disposition(
                lambda p, n=n: received[n].append(p) or True)
        expected = {n: 0 for n in topo.nodes}
        for src, dst, ptype in flows:
            pkt = Packet(ptype, src=src, dst=dst)
            assert routers[src].inject(pkt)
            expected[dst] += 1
        sim.run()
        for node in topo.nodes:
            assert len(received[node]) == expected[node]

    @settings(max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 500))
    def test_latency_lower_bounded_by_distance(self, seed):
        """No packet arrives faster than its minimal hop count allows."""
        topo = random_topology(seed, 8)
        sim = Simulator()
        routers = build_routers(sim, topo)
        arrivals = {}
        for n in topo.nodes:
            routers[n].iq.set_default_disposition(
                lambda p, n=n: arrivals.__setitem__((p.src, n), sim.now)
                or True)
        for dst in range(1, 8):
            routers[0].inject(Packet(PacketType.READ, src=0, dst=dst))
        sim.run()
        for (src, dst), t in arrivals.items():
            hops = topo.distance(src, dst)
            # per hop: >= 2ns fall-through + 4ns serialisation + 2ns wire
            assert t >= hops * 8000
