"""Unit tests for interconnect topologies (§2.6)."""

import pytest

from repro.interconnect import (
    Topology,
    TopologyError,
    attach_io_nodes,
    fully_connected,
    line,
    mesh2d,
    ring,
)


class TestChannelBudget:
    def test_processing_node_limited_to_four_channels(self):
        topo = Topology()
        for n in range(6):
            topo.add_node(n)
        for n in range(1, 5):
            topo.add_link(0, n)
        with pytest.raises(TopologyError):
            topo.add_link(0, 5)

    def test_io_node_limited_to_two_channels(self):
        topo = Topology()
        topo.add_node(0, "io")
        for n in (1, 2, 3):
            topo.add_node(n)
        topo.add_link(0, 1)
        topo.add_link(0, 2)
        with pytest.raises(TopologyError):
            topo.add_link(0, 3)

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_node(0)
        with pytest.raises(TopologyError):
            topo.add_link(0, 0)

    def test_1024_node_limit(self):
        topo = Topology()
        for n in range(1024):
            topo.add_node(n)
        with pytest.raises(TopologyError):
            topo.add_node(1024)


class TestFactories:
    def test_ring(self):
        topo = ring(8)
        assert len(topo.nodes) == 8
        assert topo.distance(0, 4) == 4
        assert topo.distance(0, 7) == 1

    def test_mesh(self):
        topo = mesh2d(4, 4)
        assert topo.distance(0, 15) == 6
        topo.validate()

    def test_fully_connected_max_five(self):
        topo = fully_connected(5)
        assert all(topo.distance(a, b) == 1
                   for a in range(5) for b in range(5) if a != b)
        with pytest.raises(TopologyError):
            fully_connected(6)

    def test_line(self):
        topo = line(4)
        assert topo.distance(0, 3) == 3

    def test_ring_with_io(self):
        topo = ring(4, io_nodes=[2])
        assert topo.kind(2) == "io"


class TestRouting:
    def test_minimal_next_hops_ring(self):
        topo = ring(6)
        # from 0 to 3 both directions are minimal
        assert set(topo.minimal_next_hops(0, 3)) == {1, 5}
        # from 0 to 2, only via 1
        assert set(topo.minimal_next_hops(0, 2)) == {1}

    def test_tables_invalidate_on_reconfiguration(self):
        topo = ring(6)
        assert topo.distance(0, 3) == 3
        topo.remove_link(0, 1)
        assert topo.distance(0, 1) == 5  # must go the long way now

    def test_disconnecting_removal_refused_and_undone(self):
        topo = line(3)
        before = {(a, b): (topo.distance(a, b), topo.minimal_next_hops(a, b))
                  for a in topo.nodes for b in topo.nodes if a != b}
        with pytest.raises(TopologyError, match="disconnect"):
            topo.remove_link(0, 1)
        assert topo.has_link(0, 1) and topo.neighbors(1) == [0, 2]
        assert topo.is_connected()
        assert {(a, b): (topo.distance(a, b), topo.minimal_next_hops(a, b))
                for a in topo.nodes for b in topo.nodes if a != b} == before

    def test_remove_missing_link(self):
        topo = ring(4)
        with pytest.raises(TopologyError):
            topo.remove_link(0, 2)

    def test_validate_disconnected(self):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        with pytest.raises(TopologyError):
            topo.validate()


class TestAttachIoNodes:
    def test_io_nodes_dual_homed(self):
        topo = ring(4)
        added = attach_io_nodes(topo, 2)
        for node in added:
            assert topo.kind(node) == "io"
            assert len(topo.neighbors(node)) == 2  # redundancy (§2.6.1)
        topo.validate()
