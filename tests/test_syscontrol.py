"""Unit tests for the system controller (§2 / §2.6)."""

import pytest

from repro.core import PiranhaSystem, preset
from repro.core.syscontrol import (
    REG_CPU_ENABLE,
    REG_INTERRUPT_PENDING,
    REG_NODE_ID,
)
from repro.interconnect import Packet, PacketType


@pytest.fixture
def system():
    return PiranhaSystem(preset("P2"), num_nodes=2)


class TestRegisters:
    def test_node_id_register(self, system):
        assert system.nodes[0].syscontrol.read_register(REG_NODE_ID) == 0
        assert system.nodes[1].syscontrol.read_register(REG_NODE_ID) == 1

    def test_cpu_enable_default(self, system):
        sc = system.nodes[0].syscontrol
        assert sc.read_register(REG_CPU_ENABLE) == 0b11  # both CPUs

    def test_write_register(self, system):
        sc = system.nodes[0].syscontrol
        sc.write_register(0x42, 1234)
        assert sc.read_register(0x42) == 1234

    def test_unknown_register_reads_zero(self, system):
        assert system.nodes[0].syscontrol.read_register(0x99) == 0


class TestControlPackets:
    def test_remote_register_write(self, system):
        pkt = Packet(PacketType.CONTROL, src=1, dst=0,
                     info={"op": "write_reg", "reg": 0x50, "value": 7})
        system.nodes[0].deliver_packet(pkt)
        assert system.nodes[0].syscontrol.read_register(0x50) == 7

    def test_remote_register_read_replies(self, system):
        system.nodes[0].syscontrol.write_register(0x50, 99)
        pkt = Packet(PacketType.CONTROL, src=1, dst=0,
                     info={"op": "read_reg", "reg": 0x50})
        system.nodes[0].deliver_packet(pkt)
        system.sim.run()
        # the reply landed at node 1's system controller
        sc1 = system.nodes[1].syscontrol
        assert sc1.c_control.value == 1

    def test_init_packet(self, system):
        pkt = Packet(PacketType.CONTROL, src=0, dst=1,
                     info={"op": "init", "num_nodes": 2})
        system.nodes[1].deliver_packet(pkt)
        assert system.nodes[1].syscontrol.initialized


class TestInterrupts:
    def test_local_interrupt(self, system):
        sc = system.nodes[0].syscontrol
        sc.raise_interrupt(0, vector=5)
        assert sc.c_interrupts.value == 1
        assert sc.read_register(REG_INTERRUPT_PENDING) & (1 << 5)

    def test_cross_node_interrupt(self, system):
        system.nodes[0].syscontrol.raise_interrupt(1, vector=3)
        system.sim.run()
        sc1 = system.nodes[1].syscontrol
        assert sc1.c_interrupts.value == 1
        assert sc1.read_register(REG_INTERRUPT_PENDING) & (1 << 3)
