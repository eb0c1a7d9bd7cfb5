"""System Control (SC) module — Sections 2 and 2.6.

The SC handles miscellaneous maintenance functions: system configuration,
initialisation, interrupt distribution, exception handling and performance
monitoring.  After reset the router forwards *all* packets to the SC, which
interprets control packets, programs control registers (including the
routing table), and can start or stop individual Alpha cores; nodes can
also boot the traditional Alpha way from a serial EPROM.
"""

from __future__ import annotations

from typing import Dict, List

from ..interconnect.packets import Packet, PacketType
from ..sim.engine import Component, Simulator

#: Well-known control-register addresses.
REG_NODE_ID = 0x00
REG_NUM_NODES = 0x01
REG_ROUTING_BASE = 0x10     # routing-table entries live above this
REG_CPU_ENABLE = 0x02       # bitmask of running CPUs
REG_INTERRUPT_PENDING = 0x03


class SystemControl(Component):
    """Control registers + interrupt distribution for one node."""

    def __init__(self, sim: Simulator, name: str, chip) -> None:
        super().__init__(sim, name)
        self.chip = chip
        self.registers: Dict[int, int] = {
            REG_NODE_ID: chip.node_id,
            REG_CPU_ENABLE: (1 << chip.config.cpus) - 1,
            REG_INTERRUPT_PENDING: 0,
        }
        self.interrupts: List[Packet] = []
        self.initialized = False
        self.c_control = self.stats.counter("control_packets")
        self.c_interrupts = self.stats.counter("interrupts")

    # -- register file -----------------------------------------------------

    def read_register(self, reg: int) -> int:
        return self.registers.get(reg, 0)

    def write_register(self, reg: int, value: int) -> None:
        self.registers[reg] = value
        if reg == REG_CPU_ENABLE:
            self._apply_cpu_enable(value)

    def _apply_cpu_enable(self, mask: int) -> None:
        """Start/stop individual Alpha cores (initialisation capability)."""
        for i, _cpu in enumerate(self.chip.cpus):
            enabled = bool(mask & (1 << i))
            self.registers[REG_CPU_ENABLE] = mask
            # Stopping a running workload core is a test/bring-up facility;
            # the core simply stops being scheduled (we flag it).
            _cpu.stats.counter("enabled").value = int(enabled)

    # -- packet interface ----------------------------------------------------

    def deliver(self, pkt: Packet) -> bool:
        """Disposition-vector target for CONTROL and INTERRUPT packets."""
        if pkt.ptype == PacketType.INTERRUPT:
            self.c_interrupts.inc()
            self.interrupts.append(pkt)
            self.registers[REG_INTERRUPT_PENDING] |= 1 << (pkt.info.get("vector", 0) & 31)
            return True
        self.c_control.inc()
        op = pkt.info.get("op")
        if op == "write_reg":
            self.write_register(pkt.info["reg"], pkt.info["value"])
        elif op == "read_reg":
            # reply travels back as another CONTROL packet
            reply = Packet(
                ptype=PacketType.CONTROL, src=self.chip.node_id, dst=pkt.src,
                addr=pkt.addr,
                info={"op": "reg_value", "reg": pkt.info["reg"],
                      "value": self.read_register(pkt.info["reg"])},
            )
            self.chip.send_packet(reply)
        elif op == "init":
            self.initialized = True
            self.registers[REG_NUM_NODES] = pkt.info.get("num_nodes", 1)
        return True

    # -- interrupt distribution ----------------------------------------------

    def raise_interrupt(self, target_node: int, vector: int) -> None:
        """Send an inter-node interrupt via the interconnect (I/O lane)."""
        pkt = Packet(
            ptype=PacketType.INTERRUPT, src=self.chip.node_id,
            dst=target_node, info={"vector": vector},
        )
        if target_node == self.chip.node_id:
            self.deliver(pkt)
        else:
            self.chip.send_packet(pkt)
