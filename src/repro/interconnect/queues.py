"""Input and output queues between a node and its router (Section 2.6.2).

The **output queue (OQ)** decouples the router from the local node with a
small set of per-priority FIFOs.  The fall-through path costs a single
cycle when the router is ready; under load the router favours transit
traffic and drains the OQ only when it has free buffers and no incoming
packets.  Lower-priority packets can never block higher-priority traffic.

The **input queue (IQ)** is larger (fast removal of terminal packets keeps
the expensive router buffers free), also maintains four priority levels,
and — unlike the OQ — lets *low*-priority traffic bypass blocked
high-priority traffic when the former's destination module can accept it.
Arriving packets are steered by a **disposition vector** indexed by the
4-bit packet type.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from ..sim.engine import Component, Simulator
from .packets import Packet, PacketType

PRIORITIES = 4


class PriorityFifos:
    """Four per-priority FIFOs with a shared capacity limit.

    ``size`` counts the queued packets across all four FIFOs; push and
    the pops keep it current so length and fullness checks are O(1).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.fifos = [deque() for _ in range(PRIORITIES)]
        #: the same FIFOs, highest priority first (the scan order)
        self.high_first = self.fifos[::-1]
        self.size = 0

    def __len__(self) -> int:
        return self.size

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    def push(self, pkt: Packet) -> bool:
        """Append *pkt*; returns False when the queue is full."""
        if self.size >= self.capacity:
            return False
        self.fifos[pkt.priority].append(pkt)
        self.size += 1
        return True

    def peek_highest(self) -> Optional[Packet]:
        """Head packet of the highest non-empty priority level."""
        for fifo in self.high_first:
            if fifo:
                return fifo[0]
        return None

    def pop_highest(self) -> Optional[Packet]:
        for fifo in self.high_first:
            if fifo:
                self.size -= 1
                return fifo.popleft()
        return None

    def pop_first(self, predicate: Callable[[Packet], bool]) -> Optional[Packet]:
        """Pop the head of the highest priority level whose head packet
        satisfies *predicate* (used for the IQ bypass rule)."""
        for fifo in self.high_first:
            if fifo and predicate(fifo[0]):
                self.size -= 1
                return fifo.popleft()
        return None


class OutputQueue(Component):
    """OQ: buffers packets from the protocol engines / system controller
    until the router accepts them."""

    def __init__(self, sim: Simulator, name: str, capacity: int = 16) -> None:
        super().__init__(sim, name)
        self.queue = PriorityFifos(capacity)
        self._router_pull: Optional[Callable[[], None]] = None
        self.c_accepted = self.stats.counter("packets_accepted")
        self.c_rejected = self.stats.counter("packets_rejected")

    def attach_router(self, pull: Callable[[], None]) -> None:
        """Register the router's kick callback, invoked when work arrives."""
        self._router_pull = pull

    def offer(self, pkt: Packet) -> bool:
        """Packet switch pushes a packet into the OQ; False when full."""
        if not self.queue.push(pkt):
            self.c_rejected.inc()
            return False
        self.c_accepted.inc()
        if self._router_pull is not None:
            self._router_pull()
        return True

    def peek(self) -> Optional[Packet]:
        return self.queue.peek_highest()

    def pop(self) -> Optional[Packet]:
        return self.queue.pop_highest()

    def __len__(self) -> int:
        return len(self.queue)


class InputQueue(Component):
    """IQ: receives terminal packets from the router and delivers them to
    target modules through the disposition vector."""

    def __init__(self, sim: Simulator, name: str, capacity: int = 64) -> None:
        super().__init__(sim, name)
        self.queue = PriorityFifos(capacity)
        #: disposition vector: PacketType -> delivery callback
        self.disposition: Dict[PacketType, Callable[[Packet], bool]] = {}
        self.c_received = self.stats.counter("packets_received")
        self.c_delivered = self.stats.counter("packets_delivered")
        self.c_bypassed = self.stats.counter("low_priority_bypasses")
        self._drain_scheduled = False

    def set_disposition(self, ptype: PacketType, handler: Callable[[Packet], bool]) -> None:
        """Program one entry of the disposition vector.  The handler returns
        True when the module accepted the packet."""
        self.disposition[ptype] = handler

    def set_default_disposition(self, handler: Callable[[Packet], bool]) -> None:
        """Program every not-yet-set entry to *handler* (the system
        controller receives everything by default after reset)."""
        for ptype in PacketType:
            self.disposition.setdefault(ptype, handler)

    @property
    def full(self) -> bool:
        return self.queue.full

    def receive(self, pkt: Packet) -> bool:
        """Router hands over a terminal packet; False when the IQ is full."""
        if not self.queue.push(pkt):
            return False
        self.c_received.inc()
        self._schedule_drain()
        return True

    def _schedule_drain(self) -> None:
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.schedule(0, self._drain)

    def _drain(self) -> None:
        self._drain_scheduled = False
        queue = self.queue
        while queue.size:
            # Highest-priority head first; if its destination is blocked the
            # bypass rule lets a lower-priority head proceed instead.
            pkt = queue.pop_first(self._deliverable)
            if pkt is None:
                # Something is still blocked; retry after a cycle.
                self.schedule(2000, self._poll_blocked)
                return
            head = queue.peek_highest()
            if head is not None and head.priority > pkt.priority:
                self.c_bypassed.inc()
            # _deliverable resolved the handler, so the lookup cannot miss
            if not self.disposition[pkt.ptype](pkt):  # pragma: no cover
                raise RuntimeError(  # the handler lied in its probe
                    f"{self.name}: handler refused probed packet {pkt}")
            self.c_delivered.inc()

    def _poll_blocked(self) -> None:
        self._schedule_drain()

    def _handler_for(self, pkt: Packet) -> Callable[[Packet], bool]:
        handler = self.disposition.get(pkt.ptype)
        if handler is None:
            raise KeyError(
                f"{self.name}: no disposition entry for {pkt.ptype.name}"
            )
        return handler

    def _deliverable(self, pkt: Packet) -> bool:
        probe = getattr(self._handler_for(pkt), "can_accept", None)
        if probe is not None:
            return bool(probe(pkt))
        return True

    def __len__(self) -> int:
        return len(self.queue)
