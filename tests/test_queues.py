"""Unit tests for the input/output queues (§2.6.2)."""

import pytest

from repro.interconnect import InputQueue, OutputQueue, Packet, PacketType, PriorityFifos
from repro.sim import Simulator


def pkt(prio=1, ptype=PacketType.READ, dst=0):
    return Packet(ptype, src=0, dst=dst, priority=prio)


class TestPriorityFifos:
    def test_higher_priority_pops_first(self):
        q = PriorityFifos(8)
        q.push(pkt(0))
        q.push(pkt(3))
        q.push(pkt(1))
        assert q.pop_highest().priority == 3
        assert q.pop_highest().priority == 1
        assert q.pop_highest().priority == 0

    def test_fifo_within_priority(self):
        q = PriorityFifos(8)
        first, second = pkt(2), pkt(2)
        q.push(first)
        q.push(second)
        assert q.pop_highest() is first
        assert q.pop_highest() is second

    def test_capacity(self):
        q = PriorityFifos(2)
        assert q.push(pkt())
        assert q.push(pkt())
        assert not q.push(pkt())
        assert q.full

    def test_pop_first_with_predicate(self):
        q = PriorityFifos(8)
        high = pkt(3)
        low = pkt(0)
        q.push(high)
        q.push(low)
        got = q.pop_first(lambda p: p.priority < 2)
        assert got is low

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PriorityFifos(0)

    def test_length_tracks_push_and_pops(self):
        """The O(1) length agrees with the FIFOs through every operation."""
        q = PriorityFifos(3)

        def check(expected):
            assert len(q) == expected == sum(len(f) for f in q.fifos)
            assert q.full == (expected >= 3)

        check(0)
        assert q.push(pkt(0))
        assert q.push(pkt(2))
        check(2)
        assert q.push(pkt(1))
        check(3)
        assert not q.push(pkt(3))        # refused: length unchanged
        check(3)
        assert q.pop_highest().priority == 2
        check(2)
        assert q.pop_first(lambda p: p.priority == 9) is None
        check(2)
        assert q.pop_first(lambda p: p.priority == 0).priority == 0
        check(1)
        assert q.pop_highest().priority == 1
        check(0)
        assert q.pop_highest() is None
        assert q.pop_first(lambda p: True) is None
        check(0)


class TestOutputQueue:
    def test_offer_and_pop(self):
        sim = Simulator()
        oq = OutputQueue(sim, "oq", capacity=4)
        assert oq.offer(pkt(1))
        assert oq.offer(pkt(3))
        assert oq.pop().priority == 3

    def test_rejects_when_full(self):
        sim = Simulator()
        oq = OutputQueue(sim, "oq", capacity=1)
        assert oq.offer(pkt())
        assert not oq.offer(pkt())
        assert oq.c_rejected.value == 1

    def test_router_kick(self):
        sim = Simulator()
        oq = OutputQueue(sim, "oq")
        kicks = []
        oq.attach_router(lambda: kicks.append(1))
        oq.offer(pkt())
        assert kicks == [1]


class TestInputQueue:
    def test_disposition_vector_steers_by_type(self):
        sim = Simulator()
        iq = InputQueue(sim, "iq")
        got = {"read": [], "ctl": []}
        iq.set_disposition(PacketType.READ, lambda p: got["read"].append(p) or True)
        iq.set_disposition(PacketType.CONTROL, lambda p: got["ctl"].append(p) or True)
        iq.receive(pkt(ptype=PacketType.READ))
        iq.receive(pkt(ptype=PacketType.CONTROL))
        sim.run()
        assert len(got["read"]) == 1 and len(got["ctl"]) == 1

    def test_default_disposition_covers_all_types(self):
        """After reset everything is forwarded to the system controller."""
        sim = Simulator()
        iq = InputQueue(sim, "iq")
        got = []
        iq.set_default_disposition(lambda p: got.append(p) or True)
        for ptype in PacketType:
            iq.receive(pkt(ptype=ptype))
        sim.run()
        assert len(got) == len(PacketType)

    def test_low_priority_bypasses_blocked_high(self):
        """§2.6.2: low-priority traffic may bypass blocked high-priority
        traffic when its own destination can accept it."""
        sim = Simulator()
        iq = InputQueue(sim, "iq")
        delivered = []

        class BlockedHandler:
            def __call__(self, p):
                delivered.append(("high", p))
                return True

            def can_accept(self, p):
                return False  # high-priority destination is blocked

        iq.set_disposition(PacketType.DATA_REPLY, BlockedHandler())
        iq.set_disposition(PacketType.READ,
                           lambda p: delivered.append(("low", p)) or True)
        iq.receive(pkt(prio=3, ptype=PacketType.DATA_REPLY))
        iq.receive(pkt(prio=0, ptype=PacketType.READ))
        sim.run(until_ps=10_000)
        kinds = [k for k, _ in delivered]
        assert "low" in kinds          # the bypass happened
        assert "high" not in kinds     # still blocked
        assert iq.c_bypassed.value >= 1

    def test_full_iq_refuses(self):
        sim = Simulator()
        iq = InputQueue(sim, "iq", capacity=1)
        iq.set_default_disposition(lambda p: True)
        assert iq.receive(pkt())
        assert not iq.receive(pkt())
