"""Unit tests for interconnect packet formats (§2.6)."""

import pickle

import pytest

from repro.interconnect import DATA_BEARING, Lane, Packet, PacketType
from repro.interconnect.packets import DEFAULT_LANE


class TestWireSizes:
    def test_short_packet_is_128_bits(self):
        pkt = Packet(PacketType.READ, src=0, dst=1, addr=0x40)
        assert pkt.size_bits == 128
        assert pkt.wire_cycles == 2

    def test_long_packet_is_640_bits(self):
        pkt = Packet(PacketType.DATA_REPLY, src=0, dst=1, addr=0x40)
        assert pkt.size_bits == 128 + 512
        assert pkt.wire_cycles == 10

    def test_data_bearing_types(self):
        assert PacketType.WRITEBACK in DATA_BEARING
        assert PacketType.DATA_REPLY in DATA_BEARING
        assert PacketType.READ not in DATA_BEARING


class TestLaneAssignment:
    """Requests to home ride L; forwards/replies/writebacks ride H (§2.5.3)."""

    def test_home_requests_use_low_lane(self):
        for ptype in (PacketType.READ, PacketType.READ_EXCLUSIVE,
                      PacketType.EXCLUSIVE, PacketType.EXCLUSIVE_NO_DATA):
            assert Packet(ptype, 0, 1).lane == Lane.L

    def test_writeback_uses_high_lane(self):
        assert Packet(PacketType.WRITEBACK, 0, 1).lane == Lane.H

    def test_forwards_and_replies_use_high_lane(self):
        for ptype in (PacketType.FWD_READ, PacketType.INVALIDATE,
                      PacketType.DATA_REPLY, PacketType.INVAL_ACK):
            assert Packet(ptype, 0, 1).lane == Lane.H

    def test_io_lane(self):
        assert Packet(PacketType.INTERRUPT, 0, 1).lane == Lane.IO


class TestHeaderPacking:
    def test_bad_priority_rejected(self):
        with pytest.raises(ValueError):
            Packet(PacketType.READ, 0, 1, priority=4)


class TestClassification:
    def test_sixteen_major_types(self):
        assert len(PacketType) == 16


class TestPerTypeTables:
    """``Packet`` reads its lane and data flag from per-type tables; they
    must agree with ``DEFAULT_LANE`` and ``DATA_BEARING`` for every type."""

    @pytest.mark.parametrize("ptype", list(PacketType))
    def test_lane_data_and_wire_size(self, ptype):
        pkt = Packet(ptype, 0, 1)
        data = ptype in DATA_BEARING
        assert pkt.lane == DEFAULT_LANE[ptype]
        assert pkt.has_data is data
        assert pkt.size_bits == (640 if data else 128)
        assert pkt.wire_cycles == (10 if data else 2)

    def test_explicit_lane_and_data_win(self):
        pkt = Packet(PacketType.READ, 0, 1, lane=Lane.IO, has_data=True)
        assert pkt.lane == Lane.IO and pkt.has_data
        assert pkt.size_bits == 640

    @pytest.mark.parametrize("priority", [-1, 4])
    def test_out_of_range_priority_raises(self, priority):
        with pytest.raises(ValueError):
            Packet(PacketType.DATA_REPLY, 0, 1, priority=priority)

    def test_info_is_fresh_per_packet(self):
        a, b = Packet(PacketType.READ, 0, 1), Packet(PacketType.READ, 0, 1)
        a.info["x"] = 1
        assert b.info == {}

    def test_pickle_round_trip(self):
        pkt = Packet(PacketType.CMI_INVALIDATE, 3, 5, addr=0x4040,
                     txn_id=7, priority=2, age=1, route=(1, 2),
                     info={"chain": (6, 7)}, inject_time=1234)
        out = pickle.loads(pickle.dumps(pkt))
        assert ({name: getattr(out, name) for name in Packet.__slots__}
                == {name: getattr(pkt, name) for name in Packet.__slots__})
