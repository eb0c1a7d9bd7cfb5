"""Unit tests for the duplicate L1 tags and ownership (§2.3)."""

import pickle

import pytest

from repro.core import MESI, PIRANHA_P8
from repro.core.dup_tags import L2_OWNER, DuplicateTags, duplicate_tag_overhead


@pytest.fixture
def dup():
    return DuplicateTags(bank=0)


LINE = 0x1000


class TestSharerTracking:
    def test_add_and_query(self, dup):
        dup.add_sharer(LINE, 0, MESI.SHARED, make_owner=True)
        dup.add_sharer(LINE, 2, MESI.SHARED, make_owner=False)
        assert dup.sharers(LINE) == {0, 2}
        assert dup.owner(LINE) == 0

    def test_unknown_line(self, dup):
        assert dup.sharers(LINE) == set()
        assert dup.owner(LINE) is None

    def test_remove_sharer(self, dup):
        dup.add_sharer(LINE, 0, MESI.SHARED, make_owner=True)
        dup.add_sharer(LINE, 1, MESI.SHARED, make_owner=False)
        dup.remove_sharer(LINE, 1)
        assert dup.sharers(LINE) == {0}

    def test_entry_garbage_collected(self, dup):
        dup.add_sharer(LINE, 0, MESI.SHARED, make_owner=True)
        dup.remove_sharer(LINE, 0)
        assert dup.entry(LINE) is None


class TestOwnership:
    def test_owner_moves_to_last_requester(self, dup):
        dup.add_sharer(LINE, 0, MESI.SHARED, make_owner=True)
        dup.add_sharer(LINE, 1, MESI.SHARED, make_owner=True)
        assert dup.owner(LINE) == 1

    def test_l2_owner(self, dup):
        dup.add_sharer(LINE, 0, MESI.SHARED, make_owner=False)
        dup.set_l2_owner(LINE)
        assert dup.owner(LINE) == L2_OWNER
        assert dup.l1_owner(LINE) is None

    def test_l1_owner_excludes_l2(self, dup):
        dup.add_sharer(LINE, 3, MESI.EXCLUSIVE, make_owner=True)
        assert dup.l1_owner(LINE) == 3

    def test_owner_cleared_on_removal(self, dup):
        dup.add_sharer(LINE, 0, MESI.SHARED, make_owner=True)
        dup.add_sharer(LINE, 1, MESI.SHARED, make_owner=False)
        # make 0 the owner again, then remove it
        e = dup.entry(LINE)
        e.owner = 0
        dup.remove_sharer(LINE, 0)
        assert dup.owner(LINE) is None
        assert dup.promote_any_owner(LINE) == 1


class TestStateMirror:
    def test_set_state(self, dup):
        dup.add_sharer(LINE, 0, MESI.EXCLUSIVE, make_owner=True)
        dup.set_state(LINE, 0, MESI.SHARED)
        assert dup.entry(LINE).sharers[0] == MESI.SHARED

    def test_entry_pickle_round_trip(self, dup):
        # one sharer map and an owner are the whole entry (checkpoints
        # pickle the duplicate tags with the machine)
        dup.add_sharer(LINE, 3, MESI.SHARED, make_owner=True)
        dup.add_sharer(LINE, 0, MESI.EXCLUSIVE, make_owner=False)
        copy = pickle.loads(pickle.dumps(dup.entry(LINE)))
        assert copy.sharers == {3: MESI.SHARED, 0: MESI.EXCLUSIVE}
        assert list(copy.sharers) == [3, 0]
        assert copy.owner == 3
        assert not hasattr(copy, "__dict__")

    def test_drop_line(self, dup):
        dup.add_sharer(LINE, 0, MESI.SHARED, make_owner=True)
        dup.drop_line(LINE)
        assert dup.entry(LINE) is None


class TestOverheadClaim:
    def test_duplicate_tags_under_one_thirty_second(self):
        """§2.3: total duplicate L1 tag/state overhead is less than 1/32 of
        the total on-chip memory."""
        assert duplicate_tag_overhead(PIRANHA_P8) < 1 / 32
