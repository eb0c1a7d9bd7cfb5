"""Unit tests for the in-ECC directory (§2.5.2)."""

import pickle

import pytest

from repro.core.directory import (
    DIRECTORY_BITS,
    MAX_POINTERS,
    DirectoryEntry,
    DirectoryStore,
    DirState,
    add_sharer,
    coarse_group,
    coarse_members,
    decode,
    ecc_accounting,
    encode,
    make_exclusive,
    remove_sharer,
    share_with_owner,
)

N = 1024  # node count used throughout (the paper's 1K-node scale)

UNCACHED = DirectoryEntry.uncached()


def shared(*nodes):
    return DirectoryEntry(DirState.SHARED, frozenset(nodes), None)


def coarse(*nodes):
    return DirectoryEntry(DirState.SHARED_COARSE, frozenset(nodes), None)


class TestEccAccounting:
    def test_44_bits_freed_per_line(self):
        """ECC at 256-bit instead of 64-bit granularity frees 44 bits per
        64-byte line: 8x8 - 2x10."""
        acc = ecc_accounting()
        assert acc["ecc_bits_64b_granularity"] == 64
        assert acc["ecc_bits_256b_granularity"] == 20
        assert acc["freed_bits_per_line"] == 44
        assert DIRECTORY_BITS == 44


class TestLimitedPointer:
    def test_roundtrip_up_to_four_sharers(self):
        for count in range(1, MAX_POINTERS + 1):
            sharers = frozenset(range(100, 100 + count))
            entry = DirectoryEntry(DirState.SHARED, sharers, None)
            out = decode(encode(entry, N), N)
            assert out.state == DirState.SHARED
            assert out.sharers == sharers

    def test_switch_at_four_remote_sharers(self):
        """§2.5.2: past 4 remote sharing nodes, switch to coarse vector."""
        entry = DirectoryEntry.uncached()
        for node in range(MAX_POINTERS):
            entry = add_sharer(entry, node * 10, N)
            assert entry.state == DirState.SHARED
        entry = add_sharer(entry, 999, N)
        assert entry.state == DirState.SHARED_COARSE

    def test_pointer_overflow_rejected(self):
        entry = DirectoryEntry(DirState.SHARED, frozenset(range(5)), None)
        with pytest.raises(ValueError):
            encode(entry, N)

    def test_node_zero_representable(self):
        entry = DirectoryEntry(DirState.SHARED, frozenset({0}), None)
        assert decode(encode(entry, N), N).sharers == frozenset({0})


class TestCoarseVector:
    def test_decode_is_superset(self):
        """Coarse vectors over-approximate: decoding yields every node the
        set bits cover (real coarse vectors over-invalidate)."""
        sharers = frozenset({0, 100, 500, 900, 1023})
        entry = DirectoryEntry(DirState.SHARED_COARSE, sharers, None)
        out = decode(encode(entry, N), N)
        assert out.sharers >= sharers
        # covered nodes share coarse groups with true sharers
        groups = {coarse_group(s, N) for s in sharers}
        assert all(coarse_group(s, N) in groups for s in out.sharers)

    def test_groups_partition_nodes(self):
        seen = set()
        for bit in range(42):
            members = coarse_members(bit, N)
            assert not (seen & set(members))
            seen.update(members)
        assert seen == set(range(N))


class TestExclusive:
    def test_roundtrip(self):
        entry = make_exclusive(777)
        out = decode(encode(entry, N), N)
        assert out.state == DirState.EXCLUSIVE
        assert out.owner == 777

    def test_owner_required(self):
        entry = DirectoryEntry(DirState.EXCLUSIVE, frozenset({1}), None)
        with pytest.raises(ValueError):
            encode(entry, N)


class TestUncached:
    def test_roundtrip(self):
        out = decode(encode(DirectoryEntry.uncached(), N), N)
        assert out.state == DirState.UNCACHED
        assert out.sharers == frozenset()


class TestBitBudget:
    def test_encoding_fits_44_bits(self):
        entries = [
            DirectoryEntry.uncached(),
            make_exclusive(1023),
            DirectoryEntry(DirState.SHARED, frozenset({0, 511, 1023}), None),
            DirectoryEntry(DirState.SHARED_COARSE,
                           frozenset(range(0, 1024, 7)), None),
        ]
        for entry in entries:
            assert 0 <= encode(entry, N) < (1 << DIRECTORY_BITS)


class TestDirectoryStore:
    def test_default_uncached(self):
        store = DirectoryStore(0, N)
        assert store.read(0x1000).state == DirState.UNCACHED

    def test_write_read(self):
        store = DirectoryStore(0, N)
        store.write(0x1000, make_exclusive(5))
        assert store.read(0x1000).owner == 5
        assert store.reads == 1 and store.writes == 1

    def test_uncached_write_clears(self):
        store = DirectoryStore(0, N)
        store.write(0x1000, make_exclusive(5))
        store.write(0x1000, DirectoryEntry.uncached())
        assert store.read(0x1000).state == DirState.UNCACHED

    def test_representation_limits_enforced(self):
        """The store round-trips through the 44-bit codec, so a too-wide
        limited-pointer entry is rejected exactly as hardware would be
        unable to represent it."""
        store = DirectoryStore(0, N)
        with pytest.raises(ValueError):
            store.write(0x0, DirectoryEntry(DirState.SHARED,
                                            frozenset(range(6)), None))


class TestEntryValue:
    """``DirectoryEntry`` is an immutable value: the uncached entry is one
    shared constant, and entries survive a pickle round trip."""

    def test_uncached_is_one_shared_constant(self):
        store = DirectoryStore(0, N)
        assert DirectoryEntry.uncached() is DirectoryEntry.uncached()
        assert store.read(0x40) is DirectoryEntry.uncached()
        assert decode(encode(DirectoryEntry.uncached(), N), N) \
            is DirectoryEntry.uncached()

    def test_immutable(self):
        entry = DirectoryEntry.uncached()
        with pytest.raises(AttributeError):
            entry.owner = 3
        assert entry.owner is None

    @pytest.mark.parametrize("entry", [
        DirectoryEntry.uncached(),
        DirectoryEntry(DirState.SHARED, frozenset({1, 9}), None),
        DirectoryEntry(DirState.SHARED_COARSE, frozenset(range(6)), None),
        make_exclusive(5),
    ])
    def test_pickle_round_trip(self, entry):
        out = pickle.loads(pickle.dumps(entry))
        assert out == entry and type(out) is DirectoryEntry
        assert (out.state, out.sharers, out.owner) == (
            entry.state, entry.sharers, entry.owner)


class TestNextStateRules:
    """The directory next-state rules the protocol engines' handlers
    call, one table per rule.  Every result must also fit the 44-bit
    codec, since the home writes it straight back to the store."""

    @staticmethod
    def fits_codec(entry):
        out = decode(encode(entry, N), N)
        return out.state == entry.state and out.sharers >= entry.sharers

    @pytest.mark.parametrize("entry, node, expected", [
        (UNCACHED, 3, shared(3)),
        (shared(1, 2, 3), 4, shared(1, 2, 3, 4)),
        (shared(1, 2, 3, 4), 4, shared(1, 2, 3, 4)),          # no overflow
        (shared(1, 2, 3, 4), 5, coarse(1, 2, 3, 4, 5)),       # overflow
        (coarse(1, 2, 3, 4, 5), 6, coarse(1, 2, 3, 4, 5, 6)),
        (coarse(1, 2), 3, coarse(1, 2, 3)),                   # stays coarse
    ])
    def test_add_sharer(self, entry, node, expected):
        assert add_sharer(entry, node, N) == expected
        assert self.fits_codec(expected)

    @pytest.mark.parametrize("node, local, expected", [
        (3, False, DirectoryEntry(DirState.EXCLUSIVE, frozenset({3}), 3)),
        (0, True, UNCACHED),                # the home's own copy: untracked
    ])
    def test_make_exclusive(self, node, local, expected):
        assert make_exclusive(node, local) == expected
        assert self.fits_codec(expected)

    @pytest.mark.parametrize("owner, node, local, exclusive, expected", [
        (7, 3, False, False, shared(3, 7)),      # remote read: both share
        (7, 0, True, False, shared(7)),          # local read: owner only
        (7, 3, False, True, make_exclusive(3)),  # remote write: new owner
        (7, 0, True, True, UNCACHED),            # local write: untracked
    ])
    def test_share_with_owner(self, owner, node, local, exclusive,
                              expected):
        assert share_with_owner(owner, node, local, exclusive) == expected
        assert self.fits_codec(expected)

    @pytest.mark.parametrize("entry, node, expected", [
        (shared(3), 3, UNCACHED),
        (shared(3, 5), 3, shared(5)),
        (shared(3), 9, shared(3)),                         # not a sharer
        (UNCACHED, 3, UNCACHED),
        (coarse(1, 2, 3, 4, 5, 6), 6, coarse(1, 2, 3, 4, 5)),
        (coarse(1, 2, 3, 4, 5), 5, shared(1, 2, 3, 4)),    # back to pointers
        (make_exclusive(3), 3, UNCACHED),                  # owner writes back
    ])
    def test_remove_sharer(self, entry, node, expected):
        assert remove_sharer(entry, node) == expected
        assert self.fits_codec(expected)

    def test_late_write_back_leaves_the_new_owner(self):
        """The forward crossed the old owner's write-back in flight: the
        home already granted the line to node 8, so node 3's write-back
        changes nothing."""
        entry = make_exclusive(8)
        assert remove_sharer(entry, 3) is entry

    def test_fallback_bound_is_the_pointer_count(self):
        wide = coarse(*range(MAX_POINTERS + 2))
        once = remove_sharer(wide, 0)
        assert once.state == DirState.SHARED_COARSE
        assert len(once.sharers) == MAX_POINTERS + 1
        twice = remove_sharer(once, 1)
        assert twice.state == DirState.SHARED
        assert len(twice.sharers) == MAX_POINTERS
