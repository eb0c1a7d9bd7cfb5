"""Unit tests for the home/remote protocol microprograms (§2.5.1/2.5.3)."""

import pytest

from repro.core.microcode import MICROSTORE_WORDS, Op
from repro.core.microprograms import (
    HOME_ENTRY,
    LOCAL_MSG,
    REMOTE_ENTRY,
    build_home_program,
    build_remote_program,
)
from repro.interconnect.packets import PacketType


@pytest.fixture(scope="module")
def remote():
    return build_remote_program()


@pytest.fixture(scope="module")
def home():
    return build_home_program()


class TestAssembly:
    def test_both_fit_the_microstore(self, remote, home):
        assert remote.words_used < MICROSTORE_WORDS
        assert home.words_used < MICROSTORE_WORDS

    def test_instruction_scale_matches_paper(self, remote, home):
        """The paper's protocol uses about 500 microinstructions per
        engine; ours is the same order of magnitude."""
        assert 50 <= remote.words_used <= 600
        assert 100 <= home.words_used <= 600

    def test_every_entry_point_resolves(self, remote, home):
        for (kind, code), label in REMOTE_ENTRY.items():
            assert label in remote.entry_points
        for (kind, code), label in HOME_ENTRY.items():
            assert label in home.entry_points


class TestRemoteReadIsFourInstructions:
    """§2.5.1: 'a typical read transaction to a remote home involves a
    total of four instructions at the remote engine of the requesting
    node: a SEND, a RECEIVE, a TEST, and an LSEND'."""

    def test_re_read_shape(self, remote):
        pc = remote.entry_points["re_read"]
        ops = []
        # SEND
        word = remote.store[pc]
        ops.append(word.op)
        # RECEIVE (fall-through)
        word = remote.store[word.next_addr]
        ops.append(word.op)
        assert ops == [Op.SEND, Op.RECEIVE]
        # after dispatch: TEST then LSEND
        test_word = remote.store[remote.entry_points["re_read_test"]]
        assert test_word.op == Op.TEST
        fill_s = remote.store[remote.entry_points["re_read_ls_s"]]
        fill_e = remote.store[remote.entry_points["re_read_ls_e"]]
        assert fill_s.op == Op.LSEND and fill_e.op == Op.LSEND


class TestDispatchTables:
    def test_remote_handles_all_forwarded_types(self):
        ext_codes = {code for kind, code in REMOTE_ENTRY if kind == "ext"}
        assert int(PacketType.FWD_READ) in ext_codes
        assert int(PacketType.FWD_READ_EXCLUSIVE) in ext_codes
        assert int(PacketType.INVALIDATE) in ext_codes
        assert int(PacketType.CMI_INVALIDATE) in ext_codes

    def test_home_handles_all_request_types(self):
        ext_codes = {code for kind, code in HOME_ENTRY if kind == "ext"}
        for ptype in (PacketType.READ, PacketType.READ_EXCLUSIVE,
                      PacketType.EXCLUSIVE, PacketType.EXCLUSIVE_NO_DATA,
                      PacketType.WRITEBACK):
            assert int(ptype) in ext_codes

    def test_local_message_codes_fit_4_bits(self):
        assert all(0 <= code < 16 for code in LOCAL_MSG.values())
        assert len(set(LOCAL_MSG.values())) == len(LOCAL_MSG)


class TestNoNakProperty:
    """The microcode contains no NAK/retry sends at all — the protocol's
    headline property."""

    def test_no_nak_message_symbols(self, remote, home):
        for program in (remote, home):
            assert not any("nak" in name.lower() for name in program.messages)
            assert not any("retry" in name.lower() for name in program.messages)


class TestThreeHopNoConfirmation:
    """he_read_dirty forwards to the owner and terminates after writing the
    directory — no 'ownership change' confirmation is ever awaited."""

    def test_dirty_path_has_no_receive(self, home):
        pc = home.entry_points["he_read_dirty"]
        seen_ops = []
        for _ in range(10):
            word = home.store[pc]
            seen_ops.append(word.op)
            if word.next_addr == MICROSTORE_WORDS - 1:  # END
                break
            pc = word.next_addr
        assert Op.RECEIVE not in seen_ops
        assert Op.SEND in seen_ops       # the forward
        assert Op.LSEND in seen_ops      # the directory write
