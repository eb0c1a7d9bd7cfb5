"""Unit tests for the DC-balanced 19-in-22 channel encoding (§2.6.1)."""

import pytest

from repro.interconnect import (
    CODED_BITS,
    WORD_BITS,
    WORD_WEIGHT,
    EncodingError,
    codebook_capacity,
    decode,
    encode,
    is_balanced,
    popcount,
)


class TestBalance:
    def test_every_codeword_has_11_of_22_wires_high(self):
        for value in (0, 1, 1000, 99999, (1 << 18) - 1):
            for rnd in (0, 1):
                word = encode(value, rnd)
                assert popcount(word) == WORD_WEIGHT
                assert word < (1 << WORD_BITS)

    def test_is_balanced(self):
        assert is_balanced(0b1111111111100000000000)
        assert not is_balanced(0b1111111111110000000000)
        assert not is_balanced((1 << 22) | 0b11111111111)


class TestRoundTrip:
    @pytest.mark.parametrize("value", [0, 1, 2, 255, 65535, 262143, 131072])
    @pytest.mark.parametrize("rnd", [0, 1])
    def test_roundtrip(self, value, rnd):
        assert decode(encode(value, rnd)) == (value, rnd)

    def test_capacity_covers_18_bits(self):
        assert codebook_capacity() >= 1 << CODED_BITS

    def test_payload_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(1 << 18)

    def test_bad_random_bit(self):
        with pytest.raises(EncodingError):
            encode(0, 2)


class TestInversionInsensitivity:
    """The random 19th bit is encoded by inverting all 22 wires; no two
    codewords may be complementary, so decoding stays unambiguous."""

    def test_inversion_is_random_bit(self):
        word = encode(12345, 0)
        inverted = word ^ ((1 << 22) - 1)
        assert decode(inverted) == (12345, 1)

    def test_base_codewords_never_complementary(self):
        # base codewords have LSB 0; their complements have LSB 1
        for value in (0, 7, 500, 262143):
            word = encode(value, 0)
            assert word & 1 == 0
            assert (word ^ ((1 << 22) - 1)) & 1 == 1


class TestErrorDetection:
    def test_single_wire_flip_breaks_balance(self):
        word = encode(777, 0)
        for wire in range(22):
            with pytest.raises(EncodingError):
                decode(word ^ (1 << wire))

    def test_unbalanced_word_rejected(self):
        with pytest.raises(EncodingError):
            decode(0)

