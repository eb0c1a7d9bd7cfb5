"""DC-balanced channel encoding (Section 2.6.1).

Piranha's inter-chip channels are 22 wires per direction.  The signalling
scheme encodes 19 bits into a 22-bit **DC-balanced** word: exactly 11 of the
22 wires carry '1' while the other 11 carry '0', so the net current flow
along a channel is zero and a reference voltage for differential receivers
can be generated at the termination.

16 data bits plus 2 CRC/flow-control bits (18 bits total) are mapped onto
balanced codewords chosen so that **no two codewords are complementary**.
The 19th bit — generated randomly by the hardware to DC-balance each wire
statistically in the time domain — is encoded by *inverting all 22 bits*.
The resulting code is inversion-insensitive, which is what lets Piranha
links run over fibre ribbons or transformer coupling.

We realise the codebook combinatorially rather than with a lookup table:
the set of weight-11 22-bit words whose least-significant bit is 0 contains
exactly one member of every complementary pair, and there are
C(21, 11) = 352,716 of them — comfortably more than the 2^18 = 262,144
codewords needed.  Codewords are (un)ranked in lexicographic order with
binomial-coefficient arithmetic.
"""

from __future__ import annotations

from math import comb

#: Total wires per channel direction.
WORD_BITS = 22
#: Wires that must be '1' in every codeword.
WORD_WEIGHT = 11
#: Payload bits carried per codeword (16 data + 2 CRC/flow control + 1 random).
PAYLOAD_BITS = 19
#: Bits covered by the complementary-free codebook.
CODED_BITS = 18

_CODEBOOK_SIZE = comb(WORD_BITS - 1, WORD_WEIGHT)  # LSB fixed at 0


class EncodingError(ValueError):
    """Raised when a word fails validation during encode/decode."""


def popcount(word: int) -> int:
    """Number of set bits in *word*."""
    return bin(word).count("1")


def is_balanced(word: int) -> bool:
    """True when *word* is a legal 22-bit DC-balanced channel word."""
    return 0 <= word < (1 << WORD_BITS) and popcount(word) == WORD_WEIGHT


def _unrank_constant_weight(rank: int, bits: int, weight: int) -> int:
    """Return the *rank*-th (0-based, lexicographic by bitstring value)
    *bits*-bit word with exactly *weight* set bits."""
    if not 0 <= rank < comb(bits, weight):
        raise EncodingError(f"rank {rank} out of range for C({bits},{weight})")
    word = 0
    remaining_weight = weight
    for position in range(bits - 1, -1, -1):
        if remaining_weight == 0:
            break
        # Words with this bit clear: choose all `remaining_weight` ones from
        # the lower `position` bits.
        with_bit_clear = comb(position, remaining_weight)
        if rank >= with_bit_clear:
            word |= 1 << position
            rank -= with_bit_clear
            remaining_weight -= 1
    return word


def _rank_constant_weight(word: int, bits: int, weight: int) -> int:
    """Inverse of :func:`_unrank_constant_weight`."""
    if popcount(word) != weight:
        raise EncodingError(f"word {word:#x} does not have weight {weight}")
    rank = 0
    remaining_weight = weight
    for position in range(bits - 1, -1, -1):
        if remaining_weight == 0:
            break
        if word & (1 << position):
            rank += comb(position, remaining_weight)
            remaining_weight -= 1
    return rank


def encode(data18: int, random_bit: int = 0) -> int:
    """Encode 18 payload bits (+ the random 19th bit) into a balanced word.

    ``data18`` packs 16 data bits and 2 CRC/flow-control bits.  When
    ``random_bit`` is 1 the entire codeword is inverted — by construction
    the inverted word is never itself a base codeword, so the receiver can
    recover the bit unambiguously.
    """
    if not 0 <= data18 < (1 << CODED_BITS):
        raise EncodingError(f"payload {data18:#x} exceeds {CODED_BITS} bits")
    if random_bit not in (0, 1):
        raise EncodingError(f"random bit must be 0 or 1, got {random_bit}")
    # Bits 1..21 hold a weight-11 pattern; bit 0 stays 0.  Unranking over
    # 21 positions then shifting left by one keeps the LSB clear.
    word = _unrank_constant_weight(data18, WORD_BITS - 1, WORD_WEIGHT) << 1
    if random_bit:
        word ^= (1 << WORD_BITS) - 1
    return word


def decode(word: int) -> tuple:
    """Decode a 22-bit channel word; returns ``(data18, random_bit)``.

    Raises :class:`EncodingError` for words that are not DC balanced or do
    not belong to the codebook.
    """
    if not is_balanced(word):
        raise EncodingError(f"word {word:#x} is not DC balanced")
    random_bit = word & 1
    if random_bit:
        word ^= (1 << WORD_BITS) - 1
    data18 = _rank_constant_weight(word >> 1, WORD_BITS - 1, WORD_WEIGHT)
    if data18 >= (1 << CODED_BITS):
        raise EncodingError(f"word {word:#x} is outside the codebook")
    return data18, random_bit


def codebook_capacity() -> int:
    """Number of available non-complementary balanced codewords."""
    return _CODEBOOK_SIZE
