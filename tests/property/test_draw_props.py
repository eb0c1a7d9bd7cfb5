"""The workload generator's written-out draw helpers match the stdlib.

``repro.workloads.base.randbelow`` and ``shuffle`` restate CPython's
``Random.randrange``/``Random.shuffle`` (both through
``_randbelow_with_getrandbits``) on top of ``getrandbits``.  If a Python
release changes how the stdlib draws, these properties fail instead of
every workload stream silently diverging from its recorded digests.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import randbelow, shuffle

seeds = st.integers(min_value=0, max_value=2**64 - 1)


class TestDrawHelpers:
    @settings(max_examples=200)
    @given(seeds, st.lists(st.integers(min_value=1, max_value=2**20),
                           min_size=1, max_size=50))
    def test_randbelow_is_randrange(self, seed, bounds):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for n in bounds:
            assert randbelow(ours.getrandbits, n) == stdlib.randrange(n)
        assert ours.getstate() == stdlib.getstate()

    @settings(max_examples=200)
    @given(seeds, st.integers(min_value=0, max_value=2**20),
           st.integers(min_value=1, max_value=2**20))
    def test_offset_randbelow_is_two_argument_randrange(self, seed, lo,
                                                        width):
        ours, stdlib = random.Random(seed), random.Random(seed)
        assert (lo + randbelow(ours.getrandbits, width)
                == stdlib.randrange(lo, lo + width))
        assert ours.getstate() == stdlib.getstate()

    @settings(max_examples=200)
    @given(seeds, st.integers(min_value=0, max_value=200))
    def test_shuffle_is_stdlib_shuffle(self, seed, length):
        ours, stdlib = random.Random(seed), random.Random(seed)
        mine, theirs = list(range(length)), list(range(length))
        shuffle(ours.getrandbits, mine)
        stdlib.shuffle(theirs)
        assert mine == theirs
        assert ours.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_range_refused(self, n):
        with pytest.raises(ValueError):
            randbelow(random.Random(0).getrandbits, n)
        with pytest.raises(ValueError):
            random.Random(0).randrange(n)
