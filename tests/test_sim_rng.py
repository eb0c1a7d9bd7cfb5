"""Unit tests for deterministic RNG substreams."""

import pickle
from concurrent.futures import ProcessPoolExecutor

from repro.sim import derive_seed, substream


class TestSubstream:
    def test_reproducible(self):
        a = substream(42, "oltp", 0, 1)
        b = substream(42, "oltp", 0, 1)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_distinct_tags_distinct_streams(self):
        a = substream(42, "oltp", 0, 1)
        b = substream(42, "oltp", 0, 2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_distinct_seeds_distinct_streams(self):
        a = substream(1, "x")
        b = substream(2, "x")
        assert a.random() != b.random()

    def test_tag_order_matters(self):
        a = substream(42, "a", "b")
        b = substream(42, "b", "a")
        assert a.random() != b.random()


def _draw_ten(rng):
    """Top-level so it crosses the ProcessPool pickle boundary."""
    return [rng.random() for _ in range(10)]


class TestStateRoundTrip:
    def test_pickle_round_trip_identical_draws(self):
        rng = substream(42, "net", 1)
        _ = [rng.random() for _ in range(33)]
        clone = pickle.loads(pickle.dumps(rng))
        assert [clone.random() for _ in range(20)] == \
            [rng.random() for _ in range(20)]

    def test_substream_crosses_process_pool(self):
        """A mid-stream RNG shipped to a worker process draws the same
        sequence there as it would have locally (the parallel-harness
        warm path pickles live workloads across this boundary)."""
        rng = substream(42, "workload", 5)
        _ = [rng.random() for _ in range(17)]
        local = rng.getstate()
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_draw_ten, rng).result()
        restored = substream(0, 0)
        restored.setstate(local)
        assert remote == [restored.random() for _ in range(10)]


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, "net") == derive_seed(7, "net")

    def test_positive_63_bit(self):
        for tag in range(50):
            seed = derive_seed(123, tag)
            assert 0 <= seed < 2**63

    def test_distinct(self):
        seeds = {derive_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
