"""Tests for the parallel experiment harness and the result caches.

Covers the PR's acceptance criteria:

* a multi-point sweep run with ``jobs=4`` produces records identical to
  the serial sweep (determinism across the process-pool boundary),
* the disk cache serves repeat points bit-for-bit and invalidates when
  the configuration changes,
* the in-process memo is inspectable through ``memo_cache_info()`` and
  disableable via ``REPRO_NO_CACHE=1``, and never changes a result it
  has handed out,
* every workload names its own unit of work,
* ``replace_field`` rejects malformed / unknown field paths.
"""

import dataclasses
import os

import pytest

from repro.core import preset
from repro.fuzz.runner import FuzzFactory
from repro.fuzz.stimulus import generate, params_for
from repro.harness import (
    FACTORIES,
    DiskCache,
    DssFactory,
    Job,
    MigratoryFactory,
    OltpFactory,
    TpccFactory,
    WebFactory,
    clear_cache,
    memo_cache_info,
    resolve_jobs,
    run_jobs,
)
from repro.harness.cache import workload_token
from repro.harness.runner import DISK_CACHE, RunSpec, run_configured, simulate
from repro.harness.sweep import replace_field, sweep_field
from repro.isa.kernels import IsaKernelFactory, IsaKernelParams
from repro.workloads import MicroParams, OltpParams
from repro.workloads.dss import DssParams
from repro.workloads.web import WebParams

TINY_OLTP = OltpParams(transactions=6, warmup_transactions=8)
TINY_MICRO = MicroParams(iterations=120, warmup=30)
TINY_DSS = DssParams(rows=20, warmup_rows=5)

#: one small factory per FACTORIES entry, plus the fuzz workload; every
#: program runs on one P2 chip
TINY_FACTORIES = {
    "oltp": OltpFactory(TINY_OLTP),
    "dss": DssFactory(TINY_DSS),
    "tpcc": TpccFactory(TINY_OLTP),
    "web": WebFactory(WebParams(queries=10, warmup_queries=5)),
    "migratory": MigratoryFactory(TINY_MICRO),
    "isa": IsaKernelFactory(IsaKernelParams(kernel="spinlock", iterations=2)),
    "fuzz": FuzzFactory(generate(params_for(
        7, total_ops=200, nodes=1, config="P2",
        cpus_per_node=2)).canonical_json()),
}


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Every test gets an empty memo and a private disk-cache directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    clear_cache()
    yield
    clear_cache()


def micro_jobs(n=4):
    values = [(128 + 64 * i) << 10 for i in range(n)]
    base = preset("P2")
    return [
        Job(config=dataclasses.replace(
                replace_field(base, "l2.size_bytes", v),
                name=f"P2[l2={v}]"),
            factory=MigratoryFactory(TINY_MICRO))
        for v in values
    ]


class TestParallelEquivalence:
    def test_parallel_sweep_matches_serial(self, monkeypatch):
        """Acceptance: a jobs=4 sweep, and a repeat the disk cache
        serves, return records identical to the serial, uncached sweep
        (a migratory and an OLTP L2-size sweep on P2), and results
        whose counter rollups are identical too."""
        import repro.harness.sweep as sweep_module

        counters = []  # each sweep's per-point extras["counters"]

        def recording_run_jobs(*args, **kwargs):
            results = run_jobs(*args, **kwargs)
            counters.append([r.extras["counters"] for r in results])
            return results

        monkeypatch.setattr(sweep_module, "run_jobs", recording_run_jobs)
        sweeps = [
            (MigratoryFactory(TINY_MICRO),
             [(128 + 64 * i) << 10 for i in range(6)]),
            (OltpFactory(OltpParams(transactions=10, warmup_transactions=15)),
             [(256 + 256 * i) << 10 for i in range(3)]),
        ]
        for factory, values in sweeps:
            os.environ["REPRO_NO_CACHE"] = "1"  # the serial run simulates
            try:
                serial = sweep_field("P2", factory, "l2.size_bytes", values,
                                     jobs=1)
            finally:
                del os.environ["REPRO_NO_CACHE"]
            parallel = sweep_field("P2", factory, "l2.size_bytes", values,
                                   jobs=4)
            assert parallel == serial
            clear_cache()  # the repeat must come from the disk cache
            hits = DISK_CACHE.hits
            cached = sweep_field("P2", factory, "l2.size_bytes", values,
                                 jobs=4)
            assert cached == serial
            assert DISK_CACHE.hits - hits == len(values)
            assert counters[-3] == counters[-2] == counters[-1]

    def test_run_jobs_preserves_input_order(self):
        jobs = micro_jobs(4)
        results = run_jobs(jobs, jobs=4)
        assert [r.config for r in results] == [j.config.name for j in jobs]

    def test_parallel_payload_matches_direct_simulate(self):
        job = micro_jobs(1)[0]
        direct = simulate(job.config, job.factory)
        # single-point lists run serially; use a 2-point pool so the
        # first result genuinely crossed the process boundary
        pooled, _ = run_jobs(micro_jobs(2), jobs=2)
        assert pooled.payload_tuple() == direct.payload_tuple()

    def test_unpicklable_factory_falls_back_to_serial(self):
        params = TINY_MICRO

        def closure_factory(config, num_nodes):  # not picklable
            from repro.workloads import MigratoryWrites
            return MigratoryWrites(params, cpus_per_node=config.cpus,
                                   num_nodes=num_nodes)

        base = micro_jobs(2)
        jobs = [dataclasses.replace(base[0], factory=closure_factory),
                dataclasses.replace(base[1], factory=closure_factory)]
        results = run_jobs(jobs, jobs=4)
        reference = run_jobs(micro_jobs(2), jobs=1)
        assert [r.payload_tuple() for r in results] == \
               [r.payload_tuple() for r in reference]

    def test_sanitizer_extras_survive_process_pool(self, monkeypatch):
        """check_coherence=True jobs carry the sanitizer telemetry back
        across the ProcessPool boundary in ``RunResult.extras``, matching
        the serial run exactly."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        jobs = [dataclasses.replace(j, spec=dataclasses.replace(
                    j.spec, check_coherence=True, trace_capacity=256))
                for j in micro_jobs(2)]
        direct = simulate(jobs[0].config, jobs[0].factory,
                          check_coherence=True, trace_capacity=256)
        pooled, _ = run_jobs(jobs, jobs=2)
        assert "audit_quiesced" in pooled.extras
        assert "checker_fills" in pooled.extras
        assert "trace_events" in pooled.extras
        assert pooled.extras == direct.extras

    def test_sampled_jobs_parallel_match_serial(self, monkeypatch):
        """A sampled-mode sweep point is expressible as a Job, and the
        process pool returns the serial payloads."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        spec = RunSpec(mode="sampled", window=30, period=60)
        jobs = [dataclasses.replace(j, spec=spec) for j in micro_jobs(2)]
        serial = run_jobs(jobs, jobs=1)
        pooled = run_jobs(jobs, jobs=2)
        assert [r.payload_tuple() for r in pooled] == \
               [r.payload_tuple() for r in serial]
        assert all(r.extras["sampling"]["windows"] > 0 for r in pooled)

    def test_resolve_jobs(self, monkeypatch):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestDiskCache:
    def test_hit_serves_identical_payload(self):
        job = micro_jobs(1)[0]
        first = run_configured(job.config, job.factory)
        clear_cache()  # drop the memo: the next lookup must hit the disk
        hits_before = DISK_CACHE.hits
        second = run_configured(job.config, job.factory)
        assert DISK_CACHE.hits == hits_before + 1
        assert second.payload_tuple() == first.payload_tuple()

    def test_config_change_invalidates(self):
        jobs = micro_jobs(2)  # two points differing only in L2 size
        key_a = jobs[0].spec.key(jobs[0].config, jobs[0].factory, 1)
        key_b = jobs[1].spec.key(jobs[1].config, jobs[1].factory, 1)
        assert key_a != key_b
        run_configured(jobs[0].config, jobs[0].factory)
        clear_cache()
        hits_before = DISK_CACHE.hits
        run_configured(jobs[1].config, jobs[1].factory)
        assert DISK_CACHE.hits == hits_before  # different point: no hit

    def test_scale_env_part_of_key(self, monkeypatch):
        job = micro_jobs(1)[0]
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        key_full = job.spec.key(job.config, job.factory, 1)
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        key_quarter = job.spec.key(job.config, job.factory, 1)
        assert key_full != key_quarter

    def test_opaque_factory_not_disk_keyable(self):
        assert workload_token(lambda c, n: None) is None
        job = micro_jobs(1)[0]
        assert job.spec.key(job.config, lambda c, n: None, 1) is None

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path / "torn"))
        job = micro_jobs(1)[0]
        key = job.spec.key(job.config, job.factory, 1)
        result = simulate(job.config, job.factory)
        cache.put(key, result)
        target = cache._file(key)
        with open(target, "w", encoding="utf-8") as f:
            f.write('{"result": {"config"')  # truncated JSON
        assert cache.get(key) is None

    def test_info_and_clear(self):
        job = micro_jobs(1)[0]
        run_configured(job.config, job.factory)
        info = DISK_CACHE.info()
        assert info["entries"] == 1
        assert info["bytes"] > 0
        assert DISK_CACHE.clear() == 1
        assert DISK_CACHE.info()["entries"] == 0


class TestMemoCache:
    def test_memo_inspectable_and_counts_hits(self):
        job = micro_jobs(1)[0]
        before = memo_cache_info()
        run_configured(job.config, job.factory)
        result = run_configured(job.config, job.factory)
        info = memo_cache_info()
        assert info["entries"] == before["entries"] + 1
        assert info["hits"] > before["hits"]
        assert len(info["keys"]) == info["entries"]
        assert info["misses"] == before["misses"] + 1
        assert result.units == TINY_MICRO.iterations

    def test_memo_result_unchanged_by_later_hits(self):
        """A result handed out is not written to when the memo answers
        the same point again."""
        job = micro_jobs(1)[0]
        first = run_configured(job.config, job.factory)
        extras = dict(first.extras)
        again = run_configured(job.config, job.factory)
        assert again is first
        assert first.extras == extras

    def test_finished_points_stored_before_a_later_failure(self):
        """Each point is cached as it finishes: a run that fails part-way
        (a killed sweep, say) leaves the finished points behind."""
        def failing(config, num_nodes):
            raise RuntimeError("workload failed")

        job = micro_jobs(1)[0]
        with pytest.raises(RuntimeError, match="workload failed"):
            run_jobs([job, dataclasses.replace(job, factory=failing)],
                     jobs=1)
        assert memo_cache_info()["entries"] == 1
        assert DISK_CACHE.info()["entries"] == 1

    def test_no_cache_env_disables_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        job = micro_jobs(1)[0]
        entries_before = memo_cache_info()["entries"]
        a = run_configured(job.config, job.factory)
        b = run_configured(job.config, job.factory)
        assert memo_cache_info()["entries"] == entries_before
        assert DISK_CACHE.info()["entries"] == 0
        # ... but determinism still holds without the caches
        assert a.payload_tuple() == b.payload_tuple()

    def test_memo_answers_only_its_own_scale(self, monkeypatch):
        """A default-parameter factory sizes its workload from
        REPRO_SCALE, so a memo entry made at one scale must not answer
        at another."""
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        full = run_configured(preset("P1"), MigratoryFactory())
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        quarter = run_configured(preset("P1"), MigratoryFactory())
        assert full.units == 1000
        assert quarter.units == 250

    def test_opaque_factories_are_never_memoised(self):
        """Two closures sharing a qualname but not their parameters must
        each simulate their own workload, and leave the memo alone."""
        def closure(iterations):
            def factory(config, num_nodes):
                from repro.workloads import MigratoryWrites
                return MigratoryWrites(
                    MicroParams(iterations=iterations, warmup=30),
                    cpus_per_node=config.cpus, num_nodes=num_nodes)
            return factory

        entries = memo_cache_info()["entries"]
        small = run_configured(preset("P1"), closure(200))
        large = run_configured(preset("P1"), closure(400))
        assert (small.units, large.units) == (200, 400)
        assert memo_cache_info()["entries"] == entries


class TestUnitsFromWorkload:
    """Each workload names the params field that counts its measured
    units, so no caller passes a unit and none can pass a wrong one."""

    def test_every_registered_workload_covered(self):
        assert set(TINY_FACTORIES) == set(FACTORIES) | {"fuzz"}
        for name, cls in FACTORIES.items():
            assert isinstance(TINY_FACTORIES[name], cls)

    @pytest.mark.parametrize("name", sorted(TINY_FACTORIES))
    def test_declared_unit_is_a_params_field(self, name):
        factory = TINY_FACTORIES[name]
        workload = factory(preset("P2"), 1)
        fields = {f.name for f in dataclasses.fields(workload.params)}
        assert workload.units_attr in fields
        result = run_configured(preset("P2"), factory)
        assert result.units == getattr(workload.params, workload.units_attr)

    def test_migratory_point_reports_iterations(self):
        result = run_configured(preset("P1"), MigratoryFactory(TINY_MICRO))
        assert result.units == TINY_MICRO.iterations

    def test_dss_sweep_reports_rows(self):
        records = sweep_field("P1", DssFactory(TINY_DSS), "l2.size_bytes",
                              [512 << 10, 1 << 20])
        assert [r["value"] for r in records] == [512 << 10, 1 << 20]
        assert all(r["time_per_unit_ns"] > 0 for r in records)


class TestReplaceFieldErrors:
    def test_deep_nesting_rejected(self):
        with pytest.raises(ValueError, match="one level"):
            replace_field(preset("P8"), "l2.bank.size", 1)

    def test_empty_component_rejected(self):
        for bad in ("", ".", "l2.", ".size_bytes"):
            with pytest.raises(ValueError):
                replace_field(preset("P8"), bad, 1)

    def test_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="unknown config field"):
            replace_field(preset("P8"), "no_such_field", 1)

    def test_unknown_group(self):
        with pytest.raises(ValueError, match="unknown config group"):
            replace_field(preset("P8"), "no_group.size_bytes", 1)

    def test_non_dataclass_group(self):
        with pytest.raises(ValueError, match="unknown config group"):
            replace_field(preset("P8"), "name.size_bytes", 1)

    def test_unknown_leaf_lists_alternatives(self):
        with pytest.raises(ValueError, match="size_bytes"):
            replace_field(preset("P8"), "l2.no_leaf", 1)

    def test_valid_replacements_still_work(self):
        config = replace_field(preset("P8"), "l2.size_bytes", 2 << 20)
        assert config.l2.size_bytes == 2 << 20
        config = replace_field(preset("P8"), "cpus", 4)
        assert config.cpus == 4


class TestLibraryFingerprint:
    """The source fingerprint must cover every subpackage — a change to
    ``repro/fuzz/`` or ``repro/checkpoint/`` has to invalidate cached
    results and warm checkpoints exactly like a change to the core."""

    def _tree(self, tmp_path, extra=None):
        root = tmp_path / "pkg"
        (root / "fuzz").mkdir(parents=True)
        (root / "checkpoint").mkdir()
        (root / "__init__.py").write_text("x = 1\n")
        (root / "fuzz" / "runner.py").write_text("y = 2\n")
        (root / "checkpoint" / "store.py").write_text("z = 3\n")
        if extra:
            path, text = extra
            (root / path).write_text(text)
        return str(root)

    def test_subpackage_edit_changes_fingerprint(self, tmp_path):
        from repro.harness.cache import library_fingerprint

        base = library_fingerprint(root=self._tree(tmp_path))
        for sub in ("fuzz/runner.py", "checkpoint/store.py",
                    "__init__.py"):
            edited = library_fingerprint(
                root=self._tree(tmp_path / sub.replace("/", "_"),
                                extra=(sub, "changed = True\n")))
            assert edited != base, f"edit to {sub} not fingerprinted"

    def test_new_subpackage_file_changes_fingerprint(self, tmp_path):
        from repro.harness.cache import library_fingerprint

        base = library_fingerprint(root=self._tree(tmp_path))
        grown = library_fingerprint(
            root=self._tree(tmp_path / "grown",
                            extra=("checkpoint/new_module.py", "n = 4\n")))
        assert grown != base

    def test_non_python_files_ignored(self, tmp_path):
        from repro.harness.cache import library_fingerprint

        base = library_fingerprint(root=self._tree(tmp_path))
        same = library_fingerprint(
            root=self._tree(tmp_path / "same",
                            extra=("checkpoint/readme.txt", "doc\n")))
        assert same == base

    def test_fingerprint_stable(self, tmp_path):
        from repro.harness.cache import library_fingerprint

        tree = self._tree(tmp_path)
        assert library_fingerprint(root=tree) == \
            library_fingerprint(root=tree)

    def test_live_fingerprint_memoised(self):
        from repro.harness.cache import library_fingerprint

        assert library_fingerprint() == library_fingerprint()
