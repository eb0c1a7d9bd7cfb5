"""ISA kernel suite + cross-model validation tests.

Covers the functional reference (interleaved multi-CPU execution over
``SharedMemory``), the timed-machine workload frontend, the
functional-vs-timed bit-exact memory comparison, the ``repro-xval/1``
report machinery, cache-key folding and the CLI verb.
"""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.core.config import preset
from repro.core.messages import AccessKind
from repro.harness import FACTORIES
from repro.harness.cache import workload_token
from repro.harness.runner import run_configured
from repro.isa import assemble
from repro.isa.cpu import FunctionalCpu, IsaThread, SharedMemory
from repro.isa.kernels import (
    COUNTER_ADDR,
    KERNEL_NAMES,
    KERNELS,
    LOCK_ADDR,
    RING_SUM,
    IsaKernelFactory,
    IsaKernelParams,
    KernelWorkload,
    expected_membars,
    expected_wh64,
    image_digest,
    kernel_programs,
    run_functional,
    scaled_params,
)
from repro.isa.validate import (
    XVAL_SCHEMA,
    cross_validate,
    fit_params,
    run_suite,
    validate_report,
)

SMALL = {name: IsaKernelParams(kernel=name, iterations=3)
         for name in KERNEL_NAMES}


def small(kernel: str, **kw) -> IsaKernelParams:
    return dataclasses.replace(SMALL[kernel], **kw)


# ---------------------------------------------------------------------------
# IsaThread direct iteration (the formerly-uncovered __next__ path)


class TestIsaThreadIteration:
    def _thread(self):
        words = assemble("""
            lda   r1, 8(r31)
            ldq   r2, 0(r1)
            addq  r2, #1, r2
            stq   r2, 0(r1)
            halt
        """)
        mem = SharedMemory()
        mem.store_q(8, 41)
        cpu = FunctionalCpu(words, mem, agent=0, code_base=0x1000)
        return IsaThread(cpu), cpu, mem

    def test_direct_next_calls(self):
        """Regression: __next__ must work without an explicit iter()."""
        thread, cpu, mem = self._thread()
        first = next(thread)
        assert first == (1, AccessKind.IFETCH, 0x1000, True)
        items = [first] + list(thread)
        assert cpu.state.halted
        assert mem.load_q(8) == 42
        # 5 instructions -> 5 ifetches, plus one item per memory op
        kinds = [item[1] for item in items]
        assert kinds.count(AccessKind.IFETCH) == 5
        assert AccessKind.LOAD in kinds and AccessKind.STORE in kinds

    def test_iter_returns_self(self):
        thread, _cpu, _mem = self._thread()
        assert iter(thread) is thread

    def test_single_stream_across_iter_and_next(self):
        """iter() and bare next() must drain one shared stream."""
        thread, cpu, _mem = self._thread()
        next(thread)                  # consume via __next__ ...
        list(iter(thread))            # ... then drain via __iter__
        assert cpu.state.halted

    def test_exhaustion_raises_stopiteration(self):
        thread, _cpu, _mem = self._thread()
        list(thread)
        with pytest.raises(StopIteration):
            next(thread)

    def test_instruction_cap(self):
        words = assemble("""
        loop:
            br    loop
        """)
        thread = IsaThread(FunctionalCpu(words, SharedMemory()),
                           max_instructions=100)
        with pytest.raises(RuntimeError, match="instruction cap"):
            list(thread)


# ---------------------------------------------------------------------------
# functional reference: postconditions + determinacy


class TestFunctionalKernels:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_postconditions_hold(self, kernel):
        # run_functional asserts KERNELS[kernel].check_final internally
        run = run_functional(kernel, 4, small(kernel))
        assert run.image, "kernel must leave observable state"
        assert all(run.retired), "every CPU must retire instructions"

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_determinate_across_seeds(self, kernel):
        params = small(kernel)
        images = [run_functional(kernel, 4, params, seed=s).image
                  for s in range(5)]
        assert all(img == images[0] for img in images[1:])

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_programs_assemble_per_thread(self, kernel):
        words = kernel_programs(kernel, 4, small(kernel))
        assert len(words) == 4
        assert all(len(w) > 0 for w in words)

    def test_single_cpu_every_kernel(self):
        for kernel in KERNEL_NAMES:
            run_functional(kernel, 1, fit_params(kernel, 1, small(kernel)))

    def test_ring_selfpair_checksum(self):
        """A lone CPU ring-pairs with itself; checksum still lands."""
        m = 3
        run = run_functional("ring", 1,
                             IsaKernelParams(kernel="ring", iterations=m))
        base = 1 << 16                       # pair 0 payload base
        assert run.image[RING_SUM] == m * base + m * (m + 1) // 2

    def test_memcpy_layout_overflow_raises(self):
        with pytest.raises(ValueError):
            run_functional("memcpy", 8,
                           IsaKernelParams(kernel="memcpy", iterations=9))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            run_functional("bogus", 2)
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelWorkload(IsaKernelParams(kernel="bogus"))


class TestContendedLock:
    """N CPUs x iters spinlock increments: exactly N*iters, never less."""

    @pytest.mark.parametrize("nthreads", [2, 4, 8, 16])
    def test_no_lost_updates_functional(self, nthreads):
        iters = 5
        params = IsaKernelParams(kernel="spinlock", iterations=iters)
        for seed in range(4):
            run = run_functional("spinlock", nthreads, params, seed=seed)
            assert run.image[COUNTER_ADDR] == nthreads * iters
            assert LOCK_ADDR not in run.image, "lock must end released"

    def test_contention_actually_happens(self):
        """The schedule must provoke real ldq_l/stq_c interference
        somewhere across seeds, or the test proves nothing."""
        params = IsaKernelParams(kernel="spinlock", iterations=6)
        failures = sum(
            sum(run_functional("spinlock", 8, params, seed=s).stq_c_failures)
            for s in range(4))
        assert failures > 0

    def test_no_lost_updates_timed(self):
        params = IsaKernelParams(kernel="spinlock", iterations=3)
        result = run_configured(preset("P8"), IsaKernelFactory(params),
                                num_nodes=1)
        isa = result.extras["isa"]
        assert isa["mem_image"][f"{COUNTER_ADDR:#x}"] == 8 * 3
        assert f"{LOCK_ADDR:#x}" not in isa["mem_image"]
        assert all(c["halted"] for c in isa["cpus"].values())


# ---------------------------------------------------------------------------
# timed machine vs functional reference


class TestTimedVsFunctional:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_final_memory_bit_exact(self, kernel):
        params = fit_params(kernel, 8, small(kernel))
        reference = run_functional(kernel, 8, params)
        result = run_configured(preset("P8"), IsaKernelFactory(params),
                                num_nodes=1)
        assert result.extras["isa"]["mem_digest"] == reference.digest

    def test_timed_membar_and_wh64_counters_exact(self):
        for kernel in ("barrier", "memcpy"):
            params = fit_params(kernel, 8, small(kernel))
            result = run_configured(preset("P8"), IsaKernelFactory(params),
                                    num_nodes=1)
            isa = result.extras["isa"]
            assert isa["membars"] == expected_membars(kernel, 8, params)
            assert isa["wh64_issued"] == expected_wh64(kernel, 8, params)

    def test_memcpy_is_private_no_forwards(self):
        params = fit_params("memcpy", 8, small("memcpy"))
        result = run_configured(preset("P8"), IsaKernelFactory(params),
                                num_nodes=1)
        assert result.extras["isa"]["counters"]["l2_fwds"] == 0

    def test_extras_shape(self):
        result = run_configured(preset("P8"),
                                IsaKernelFactory(SMALL["spinlock"]),
                                num_nodes=1)
        isa = result.extras["isa"]
        assert set(isa) >= {"kernel", "nthreads", "mem_digest", "mem_image",
                            "cpus", "counters", "wh64_issued", "membars",
                            "stall_ps"}
        assert isa["kernel"] == "spinlock" and isa["nthreads"] == 8
        assert set(isa["stall_ps"]) >= {"l1_hit", "l2_hit", "l2_fwd",
                                        "local_mem", "remote_mem",
                                        "remote_dirty", "fence"}
        json.dumps(isa)     # must be a pure-JSON document

    def test_multi_node_memory_bit_exact(self):
        params = IsaKernelParams(kernel="spinlock", iterations=2)
        reference = run_functional("spinlock", 4, params)
        result = run_configured(preset("P2"), IsaKernelFactory(params),
                                num_nodes=2)
        isa = result.extras["isa"]
        assert isa["nthreads"] == 4
        assert isa["mem_digest"] == reference.digest
        assert isa["counters"]["l2_remote_dirty"] \
            + isa["counters"]["l2_remote_mem"] > 0


# ---------------------------------------------------------------------------
# cross-validation report


class TestCrossValidation:
    def test_cross_validate_passes_small_kernel(self):
        report = cross_validate("memcpy", config="P8", nodes=1,
                                params=small("memcpy"), seeds=(0, 1))
        assert report["memory_match"] and report["ok"]
        names = {c["name"] for c in report["checks"]}
        assert {"membars", "wh64_issued", "l1_miss_rate",
                "mem_stall_frac", "l2_fwds"} <= names

    def test_run_suite_document_valid(self):
        doc = run_suite(("spinlock", "memcpy"), config="P8", nodes=1,
                        scale=0.25, seeds=(0, 1))
        assert doc["schema"] == XVAL_SCHEMA
        assert doc["ok"] and doc["summary"]["kernels"] == 2
        assert validate_report(doc) == []
        json.dumps(doc)

    def test_validate_report_catches_corruption(self):
        doc = run_suite(("memcpy",), config="P8", nodes=1, scale=0.25,
                        seeds=(0,))
        assert validate_report(doc) == []
        bad = json.loads(json.dumps(doc))
        bad["schema"] = "nonsense/9"
        assert any("schema" in p for p in validate_report(bad))
        bad = json.loads(json.dumps(doc))
        bad["kernels"]["memcpy"]["checks"] = []
        assert any("no checks" in p for p in validate_report(bad))
        bad = json.loads(json.dumps(doc))
        bad["kernels"]["memcpy"]["ok"] = False
        assert any("inconsistent" in p for p in validate_report(bad))
        assert validate_report({}) != []
        assert validate_report([1, 2]) != []

    def test_fit_params_clamps_memcpy(self):
        params = fit_params("memcpy", 32,
                            IsaKernelParams(kernel="memcpy", iterations=8))
        assert params.iterations == 2
        untouched = fit_params("spinlock", 32,
                               IsaKernelParams(kernel="spinlock",
                                               iterations=8))
        assert untouched.iterations == 8

    def test_scaled_params_floor(self):
        for kernel in KERNEL_NAMES:
            assert scaled_params(kernel, 0.01).iterations >= 2
            assert scaled_params(kernel, 1.0).kernel == kernel


# ---------------------------------------------------------------------------
# harness integration: registries, cache-key folding, disk round-trip


class TestHarnessIntegration:
    def test_registered_in_factories(self):
        assert FACTORIES["isa"] is IsaKernelFactory
        assert KernelWorkload.units_attr == "iterations"

    def test_workload_token_folds_params(self):
        t1 = workload_token(IsaKernelFactory(SMALL["spinlock"]))
        t2 = workload_token(IsaKernelFactory(small("spinlock",
                                                   iterations=4)))
        t3 = workload_token(IsaKernelFactory(SMALL["memcpy"]))
        assert t1 and t2 and t3
        assert len({t1, t2, t3}) == 3

    def test_disk_cache_roundtrip_preserves_extras(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        factory = IsaKernelFactory(SMALL["false_sharing"])
        cold = run_configured(preset("P8"), factory, num_nodes=1)
        warm = run_configured(preset("P8"), factory, num_nodes=1)
        assert warm.extras["isa"] == cold.extras["isa"]
        assert warm.time_per_unit_ns == cold.time_per_unit_ns

    def test_default_factory_uses_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        from repro.core import preset

        workload = IsaKernelFactory()(preset("P8"), 1)
        assert workload.params == scaled_params("spinlock", 0.25)

    def test_image_digest_is_stable_and_sensitive(self):
        image = {COUNTER_ADDR: 24, LOCK_ADDR + 8: 1}
        assert image_digest(image) == image_digest(dict(image))
        assert image_digest(image) != image_digest({COUNTER_ADDR: 25})


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_xval_verb_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "xval.json"
        rc = main(["xval", "--kernel", "memcpy", "--scale", "0.25",
                   "--seeds", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == XVAL_SCHEMA and doc["ok"]
        assert "PASS" in capsys.readouterr().out

    def test_xval_check_report(self, tmp_path, capsys):
        out = tmp_path / "xval.json"
        assert main(["xval", "--kernel", "false_sharing",
                     "--scale", "0.25", "--seeds", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["xval", "--check-report", str(out)]) == 0
        assert "valid repro-xval/1" in capsys.readouterr().out
        broken = json.loads(out.read_text())
        broken["kernels"]["false_sharing"]["ok"] = False
        out.write_text(json.dumps(broken))
        assert main(["xval", "--check-report", str(out)]) == 1

    def test_run_verb_isa_workload(self, capsys):
        rc = main(["run", "--workload", "isa", "--scale", "0.25"])
        assert rc == 0
        assert "simulating isa" in capsys.readouterr().out

    def test_kernels_exposed_in_expected_mnemonics(self):
        """Every kernel really goes through the two-pass assembler and
        uses the coherence hooks ISSUE 9 names."""
        sources = {
            name: "\n".join(
                KERNELS[name].program(tid, 4, small(name))
                for tid in range(4))
            for name in KERNEL_NAMES
        }
        assert "ldq_l" in sources["spinlock"]
        assert "stq_c" in sources["spinlock"]
        assert "mb" in sources["barrier"]
        assert "mb" in sources["ring"]
        assert "wh64" in sources["memcpy"]
