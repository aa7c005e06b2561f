"""Batched-block executor: bit-identity with the reference path.

The contract under test (see :mod:`repro.gpu.executor_batched`): for any
chunk size (``DEFAULT_BLOCK_BATCH``), results, every
:class:`~repro.gpu.events.KernelStats` counter, and raised errors match
the reference executor exactly; kernels whose blocks communicate through
global memory are detected by the static analysis and degrade to the
reference path.
"""

import numpy as np
import pytest

from repro.dtypes import DType
from repro.errors import (
    BarrierDivergenceError, SimulationError, WatchdogTimeoutError,
)
from repro.gpu.device import K20C
from repro.gpu import executor_batched
from repro.gpu.executor import CompiledKernel
from repro.gpu.kernelir import (
    Assign, AtomicUpdate, Bin, Const, GLoad, GStore, If, Kernel, Param,
    Reg, SharedArraySpec, SLoad, SStore, Special, Sync, While, const_int,
)
from repro.gpu.memory import GlobalMemory

STAT_FIELDS = (
    "blocks", "threads_per_block", "shared_bytes", "warp_inst_slots",
    "global_transactions", "l2_transactions", "global_bytes", "dram_bytes",
    "shared_accesses", "bank_conflict_extra", "barriers",
    "divergent_branches",
)


def counters(stats):
    return {f: getattr(stats, f) for f in STAT_FIELDS}


def block_sum_kernel():
    """Grid-stride windows + shared staging + serial fold by thread 0.

    Exercises every construct the batched compiler handles on one path:
    per-thread ``While`` with uneven trip counts (divergence), shared
    stores/loads, a barrier, a divergent ``If``, and a ``bx``-indexed
    result store.
    """
    i, j = Reg("i"), Reg("j")
    body = (
        Assign("acc", Const(0, DType.INT)),
        Assign("i", Bin("+", Bin("*", Special("bx"), Special("bdx")),
                        Special("tx"))),
        While(Bin("<", i, Param("N")), (
            GLoad("v", "in", i),
            Assign("acc", Bin("+", Reg("acc"), Reg("v"))),
            Assign("i", Bin("+", i,
                            Bin("*", Special("gdx"), Special("bdx")))),
        )),
        SStore("sdata", Special("tx"), Reg("acc")),
        Sync(),
        If(Bin("==", Special("tx"), const_int(0)), (
            SLoad("tot", "sdata", const_int(0)),
            Assign("j", const_int(1)),
            While(Bin("<", j, Special("bdx")), (
                SLoad("w", "sdata", j),
                Assign("tot", Bin("+", Reg("tot"), Reg("w"))),
                Assign("j", Bin("+", j, const_int(1))),
            )),
            GStore("out", Special("bx"), Reg("tot")),
        )),
    )
    return Kernel("bsum", body, params=("N",), buffers=("in", "out"),
                  shared=(SharedArraySpec("sdata", DType.INT, 64),))


def run_block_sum(n=1000, grid=7, mode=None, trace=False):
    g = GlobalMemory(K20C)
    g.alloc("in", n, DType.INT, init=np.arange(n) % 13)
    g.alloc("out", grid, DType.INT)
    ck = CompiledKernel(block_sum_kernel(), K20C)
    stats = ck.run(g, grid, (64, 1), params={"N": np.int32(n)},
                   trace=trace, mode=mode)
    return g["out"].data.copy(), stats


class TestBitIdentity:
    def test_results_and_counters_match_reference(self):
        out_ref, st_ref = run_block_sum(mode="reference")
        out_bat, st_bat = run_block_sum(mode="batched")
        np.testing.assert_array_equal(out_bat, out_ref)
        assert counters(st_bat) == counters(st_ref)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 256])
    def test_invariant_under_chunk_size(self, chunk, monkeypatch):
        out_ref, st_ref = run_block_sum(mode="reference")
        monkeypatch.setattr(executor_batched, "DEFAULT_BLOCK_BATCH", chunk)
        out, st = run_block_sum()
        np.testing.assert_array_equal(out, out_ref)
        assert counters(st) == counters(st_ref)

    def test_batched_is_the_default(self, monkeypatch):
        # the no-env default; REPRO_EXECUTOR (e.g. the trace CI leg)
        # overrides it, so pin with the variable cleared
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        g = GlobalMemory(K20C)
        g.alloc("in", 64, DType.INT)
        g.alloc("out", 2, DType.INT)
        ck = CompiledKernel(block_sum_kernel(), K20C)
        assert ck.effective_mode(None, 2, g) == "batched"

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            run_block_sum(mode="bogus")

    def test_trace_events_match_reference_per_kind_and_block(self):
        _, st_ref = run_block_sum(mode="reference", trace=True)
        _, st_bat = run_block_sum(mode="batched", trace=True)
        key = lambda ev: (ev.kind, ev.block)  # noqa: E731
        assert (sorted(map(key, st_bat.trace))
                == sorted(map(key, st_ref.trace)))


class TestSafetyAnalysis:
    def _mode(self, kernel, grid, bufs):
        g = GlobalMemory(K20C)
        for name, dtype, size in bufs:
            g.alloc(name, size, dtype)
        # request "batched" explicitly: these tests pin the
        # batched->reference demotion rungs, independent of the
        # REPRO_EXECUTOR session default
        return CompiledKernel(kernel, K20C).effective_mode(
            "batched", grid, g)

    def test_rmw_buffer_is_checked_then_falls_back(self):
        # later blocks read what earlier blocks wrote: the static pass
        # cannot prove disjointness, so the kernel runs checked; the
        # actual sharing trips the runtime hazard on the first launch and
        # the verdict sticks
        k = Kernel("inc", (
            GLoad("v", "buf", Special("tid")),
            GStore("buf", Special("tid"),
                   Bin("+", Reg("v"), const_int(1))),
        ), buffers=("buf",))
        g = GlobalMemory(K20C)
        g.alloc("buf", 64, DType.INT, init=np.arange(64))
        ck = CompiledKernel(k, K20C)
        assert ck.batch_safety.checked_bufs == ("buf",)
        assert ck.effective_mode("batched", 4, g) == "batched"  # optimistic
        ck.run(g, 2, (32, 2), mode="batched")
        assert ck.effective_mode("batched", 4, g) == "reference"  # sticky

    def test_checked_kernel_with_faults_goes_reference(self):
        from repro.faults import FaultInjector, FaultPlan
        k = Kernel("inc", (
            GLoad("v", "buf", Special("tid")),
            GStore("buf", Special("tid"),
                   Bin("+", Reg("v"), const_int(1))),
        ), buffers=("buf",))
        g = GlobalMemory(K20C)
        g.alloc("buf", 64, DType.INT)
        inj = FaultInjector(FaultPlan(seed=7))
        # an aborted checked attempt could not roll back the injector's
        # RNG draws, so armed launches skip the attempt entirely
        assert CompiledKernel(k, K20C).effective_mode(
            "batched", 4, g, faults=inj) == "reference"

    def test_disjoint_scatter_stays_batched_at_runtime(self):
        # data-dependent store index: unprovable statically, but these
        # contents partition locations by block, so the checked run keeps
        # the fast path and matches the reference bitwise
        k = Kernel("scat", (
            GLoad("j", "idx", Bin("+", Bin("*", Special("bx"),
                                           Special("ntid")),
                                  Special("tid"))),
            GStore("out", Reg("j"), Special("tid")),
        ), buffers=("idx", "out"))

        def run(mode):
            g = GlobalMemory(K20C)
            g.alloc("idx", 128, DType.INT, init=np.arange(128)[::-1].copy())
            g.alloc("out", 128, DType.INT)
            ck = CompiledKernel(k, K20C)
            st = ck.run(g, 4, (32, 1), mode=mode)
            return g["out"].data.copy(), st, ck
        out_b, st_b, ck = run(None)
        out_r, st_r, _ = run("reference")
        assert not ck._dynamic_fallback  # the check never tripped
        np.testing.assert_array_equal(out_b, out_r)
        assert counters(st_b) == counters(st_r)

    def test_uniform_store_checked_matches_reference(self):
        # every block stores to the same location: the last block wins in
        # both executors (same-statement collision), no fallback needed
        k = Kernel("uni", (
            GStore("out", const_int(0), Special("bx")),
        ), buffers=("out",))

        def run(mode):
            g = GlobalMemory(K20C)
            g.alloc("out", 4, DType.INT)
            ck = CompiledKernel(k, K20C)
            ck.run(g, 4, (32, 1), mode=mode)
            return g["out"].data.copy(), ck
        out_b, ck = run(None)
        out_r, _ = run("reference")
        assert not ck._dynamic_fallback
        np.testing.assert_array_equal(out_b, out_r)
        assert out_b[0] == 3  # the highest block's value

    def test_block_indexed_store_stays_batched(self):
        k = Kernel("perblk", (
            GStore("out", Special("bx"), Special("bx")),
        ), buffers=("out",))
        assert self._mode(k, 8, [("out", DType.INT, 8)]) == "batched"

    def test_looped_float_atomic_falls_back_int_does_not(self):
        def k(dt):
            return Kernel("atl", (
                Assign("i", const_int(0)),
                While(Bin("<", Reg("i"), const_int(4)), (
                    AtomicUpdate("acc", const_int(0), "+", Const(1, dt)),
                    Assign("i", Bin("+", Reg("i"), const_int(1))),
                )),
            ), buffers=("acc",))
        assert self._mode(k(DType.FLOAT), 4,
                          [("acc", DType.FLOAT, 1)]) == "reference"
        assert self._mode(k(DType.INT), 4,
                          [("acc", DType.INT, 1)]) == "batched"

    def test_fallback_still_produces_reference_results(self):
        def run(mode):
            g = GlobalMemory(K20C)
            g.alloc("buf", 64, DType.INT, init=np.arange(64))
            k = Kernel("inc", (
                GLoad("v", "buf", Special("tid")),
                GStore("buf", Special("tid"),
                       Bin("+", Reg("v"), const_int(1))),
            ), buffers=("buf",))
            st = CompiledKernel(k, K20C).run(g, 2, (32, 2), mode=mode)
            return g["buf"].data.copy(), st
        out_def, st_def = run(None)  # silently degrades to reference
        out_ref, st_ref = run("reference")
        np.testing.assert_array_equal(out_def, out_ref)
        assert counters(st_def) == counters(st_ref)


class TestBatchedErrors:
    def test_watchdog_trips(self):
        k = Kernel("spin", (
            Assign("i", const_int(0)),
            While(Bin("<", Reg("i"), const_int(1)), (
                Assign("x", Reg("i")),  # never advances i
            )),
            GStore("out", Special("bx"), Reg("i")),
        ), buffers=("out",))
        g = GlobalMemory(K20C)
        g.alloc("out", 4, DType.INT)
        with pytest.raises(WatchdogTimeoutError):
            CompiledKernel(k, K20C).run(g, 4, (32, 1), watchdog_budget=100)

    def test_sync_under_divergence_raises(self):
        k = Kernel("badsync", (
            If(Bin("<", Special("tx"), const_int(16)), (
                Sync(),
            )),
            GStore("out", Special("bx"), Special("bx")),
        ), buffers=("out",))
        g = GlobalMemory(K20C)
        g.alloc("out", 3, DType.INT)
        with pytest.raises(BarrierDivergenceError):
            CompiledKernel(k, K20C).run(g, 3, (32, 1))
