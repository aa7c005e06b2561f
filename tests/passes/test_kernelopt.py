"""Unit tests for the kernel-IR optimization passes: barrier elimination,
constant folding / dead-code removal, and finish-kernel fusion."""

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.gpu import kernelir as K
from repro.passes.kernelopt import (
    eliminate_barriers, fold_kernel, fuse_finish_kernels,
)


def _kernel(body, name="k", buffers=("buf",), shared=()):
    return K.Kernel(name, tuple(body), buffers=tuple(buffers),
                    shared=tuple(shared))


def _syncs(kernel):
    return sum(1 for s, _ in K.walk_stmts(kernel.body)
               if isinstance(s, K.Sync))


GLOAD = K.GLoad("x", "buf", K.Special("tid"))
GSTORE = K.GStore("buf", K.Special("tid"), K.Reg("x"))


class TestEliminateBarriers:
    def test_back_to_back_barriers_collapse(self):
        k = _kernel([GLOAD, K.Sync(), K.Sync(), GSTORE])
        out, removed = eliminate_barriers(k, ntid=64)
        assert removed == 1
        assert _syncs(out) == 1

    def test_needed_barrier_survives(self):
        k = _kernel([GSTORE, K.Sync(), GLOAD, GSTORE])
        out, removed = eliminate_barriers(k, ntid=64)
        assert removed == 0
        assert _syncs(out) == 1

    def test_trailing_barrier_dropped(self):
        k = _kernel([GLOAD, GSTORE, K.Sync()])
        out, removed = eliminate_barriers(k, ntid=64)
        assert removed == 1
        assert _syncs(out) == 0

    def test_single_warp_block_drops_everything(self):
        k = _kernel([GSTORE, K.Sync(), GLOAD, K.Sync(),
                     K.If(K.Bin("<", K.Special("tid"), K.const_int(4)),
                          (K.Sync(), GSTORE))])
        out, removed = eliminate_barriers(k, ntid=32)
        assert removed == 3
        assert _syncs(out) == 0

    def test_nested_blocks_stay_conservative(self):
        # the If touches memory, so the barrier after it must stay;
        # barriers inside the If guard its own accesses and stay too
        k = _kernel([K.If(K.Bin("<", K.Special("tid"), K.const_int(4)),
                          (GSTORE, K.Sync(), GLOAD)),
                     K.Sync(), GLOAD, GSTORE])
        out, removed = eliminate_barriers(k, ntid=64)
        assert removed == 0
        assert _syncs(out) == 2


class TestFoldConstants:
    def _fold_assign(self, expr):
        # route the expression through a kernel whose result is stored,
        # so DCE cannot remove the assignment under test
        k = _kernel([K.Assign("r", expr),
                     K.GStore("buf", K.const_int(0), K.Reg("r"))])
        out, _ = fold_kernel(k)
        return out.body[0].value

    def test_const_plus_const(self):
        e = self._fold_assign(K.Bin("+", K.const_int(3), K.const_int(4)))
        assert isinstance(e, K.Const) and int(e.value) == 7

    def test_mul_identity_on_int_expr(self):
        e = self._fold_assign(
            K.Bin("*", K.Special("tid"), K.const_int(1)))
        assert e == K.Special("tid")

    def test_add_zero_on_int_expr(self):
        e = self._fold_assign(
            K.Bin("+", K.const_int(0),
                  K.Bin("*", K.Special("bx"), K.const_int(1))))
        assert e == K.Special("bx")

    def test_float_identity_not_folded(self):
        # x + 0 with float-typed x flips -0.0 to +0.0 in C promotion;
        # registers have no tracked dtype, so the fold must not happen
        e = self._fold_assign(K.Bin("+", K.Reg("facc"), K.const_int(0)))
        assert isinstance(e, K.Bin)

    def test_dead_overwrite_removed(self):
        k = _kernel([K.Assign("t", K.Reg("$t")),
                     K.Assign("t", K.const_int(0)),
                     K.GStore("buf", K.const_int(0), K.Reg("t"))])
        out, changes = fold_kernel(k)
        assert changes >= 1
        assigns = [s for s in out.body if isinstance(s, K.Assign)]
        assert len(assigns) == 1
        assert assigns[0].value == K.const_int(0)

    def test_dead_temp_removed_but_loads_kept(self):
        # 'unused' is never read -> its Assign goes; the GLoad result is
        # also never read, but loads carry counter side effects and stay
        k = _kernel([K.Assign("unused", K.const_int(7)),
                     K.GLoad("ld", "buf", K.Special("tid")),
                     GSTORE])
        out, _ = fold_kernel(k)
        kinds = [type(s).__name__ for s in out.body]
        assert kinds == ["GLoad", "GStore"]


SRC_FLOAT_GANG = """
float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""

GEOM = dict(num_gangs=8, num_workers=2, vector_length=32)


class TestFuseFinish:
    def test_fusion_removes_finish_kernel(self):
        base = acc.compile(SRC_FLOAT_GANG, **GEOM, pipeline="minimal")
        fused = acc.compile(SRC_FLOAT_GANG, **GEOM, pipeline="fuse-finish")
        assert len(base.lowered.kernels) == 2
        assert len(fused.lowered.kernels) == 1
        assert fused.lowered.gang_reductions[0].finish_kernel is None
        # the epilogue publishes through the result buffer from the
        # last block only
        assert "_sfin_" in fused.dump_kernels()

    @pytest.mark.parametrize("mode", ["reference", "batched"])
    def test_fusion_is_bit_identical(self, mode):
        a = ((np.arange(4096) % 31) / 7).astype(np.float32)
        base = acc.compile(SRC_FLOAT_GANG, **GEOM, pipeline="minimal")
        fused = acc.compile(SRC_FLOAT_GANG, **GEOM, pipeline="fuse-finish")
        r0 = base.run(RunOptions(executor_mode=mode), a=a)
        r1 = fused.run(RunOptions(executor_mode=mode), a=a)
        assert np.asarray(r0.scalars["total"]).tobytes() == \
            np.asarray(r1.scalars["total"]).tobytes()

    def test_fusion_reduces_modeled_time(self):
        a = np.ones(4096, dtype=np.float32)
        base = acc.compile(SRC_FLOAT_GANG, **GEOM, pipeline="minimal")
        fused = acc.compile(SRC_FLOAT_GANG, **GEOM, pipeline="fuse-finish")
        assert fused.run(a=a).kernel_ms < base.run(a=a).kernel_ms

    def test_fuse_skips_when_shared_would_overflow(self):
        prog = acc.compile(SRC_FLOAT_GANG, **GEOM, pipeline="minimal")
        tiny = prog.device.with_overrides(shared_mem_per_block=64)
        lowered, fused = fuse_finish_kernels(prog.lowered, tiny)
        assert fused == []
        assert lowered.gang_reductions[0].finish_kernel is not None


class TestBarrierEliminationEndToEnd:
    def test_warp_sized_blocks_lose_all_barriers(self):
        geom = dict(num_gangs=8, num_workers=1, vector_length=32)
        base = acc.compile(SRC_FLOAT_GANG, **geom, pipeline="minimal")
        opt = acc.compile(SRC_FLOAT_GANG, **geom,
                          pipeline="eliminate-barriers")
        assert _syncs(opt.lowered.main_kernel) == 0
        a = ((np.arange(2048) % 13) / 3).astype(np.float32)
        r0, r1 = base.run(a=a), opt.run(a=a)
        assert np.asarray(r0.scalars["total"]).tobytes() == \
            np.asarray(r1.scalars["total"]).tobytes()
        assert r1.kernel_stats["acc_region_main"].barriers == 0
