"""Executor watchdog: hanging kernels become typed errors, not hangs."""

import numpy as np
import pytest

from repro.acc import RunOptions
from repro.errors import SimulationError, WatchdogTimeoutError
from repro.faults import FaultPlan
from repro.gpu import GlobalMemory, K20C
from repro.gpu import kernelir as K
from repro.gpu.executor import DEFAULT_WATCHDOG_BUDGET, CompiledKernel


def _infinite_loop_kernel():
    # handwritten bug: the loop counter is never incremented, so the
    # exit condition can never fire — on real hardware this hangs the GPU
    return K.Kernel("spin", (
        K.Assign("i", K.const_int(0)),
        K.While(K.Bin("<", K.Reg("i"), K.const_int(10)), (
            K.Assign("x", K.Bin("+", K.Reg("i"), K.const_int(1))),
        )),
    ))


class TestWatchdog:
    def test_infinite_loop_trips_watchdog(self):
        ck = CompiledKernel(_infinite_loop_kernel(), K20C)
        with pytest.raises(WatchdogTimeoutError) as ei:
            ck.run(GlobalMemory(K20C), 1, (8, 1), watchdog_budget=500)
        assert ei.value.kernel == "spin"
        assert ei.value.steps > ei.value.budget == 500
        # the watchdog is a SimulationError: existing catch sites work
        assert isinstance(ei.value, SimulationError)

    def test_budget_zero_disables(self):
        # a terminating loop must finish even with the watchdog disabled
        kern = K.Kernel("ok", (
            K.Assign("i", K.const_int(0)),
            K.While(K.Bin("<", K.Reg("i"), K.const_int(10)), (
                K.Assign("i", K.Bin("+", K.Reg("i"), K.const_int(1))),
            )),
        ))
        ck = CompiledKernel(kern, K20C)
        stats = ck.run(GlobalMemory(K20C), 1, (8, 1), watchdog_budget=0)
        assert stats is not None

    def test_default_budget_not_hit_by_legit_kernels(self):
        kern = K.Kernel("ok", (
            K.Assign("i", K.const_int(0)),
            K.While(K.Bin("<", K.Reg("i"), K.const_int(100)), (
                K.Assign("i", K.Bin("+", K.Reg("i"), K.const_int(1))),
            )),
        ))
        stats = CompiledKernel(kern, K20C).run(GlobalMemory(K20C), 2, (8, 1))
        assert stats is not None
        assert DEFAULT_WATCHDOG_BUDGET >= 1_000_000


class TestStuckWarpMode:
    SRC = """
    float a[n];
    float total = 0.0;
    #pragma acc parallel copyin(a)
    #pragma acc loop gang worker vector reduction(+:total)
    for (i = 0; i < n; i++)
        total += a[i];
    """

    def test_stuck_warp_is_detected_not_silent(self):
        """Stuck-warp mode makes loop exits never fire; either the
        watchdog or a bounds check must convert the spin into a typed
        SimulationError — it must never return a result."""
        from repro import acc

        prog = acc.compile(self.SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        a = np.ones(128, dtype=np.float32)
        inj = FaultPlan(seed=0, p_stuck_warp=1.0).injector()
        with pytest.raises(SimulationError):
            prog.run(RunOptions(faults=inj, watchdog_budget=2000,
                                max_attempts=1), a=a)
        assert any(r.kind == "stuck-warp" for r in inj.records)
