"""Differential suite: batched executor vs the reference executor.

Sweeps the paper's reduction-position grid (7 positions × four operators
× int/float) and asserts the two executor paths produce bitwise-equal
scalars/arrays and equal :class:`~repro.gpu.events.KernelStats`
counters, with and without an armed fault injector.  A golden pin of the
``worker vector`` case guards the counter values themselves (the
shared-memory hoist and the batched reuse accounting must not drift).
"""

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.faults import FaultInjector, FaultPlan
from repro.testsuite.cases import POSITIONS, generate_cases, make_case

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)
STAT_FIELDS = (
    "blocks", "threads_per_block", "shared_bytes", "warp_inst_slots",
    "global_transactions", "l2_transactions", "global_bytes", "dram_bytes",
    "shared_accesses", "bank_conflict_extra", "barriers",
    "divergent_branches",
)


def counters(stats):
    return {f: getattr(stats, f) for f in STAT_FIELDS}


def run_case_mode(case, mode, faults=None):
    prog = acc.compile(case.source, **GEOM)
    inputs = case.make_inputs(np.random.default_rng(42))
    return prog.run(RunOptions(executor_mode=mode, faults=faults), **inputs)


def assert_identical(res_b, res_r):
    assert set(res_b.scalars) == set(res_r.scalars)
    for var in res_b.scalars:
        assert (np.asarray(res_b.scalars[var]).tobytes()
                == np.asarray(res_r.scalars[var]).tobytes()), var
    assert set(res_b.outputs) == set(res_r.outputs)
    for var in res_b.outputs:
        assert (res_b.outputs[var].tobytes()
                == res_r.outputs[var].tobytes()), var
    assert set(res_b.kernel_stats) == set(res_r.kernel_stats)
    for name in res_b.kernel_stats:
        assert (counters(res_b.kernel_stats[name])
                == counters(res_r.kernel_stats[name])), name


CASES = generate_cases(positions=POSITIONS, ops=("+", "*", "max", "min"),
                       ctypes=("int", "float"), size=160)


class TestGridDifferential:
    @pytest.mark.parametrize(
        "case", CASES, ids=[c.label.replace(" ", "_") for c in CASES])
    def test_modes_bit_identical(self, case):
        assert_identical(run_case_mode(case, "batched"),
                         run_case_mode(case, "reference"))


class TestFaultDifferential:
    # max_faults must be None here: a global injection cap is consumed in
    # execution order, which legitimately differs across executors; the
    # per-block RNG substreams make uncapped fault *sites* identical
    PLAN = FaultPlan(seed=1234, p_gload_flip=0.05, p_sload_flip=0.05,
                     max_faults=None)

    @pytest.mark.parametrize("position",
                             ["gang", "worker vector",
                              "gang worker vector"])
    def test_faulted_runs_identical(self, position):
        case = make_case(position, "+", "float", size=160)
        results, records = {}, {}
        for mode in ("batched", "reference"):
            inj = FaultInjector(self.PLAN)
            results[mode] = run_case_mode(case, mode, faults=inj)
            records[mode] = sorted(
                (r.site, r.kind, tuple(sorted(r.detail.items())))
                for r in inj.records)
        assert records["batched"] == records["reference"]
        assert records["batched"], "plan injected nothing — dead test"
        assert_identical(results["batched"], results["reference"])


class TestGoldenWorkerVector:
    """Pins the exact counters of one mid-size case in both modes.

    Captured from the pre-batching sequential executor; guards both the
    shared-memory hoist in the reference path (a reset must behave as a
    fresh allocation) and the batched segment-reuse finalization.
    """

    GOLDEN_MAIN = {
        "blocks": 4, "threads_per_block": 128, "shared_bytes": 512,
        "warp_inst_slots": 834, "global_transactions": 41,
        "l2_transactions": 57, "global_bytes": 5128, "dram_bytes": 5248,
        "shared_accesses": 64, "bank_conflict_extra": 0, "barriers": 6,
        "divergent_branches": 12,
    }
    GOLDEN_OUT_HEX = "00f00b4500d01045"

    @pytest.mark.parametrize("mode", ["batched", "reference"])
    def test_counters_and_result_pinned(self, mode):
        case = make_case("worker vector", "+", "float", size=640)
        prog = acc.compile(case.source, num_gangs=4, num_workers=4,
                           vector_length=32)
        inputs = case.make_inputs(np.random.default_rng(42))
        res = prog.run(RunOptions(executor_mode=mode), **inputs)
        assert counters(res.kernel_stats["acc_region_main"]) \
            == self.GOLDEN_MAIN
        assert res.outputs["out"].tobytes().hex() == self.GOLDEN_OUT_HEX
