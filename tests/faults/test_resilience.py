"""Hardened execution: retry, redundant voting, graceful degradation."""

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.acc.compiler import FALLBACK_CHAIN
from repro.errors import (
    DegradedExecutionError, KernelLaunchError, SilentCorruptionError,
    SimulationError,
)
from repro.faults import FaultPlan
from repro.obs import Profiler

VECSUM = """
float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""


def _compile(**kw):
    kw.setdefault("num_gangs", 4)
    kw.setdefault("num_workers", 2)
    kw.setdefault("vector_length", 32)
    return acc.compile(VECSUM, **kw)


@pytest.fixture
def a128():
    return np.arange(128, dtype=np.float32)


class TestRetry:
    def test_transient_launch_fault_corrected_by_retry(self, a128):
        # p=1 with max_faults=1: the first launch fails deterministically,
        # the injector disarms, and the retry succeeds
        inj = FaultPlan(seed=0, p_launch_fail=1.0, max_faults=1).injector()
        prof = Profiler()
        res = _compile().run(RunOptions(faults=inj, profiler=prof), a=a128)
        assert res.attempts == 2
        assert res.scalars["total"] == a128.sum()
        assert res.strategy == "primary" and not res.degradations
        backoffs = [us for label, us in res.ledger.entries
                    if label == "retry:backoff"]
        assert backoffs == [100.0]
        counters = prof.metrics.to_dict()["counters"]
        assert counters["faults.retries"] == 1.0
        assert counters["faults.transient_detected"] == 1.0

    def test_retries_exhausted_raises_transient(self, a128):
        inj = FaultPlan(p_launch_fail=1.0, max_faults=None).injector()
        with pytest.raises(KernelLaunchError):
            _compile().run(RunOptions(faults=inj, max_attempts=3), a=a128)
        assert len(inj.records) == 3

    def test_backoff_is_capped_exponential(self, a128, monkeypatch):
        import repro.acc.compiler as C

        monkeypatch.setattr(C, "RETRY_BACKOFF_US", 100.0)
        monkeypatch.setattr(C, "RETRY_BACKOFF_CAP_US", 250.0)
        inj = FaultPlan(p_launch_fail=1.0, max_faults=3).injector()
        res = _compile().run(RunOptions(faults=inj, max_attempts=5), a=a128)
        assert res.attempts == 4
        backoffs = [us for label, us in res.ledger.entries
                    if label == "retry:backoff"]
        assert backoffs == [100.0, 200.0, 250.0]


class TestDegradation:
    def test_primary_failure_degrades_to_fallback(self, a128, monkeypatch):
        """A SimulationError in the primary lowering must not surface when
        degrade=True: the fallback chain serves the correct answer and the
        degradation is visible on the result and in obs metrics."""
        prog = _compile()
        main = prog._compiled[prog.lowered.main_kernel.name]
        monkeypatch.setattr(
            main, "run",
            lambda *a, **k: (_ for _ in ()).throw(
                SimulationError("injected lowering defect")))
        prof = Profiler()
        res = prog.run(RunOptions(degrade=True, profiler=prof), a=a128)
        assert res.strategy == "shared-tree"
        assert res.degraded
        assert len(res.degradations) == 1
        d = res.degradations[0]
        assert isinstance(d, DegradedExecutionError)
        assert d.strategy == "primary"
        assert isinstance(d.cause, SimulationError)
        assert res.scalars["total"] == a128.sum()
        counters = prof.metrics.to_dict()["counters"]
        assert counters["faults.degraded"] == 1.0
        assert counters["faults.served_by.shared-tree"] == 1.0
        assert counters["faults.strategy_failures"] == 1.0

    def test_chain_ends_at_host_sequential(self, a128, monkeypatch):
        # break *every* simulated lowering: only the host interpreter left
        import repro.gpu.executor as ex

        monkeypatch.setattr(
            ex.CompiledKernel, "run",
            lambda *a, **k: (_ for _ in ()).throw(
                SimulationError("device broken")))
        res = _compile().run(RunOptions(degrade=True), a=a128)
        assert res.strategy == "host-sequential"
        assert res.scalars["total"] == a128.sum()
        assert [d.strategy for d in res.degradations] == \
            ["primary"] + [name for name, _ in FALLBACK_CHAIN[:-1]]

    def test_without_degrade_error_surfaces(self, a128, monkeypatch):
        prog = _compile()
        main = prog.lowered.main_kernel.name
        monkeypatch.setattr(
            prog._compiled[main], "run",
            lambda *a, **k: (_ for _ in ()).throw(
                SimulationError("injected lowering defect")))
        with pytest.raises(SimulationError, match="lowering defect"):
            prog.run(RunOptions(runs=1, degrade=False,
                                validate=lambda r: True), a=a128)

    def test_validate_rejection_degrades(self, a128):
        calls = []

        def validator(res):
            calls.append(res.scalars["total"])
            return len(calls) > 1  # reject the primary, accept the fallback

        res = _compile().run(RunOptions(degrade=True, validate=validator),
                             a=a128)
        assert res.strategy == "shared-tree"
        assert len(calls) == 2
        assert res.scalars["total"] == a128.sum()
        assert any("validation" in str(d) for d in res.degradations)


class TestVoting:
    def test_h2d_corruption_outvoted(self, a128):
        # one corrupted replica out of three: majority serves the truth
        inj = FaultPlan(seed=1, p_transfer_corrupt=1.0,
                        max_faults=1).injector()
        prof = Profiler()
        res = _compile().run(RunOptions(faults=inj, runs=3, profiler=prof),
                             a=a128)
        assert res.scalars["total"] == a128.sum()
        assert any("vote" in str(d) for d in res.degradations)
        counters = prof.metrics.to_dict()["counters"]
        assert counters["faults.vote_corrected"] == 1.0
        assert counters["faults.silent_corruption_detected"] == 1.0

    def test_unanimous_vote_is_clean(self, a128):
        res = _compile().run(RunOptions(runs=3), a=a128)
        assert res.scalars["total"] == a128.sum()
        assert not res.degradations and res.strategy == "primary"

    def test_no_majority_raises_silent_corruption(self, a128, monkeypatch):
        import repro.acc.compiler as C

        fingerprints = iter([b"a", b"b", b"c"])
        monkeypatch.setattr(C, "_fingerprint",
                            lambda res: next(fingerprints))
        with pytest.raises(SilentCorruptionError, match="majority"):
            _compile().run(RunOptions(runs=3, degrade=False), a=a128)


class TestInterruptsNeverRetried:
    """A ^C (or interpreter shutdown) mid-run must stop the run at once —
    it is not a transient fault to retry, not a strategy failure to walk
    the fallback chain past, and never a vote to re-run."""

    def _interrupting(self, monkeypatch, exc_type):
        from repro.acc.compiler import Program

        calls = {"n": 0}
        real = Program._execute

        def boom(self, opts, bindings):
            calls["n"] += 1
            raise exc_type()

        monkeypatch.setattr(Program, "_execute", boom)
        assert real is not Program._execute
        return calls

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_interrupt_consumes_exactly_one_attempt(self, a128,
                                                    monkeypatch, exc_type):
        calls = self._interrupting(monkeypatch, exc_type)
        prog = _compile()
        with pytest.raises(exc_type):
            # every hardening layer armed: retries, voting, degradation
            prog.run(RunOptions(max_attempts=5, runs=3, degrade=True), a=a128)
        assert calls["n"] == 1

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_interrupt_skips_retry_backoff(self, a128, monkeypatch,
                                           exc_type):
        # the retry loop alone (no voting/degradation) must re-raise
        # without consuming attempts or charging modeled backoff
        calls = self._interrupting(monkeypatch, exc_type)
        inj = FaultPlan(seed=0, p_launch_fail=0.0).injector()
        prog = _compile()
        with pytest.raises(exc_type):
            prog.run(RunOptions(faults=inj, max_attempts=4), a=a128)
        assert calls["n"] == 1


class TestWatchdogDegradeBatched:
    """Watchdog + ``degrade=True`` on the batched executor: a stuck warp
    becomes a typed SimulationError, the degradation chain walks past the
    hung strategy, and the served bits equal the unfaulted reference."""

    SRC_INT = """
    int a[n];
    int s = 0;
    #pragma acc parallel copyin(a)
    #pragma acc loop gang worker vector reduction(+:s)
    for (i = 0; i < n; i++)
        s += a[i];
    """

    def _compile_int(self):
        return acc.compile(self.SRC_INT, num_gangs=4, num_workers=2,
                           vector_length=32)

    def test_stuck_warp_degrades_to_reference_bits(self):
        a = np.arange(256, dtype=np.int32)
        ref = self._compile_int().run(a=a)  # unfaulted baseline
        assert ref.strategy == "primary"

        inj = FaultPlan(seed=3, p_stuck_warp=1.0, max_faults=1).injector()
        res = self._compile_int().run(RunOptions(
            faults=inj, executor_mode="batched", watchdog_budget=2000,
            max_attempts=1, degrade=True), a=a)
        # the hang was detected (not absorbed silently)...
        assert any(r.kind == "stuck-warp" for r in inj.records)
        # ...the chain walked past the stuck strategy...
        assert res.degradations
        assert all(isinstance(d.cause, SimulationError)
                   for d in res.degradations if d.cause is not None)
        assert res.strategy != "primary"
        # ...and the degraded answer is bit-identical to the reference
        # (integer reduction: no reassociation grey zone)
        assert res.scalars["s"].tobytes() == ref.scalars["s"].tobytes()

    def test_batched_and_reference_degrade_to_same_bits(self):
        a = np.arange(256, dtype=np.int32)
        results = {}
        for mode in ("batched", "reference"):
            inj = FaultPlan(seed=3, p_stuck_warp=1.0,
                            max_faults=1).injector()
            res = self._compile_int().run(RunOptions(
                faults=inj, executor_mode=mode, watchdog_budget=2000,
                max_attempts=1, degrade=True), a=a)
            results[mode] = res.scalars["s"]
        assert results["batched"].tobytes() == \
            results["reference"].tobytes()
