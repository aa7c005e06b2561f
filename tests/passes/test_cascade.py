"""Cascade-fusion pass tests: fusion wins, bit-identity, skip decisions."""

import dataclasses

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.apps.softmax import SOFTMAX_SRC, softmax_result
from repro.errors import IRVerificationError
from repro.obs import timeline
from repro.passes.cascade import verify_cascade
from repro.gpu import kernelir as K

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)

#: max → consume cascade with no autotuner in the pipeline, so the
#: producer keeps its finish kernel and fusion is decidable by the test
CASCADE_SRC = """
float x[n];
float m = -3.0e38f;
float s = 0.0f;
#pragma acc parallel copyin(x)
{
#pragma acc loop gang worker vector reduction(max:m)
for (i = 0; i < n; i++) if (x[i] > m) m = x[i];
#pragma acc loop gang worker vector reduction(+:s)
for (i = 0; i < n; i++) s = s + (x[i] - m);
}
"""

#: minimal + cascade-fusion only: isolates the pass under test
FUSE_PIPE = "cascade-fusion"


def _x(n=256, seed=3):
    return np.random.default_rng(seed).standard_normal(n) \
        .astype(np.float32)


def _run_bits(prog, x, mode="batched", **kw):
    res = prog.run(RunOptions(executor_mode=mode), x=x, **kw)
    return {name: np.asarray(val).tobytes()
            for name, val in res.scalars.items()}


def _decisions(tl, prefix):
    return [e for e in tl.events("passes")
            if e.kind == "decision" and e.name.startswith(prefix)]


class TestFusion:
    def test_fused_cascade_drops_the_finish_kernel(self):
        fused = acc.compile(CASCADE_SRC, **GEOM, pipeline=FUSE_PIPE,
                            cascade_fusion="always")
        plain = acc.compile(CASCADE_SRC, **GEOM, pipeline="minimal")
        fused_names = [k.name for k in fused.lowered.kernels]
        plain_names = [k.name for k in plain.lowered.kernels]
        assert "acc_reduction_finish_m" in plain_names
        assert "acc_reduction_finish_m" not in fused_names
        assert len(fused_names) == len(plain_names) - 1
        (spec,) = [g for g in fused.lowered.gang_reductions
                   if g.var == "m"]
        assert spec.cascade_fused and spec.finish_kernel is None
        stage1 = fused.lowered.stage_kernel(1)
        assert "cascade-fused finish of m" in stage1.note

    @pytest.mark.parametrize("mode", ["reference", "batched", "trace"])
    def test_fused_bit_identical_to_minimal(self, mode):
        x = _x()
        fused = acc.compile(CASCADE_SRC, **GEOM, pipeline=FUSE_PIPE,
                            cascade_fusion="always")
        plain = acc.compile(CASCADE_SRC, **GEOM, pipeline="minimal")
        assert _run_bits(fused, x, mode) == \
            _run_bits(plain, x, "reference")

    def test_softmax_compiles_to_fewer_kernels_and_matches(self):
        x = _x(512)
        fused = softmax_result(x, **GEOM)
        never = softmax_result(x, cascade_fusion="never", **GEOM)
        assert fused.num_kernels < never.num_kernels
        assert fused.y.tobytes() == never.y.tobytes()
        expect = np.exp(x - x.max())
        np.testing.assert_allclose(fused.y, expect / expect.sum(),
                                   rtol=1e-5)

    def test_softmax_differential_pin(self):
        # the acceptance sweep: fused vs unfused vs minimal, all three
        # executors, one set of bits
        x = _x(256, seed=11)
        progs = {
            "fused": acc.compile(SOFTMAX_SRC, **GEOM),
            "never": acc.compile(SOFTMAX_SRC, **GEOM,
                                 cascade_fusion="never"),
            "minimal": acc.compile(SOFTMAX_SRC, **GEOM,
                                   pipeline="minimal"),
        }
        kw = dict(y=np.zeros_like(x), m=np.float32(-np.inf),
                  s=np.float32(0.0))
        baseline = None
        for name, prog in progs.items():
            for mode in ("reference", "batched", "trace"):
                res = prog.run(RunOptions(executor_mode=mode), x=x, **kw)
                bits = (res.outputs["y"].tobytes(),
                        np.asarray(res.scalars["s"]).tobytes(),
                        np.asarray(res.scalars["m"]).tobytes())
                if baseline is None:
                    baseline = bits
                assert bits == baseline, f"{name}/{mode} diverged"

    def test_cost_model_decision_lands_in_autotune_records(self):
        prog = acc.compile(SOFTMAX_SRC, **GEOM)
        rec = prog.autotune.get("s", {}).get("cascade_fusion")
        assert rec is not None
        assert rec["choice"] == "fused"
        assert rec["reason"] == "cost-model"
        assert rec["fused_us"] < rec["unfused_us"]

    def test_pinned_choice_is_never_overridden(self):
        # cascade_fusion="never" with the full optimized pipeline (cost
        # model would say "fuse") must stay unfused
        prog = acc.compile(SOFTMAX_SRC, **GEOM, cascade_fusion="never")
        assert all(not g.cascade_fused
                   for g in prog.lowered.gang_reductions)
        rec = prog.autotune.get("s", {}).get("cascade_fusion")
        assert rec == {"choice": "unfused", "reason": "pinned-never"}


class TestDecisions:
    def test_fusion_decision_on_timeline(self):
        with timeline.enabled() as tl:
            acc.compile(CASCADE_SRC, **GEOM, pipeline=FUSE_PIPE,
                        cascade_fusion="always")
            evs = _decisions(tl, "cascade-fusion:m")
        assert len(evs) == 1
        assert evs[0].attrs["fused"] is True
        assert evs[0].attrs["reason"] == "pinned-always"

    def test_no_consumer_stage_skips(self):
        # s lives in the last stage: nothing downstream consumes it
        with timeline.enabled() as tl:
            prog = acc.compile(CASCADE_SRC, **GEOM, pipeline=FUSE_PIPE,
                               cascade_fusion="always")
            evs = _decisions(tl, "cascade-fusion:s")
        assert len(evs) == 1
        assert evs[0].attrs["fused"] is False
        assert evs[0].attrs["reason"] == "no-consumer-stage"
        (spec,) = [g for g in prog.lowered.gang_reductions
                   if g.var == "s"]
        assert not spec.cascade_fused

    def test_shared_overflow_skips_with_budget_attrs(self):
        # a finish block too large for shared memory: the replay
        # prologue cannot be housed, so the cascade stays unfused
        with timeline.enabled() as tl:
            prog = acc.compile(CASCADE_SRC, **GEOM, pipeline=FUSE_PIPE,
                               cascade_fusion="always",
                               finish_block_size=16384)
            evs = _decisions(tl, "cascade-fusion:m")
        assert len(evs) == 1
        assert evs[0].attrs["reason"] == "shared-overflow"
        assert evs[0].attrs["needed_bytes"] > evs[0].attrs["budget_bytes"]
        assert all(not g.cascade_fused
                   for g in prog.lowered.gang_reductions)

    def test_fuse_finish_shared_overflow_decision(self):
        # the PR-5 fuse-finish pass must announce its shared-overflow
        # skip the same way (regression: it used to skip silently)
        src = """
float a[n];
float total = 0.0f;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++) total += a[i];
"""
        with timeline.enabled() as tl:
            acc.compile(src, **GEOM, pipeline="fuse-finish",
                        finish_block_size=16384)
            evs = _decisions(tl, "fuse-finish:total")
        assert len(evs) == 1
        assert evs[0].attrs["fused"] is False
        assert evs[0].attrs["reason"] == "shared-overflow"
        assert evs[0].attrs["needed_bytes"] > evs[0].attrs["budget_bytes"]

    def test_argmax_pair_skips_cascade(self):
        src = """
float x[n];
float m = -3.0e38f;
int mi = 0;
float s = 0.0f;
#pragma acc parallel copyin(x)
{
#pragma acc loop gang worker vector reduction(argmax:m,mi)
for (i = 0; i < n; i++) if (x[i] > m) { m = x[i]; mi = i; }
#pragma acc loop gang worker vector reduction(+:s)
for (i = 0; i < n; i++) s = s + (x[i] - m);
}
"""
        with timeline.enabled() as tl:
            prog = acc.compile(src, **GEOM, pipeline=FUSE_PIPE,
                               cascade_fusion="always")
            evs = _decisions(tl, "cascade-fusion:m")
        assert len(evs) == 1
        assert evs[0].attrs["fused"] is False
        assert evs[0].attrs["reason"] == "pair-reduction"
        x = _x()
        res = prog.run(RunOptions(executor_mode="batched"), x=x)
        assert float(res.scalars["m"]) == x.max()
        assert int(res.scalars["mi"]) == int(np.argmax(x))


class TestVerifier:
    def _fused(self):
        prog = acc.compile(CASCADE_SRC, **GEOM, pipeline=FUSE_PIPE,
                           cascade_fusion="always")
        (spec,) = [g for g in prog.lowered.gang_reductions
                   if g.var == "m"]
        return prog.lowered.stage_kernel(1), spec

    def test_fused_kernel_passes(self):
        kern, spec = self._fused()
        verify_cascade(kern, spec, 0)  # does not raise

    def test_missing_broadcast_load_rejected(self):
        kern, spec = self._fused()
        body = tuple(s for s in kern.body
                     if not (isinstance(s, K.SLoad)
                             and s.dst == "_cf0_tot"))
        broken = dataclasses.replace(kern, body=body)
        with pytest.raises(IRVerificationError, match="broadcast load"):
            verify_cascade(broken, spec, 0)

    def test_wrong_fold_order_rejected(self):
        kern, spec = self._fused()

        def flip(s):
            if isinstance(s, K.Assign) and s.dst == spec.var \
                    and isinstance(s.value, K.Call):
                args = s.value.args
                if len(args) == 2 and isinstance(args[0], K.Reg) \
                        and args[0].name == spec.var:
                    return dataclasses.replace(
                        s, value=dataclasses.replace(
                            s.value, args=(args[1], args[0])))
            return s
        broken = dataclasses.replace(kern,
                                     body=tuple(flip(s)
                                                for s in kern.body))
        with pytest.raises(IRVerificationError, match="operand order"):
            verify_cascade(broken, spec, 0)

    def test_duplicate_result_store_rejected(self):
        kern, spec = self._fused()
        store = next(s for s, _ in K.walk_stmts(kern.body)
                     if isinstance(s, K.GStore)
                     and s.buf == spec.result_buf)
        broken = dataclasses.replace(kern, body=kern.body + (store,))
        with pytest.raises(IRVerificationError, match="stores"):
            verify_cascade(broken, spec, 0)


class TestEdgeCases:
    """Satellite edge grid: NaN, signed zero, integer wrap — all modes."""

    @pytest.mark.parametrize("mode", ["reference", "batched", "trace"])
    def test_nan_propagates_identically_through_fused_cascade(self, mode):
        x = _x(256, seed=5)
        x[17] = np.nan
        x[200] = np.nan
        fused = acc.compile(CASCADE_SRC, **GEOM, pipeline=FUSE_PIPE,
                            cascade_fusion="always")
        plain = acc.compile(CASCADE_SRC, **GEOM, pipeline="minimal")
        fb = _run_bits(fused, x, mode)
        pb = _run_bits(plain, x, "reference")
        assert fb == pb
        # the strict max compare never selects NaN; the sum then
        # propagates it — s must be NaN bit-for-bit in both builds
        assert np.isnan(np.frombuffer(fb["s"], np.float32)[0])
        assert not np.isnan(np.frombuffer(fb["m"], np.float32)[0])

    @pytest.mark.parametrize("mode", ["reference", "batched", "trace"])
    def test_argmin_signed_zero_tie_breaks_to_first_index(self, mode):
        src = """
float x[n];
float m = 3.0e38f;
int mi = 0;
#pragma acc parallel copyin(x)
#pragma acc loop gang worker vector reduction(argmin:m,mi)
for (i = 0; i < n; i++) if (x[i] < m) { m = x[i]; mi = i; }
"""
        x = np.full(96, 7.0, np.float32)
        x[10] = np.float32(0.0)
        x[40] = np.float32(-0.0)
        x[70] = np.float32(0.0)
        prog = acc.compile(src, **GEOM)
        res = prog.run(RunOptions(executor_mode=mode), x=x,
                       mi=np.int32(np.iinfo(np.int32).max))
        # -0.0 == 0.0 under the strict compare, so the tie breaks to
        # the smallest index and keeps that element's sign bit
        assert int(res.scalars["mi"]) == 10
        assert np.asarray(res.scalars["m"]).tobytes() == \
            np.float32(0.0).tobytes()

    @pytest.mark.parametrize("mode", ["reference", "batched", "trace"])
    def test_int_overflow_wraps_identically_when_fused(self, mode):
        src = """
int x[n];
int s = 0;
int t = 0;
#pragma acc parallel copyin(x)
{
#pragma acc loop gang worker vector reduction(+:s)
for (i = 0; i < n; i++) s = s + x[i];
#pragma acc loop gang worker vector reduction(+:t)
for (i = 0; i < n; i++) t = t + (x[i] ^ s);
}
"""
        rng = np.random.default_rng(9)
        x = rng.integers(np.iinfo(np.int32).min // 2,
                         np.iinfo(np.int32).max // 2,
                         size=256).astype(np.int32)
        fused = acc.compile(src, **GEOM, pipeline=FUSE_PIPE,
                            cascade_fusion="always")
        plain = acc.compile(src, **GEOM, pipeline="minimal")
        fb = _run_bits(fused, x, mode)
        assert fb == _run_bits(plain, x, "reference")
        with np.errstate(over="ignore"):
            s = x.sum(dtype=np.int32)
            t = (x ^ s).sum(dtype=np.int32)
        assert fb["s"] == s.tobytes()
        assert fb["t"] == t.tobytes()
