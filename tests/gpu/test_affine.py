"""Lane-affine analysis: verdicts, fallbacks and engagement.

:func:`repro.gpu.affine.lane_affine_stmts` decides, per memory access,
whether the executors may count it in closed form
(:class:`~repro.gpu.memory.WarpRuns`) or must enumerate its lanes.  These
tests pin the verdicts on hand-built kernels, check that every varying
shape really takes the enumerated path with counters identical to the
reference executor, and that the hot accesses of the Table 2 kernels
stay on the closed form under both block-axis executors.
"""

import dataclasses

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.dtypes import DType
from repro.gpu import GlobalMemory, K20C
from repro.gpu import kernelir as K
from repro.gpu.affine import lane_affine_stmts
from repro.gpu.executor import CompiledKernel
from repro.gpu.memory import GlobalMemory as _GM
from repro.testsuite.cases import generate_cases

TX, TY, TID, BX = (K.Special(k) for k in ("tx", "ty", "tid", "bx"))


def c(v):
    return K.const_int(v)


def add(a, b):
    return K.Bin("+", a, b)


def mul(a, b):
    return K.Bin("*", a, b)


def lt(a, b):
    return K.Bin("<", a, b)


def kernel(*body, params=()):
    return K.stamp_sids(K.Kernel("k", tuple(body), params=params,
                                 buffers=("a", "b")))


def verdict(k, pick=lambda s: isinstance(s, K.GLoad) and s.buf == "a"):
    stmts = [s for s, _ in K.walk_stmts(k.body) if pick(s)]
    assert len(stmts) == 1
    return lane_affine_stmts(k).get(id(stmts[0]))


@pytest.fixture
def spy(monkeypatch):
    """Records ``(buffer, closed_form)`` per transaction-count call;
    ``closed_form`` is whether the call counted from warp runs."""
    calls = []
    orig_count = _GM._count_transactions_batched
    orig_closed = _GM._closed_form

    def count(self, buf, *args, **kw):
        calls.append((buf.name, False))
        return orig_count(self, buf, *args, **kw)

    def closed_form(self, buf, runs, st):
        out = orig_closed(self, buf, runs, st)
        calls[-1] = (buf.name, out is not None)
        return out

    monkeypatch.setattr(_GM, "_count_transactions_batched", count)
    monkeypatch.setattr(_GM, "_closed_form", closed_form)
    return calls


def _stats(st):
    return {f.name: getattr(st, f.name) for f in dataclasses.fields(st)
            if f.name not in ("trace", "attribution")}


def run_modes(k, block_dim=(64, 2), grid=3, params=None):
    """Launch ``k`` under every executor; return stats per mode."""
    out = {}
    for mode in ("reference", "batched", "trace"):
        g = GlobalMemory(K20C)
        g.alloc("a", 8192, DType.INT, init=np.arange(8192) % 97)
        g.alloc("b", 8192, DType.INT, init=(np.arange(8192) * 37) % 4096)
        out[mode] = _stats(CompiledKernel(k, K20C).run(
            g, grid, block_dim, params=params or {}, mode=mode))
    return out


class TestVerdicts:
    def test_tx_has_stride_one(self):
        k = kernel(K.GLoad("v", "a", add(mul(BX, c(128)), TX)))
        assert verdict(k).stride == 1

    def test_scaled_tx_and_uniform_terms(self):
        k = kernel(K.GLoad("v", "a", add(mul(TX, c(4)),
                                          mul(TY, c(1024)))))
        assert verdict(k).stride == 4

    def test_tid_and_negation(self):
        k = kernel(K.GLoad("v", "a", K.Bin("-", c(4000), TID)))
        assert verdict(k).stride == -1

    def test_uniform_index(self):
        k = kernel(K.Assign("j", TY),
                   K.GLoad("v", "a", mul(K.Reg("j"), c(32))))
        assert verdict(k).stride == 0

    def test_parameter_stride_through_top_level_register(self):
        k = kernel(K.Assign("n", K.Param("n")),
                   K.GLoad("v", "a", mul(TX, K.Reg("n"))),
                   params=("n",))
        v = verdict(k)
        assert v.stride == K.Param("n")

    def test_window_loop_stays_affine(self):
        # i = tx; while (i < n) { a[i]; i += 128; }
        k = kernel(K.Assign("i", TX),
                   K.While(lt(K.Reg("i"), c(500)), (
                       K.GLoad("v", "a", K.Reg("i")),
                       K.Assign("i", add(K.Reg("i"), c(128))))))
        assert verdict(k).stride == 1

    def test_fused_finish_loop_under_divergent_if(self):
        # if (tid < 256) { i = tid; while (i < n) { a[i]; i += 256; } }
        k = kernel(K.If(lt(TID, c(256)), (
            K.Assign("i", TID),
            K.While(lt(K.Reg("i"), c(700)), (
                K.GLoad("v", "a", K.Reg("i")),
                K.Assign("i", add(K.Reg("i"), c(256))))))))
        assert verdict(k).stride == 1

    def test_register_reused_after_divergent_loop_is_varying(self):
        # after a lane-varying loop, i depends on each lane's trip count
        k = kernel(K.Assign("i", TX),
                   K.While(lt(K.Reg("i"), K.Bin("%", BX, c(3))), (
                       K.Assign("i", add(K.Reg("i"), c(128))),)),
                   K.GLoad("v", "a", K.Reg("i")))
        assert verdict(k) is None


#: varying shapes: each must lose the verdict and take the fallback
VARYING = {
    "tx*tx": kernel(K.GLoad("v", "a", mul(TX, TX))),
    "tx%7": kernel(K.GLoad("v", "a", K.Bin("%", TX, c(7)))),
    "data-dependent": kernel(K.GLoad("w", "b", TX),
                             K.GLoad("v", "a", K.Reg("w"))),
    "divergent-assign": kernel(
        K.Assign("r", TX),
        K.If(lt(TX, c(5)), (K.Assign("r", add(TX, c(100))),)),
        K.GLoad("v", "a", K.Reg("r"))),
}


class TestVaryingFallback:
    @pytest.mark.parametrize("name", sorted(VARYING))
    def test_varying_verdict_and_enumerated_path(self, name, spy):
        k = VARYING[name]
        assert verdict(k) is None
        stats = run_modes(k)
        assert stats["batched"] == stats["reference"]
        assert stats["trace"] == stats["reference"]
        assert ("a", False) in spy
        assert ("a", True) not in spy

    def test_block_width_not_a_warp_multiple_falls_back(self, spy):
        k = kernel(K.GLoad("v", "a", add(mul(BX, c(128)), TX)))
        assert verdict(k) is not None  # the layout guard is per launch
        stats = run_modes(k, block_dim=(48, 2))
        assert stats["batched"] == stats["reference"]
        assert stats["trace"] == stats["reference"]
        assert spy and all(not closed for _, closed in spy)

    def test_wrapped_index_arithmetic_falls_back(self, spy):
        # tx * 2^16 * 2^16 wraps to 0 in int32: every lane reads a[0],
        # while the closed form would put lane j at j * 2^32
        k = kernel(K.GLoad("v", "a", mul(mul(TX, c(65536)), c(65536))))
        assert verdict(k).stride == 1 << 32
        stats = run_modes(k)
        assert stats["batched"] == stats["reference"]
        assert stats["trace"] == stats["reference"]
        assert spy and all(not closed for _, closed in spy)

    def test_same_kernel_takes_closed_form_on_warp_multiple(self, spy):
        k = kernel(K.GLoad("v", "a", add(mul(BX, c(128)), TX)))
        stats = run_modes(k, block_dim=(64, 2))
        assert stats["batched"] == stats["reference"]
        assert spy and all(closed for _, closed in spy)


def _in_loops(stmts, inside=False):
    for s in stmts:
        if isinstance(s, (K.GLoad, K.GStore)) and inside:
            yield s
        elif isinstance(s, K.If):
            yield from _in_loops(s.then, inside)
            yield from _in_loops(s.orelse, inside)
        elif isinstance(s, (K.While, K.UniformWhile)):
            yield from _in_loops(s.body, True)


class TestTable2Engagement:
    """The Table 2 kernels' global accesses stay on the closed form.

    If a change silently sends them back to per-lane enumeration, this
    fails instead of the speedup quietly disappearing."""

    GEOMETRY = dict(num_gangs=192, num_workers=8, vector_length=128)

    @pytest.fixture(scope="class")
    def programs(self):
        return [(case, acc.compile(case.source, **self.GEOMETRY))
                for case in generate_cases(size=4096)]

    def test_all_42_cases(self, programs):
        assert len(programs) == 42

    def test_loop_accesses_have_verdicts(self, programs):
        for case, prog in programs:
            for kern in prog.lowered.kernels:
                affine = lane_affine_stmts(kern)
                hot = list(_in_loops(kern.body))
                assert hot, case.label
                missing = [s.buf for s in hot if id(s) not in affine]
                assert not missing, (case.label, missing)

    @pytest.mark.parametrize("mode", ["batched", "trace"])
    def test_no_enumerated_global_access(self, programs, mode, spy):
        for case, prog in programs:
            spy.clear()
            prog.run(RunOptions(executor_mode=mode),
                     **case.make_inputs(np.random.default_rng(0)))
            enumerated = sorted({b for b, closed in spy if not closed})
            assert spy and not enumerated, (case.label, enumerated)
