"""Sparse branch sides run on their live blocks only.

Once at most half of a chunk's blocks have a lane on one side of an
``If``, the batched executor runs that side on a copy of the chunk
sliced to those blocks (:func:`repro.gpu.executor_batched._run_branch`),
as its loops and the trace executor's ``branch_region`` already do.  The
slice must be invisible: results, every counter, attribution rows,
TraceEvents, fault records and errors match the reference executor for
any chunk size.  The engagement pin keeps the fused finish epilogue of
the Table 2 gang reductions on that path at the paper's 192x8x128
launch, where it is a one-block branch of a 192-block chunk.
"""

import dataclasses
import sys

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.dtypes import DType
from repro.errors import BarrierDivergenceError, WatchdogTimeoutError
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import GlobalMemory, K20C, executor_batched
from repro.gpu import kernelir as K
from repro.gpu.executor import CompiledKernel
from repro.testsuite.cases import make_case

TABLE2_GEOMETRY = dict(num_gangs=192, num_workers=8, vector_length=128)
GANG_POSITIONS = ("gang", "gang worker", "gang worker vector",
                  "same line gang worker vector")


@pytest.fixture
def branch_slices(monkeypatch):
    """``(chunk rows, compacted block ids)`` of every branch side that
    ran compacted (loop compactions are not recorded)."""
    seen = []
    orig = executor_batched._compact_env

    def compact(env, idx):
        sub = orig(env, idx)
        if sys._getframe(1).f_code.co_name == "_run_branch":
            seen.append((len(env.block_ids), tuple(sub.block_ids.tolist())))
        return sub

    monkeypatch.setattr(executor_batched, "_compact_env", compact)
    return seen


def _i(v):
    return K.const_int(v)


def _bin(op, a, b):
    return K.Bin(op, a, b)


def sparse_branch_kernel():
    """A branch taken by blocks 1 and 5 only, holding a barrier, shared
    stores and loads, a global load and store, a nested ``While`` whose
    trip count differs per block, a divergent inner ``If``, registers
    first assigned inside the branch and an int->float re-assignment of
    a register that exists before it.  A loop after the branch keeps
    counting watchdog steps."""
    tid, bx, ntid = K.Special("tid"), K.Special("bx"), K.Special("ntid")
    gi = _bin("+", _bin("*", bx, ntid), tid)
    then = (
        K.SStore("sh", tid, K.Reg("v")),
        K.Sync(),
        K.SLoad("w", "sh", _bin("%", _bin("+", tid, _i(1)), ntid)),
        K.Assign("j", _i(0)),
        K.While(_bin("<", K.Reg("j"), bx), (
            K.GLoad("u", "in", _bin("%", _bin("+", gi, K.Reg("j")),
                                    _i(640))),
            K.Assign("w", _bin("+", K.Reg("w"), K.Reg("u"))),
            K.Assign("j", _bin("+", K.Reg("j"), _i(1))),
        )),
        K.If(_bin("<", tid, _i(16)), (
            K.Assign("x", K.Cast(DType.FLOAT,
                                 _bin("*", K.Reg("w"), _i(3)))),
        ), (
            K.Assign("x", K.Cast(DType.FLOAT, K.Reg("w"))),
        )),
        K.Sync(),
        K.SStore("sh", tid, K.Reg("w")),
        K.GStore("side", gi, K.Reg("w")),
    )
    body = (
        K.Assign("x", tid),
        K.GLoad("v", "in", gi),
        K.If(_bin("==", _bin("%", bx, _i(4)), _i(1)), then, (
            K.Assign("x", _bin("+", K.Reg("x"), K.Reg("v"))),
        )),
        K.GStore("out", gi, K.Reg("x")),
        K.Assign("k", _i(0)),
        K.While(_bin("<", K.Reg("k"), _i(2)), (
            K.Assign("k", _bin("+", K.Reg("k"), _i(1))),
        )),
    )
    return K.stamp_sids(K.Kernel(
        "sparse", body, buffers=("in", "out", "side"),
        shared=(K.SharedArraySpec("sh", DType.INT, 64),)))


GRID, BLOCK = 9, (64, 1)
#: watchdog steps of one launch: 1 + 5 trips of the in-branch loop
#: (blocks 1 and 5), then 2 trips of the closing loop in every block
STEPS = 1 + 5 + 2 * GRID


def _stats_dict(st):
    d = {f.name: getattr(st, f.name) for f in dataclasses.fields(st)
         if f.name not in ("trace", "attribution")}
    d["attr"] = st.attribution.as_dict()
    # the batched executor emits events statement by statement across a
    # chunk's blocks, the reference block by block: compare as multisets
    d["trace"] = sorted((ev.kind, ev.block, ev.detail) for ev in st.trace)
    return d


def run_sparse(mode, faults=None, events=True, budget=None):
    g = GlobalMemory(K20C)
    n = GRID * BLOCK[0]
    g.alloc("in", n, DType.INT, init=(np.arange(n) * 7) % 23)
    g.alloc("out", n, DType.FLOAT)
    g.alloc("side", n, DType.INT)
    st = CompiledKernel(sparse_branch_kernel(), K20C).run(
        g, GRID, BLOCK, trace=events, mode=mode, attribution=True,
        faults=faults, watchdog_budget=budget)
    data = {b: g[b].data.tobytes() for b in ("out", "side")}
    return data, _stats_dict(st)


class TestEngagement:
    @pytest.mark.parametrize("position", GANG_POSITIONS)
    def test_fused_finish_epilogue_runs_on_one_row(self, position,
                                                   branch_slices):
        case = make_case(position, "+", "float", size=4096)
        prog = acc.compile(case.source, **TABLE2_GEOMETRY)
        prog.run(RunOptions(executor_mode="batched"),
                 **case.make_inputs(np.random.default_rng(3)))
        # the last-block epilogue, sliced from the whole chunk to block 191
        assert (192, (191,)) in branch_slices, branch_slices


class TestBitIdentity:
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_matches_reference(self, chunk, monkeypatch, branch_slices):
        ref_data, ref_stats = run_sparse("reference")
        monkeypatch.setattr(executor_batched, "DEFAULT_BLOCK_BATCH", chunk)
        data, stats = run_sparse("batched")
        assert data == ref_data
        assert stats == ref_stats
        if chunk > 1:
            assert branch_slices, "no branch side ran compacted"

    def test_trace_executor_matches_reference(self, monkeypatch):
        # TraceEvent collection demotes trace to batched, so compare the
        # generated code on results, counters and attribution alone
        ref = run_sparse("reference", events=False)
        for chunk in (1, 7, 256):
            monkeypatch.setattr(executor_batched, "DEFAULT_BLOCK_BATCH",
                                chunk)
            assert run_sparse("trace", events=False) == ref, chunk

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_watchdog_steps_match_reference(self, chunk, monkeypatch):
        monkeypatch.setattr(executor_batched, "DEFAULT_BLOCK_BATCH", chunk)
        for mode in ("reference", "batched", "trace"):
            run_sparse(mode, events=False, budget=STEPS)
            with pytest.raises(WatchdogTimeoutError) as ei:
                run_sparse(mode, events=False, budget=STEPS - 1)
            assert ei.value.steps == STEPS, mode

    def test_fault_records_match_reference(self, monkeypatch):
        plan = FaultPlan(seed=99, p_gload_flip=0.3, p_sload_flip=0.3,
                         max_faults=None)
        out = {}
        for mode in ("reference", "batched"):
            inj = FaultInjector(plan)
            data, stats = run_sparse(mode, faults=inj)
            recs = sorted((r.site, r.kind, tuple(sorted(r.detail.items())))
                          for r in inj.records)
            out[mode] = (data, stats, recs)
        assert out["reference"][2], "plan injected nothing"
        assert out["batched"] == out["reference"]


class TestErrors:
    def test_divergent_sync_in_compacted_branch(self, branch_slices):
        tid, bx = K.Special("tid"), K.Special("bx")
        k = K.stamp_sids(K.Kernel("badsync", (
            K.If(_bin("==", bx, _i(2)), (
                K.If(_bin("<", tid, _i(40)), (K.Sync(),)),
            )),
            K.GStore("out", bx, bx),
        ), buffers=("out",)))
        msgs = {}
        for mode in ("reference", "batched", "trace"):
            g = GlobalMemory(K20C)
            g.alloc("out", 6, DType.INT)
            with pytest.raises(BarrierDivergenceError) as ei:
                CompiledKernel(k, K20C).run(g, 6, (64, 1), mode=mode)
            msgs[mode] = str(ei.value)
        assert msgs["batched"] == msgs["reference"] == msgs["trace"]
        assert "(40/64 threads active)" in msgs["reference"]
        assert (6, (2,)) in branch_slices


class TestWatchdogBlock:
    """The watchdog names the block that is still looping."""

    @staticmethod
    def _spin(cond):
        return K.stamp_sids(K.Kernel("spin", (
            K.Assign("i", _i(0)),
            K.While(cond, (K.Assign("x", K.Reg("i")),)),
            K.GStore("out", K.Special("bx"), K.Reg("i")),
        ), buffers=("out",)))

    @pytest.mark.parametrize("mode", ["reference", "batched", "trace"])
    @pytest.mark.parametrize("cond, block", [
        (_bin("==", K.Special("bx"), _i(3)), 3),   # compacted to one row
        (_bin(">=", K.Special("bx"), _i(1)), 1),   # 3 of 4 rows: no slice
    ])
    def test_names_lowest_looping_block(self, mode, cond, block):
        g = GlobalMemory(K20C)
        g.alloc("out", 4, DType.INT)
        with pytest.raises(WatchdogTimeoutError,
                           match=f"loop steps in block {block} "):
            CompiledKernel(self._spin(cond), K20C).run(
                g, 4, (32, 1), watchdog_budget=100, mode=mode)
