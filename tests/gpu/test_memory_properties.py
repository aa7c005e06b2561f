"""Property tests on the memory model's accounting invariants."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dtypes import DType
from repro.gpu.device import K20C
from repro.gpu.events import KernelStats
from repro.gpu.kernelir import SharedArraySpec
from repro.gpu.memory import (
    _SEG_TAG, AffineAccess, Buffer, GlobalMemory, RunsMemo, SharedMemory,
    _SlotReuse, _popcount, finalize_segment_reuse, warp_runs,
)

SIZE = 4096


def warp_of(n):
    return (np.arange(n) // 32).astype(np.int32)


class TestGlobalAccounting:
    @given(
        idx=st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=128),
        dtype=st.sampled_from([DType.INT, DType.DOUBLE]),
    )
    @settings(max_examples=50, deadline=None)
    def test_transaction_bounds(self, idx, dtype):
        """DRAM fetches are bounded by distinct segments and lane count;
        total requests never exceed active lanes."""
        g = GlobalMemory(K20C)
        g.alloc("a", SIZE, dtype)
        stats = KernelStats()
        arr = np.asarray(idx, dtype=np.int64)
        mask = np.ones(len(idx), dtype=bool)
        g.load("a", arr, mask, warp_of(len(idx)), stats)

        base = g["a"].base
        segs = np.unique((base + arr * dtype.itemsize) // 128).size
        requests = stats.global_transactions + stats.l2_transactions
        assert stats.global_transactions == segs
        assert requests >= segs
        assert requests <= len(idx)
        assert stats.global_bytes == len(idx) * dtype.itemsize
        assert stats.dram_bytes == segs * 128

    @given(idx=st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=96))
    @settings(max_examples=30, deadline=None)
    def test_statement_reuse_never_increases_dram(self, idx):
        """Re-executing the same access with a reuse slot costs no new
        DRAM fetches."""
        g = GlobalMemory(K20C)
        g.alloc("a", SIZE, DType.FLOAT)
        arr = np.asarray(idx, dtype=np.int64)
        mask = np.ones(len(idx), dtype=bool)
        cache: dict = {}
        s1 = KernelStats()
        g.load("a", arr, mask, warp_of(len(idx)), s1, reuse=(cache, 7))
        s2 = KernelStats()
        g.load("a", arr, mask, warp_of(len(idx)), s2, reuse=(cache, 7))
        assert s2.global_transactions == 0
        assert s2.l2_transactions == \
            s1.global_transactions + s1.l2_transactions

    @given(
        values=st.lists(st.integers(-100, 100), min_size=1, max_size=64),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_store_load_roundtrip(self, values, seed):
        g = GlobalMemory(K20C)
        g.alloc("a", SIZE, DType.INT)
        rng = np.random.default_rng(seed)
        idx = rng.choice(SIZE, size=len(values), replace=False)
        vals = np.asarray(values, dtype=np.int32)
        mask = np.ones(len(values), dtype=bool)
        g.store("a", idx, vals, mask, warp_of(len(values)), KernelStats())
        out = g.load("a", idx, mask, warp_of(len(values)), KernelStats())
        np.testing.assert_array_equal(out, vals)


class TestSharedAccounting:
    @given(idx=st.lists(st.integers(0, 255), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_conflict_degree_bounds(self, idx):
        """One warp access serializes between 1 and 32 times, and exactly
        matches the max distinct-words-per-bank."""
        stats = KernelStats()
        sm = SharedMemory(K20C, (SharedArraySpec("s", DType.FLOAT, 256),),
                          stats)
        arr = np.asarray(idx, dtype=np.int64)
        mask = np.ones(len(idx), dtype=bool)
        sm.load("s", arr, mask, np.zeros(len(idx), dtype=np.int32))

        words = np.unique(arr)  # float32: one word per element
        banks = words % 32
        expect = max(np.bincount(banks.astype(int), minlength=32).max(), 1)
        assert stats.shared_accesses == expect
        assert 1 <= stats.shared_accesses <= 32
        assert stats.bank_conflict_extra == expect - 1


# ---------------------------------------------------------------------------
# closed-form (lane-affine) accounting vs the enumerated per-lane path
# ---------------------------------------------------------------------------

WS = K20C.warp_size
_ITEM = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}


def _run_strategy():
    """One warp's active lanes: full, prefix, suffix, interior or none."""
    return st.one_of(
        st.just((0, WS)),
        st.integers(1, WS - 1).map(lambda k: (0, k)),
        st.integers(1, WS - 1).map(lambda k: (WS - k, k)),
        st.tuples(st.integers(1, WS - 2), st.integers(1, WS - 2)).map(
            lambda t: (t[0], max(1, min(t[1], WS - 1 - t[0])))),
        st.just((0, 0)),
    )


@st.composite
def _affine_calls(draw):
    """A buffer, a stride and a sequence of executions of one access.

    An execution either draws new blocks, runs and indices, or repeats
    the previous one with every index moved by one offset (a loop's next
    iteration), a whole number of segments or not."""
    itemsize = draw(st.sampled_from(sorted(_ITEM)))
    big = 128 // itemsize
    stride = draw(st.one_of(
        st.sampled_from([0, 1, -1, 2, big, big + 1, -big, 3 * big]),
        st.integers(-3 * big, 3 * big)))
    # warps per block
    nw = draw(st.sampled_from([1, 2, 3, 4, 40]))
    size = 1 << 15
    span = abs(stride) * (WS - 1)
    lo, hi = (span if stride < 0 else 0), size - 1 - (span if stride > 0
                                                       else 0)
    calls = []
    for _ in range(draw(st.integers(1, 4))):
        if calls and draw(st.booleans()):
            blocks, runs, reps, full = calls[-1]
            flat = [r for row in reps for r in row]
            d = draw(st.one_of(st.integers(-3, 3).map(lambda k: k * big),
                               st.integers(-40, 40)))
            d = max(lo - min(flat), min(d, hi - max(flat)))
            reps = [[r + d for r in row] for row in reps]
            calls.append((blocks, runs, reps, full))
            continue
        blocks = sorted(draw(st.sets(st.integers(0, 7), min_size=1,
                                     max_size=3)))
        runs = [[draw(_run_strategy()) for _ in range(nw)] for _ in blocks]
        full = draw(st.booleans())
        if full:
            runs = [[(0, WS)] * nw for _ in blocks]
        reps = [[draw(st.integers(lo, hi)) for _ in range(nw)]
                for _ in blocks]
        calls.append((np.asarray(blocks, dtype=np.int64), runs, reps, full))
    base = 256 + draw(st.integers(0, 255))
    return itemsize, stride, nw, size, base, calls


def _lanes(nw, runs, reps, stride, rng):
    """Per-lane ``(idx, mask)`` of one execution; inactive lanes hold
    garbage the closed form must never read."""
    nb = len(runs)
    idx = rng.integers(-10**6, 10**6, size=(nb, nw * WS)).astype(np.int32)
    mask = np.zeros((nb, nw * WS), dtype=bool)
    for b in range(nb):
        for w in range(nw):
            first, cnt = runs[b][w]
            lo = w * WS + first
            mask[b, lo:lo + cnt] = True
            idx[b, lo:lo + cnt] = reps[b][w] + stride * np.arange(cnt)
    return idx, mask


def _slot_state(st_):
    return (st_.cur.tolist(), sorted(st_.seen), sorted(st_.blocks),
            {b: v.tolist() for b, v in st_.first.items()})


class TestClosedFormAccounting:
    """The lane-affine closed form is bit-identical to the enumerated
    per-lane path: counters per call, the segment-reuse state after
    every call, and the launch-end cross-block replay."""

    @given(case=_affine_calls(), seed=st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None)
    def test_matches_enumerated_path(self, case, seed):
        itemsize, stride, nw, size, base, calls = case
        rng = np.random.default_rng(seed)
        g = GlobalMemory(K20C)
        buf = Buffer("a", DType.INT, size, base,
                     np.zeros(size, dtype=_ITEM[itemsize]))
        s_enum, s_closed = KernelStats(), KernelStats()
        c_enum, c_closed = {}, {}
        memo = RunsMemo()  # one block chunk's, as the executors keep
        for blocks, runs, reps, full in calls:
            idx, mask = _lanes(nw, runs, reps, stride, rng)
            act = idx[mask]
            if not act.size:
                continue
            nb = len(blocks)
            warpkey = (np.arange(nb, dtype=np.int64)[:, None] * nw
                       + np.arange(nw * WS)[None, :] // WS)
            block_of = np.broadcast_to(blocks[:, None], mask.shape)
            access = AffineAccess(idx, mask, blocks, stride, full, memo)
            runs_ = warp_runs(access, WS)
            assert runs_ is not None
            # in bounds, so the call below takes the closed form
            assert runs_.index_range() == (int(act.min()), int(act.max()))
            before = (dataclasses.astuple(s_enum),
                      dataclasses.astuple(s_closed))
            g._count_transactions_batched(buf, act, warpkey[mask],
                                          block_of[mask], s_enum,
                                          (c_enum, 0))
            g._count_transactions_batched(buf, act, None, None, s_closed,
                                          (c_closed, 0), access)
            assert _counts(s_enum) == _counts(s_closed), before
            assert _slot_state(c_enum[0]) == _slot_state(c_closed[0])
        finalize_segment_reuse(c_enum, s_enum, K20C.transaction_bytes)
        finalize_segment_reuse(c_closed, s_closed, K20C.transaction_bytes)
        assert _counts(s_enum) == _counts(s_closed)

    @given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1,
                          max_size=40),
           width=st.sampled_from([8, 16, 32, 64]))
    def test_popcount_counts_set_bits(self, words, width):
        x = np.asarray([w % (1 << width) for w in words],
                       dtype=f"<u{width // 8}")
        assert _popcount(x).tolist() == [bin(int(w)).count("1") for w in x]

    def test_gap_in_a_strided_run_declines(self):
        idx = np.arange(WS, dtype=np.int32)[None, :]
        mask = np.ones((1, WS), dtype=bool)
        mask[0, 5] = False
        blocks = np.zeros(1, dtype=np.int64)
        assert warp_runs(AffineAccess(idx, mask, blocks, 1), WS) is None
        # a uniform index needs no contiguity
        assert warp_runs(AffineAccess(idx * 0, mask, blocks, 0), WS) \
            is not None

    def test_gap_falls_back_to_per_lane_counting(self):
        idx = np.arange(2 * WS, dtype=np.int32).reshape(2, WS) * 40
        mask = np.ones((2, WS), dtype=bool)
        mask[1, 7] = False
        blocks = np.arange(2, dtype=np.int64)
        g = GlobalMemory(K20C)
        buf = g.alloc("a", 4096, DType.INT)
        act = idx[mask]
        s_enum, s_closed = KernelStats(), KernelStats()
        per_lane = np.repeat(blocks, [WS, WS - 1])  # a warp per block
        g._count_transactions_batched(buf, act, per_lane, per_lane, s_enum)
        g._count_transactions_batched(buf, act, None, None, s_closed,
                                      affine=AffineAccess(idx, mask, blocks,
                                                          40))
        assert _counts(s_enum) == _counts(s_closed)

    def test_threads_count_their_own_big_masks(self):
        """Warp runs come from the mask each call is given, never from
        state another thread left behind: threads counting accesses under
        different big masks at once match a one-thread count."""
        import sys
        import threading
        nb = 64
        blocks = np.arange(nb, dtype=np.int64)
        idx = np.arange(nb * 4 * WS, dtype=np.int32).reshape(nb, 4 * WS)
        masks = [np.zeros((nb, 4 * WS), dtype=bool) for _ in range(2)]
        masks[0][:, :WS + 3] = True            # one full warp + 3 lanes
        masks[1][:, 2 * WS:4 * WS - 9] = True  # warps 2-3, 55 lanes
        g = GlobalMemory(K20C)
        buf = g.alloc("a", nb * 4 * WS, DType.INT)

        def count(mask, out, reps):
            for _ in range(reps):
                st_ = KernelStats()
                g._count_transactions_batched(
                    buf, idx[mask], None, None, st_,
                    affine=AffineAccess(idx, mask, blocks, 1))
                out.append(_counts(st_))

        want = []
        for mask in masks:
            one = []
            count(mask, one, 1)
            want.append(one[0])
        got = [[] for _ in range(4)]
        threads = [threading.Thread(target=count,
                                    args=(masks[i % 2], got[i], 100))
                   for i in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for i, out in enumerate(got):
            assert out == [want[i % 2]] * 100

    @given(itemsize=st.sampled_from([1, 2, 4, 8]),
           stride=st.integers(-70, 70),
           pad=st.integers(0, 40),
           starts=st.lists(st.integers(0, 200), min_size=1, max_size=6),
           cnts=st.lists(st.integers(1, WS), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_bank_degree_table_matches_count_banks(self, itemsize, stride,
                                                   pad, starts, cnts):
        specs = (SharedArraySpec("pad", DType.BOOL, pad + 1),
                 SharedArraySpec("s", DType.INT, 8192))
        s_enum, s_closed = KernelStats(), KernelStats()
        sm_enum = SharedMemory(K20C, specs, s_enum)
        sm_closed = SharedMemory(K20C, specs, s_closed)
        for sm in (sm_enum, sm_closed):
            # any element size; the bank model reads only the itemsize
            sm._dtypes["s"] = type("D", (), {"itemsize": itemsize})
        span = abs(stride) * (WS - 1)
        reps = np.asarray([s + span for s in starts], dtype=np.int64)
        cnt = np.asarray(cnts[:len(starts)], dtype=np.int64)
        # one warp per row, each running a prefix of its lanes
        idx = reps[:, None] + stride * np.arange(WS)[None, :]
        mask = np.arange(WS)[None, :] < cnt[:, None]
        access = AffineAccess(idx, mask, np.zeros(reps.size, np.int64),
                              stride)
        assert warp_runs(access, WS).within(8192)  # the closed form
        warp = np.repeat(np.arange(reps.size), cnt)
        sm_enum._count_banks("s", idx[mask], warp)
        sm_closed._count_banks("s", idx[mask], None, access)
        assert (s_enum.shared_accesses, s_enum.bank_conflict_extra) == \
            (s_closed.shared_accesses, s_closed.bank_conflict_extra)


def _counts(s):
    return (s.global_transactions, s.l2_transactions, s.global_bytes,
            s.dram_bytes)


@st.composite
def _executions(draw):
    """Executions of one statement: per call, each executing block's
    segment set.  Calls repeat the last block set (a loop iteration),
    shrink it (a compacted loop) or draw a new one (the next chunk)."""
    calls, blocks = [], None
    for _ in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(["same", "subset", "new"])) \
            if blocks else "new"
        if how == "subset":
            blocks = sorted(draw(st.sets(st.sampled_from(blocks),
                                         min_size=1)))
        elif how == "new":
            blocks = sorted(draw(st.sets(st.integers(0, 5), min_size=1,
                                         max_size=4)))
        calls.append({b: sorted(draw(st.sets(st.integers(0, 40),
                                             min_size=1, max_size=4)))
                      for b in blocks})
    return calls


class TestSlotReuse:
    @given(calls=_executions())
    @settings(max_examples=300, deadline=None)
    def test_update_replaces_each_executing_blocks_segments(self, calls):
        """``_SlotReuse`` holds, per block, the segments of its latest
        execution (``cur``) and of its first (``first``) — checked
        against a per-block dict after every execution."""
        state = _SlotReuse()
        latest, first = {}, {}
        for call in calls:
            state.update(np.asarray(
                [b * _SEG_TAG + seg for b in sorted(call)
                 for seg in call[b]], dtype=np.int64))
            for b, segs in call.items():
                latest[b] = segs
                first.setdefault(b, segs)
            assert state.cur.tolist() == [
                b * _SEG_TAG + seg for b in sorted(latest)
                for seg in latest[b]]
            assert state.blocks == set(latest)
            assert state.seen == set(first)
            assert {b: v.tolist() for b, v in state.first.items()} == first
