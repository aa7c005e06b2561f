"""Simulated device memories with traffic accounting.

``GlobalMemory`` holds named buffers laid out on a flat byte address space
(256-byte aligned, like ``cudaMalloc``), so coalescing is computed from real
byte addresses: each warp access is split into the set of 128-byte segments
it touches, and each segment is one transaction.  Fully coalesced accesses by
a 32-thread warp of 4-byte elements therefore cost 1 transaction; a strided
(blocking-scheduled) access costs up to 32 — this is the mechanism behind the
paper's preference for window-sliding scheduling (§3.1.3).

``SharedMemory`` models the 32-bank, 4-byte-word Kepler shared memory: a warp
access that maps *n* distinct words to the same bank serializes into *n*
accesses (same-word broadcast is free).  The transposed reduction layouts the
paper rejects (Fig. 6(b) / 8(b)) pay for themselves here.

Two ways to count, one result.  The per-lane path maps every active lane
to its segment (or bank word) and deduplicates; the reference executor
always uses it, as the oracle.  For accesses the static lane-affine
verdict (:mod:`repro.gpu.affine`) covers, the block-axis executors hand
the counting entry points (:meth:`GlobalMemory._count_transactions_batched`,
:meth:`SharedMemory._count_banks`) an :class:`AffineAccess` as well.
The entry point reduces the access to :class:`WarpRuns` — per active
warp, one representative index, its contiguous run length and the
launch-uniform lane stride — and the bounds check, segment ranges, warp
requests, the block-tagged segment set and shared-bank conflict degrees
follow in closed form at O(active warps) cost; a loop's repeat of a
statement whose indices all moved by a whole number of segments shifts
the previous execution's result instead.  A warp whose active
lanes are not one contiguous run, or an index whose int32 arithmetic
wrapped, falls back to the per-lane path inside the same call.  The
block-tagged segment set is identical on both paths, so the
segment-reuse state and its launch-end replay
(:func:`finalize_segment_reuse`) cannot tell them apart.  See
``docs/cost-model.md``, "How the counters are computed".

Store semantics: when several active threads store to the same element in one
statement, the highest thread id wins, deterministically.  This makes
missing-privatization races (the modeled commercial-compiler defects) produce
stable wrong answers instead of flaky ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.dtypes import DType
from repro.errors import OutOfBoundsError, ResourceError
from repro.gpu.device import DeviceProperties
from repro.gpu.events import KernelStats

__all__ = ["Buffer", "GlobalMemory", "SharedMemory", "BatchedSharedMemory",
           "AffineAccess", "RunsMemo", "WarpRuns", "warp_runs",
           "finalize_segment_reuse"]

_ALIGN = 256

#: tag multiplier separating the block id from the segment id in the
#: batched segment-reuse bookkeeping; segment ids are byte address //
#: transaction size, far below 2^40 for any allocatable device memory
_SEG_TAG = 1 << 40


@dataclass
class Buffer:
    """A device global-memory buffer."""

    name: str
    dtype: DType
    size: int  # elements
    base: int  # byte address on the simulated device
    data: np.ndarray  # 1-D array of dtype.np, length == size

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize


class GlobalMemory:
    """Device global memory: a set of named buffers + traffic accounting."""

    def __init__(self, device: DeviceProperties):
        self.device = device
        self._buffers: dict[str, Buffer] = {}
        self._next_base = _ALIGN  # leave address 0 unused, like real allocators
        #: opt-in fault injector (repro.faults.FaultInjector); attached per
        #: launch by CompiledKernel.run — None means no fault work at all
        self.faults = None
        #: absolute index of the block currently executing (set by the
        #: reference executor per block) so fault sites key the per-block
        #: RNG substream; None routes to the injector's main stream
        self.fault_block = None

    # -- allocation --------------------------------------------------------

    def alloc(self, name: str, size: int, dtype: DType,
              init: np.ndarray | None = None) -> Buffer:
        """Allocate a named buffer; optionally copy initial contents."""
        if name in self._buffers:
            raise ResourceError(f"buffer {name!r} already allocated")
        if size < 0:
            raise ResourceError(f"negative buffer size {size} for {name!r}")
        nbytes = size * dtype.itemsize
        used = sum(b.nbytes for b in self._buffers.values())
        if used + nbytes > self.device.global_mem_bytes:
            raise ResourceError(
                f"allocating {nbytes} bytes for {name!r} exceeds device memory "
                f"({used} bytes in use of {self.device.global_mem_bytes})"
            )
        data = np.zeros(size, dtype=dtype.np)
        if init is not None:
            flat = np.asarray(init, dtype=dtype.np).reshape(-1)
            if flat.size != size:
                raise ResourceError(
                    f"init for {name!r} has {flat.size} elements, expected {size}"
                )
            data[:] = flat
        buf = Buffer(name, dtype, size, self._next_base, data)
        self._next_base += (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        self._buffers[name] = buf
        return buf

    def free(self, name: str) -> None:
        """Release a buffer (address space is not recycled; fine for runs)."""
        del self._buffers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def __getitem__(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise OutOfBoundsError(f"no such buffer {name!r}") from None

    def buffers(self) -> list[Buffer]:
        return list(self._buffers.values())

    # -- access (called by the executor with per-thread index vectors) ------

    def load(self, name: str, idx: np.ndarray, mask: np.ndarray,
             warp_of: np.ndarray, stats: KernelStats,
             reuse: tuple | None = None) -> np.ndarray:
        """Gather ``buffer[idx]`` for active threads; count transactions.

        Returns a full-width vector; lanes with ``mask == False`` hold the
        buffer's zero value (they are never observed by correct kernels).
        ``reuse`` is an optional ``(cache_dict, slot)`` pair enabling the
        statement-level segment-reuse model (see ``_count_transactions``).
        """
        buf = self[name]
        act = idx[mask]
        self._check_bounds(buf, act)
        out = np.zeros(idx.shape, dtype=buf.dtype.np)
        if act.size:
            out[mask] = buf.data[act]
            self._count_transactions(buf, act, warp_of[mask], stats, reuse)
            if self.faults is not None:
                # transient read upset: corrupts the gathered register
                # vector only, never the buffer contents
                self.faults.on_gload(name, out, mask,
                                     block=self.fault_block)
        return out

    def store(self, name: str, idx: np.ndarray, values: np.ndarray,
              mask: np.ndarray, warp_of: np.ndarray,
              stats: KernelStats, reuse: tuple | None = None) -> None:
        """Scatter ``buffer[idx] = values`` for active threads.

        Duplicate indices: highest thread id wins (NumPy fancy assignment
        applies positions in order and thread vectors are id-ordered).
        """
        buf = self[name]
        act = idx[mask]
        if not act.size:
            return
        self._check_bounds(buf, act)
        buf.data[act] = np.asarray(values, dtype=buf.dtype.np)[mask]
        self._count_transactions(buf, act, warp_of[mask], stats, reuse)

    def atomic_update(self, name: str, idx: np.ndarray, values: np.ndarray,
                      mask: np.ndarray, warp_of: np.ndarray,
                      stats: KernelStats, combine) -> None:
        """Read-modify-write where duplicate indices *combine* via ``combine``.

        ``combine`` is a NumPy ufunc (e.g. ``np.add``); ``ufunc.at`` gives the
        atomics semantics.  Each lane is charged a transaction (atomics do not
        coalesce on Kepler-class hardware).
        """
        buf = self[name]
        act = idx[mask]
        if not act.size:
            return
        self._check_bounds(buf, act)
        combine.at(buf.data, act, np.asarray(values, dtype=buf.dtype.np)[mask])
        stats.global_transactions += int(act.size)
        stats.global_bytes += int(act.size) * buf.dtype.itemsize * 2
        stats.dram_bytes += int(act.size) * buf.dtype.itemsize * 2

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _check_bounds(buf: Buffer, act: np.ndarray) -> None:
        """Raise on the first out-of-range active index (lane order)."""
        if act.size and (act.min() < 0 or act.max() >= buf.size):
            bad = act[(act < 0) | (act >= buf.size)][0]
            raise OutOfBoundsError(
                f"index {int(bad)} out of bounds for buffer "
                f"{buf.name!r} of size {buf.size}"
            )

    def _count_transactions(self, buf: Buffer, act_idx: np.ndarray,
                            act_warp: np.ndarray, stats: KernelStats,
                            reuse: tuple | None = None) -> None:
        """Per warp, count the distinct 128-byte segments touched.

        A segment requested by several warps *within one access* is fetched
        from DRAM once; the other warps' requests are L2 hits (the
        block-level broadcast a real cache provides for redundant loads).

        When ``reuse=(cache, slot)`` is given, segments that this same
        statement touched on its *previous* execution also hit the L2 —
        the sequential-chunk locality of a thread walking a contiguous
        range (each lane stays inside one 128-byte segment for several
        iterations).  This keeps the blocking-scheduling penalty at a
        cache-service ratio instead of an unrealistic full-DRAM refetch
        per iteration.
        """
        seg = (buf.base + act_idx.astype(np.int64) * buf.dtype.itemsize) \
            // self.device.transaction_bytes
        # distinct (warp, segment) pairs == total warp requests
        key = act_warp.astype(np.int64) * (1 << 40) + seg
        requests = int(np.unique(key).size)
        uniq_seg = np.unique(seg)
        if reuse is not None:
            cache, slot = reuse
            prev = cache.get(slot)
            if prev is None:
                dram = int(uniq_seg.size)
            else:
                dram = int((~np.isin(uniq_seg, prev,
                                     assume_unique=True)).sum())
            cache[slot] = uniq_seg
        else:
            dram = int(uniq_seg.size)
        stats.global_transactions += dram
        stats.l2_transactions += requests - dram
        stats.global_bytes += int(act_idx.size) * buf.dtype.itemsize
        stats.dram_bytes += dram * self.device.transaction_bytes

    # -- batched access (all blocks of a chunk advance in one call) ---------

    def load_batched(self, name: str, idx: np.ndarray, mask: np.ndarray,
                     warpkey: np.ndarray, block_of: np.ndarray,
                     block_ids: np.ndarray, stats: KernelStats,
                     reuse: tuple | None = None,
                     act: np.ndarray | None = None,
                     act_block: np.ndarray | None = None,
                     affine: AffineAccess | None = None) -> np.ndarray:
        """Gather ``buffer[idx]`` for all active lanes of a block chunk.

        ``idx``/``mask`` are ``(blocks, threads)``; ``warpkey`` is an
        int64 ``(blocks, threads)`` array of block-qualified warp ids
        (distinct across the chunk's blocks), ``block_of`` the absolute
        block index per lane, ``block_ids`` the chunk's absolute block
        indices.  Counter totals are bit-identical to executing each
        block's access through :meth:`load` in block order.  ``act`` /
        ``act_block`` let a caller that already gathered ``idx[mask]`` /
        ``block_of[mask]`` (the checked executor path) avoid the second
        masked gather.  ``affine`` marks a lane-affine access, counted in
        closed form (see :meth:`_count_transactions_batched`).
        """
        buf = self[name]
        if act is None:
            act = idx[mask]
        out = np.zeros(idx.shape, dtype=buf.dtype.np)
        if act.size:
            wk = None
            if affine is None:
                wk = warpkey[mask]
                if act_block is None:
                    act_block = block_of[mask]
            # checks bounds before the gather
            self._count_transactions_batched(buf, act, wk, act_block, stats,
                                             reuse, affine)
            out[mask] = buf.data[act]
            if self.faults is not None:
                for i in np.flatnonzero(mask.any(axis=1)):
                    self.faults.on_gload(name, out[i], mask[i],
                                         block=int(block_ids[i]))
        return out

    def store_batched(self, name: str, idx: np.ndarray, values: np.ndarray,
                      mask: np.ndarray, warpkey: np.ndarray,
                      block_of: np.ndarray, stats: KernelStats,
                      reuse: tuple | None = None,
                      act: np.ndarray | None = None,
                      act_block: np.ndarray | None = None,
                      affine: AffineAccess | None = None) -> None:
        """Scatter ``buffer[idx] = values`` for a block chunk.

        Duplicate indices resolve exactly as the reference path: NumPy
        fancy assignment applies positions in (block, thread) order, so
        the highest (block, thread) wins — the same winner as blocks
        executed one at a time.
        """
        buf = self[name]
        if act is None:
            act = idx[mask]
        if not act.size:
            return
        wk = None
        if affine is None:
            wk = warpkey[mask]
            if act_block is None:
                act_block = block_of[mask]
        # checks bounds before the scatter
        self._count_transactions_batched(buf, act, wk, act_block, stats,
                                         reuse, affine)
        buf.data[act] = np.asarray(values, dtype=buf.dtype.np)[mask]

    def _count_transactions_batched(self, buf: Buffer, act_idx: np.ndarray,
                                    act_warpkey: np.ndarray | None,
                                    act_block: np.ndarray | None,
                                    stats: KernelStats,
                                    reuse: tuple | None = None,
                                    affine: AffineAccess | None = None
                                    ) -> None:
        """Bounds check and block-axis version of :meth:`_count_transactions`.

        The bounds check comes first and raises before any counter or
        reuse state changes, so callers count before they gather or
        scatter.

        Warp requests use block-qualified warp keys, so per-warp segment
        sets never merge across blocks and ``requests`` equals the sum of
        the per-block request counts.  The statement-level segment-reuse
        model needs more care: in the reference executor the per-slot
        cache chains *across* blocks (block ``b``'s first execution of a
        statement compares against the previous block's final segments).
        Here each block's segments are tagged with the block id, later
        executions compare against the same block's previous execution
        (exact), and first executions are counted as all-DRAM eagerly;
        :func:`finalize_segment_reuse` replays the cross-block chain at
        launch end and moves the overlap from DRAM to L2, restoring
        bit-identical totals.

        ``affine`` (:class:`AffineAccess`, from a static lane-affine
        verdict) replaces the per-lane keys with a closed form over the
        access's :func:`warp_runs` (see :meth:`_runs_segments`);
        ``act_warpkey`` and ``act_block`` may then be None.  When the runs
        do not exist (a gap in some warp's active lanes) or reach outside
        the buffer while the lanes do not (int32 index arithmetic that
        wrapped within a warp), the access is checked and counted per
        lane.  Either way the block-tagged segment set is the same sorted
        array, so the reuse bookkeeping below cannot tell the two paths
        apart.
        """
        tb = self.device.transaction_bytes
        st = None
        if reuse is not None:
            cache, slot = reuse
            st = cache.get(slot)
            if st is None:
                st = cache[slot] = _SlotReuse()
        closed = None
        if affine is not None:
            runs = warp_runs(affine, self.device.warp_size)
            if runs is not None:
                closed = self._closed_form(buf, runs, st)
        if closed is not None:
            uniq_bseg, requests, lanes = closed
            nbytes = lanes * buf.data.itemsize
        else:
            self._check_bounds(buf, act_idx)
            if act_warpkey is None:
                act_warpkey, act_block = _lane_keys(affine,
                                                    self.device.warp_size)
            nbytes = int(act_idx.size) * buf.data.itemsize
            # in-place key arithmetic: each array below is a fresh
            # temporary, so the compound expressions are unrolled to
            # avoid extra passes
            seg = act_idx.astype(np.int64)
            seg *= buf.data.itemsize
            seg += buf.base
            seg //= tb
            # sort+diff dedup: ~10x cheaper than np.unique's hash path at
            # the per-statement sizes this runs at (callers guarantee
            # act_idx is non-empty)
            wkey = act_warpkey * _SEG_TAG
            wkey += seg
            if not _is_sorted(wkey):
                wkey.sort()
            requests = 1 + int(np.count_nonzero(wkey[1:] != wkey[:-1]))
            bkey = act_block * _SEG_TAG
            bkey += seg
            uniq_bseg = _sorted_unique(bkey)
        if st is not None:
            dram = int(uniq_bseg.size)
            if st.cur.size:
                dram -= int(_in_sorted(uniq_bseg, st.cur).sum())
            st.update(uniq_bseg)
        else:
            dram = int(uniq_bseg.size)
        stats.global_transactions += dram
        stats.l2_transactions += requests - dram
        stats.global_bytes += nbytes
        stats.dram_bytes += dram * tb

    def _closed_form(self, buf: Buffer, runs: WarpRuns,
                     st: _SlotReuse | None):
        """``(uniq_bseg, requests, lanes)`` of a lane-affine access, or
        None when its closed-form index range leaves the buffer (the
        caller then checks bounds and counts per lane).

        Loops re-run a statement with the same active lanes and every
        warp's index moved by the same ``d``.  When ``d`` elements are a
        whole number of segments, each warp's segment range moves by
        that many segments, so the previous execution's results (kept
        in the statement's reuse state ``st``) give this one's: the
        segment set shifted, the same requests and lanes, and the index
        range shifted by ``d``.  Otherwise the ranges are computed by
        :meth:`_runs_segments`.
        """
        prev = st.last_closed if st is not None else None
        if prev is not None:
            p_runs, p_lo, p_hi, p_uniq, p_req, p_lanes = prev
            rep, p_rep = runs.rep, p_runs.rep
            c, p_c = runs.count, p_runs.count
            # count arrays come from the chunk's mask memo: the same
            # object for the same active lanes
            if rep.size == p_rep.size and runs.stride == p_runs.stride \
                    and (c is p_c or isinstance(c, int)
                         and isinstance(p_c, int) and c == p_c) \
                    and (runs.rblk == p_runs.rblk).all():
                d = int(rep[0]) - int(p_rep[0])
                shift, rem = divmod(d * buf.data.itemsize,
                                    self.device.transaction_bytes)
                if not rem and 0 <= p_lo + d and p_hi + d < buf.size \
                        and (rep - p_rep == d).all():
                    uniq = p_uniq + shift
                    st.last_closed = (runs, p_lo + d, p_hi + d, uniq,
                                      p_req, p_lanes)
                    return uniq, p_req, p_lanes
        lo, hi = runs.index_range()
        if lo < 0 or hi >= buf.size:
            # out of range, or int32 index arithmetic that wrapped
            # within a warp: the caller checks and counts per lane
            return None
        out = self._runs_segments(buf, runs)
        if st is not None:
            st.last_closed = (runs, lo, hi) + out
        return out

    def _runs_segments(self, buf: Buffer,
                       runs: WarpRuns) -> tuple[np.ndarray, int, int]:
        """Closed-form ``(uniq_bseg, requests, lanes)`` of a lane-affine
        access.

        Warp ``w``'s lanes touch byte addresses ``a_w + step * j`` for
        ``j < count_w`` (``step = stride * itemsize``).  With ``|step|``
        below the transaction size consecutive lanes never skip a
        segment, so the warp touches exactly the segment range between
        its first and last lane — one range per warp, usually a single
        segment.  Otherwise every lane lands in its own segment.  Each
        warp has its own block-qualified key, so ``requests`` is the sum
        of the per-warp segment counts; the block-tagged segment set is
        the union of the per-warp ranges, built in O(segments) instead of
        O(lanes).
        """
        tb = self.device.transaction_bytes
        rep, rblk, count, stride = runs
        nw = rep.size
        isz = buf.data.itemsize
        step = stride * isz
        lanes = count * nw if isinstance(count, int) else int(count.sum())
        addr = np.multiply(rep, isz, dtype=np.int64)
        addr += buf.base
        keys = rblk * _SEG_TAG
        if step == 0:
            addr //= tb
            keys += addr
            return _sorted_unique(keys), nw, lanes
        if abs(step) < tb:
            span = count - 1  # lanes after the first, per warp
            span *= abs(step)
            if step < 0:
                addr -= span  # the lowest address is the last lane's
            seg, extra = np.divmod(addr, tb)
            extra += span
            extra //= tb  # segments per warp, minus one
            keys += seg
            requests = int(extra.sum()) + nw
            if requests != nw:
                extra += 1
                keys = _expand_ranges(keys, extra, requests)
            return _sorted_unique(keys), requests, lanes
        # a segment per lane
        cnt = np.full(nw, count) if isinstance(count, int) else count
        j = _expand_ranges(np.zeros(nw, dtype=np.int64), cnt, lanes)
        j *= step
        j += np.repeat(addr, cnt)
        j //= tb
        j += np.repeat(keys, cnt)
        return _sorted_unique(j), lanes, lanes


class AffineAccess(NamedTuple):
    """A lane-affine access over a ``(blocks, threads)`` chunk.

    ``idx`` holds the per-lane indices (possibly a broadcast view),
    ``mask`` the active lanes, ``block_ids`` each row's absolute block id
    and ``full`` asserts an all-true mask.  The caller vouches (static
    verdict of :mod:`repro.gpu.affine` plus ``blockDim.x % warp_size ==
    0``) that within each warp the active lanes' indices step by
    ``stride`` per lane.  ``memo`` is the executing chunk's
    :class:`RunsMemo`.
    """

    idx: np.ndarray
    mask: np.ndarray
    block_ids: np.ndarray
    stride: int
    full: bool = False
    memo: RunsMemo | None = None


class RunsMemo:
    """Mask analyses (:func:`_mask_runs`) of one executing block chunk.

    Loops re-run statements under masks with the same active lanes, and
    the statements of one region share one mask object.  So small masks
    are kept by content (bounded in count), and the most recent bigger
    one by identity — holding it keeps its id from being reused, and
    executors never mutate a mask in place.  Each chunk owns one memo
    and runs on one thread, so no memo is shared between threads.
    """

    #: masks up to this many lanes are kept by content
    SMALL_LANES = 2048
    SMALL_ENTRIES = 128

    __slots__ = ("small", "mask", "found")

    def __init__(self):
        self.small: dict = {}
        self.mask = None
        self.found = None

    def analyze(self, mask: np.ndarray, warp_size: int):
        """:func:`_mask_runs` of ``mask``, computed at most once per
        distinct small mask and per big mask object."""
        if mask.size <= self.SMALL_LANES:
            key = (mask.shape, mask.tobytes())
            found = self.small.get(key, _MISSING)
            if found is _MISSING:
                if len(self.small) >= self.SMALL_ENTRIES:
                    self.small.clear()
                found = self.small[key] = _mask_runs(mask, warp_size)
            return found
        if self.mask is not mask:
            self.mask, self.found = mask, _mask_runs(mask, warp_size)
        return self.found


_MISSING = object()


class WarpRuns(NamedTuple):
    """The active lanes of a lane-affine access, one entry per warp.

    Active warp ``w`` (in the (block, warp) order of the lanes) runs
    ``count[w]`` contiguous active lanes whose indices are ``rep[w] +
    stride * j`` for ``j < count[w]``; ``count`` is a plain ``int`` when
    every active warp is full.  ``rblk`` is each warp's absolute block
    id.
    """

    rep: np.ndarray
    rblk: np.ndarray
    count: object
    stride: int

    def within(self, size: int) -> bool:
        """Whether every active lane's index lies in ``[0, size)``."""
        lo, hi = self.index_range()
        return lo >= 0 and hi < size

    def index_range(self) -> tuple[int, int]:
        """Smallest and largest index any active lane touches."""
        rep, count, stride = self.rep, self.count, self.stride
        lo, hi = int(rep.min()), int(rep.max())
        if stride and isinstance(count, int):
            if stride > 0:
                hi += stride * (count - 1)
            else:
                lo += stride * (count - 1)
        elif stride:
            end = count - 1
            end *= stride
            end += rep
            if stride > 0:
                hi = int(end.max())
            else:
                lo = int(end.min())
        return lo, hi


#: per warp size: the little-endian word holding one warp's packed lane
#: mask (lane l = bit l) and its all-lanes value
_MASK_WORD = {ws: (np.dtype(f"<u{ws // 8}"), (1 << ws) - 1)
              for ws in (8, 16, 32, 64)}
#: set bits of every byte value
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits per element of a contiguous unsigned-integer array (as
    uint8, so shifting a word by the result keeps the word type)."""
    return _POP8[x.view(np.uint8)].reshape(x.size, x.itemsize).sum(
        axis=1, dtype=np.uint8)


def warp_runs(access: AffineAccess, warp_size: int) -> WarpRuns | None:
    """Per-warp runs of a lane-affine access, or None when the closed
    form does not apply.

    The static verdict pins the indices only over a *contiguous* run of
    active lanes, so a warp whose active lanes have a gap returns None —
    except at ``stride == 0``, where every active lane shares one index
    anyway.
    """
    idx, mask, block_ids, stride, full, memo = access
    n = mask.shape[1]
    if full:
        return WarpRuns(idx[:, ::warp_size].reshape(-1),
                        np.repeat(block_ids, n // warp_size), warp_size,
                        stride)
    if memo is not None:
        found = memo.analyze(mask, warp_size)
    else:
        found = _mask_runs(mask, warp_size)
    if found is None:
        return None
    lane, wrow, count, contiguous = found
    if stride and not contiguous:
        return None
    return WarpRuns(idx.take(lane), block_ids[wrow], count, stride)


def _mask_runs(mask: np.ndarray, warp_size: int):
    """``(lane, wrow, count, contiguous)`` of a ``(blocks, threads)``
    mask: the flat index of each active warp's first active lane, its
    chunk row, the run lengths (an int when all are full) and whether
    every warp's active lanes are contiguous — or None when the warp
    size has no packed-word type.

    The mask is packed to one machine word per warp, so this costs
    O(warps): population count for the run length, lowest set bit for
    the first lane, and ``y & (y + 1) == 0`` (``y`` the word shifted
    down to its first lane) for contiguity."""
    word = _MASK_WORD.get(warp_size)
    if word is None or mask.shape[1] % warp_size:
        return None
    word, every = word
    bits = np.packbits(mask, axis=-1, bitorder="little").view(word)
    bits = bits.reshape(-1)
    live = bits.nonzero()[0]
    x = bits[live]
    lane = live * warp_size
    if int(x.min()) == every:
        count, contiguous = warp_size, True
    else:
        one = word.type(1)
        first = _popcount((x & (~x + one)) - one)
        y = x >> first
        contiguous = not (y & (y + one)).any()
        count = _popcount(x).astype(np.int64)
        lane += first
    wrow = live // (mask.shape[1] // warp_size)
    return lane, wrow, count, contiguous


def _lane_keys(access: AffineAccess,
               warp_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane ``(warp key, block id)`` of an access's active lanes, for
    the per-lane fallback: the flat lane number divided by the warp size
    is a block-qualified warp key, since a lane-affine launch has whole
    warps per block."""
    mask = access.mask
    if access.full:
        flat = np.arange(mask.size)
    else:
        flat = mask.reshape(-1).nonzero()[0]
    return flat // warp_size, access.block_ids[flat // mask.shape[1]]


def _expand_ranges(first: np.ndarray, counts: np.ndarray,
                   total: int) -> np.ndarray:
    """Concatenation of ``range(first[i], first[i] + counts[i])``."""
    starts = np.cumsum(counts)
    starts -= counts
    out = np.repeat(first - starts, counts)
    out += np.arange(total, dtype=np.int64)
    return out


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a fresh, non-empty int64 array (sorts
    it in place when it is not already ordered)."""
    if keys.size < 2 or bool((keys[1:] > keys[:-1]).all()):
        # strictly increasing, as a warp-ordered walk's segments are:
        # already the answer (half the cost of the dedup below)
        return keys
    if not _is_sorted(keys):
        keys.sort()
    new = np.empty(keys.size, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _is_sorted(a: np.ndarray) -> bool:
    """True when ``a`` is already non-decreasing.

    The dominant access shapes (coalesced walks, per-block-uniform
    broadcast reads) produce pre-sorted dedup keys, so one comparison
    pass routinely replaces an O(n log n) sort.
    """
    return a.size < 2 or bool((a[1:] >= a[:-1]).all())


def _in_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of sorted ``values`` in sorted ``table``.

    Equivalent to ``np.isin(values, table, assume_unique=True)`` but a
    plain binary search — no hashing and no temporary concatenation, which
    makes it materially cheaper at the per-statement call rates of the
    batched executor's reuse bookkeeping.
    """
    if not table.size:
        return np.zeros(values.shape, dtype=bool)
    pos = table.searchsorted(values)
    np.minimum(pos, table.size - 1, out=pos)
    return table.take(pos) == values


class _SlotReuse:
    """Per-statement segment-reuse state for the batched executor."""

    __slots__ = ("cur", "first", "seen", "blocks", "last_closed")

    def __init__(self):
        #: sorted block-tagged segments of each block's latest execution
        self.cur = np.empty(0, dtype=np.int64)
        #: untagged segments of each block's *first* execution
        self.first: dict[int, np.ndarray] = {}
        self.seen: set[int] = set()
        #: blocks with an entry in ``cur`` (drives the full-replacement
        #: eviction fast path)
        self.blocks: set[int] = set()
        #: the statement's last closed-form execution: ``(runs, lowest
        #: index, highest index, uniq_bseg, requests, lanes)``, see
        #: :meth:`GlobalMemory._closed_form`
        self.last_closed: tuple | None = None

    def update(self, uniq_bseg: np.ndarray) -> None:
        """Record one execution's sorted block-tagged segments."""
        b0 = int(uniq_bseg[0]) // _SEG_TAG
        if b0 == int(uniq_bseg[-1]) // _SEG_TAG:
            # one executing block, the most common call (compacted
            # loops, the fused finish): no block-boundary scan, a third
            # of the cost of the general path
            pb = [b0]
            if b0 not in self.seen:
                self.first[b0] = uniq_bseg - b0 * _SEG_TAG
                self.seen.add(b0)
        else:
            blk = uniq_bseg // _SEG_TAG
            bstart = np.empty(blk.size, dtype=bool)
            bstart[0] = True
            np.not_equal(blk[1:], blk[:-1], out=bstart[1:])
            starts = bstart.nonzero()[0]
            pb = blk[starts].tolist()
            if not self.seen.issuperset(pb):
                ends = starts.tolist()
                ends.append(uniq_bseg.size)
                for j, b in enumerate(pb):
                    if b not in self.seen:
                        self.first[b] = uniq_bseg[ends[j]:ends[j + 1]] \
                            - b * _SEG_TAG
                        self.seen.add(b)
        if not self.cur.size or self.blocks.issubset(pb):
            # every cached block is executing this statement, so the
            # eviction replaces the whole cache: skip the range
            # subtraction (the steady state of full-chunk loops)
            self.cur = uniq_bseg
            self.blocks = set(pb)
            return
        # evict the executing blocks' previous entries: tagged keys put
        # each block in the contiguous key range [b*TAG, (b+1)*TAG), so
        # eviction is range subtraction
        pblocks = np.asarray(pb, dtype=np.int64)
        lo = np.searchsorted(self.cur, pblocks * _SEG_TAG)
        hi = np.searchsorted(self.cur, (pblocks + 1) * _SEG_TAG)
        if len(pb) <= 8:
            keep_mask = np.ones(self.cur.size, dtype=bool)
            for l, h in zip(lo.tolist(), hi.tolist()):
                keep_mask[l:h] = False
            keep = self.cur[keep_mask]
        else:
            delta = np.zeros(self.cur.size + 1, dtype=np.int32)
            np.add.at(delta, lo, 1)
            np.add.at(delta, hi, -1)
            keep = self.cur[np.cumsum(delta[:-1]) == 0]
        self.cur = np.sort(np.concatenate([keep, uniq_bseg]))
        self.blocks.update(pb)


def finalize_segment_reuse(cache: dict, stats: KernelStats,
                           transaction_bytes: int,
                           attr=None, slot_sids: dict | None = None) -> None:
    """Apply the cross-block reuse correction at batched-launch end.

    The reference executor runs blocks in index order, so block ``b``'s
    first execution of a statement sees the slot cache left by the nearest
    preceding block that executed it.  Replay that chain: for consecutive
    executing blocks ``(p, b)``, segments of ``b``'s first execution that
    also appear in ``p``'s final execution were counted as DRAM eagerly
    but are L2 hits in the reference accounting.

    ``attr`` (an :class:`~repro.gpu.events.AttributionTable`) with
    ``slot_sids`` (slot → stamped statement sid) applies the same
    correction to the owning statement's row — the correction is per
    slot, and each slot belongs to exactly one statement, so the
    per-statement tables stay bit-identical to the reference executor's.
    """
    for slot, st in cache.items():
        if not isinstance(st, _SlotReuse) or len(st.first) < 2:
            continue
        blocks = sorted(st.first)
        # one membership query for every consecutive pair: tag block b's
        # first-execution segments with its predecessor p and look them
        # up in the tagged cache — the p-range of ``cur`` holds exactly
        # p's final segments, so this is the pairwise intersection sum
        # without the per-pair python loop
        firsts = [st.first[b] for b in blocks[1:]]
        qry = np.concatenate(firsts)
        qry += np.repeat(
            np.asarray(blocks[:-1], dtype=np.int64) * _SEG_TAG,
            [f.size for f in firsts])
        overlap = int(_in_sorted(qry, st.cur).sum())
        if overlap:
            stats.global_transactions -= overlap
            stats.l2_transactions += overlap
            stats.dram_bytes -= overlap * transaction_bytes
            if attr is not None:
                row = attr.row(slot_sids.get(slot, -1)
                               if slot_sids is not None else -1)
                row.global_transactions -= overlap
                row.l2_transactions += overlap
                row.dram_bytes -= overlap * transaction_bytes


class SharedMemory:
    """Per-block shared memory: named arrays + bank-conflict accounting."""

    def __init__(self, device: DeviceProperties,
                 specs: tuple,  # tuple[SharedArraySpec, ...]
                 stats: KernelStats, faults=None):
        self.device = device
        self.stats = stats
        self.faults = faults  # opt-in repro.faults.FaultInjector
        self.fault_block = None  # executing block (reference executor)
        self._arrays: dict[str, np.ndarray] = {}
        self._offsets: dict[str, int] = {}
        self._dtypes: dict[str, DType] = {}
        off = 0
        # overlay groups share one region sized by the largest member
        # (the paper's §3.3 mixed-dtype reduction-buffer sharing)
        overlay_off: dict[str, int] = {}
        overlay_end: dict[str, int] = {}
        for spec in specs:
            a = spec.dtype.itemsize  # align to element size, as nvcc does
            if spec.overlay is not None and spec.overlay in overlay_off:
                base = overlay_off[spec.overlay]
                base = (base + a - 1) // a * a
                self._offsets[spec.name] = base
                overlay_end[spec.overlay] = max(
                    overlay_end[spec.overlay], base + spec.nbytes)
                off = max(off, overlay_end[spec.overlay])
            else:
                off = (off + a - 1) // a * a
                self._offsets[spec.name] = off
                if spec.overlay is not None:
                    overlay_off[spec.overlay] = off
                    overlay_end[spec.overlay] = off + spec.nbytes
                off += spec.nbytes
            self._dtypes[spec.name] = spec.dtype
            self._arrays[spec.name] = np.zeros(spec.size, dtype=spec.dtype.np)
        # recompute the true footprint: max end over all placements
        total = 0
        for spec in specs:
            total = max(total,
                        self._offsets[spec.name] + spec.nbytes)
        off = total
        if off > device.shared_mem_per_block:
            raise ResourceError(
                f"kernel requires {off} bytes of shared memory; device limit "
                f"is {device.shared_mem_per_block}"
            )
        self.total_bytes = off

    def load(self, name: str, idx: np.ndarray, mask: np.ndarray,
             warp_of: np.ndarray) -> np.ndarray:
        arr = self._array(name, idx, mask)
        out = np.zeros(idx.shape, dtype=arr.dtype)
        act = idx[mask]
        if act.size:
            out[mask] = arr[act]
            self._count_banks(name, act, warp_of[mask])
            if self.faults is not None:
                self.faults.on_sload(name, out, mask,
                                     block=self.fault_block)
        return out

    def store(self, name: str, idx: np.ndarray, values: np.ndarray,
              mask: np.ndarray, warp_of: np.ndarray) -> None:
        arr = self._array(name, idx, mask)
        act = idx[mask]
        if not act.size:
            return
        arr[act] = np.asarray(values, dtype=arr.dtype)[mask]
        self._count_banks(name, act, warp_of[mask])

    def reset(self) -> None:
        """Zero all arrays, as a freshly allocated block would see them.

        Lets one allocation serve every block of a launch (the reference
        executor resets between blocks instead of reallocating)."""
        for arr in self._arrays.values():
            arr.fill(0)

    def read_array(self, name: str) -> np.ndarray:
        """Direct (cost-free) view for tests and debugging."""
        return self._arrays[name]

    # -- internals -----------------------------------------------------------

    def _array(self, name: str, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        try:
            arr = self._arrays[name]
        except KeyError:
            raise OutOfBoundsError(f"no such shared array {name!r}") from None
        act = idx[mask]
        if act.size and (act.min() < 0 or act.max() >= arr.size):
            bad = act[(act < 0) | (act >= arr.size)][0]
            raise OutOfBoundsError(
                f"index {int(bad)} out of bounds for shared array "
                f"{name!r} of size {arr.size}"
            )
        return arr

    def _count_banks(self, name: str, act_idx: np.ndarray,
                     act_warp: np.ndarray | None,
                     affine: AffineAccess | None = None) -> None:
        """Conflict-serialized access count for one warp-synchronous access.

        Per warp: group the *distinct words* touched by bank; the access
        serializes into ``max_over_banks(#distinct words)`` shared accesses.
        Lanes reading the same word broadcast for free.

        ``affine`` (a lane-affine access) takes each warp's degree from
        :func:`_bank_degree_table` instead: over the access's
        :func:`warp_runs` it depends only on the first lane's byte offset
        within one sweep of the banks and on the run length.  ``act_warp``
        may then be None; without runs, or when the runs leave the array
        (int32 index arithmetic that wrapped within a warp), the access
        is counted per lane.
        """
        itemsize = self._dtypes[name].itemsize
        runs = None
        if affine is not None:
            runs = warp_runs(affine, self.device.warp_size)
            if runs is not None and \
                    not runs.within(self._arrays[name].shape[-1]):
                runs = None
        if runs is not None:
            nw = runs.rep.size
            if runs.stride == 0:
                serialized = nw  # one word per warp: a broadcast
            else:
                dev = self.device
                sweep = dev.shared_mem_banks * dev.shared_mem_bank_width
                off = runs.rep.astype(np.int64)
                off *= itemsize
                off += self._offsets[name]
                off %= sweep
                cnt = runs.count
                if isinstance(cnt, int):
                    cnt = np.full(nw, cnt, dtype=np.int64)
                table = _bank_degree_table(dev, itemsize, runs.stride)
                deg = table[off, cnt]
                if bool((deg < 0).any()):
                    _fill_bank_degrees(table, dev, itemsize, runs.stride,
                                       off, cnt)
                    deg = table[off, cnt]
                serialized = int(deg.sum(dtype=np.int64))
            self.stats.shared_accesses += serialized
            self.stats.bank_conflict_extra += serialized - nw
            return
        if act_warp is None:
            act_warp = _lane_keys(affine, self.device.warp_size)[0]
        word = (self._offsets[name] + act_idx.astype(np.int64) * itemsize) \
            // self.device.shared_mem_bank_width
        degrees = _bank_degrees(word, act_warp, self.device.shared_mem_banks)
        serialized = int(degrees.sum())
        self.stats.shared_accesses += serialized
        self.stats.bank_conflict_extra += serialized - int(degrees.size)


def _bank_degrees(word: np.ndarray, warp: np.ndarray,
                  nbanks: int) -> np.ndarray:
    """Per-warp conflict degree (max distinct words over banks), in
    ascending warp-key order, for lanes touching ``word``."""
    # distinct (warp, word) pairs — sort+diff dedup, same sorted
    # result as np.unique at a fraction of the per-call overhead
    key = warp.astype(np.int64) * (1 << 40) + word
    if not _is_sorted(key):
        key.sort()
    keep = np.empty(key.size, dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    uniq = key[keep]
    uw_warp = uniq >> 40
    uw_bank = (uniq & ((1 << 40) - 1)) % nbanks
    # count distinct words per (warp, bank), then take max per warp
    key2 = uw_warp * nbanks + uw_bank
    key2.sort()
    b2 = np.empty(key2.size, dtype=bool)
    b2[0] = True
    np.not_equal(key2[1:], key2[:-1], out=b2[1:])
    starts2 = np.flatnonzero(b2)
    counts = np.empty(starts2.size, dtype=np.int64)
    np.subtract(starts2[1:], starts2[:-1], out=counts[:-1])
    counts[-1] = key2.size - starts2[-1]
    warps2 = key2[starts2] // nbanks
    # segment max: warps2 is sorted; find boundaries
    starts = np.flatnonzero(np.r_[True, warps2[1:] != warps2[:-1]])
    return np.maximum.reduceat(counts, starts)


#: memoized conflict degrees of lane-affine shared accesses: one dense
#: ``(bank sweep bytes, warp_size + 1)`` table per (bank geometry,
#: itemsize, stride), indexed by the first lane's byte offset within a
#: bank sweep and the run length; -1 marks entries not computed yet.
#: Device threads share it: every entry is a pure function of its
#: indices, so two threads filling one at once write the same value
_BANK_DEGREES: dict[tuple, np.ndarray] = {}


def _bank_degree_table(device: DeviceProperties, itemsize: int,
                       stride: int) -> np.ndarray:
    key = (device.shared_mem_banks, device.shared_mem_bank_width,
           device.warp_size, itemsize, stride)
    table = _BANK_DEGREES.get(key)
    if table is None:
        if len(_BANK_DEGREES) >= 64:  # unbounded param strides
            _BANK_DEGREES.clear()
        sweep = device.shared_mem_banks * device.shared_mem_bank_width
        table = _BANK_DEGREES[key] = np.full(
            (sweep, device.warp_size + 1), -1, dtype=np.int16)
    return table


def _fill_bank_degrees(table: np.ndarray, device: DeviceProperties,
                       itemsize: int, stride: int, off: np.ndarray,
                       cnt: np.ndarray) -> None:
    """Compute the missing ``(off, cnt)`` entries of ``table``.

    One synthetic warp per missing entry runs through the per-lane
    :func:`_bank_degrees`: its lanes touch bytes ``off + step * j`` for
    ``j < cnt``.  Shifting every address by whole bank sweeps changes no
    bank and merges no words, so the offset within a sweep is all that
    matters; the shift below keeps negative strides at non-negative
    addresses.
    """
    miss = table[off, cnt] < 0
    width = device.warp_size + 1
    todo = np.unique(off[miss] * width + cnt[miss])
    t_off, t_cnt = todo // width, todo % width
    step = stride * itemsize
    sweep = device.shared_mem_banks * device.shared_mem_bank_width
    shift = (abs(step) * device.warp_size // sweep + 1) * sweep
    lanes = int(t_cnt.sum())
    j = _expand_ranges(np.zeros(todo.size, dtype=np.int64), t_cnt, lanes)
    addr = np.repeat(t_off + shift, t_cnt) + step * j
    warp = np.repeat(np.arange(todo.size, dtype=np.int64), t_cnt)
    table[t_off, t_cnt] = _bank_degrees(
        addr // device.shared_mem_bank_width, warp,
        device.shared_mem_banks)


class BatchedSharedMemory(SharedMemory):
    """Shared memory for a chunk of blocks advancing together.

    Each named array is carried as a ``(blocks, size)`` matrix — one row
    per block of the chunk, so cross-block isolation is structural.  Bank
    accounting reuses :meth:`SharedMemory._count_banks` with
    block-qualified warp keys: per-(block, warp) conflict degrees are
    computed exactly as the per-block model and summed.
    """

    def __init__(self, device: DeviceProperties, specs: tuple,
                 stats: KernelStats, nblocks: int, faults=None,
                 block_ids: np.ndarray | None = None):
        super().__init__(device, specs, stats, faults=faults)
        self.nblocks = nblocks
        self.block_ids = block_ids  # absolute block index per row
        for name, arr in self._arrays.items():
            self._arrays[name] = np.zeros((nblocks, arr.size),
                                          dtype=arr.dtype)

    def load(self, name: str, idx: np.ndarray, mask: np.ndarray,
             warpkey: np.ndarray, rows: np.ndarray,
             affine: AffineAccess | None = None) -> np.ndarray:
        """Gather with ``(blocks, threads)`` index/mask arrays.

        ``warpkey`` holds block-qualified warp ids, ``rows`` the chunk row
        index per lane; ``affine`` marks a lane-affine access (see
        :meth:`SharedMemory._count_banks`).
        """
        arr = self._array2(name, idx, mask)
        out = np.zeros(idx.shape, dtype=arr.dtype)
        act = idx[mask]
        if act.size:
            out[mask] = arr[rows[mask], act]
            self._count_banks(name, act,
                              None if affine is not None else warpkey[mask],
                              affine)
            if self.faults is not None:
                # the executor may pass row-compacted arrays: mask row i
                # maps to chunk row rows[i, 0], which indexes block_ids
                ids = self.block_ids
                for i in np.flatnonzero(mask.any(axis=1)):
                    b = int(ids[rows[i, 0]]) if ids is not None else None
                    self.faults.on_sload(name, out[i], mask[i], block=b)
        return out

    def store(self, name: str, idx: np.ndarray, values: np.ndarray,
              mask: np.ndarray, warpkey: np.ndarray,
              rows: np.ndarray,
              affine: AffineAccess | None = None) -> None:
        arr = self._array2(name, idx, mask)
        act = idx[mask]
        if not act.size:
            return
        arr[rows[mask], act] = np.asarray(values, dtype=arr.dtype)[mask]
        self._count_banks(name, act,
                          None if affine is not None else warpkey[mask],
                          affine)

    def read_block(self, name: str, row: int) -> np.ndarray:
        """One block's view of a shared array (tests/debugging)."""
        return self._arrays[name][row]

    def _array2(self, name: str, idx: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
        try:
            arr = self._arrays[name]
        except KeyError:
            raise OutOfBoundsError(f"no such shared array {name!r}") from None
        act = idx[mask]
        size = arr.shape[1]
        if act.size and (act.min() < 0 or act.max() >= size):
            bad = act[(act < 0) | (act >= size)][0]
            raise OutOfBoundsError(
                f"index {int(bad)} out of bounds for shared array "
                f"{name!r} of size {size}"
            )
        return arr
