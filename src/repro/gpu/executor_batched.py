"""Batched-block executor: every block of a launch advances at once.

The reference executor (:mod:`repro.gpu.executor`) walks grid blocks one
at a time, so the Python statement-dispatch overhead scales with
``grid_dim`` even though blocks are independent by construction — the
premise of the gang level.  This module re-compiles the same kernel IR
into closures over arrays with a **leading block axis**: registers and
masks are ``(blocks, threads)``, shared memory is ``(blocks, size)``,
``blockIdx.x`` is a ``(blocks, 1)`` column that broadcasts, and one NumPy
operation advances all blocks of a chunk through a statement.

The contract is *bit identity* with the reference path: reduction
results, every :class:`~repro.gpu.events.KernelStats` counter, and the
fault-injection sites (via per-block RNG substreams,
:mod:`repro.faults.injector`) are identical for any chunk size
(:data:`DEFAULT_BLOCK_BATCH`).
The non-obvious part is the statement-level segment-reuse model, whose
per-slot cache chains *across* blocks in the reference executor; see
:meth:`~repro.gpu.memory.GlobalMemory._count_transactions_batched` and
:func:`~repro.gpu.memory.finalize_segment_reuse` for how the batched
accounting restores the chain exactly.

Control-flow accounting parity (each derived from the reference rules):

* ``warp_inst_slots`` — every statement charges the *sum* of a per-block
  active-warp vector ``aw``; blocks with no active lanes carry 0, which
  matches the reference executor never reaching the statement for them.
* divergence — per-block warp masks of both branch sides, summed.
* loop ``steps`` (the watchdog currency) — each batched loop iteration
  adds the number of blocks still iterating, so the launch total equals
  the reference sum of per-block trip counts.
* barriers — a barrier under a partially-active block raises
  :class:`~repro.errors.BarrierDivergenceError` exactly as the reference
  path; fully-inactive blocks are skipped (they never reached it).

Sparse regions: once at most half of a chunk's blocks have a lane in a
branch side or a loop body, that region runs on a copy of the chunk
sliced to those blocks (:func:`_compact_env`) and its registers scatter
back afterwards (:func:`_expand_env`).  A last-block epilogue then costs
one block's width instead of the chunk's.  The slice is invisible to
every counter: idle blocks touch no memory, counter or register.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BarrierDivergenceError, SimulationError
from repro.gpu import kernelir as K
from repro.gpu.affine import _walk_expr, lane_affine_stmts
from repro.gpu.device import DeviceProperties
from repro.gpu.events import KernelStats, TraceEvent
from repro.gpu.executor import (
    ATOMIC_OPS, _assign, _attr_global, _compile_expr, _truthy,
    _watchdog_trip, _stmt_slots,
)
from repro.gpu.memory import (
    AffineAccess, BatchedSharedMemory, GlobalMemory, RunsMemo,
    finalize_segment_reuse, warp_runs,
)

__all__ = ["BatchedBlockEnv", "run_batched", "DEFAULT_BLOCK_BATCH",
           "BatchSafety", "analyze_batch_safety"]

#: chunk size (blocks per chunk) of the batched and trace executors, read
#: at launch time: bounds the working set ((blocks, threads) arrays)
#: while amortizing statement dispatch over enough blocks to win
DEFAULT_BLOCK_BATCH = 256


# --------------------------------------------------------------------------
# block-independence analysis
# --------------------------------------------------------------------------
#
# Batching is bit-identical only when blocks do not communicate through
# global memory during the launch.  The reference executor runs blocks in
# index order, so a kernel whose later blocks *read* what earlier blocks
# wrote (the auto-parallelizer's serialized-fallback kernels do exactly
# this) observes that ordering; lock-step batching would break it.  The
# analysis below proves independence statically where it can; buffers it
# cannot prove anything about become *checked* — the batched run tracks a
# per-location owner block and aborts to the reference path the moment
# two blocks actually touch the same location (see ``_BatchHazard``).
# Correctness first, speed wherever independence holds at runtime.

class _BatchHazard(Exception):
    """Raised mid-launch when checked blocks touch a common location.

    Internal control flow only: :meth:`CompiledKernel.run` catches it,
    restores the pre-launch buffer contents, and reruns the launch on the
    reference path.
    """

    def __init__(self, buf: str):
        super().__init__(buf)
        self.buf = buf


class BatchSafety:
    """Verdict of the static block-independence analysis for one kernel.

    ``batchable`` is the static verdict (``False`` only for atomic
    read-modify-write mixes, which the runtime check cannot protect).
    ``checked_bufs`` are buffers whose block-disjointness could not be
    proved — the batched executor verifies it dynamically per access and
    falls back on the first violation.  ``looped_atomic_bufs`` (atomics
    that may fire on several loop iterations — order-sensitive for
    floats) defer to launch time, when buffer dtypes are known.
    ``written_bufs`` is everything the kernel may mutate — the snapshot
    set for rolling back an aborted checked launch.
    """

    __slots__ = ("batchable", "reason", "checked_bufs",
                 "looped_atomic_bufs", "written_bufs")

    def __init__(self, batchable, reason="", checked_bufs=(),
                 looped_atomic_bufs=(), written_bufs=()):
        self.batchable = batchable
        self.reason = reason
        self.checked_bufs = tuple(checked_bufs)
        self.looped_atomic_bufs = tuple(looped_atomic_bufs)
        self.written_bufs = tuple(written_bufs)


def analyze_batch_safety(kernel) -> BatchSafety:
    """Prove (or refuse to prove) that the kernel's blocks are independent.

    Hazard shapes and their disposition:

    * a buffer atomically updated *and* plainly stored or loaded — the
      reference path outright (owner tracking cannot describe an atomic's
      many writers);
    * an atomic inside a loop — exact for the integer operator set, but
      float combines are rounding-order-sensitive across iterations
      (decided at launch time from the buffer dtype);
    * a plainly-stored buffer that is also loaded, stored through a
      data-dependent index, or stored at a non-``blockIdx``-derived
      index — *checked*: the batched run tracks a per-location owner
      block and aborts to the reference path on the first cross-block
      touch.  Kernels that stage through a scratch buffer at
      block-partitioned indices (the testsuite's ``temp`` arrays) pass
      the runtime check and keep the fast path.

    Registers are tracked with a monotone taint pass iterated to a fixed
    point so values flowing around loop back-edges are caught.
    """
    loaded, stored, atomics = set(), set(), set()
    tainted, blockvar = set(), set()          # register taint lattices
    scatter, uniform_store, looped_atomics = set(), set(), set()

    def visit(stmts, in_loop):
        for s in stmts:
            if isinstance(s, K.Assign):
                regs, spec = set(), set()
                _walk_expr(s.value, regs, spec)
                if regs & tainted:
                    tainted.add(s.dst)
                if "bx" in spec or regs & blockvar:
                    blockvar.add(s.dst)
            elif isinstance(s, K.GLoad):
                loaded.add(s.buf)
                tainted.add(s.dst)
            elif isinstance(s, K.SLoad):
                # shared memory is per-block, but its contents may have
                # come from global loads — taint conservatively
                tainted.add(s.dst)
            elif isinstance(s, K.ShflDown):
                if s.src in tainted:
                    tainted.add(s.dst)
                if s.src in blockvar:
                    blockvar.add(s.dst)
            elif isinstance(s, K.GStore):
                stored.add(s.buf)
                regs, spec = set(), set()
                _walk_expr(s.index, regs, spec)
                if regs & tainted:
                    scatter.add(s.buf)
                if "bx" not in spec and not (regs & blockvar):
                    uniform_store.add(s.buf)
            elif isinstance(s, K.AtomicUpdate):
                atomics.add(s.buf)
                if in_loop:
                    looped_atomics.add(s.buf)
            elif isinstance(s, K.If):
                visit(s.then, in_loop)
                visit(s.orelse, in_loop)
            elif isinstance(s, (K.While, K.UniformWhile)):
                visit(s.body, True)
            # Sync / Comment / SStore don't move the verdict

    while True:
        before = tuple(map(len, (tainted, blockvar, scatter,
                                 uniform_store, looped_atomics)))
        visit(kernel.body, False)
        after = tuple(map(len, (tainted, blockvar, scatter,
                                uniform_store, looped_atomics)))
        if after == before:
            break

    rw = sorted((atomics & loaded) | (stored & atomics))
    if rw:
        return BatchSafety(False, f"buffer(s) {rw} mix atomics with plain "
                                  "accesses (cross-block ordering)")
    checked = (stored & loaded) | scatter | uniform_store
    return BatchSafety(True, checked_bufs=sorted(checked),
                       looped_atomic_bufs=sorted(looped_atomics),
                       written_bufs=sorted(stored | atomics))


class BatchedBlockEnv:
    """Mutable state of one executing *chunk* of thread blocks.

    Field-compatible with :class:`~repro.gpu.executor.BlockEnv` where the
    expression compiler cares (``tid``/``tx``/``ty`` stay ``(threads,)``
    and broadcast; ``bx`` is ``(blocks, 1)``), so the scalar expression
    closures run unchanged on the block-axis arrays.
    """

    __slots__ = (
        "regs", "tx", "ty", "tid", "bx", "bdx", "bdy", "gdx", "ntid",
        "warp_starts", "nwarps", "warpkey", "block_of", "rows", "block_ids",
        "gmem", "smem", "stats", "params", "block_mask", "trace",
        "seg_cache", "kernel_name", "steps", "watchdog_budget", "stuck",
        "check", "attr", "warp_size", "affine_ok", "runs_memo",
    )

    def __init__(self, bdx: int, bdy: int, gdx: int, block_ids: np.ndarray,
                 gmem: GlobalMemory, stats: KernelStats, params: dict,
                 warp_size: int, trace: bool):
        n = bdx * bdy
        nb = len(block_ids)
        tid = np.arange(n, dtype=np.int32)
        self.tid = tid
        self.tx = (tid % bdx).astype(np.int32)
        self.ty = (tid // bdx).astype(np.int32)
        self.bdx = np.int32(bdx)
        self.bdy = np.int32(bdy)
        self.gdx = np.int32(gdx)
        self.ntid = np.int32(n)
        self.bx = block_ids.astype(np.int32).reshape(nb, 1)
        warp_of = (tid // warp_size).astype(np.int64)
        self.warp_starts = np.arange(0, n, warp_size)
        self.nwarps = len(self.warp_starts)
        self.warp_size = warp_size
        #: lane-affine verdicts hold: lane l of a warp has tx = x0 + l
        #: and a warp-uniform ty (see repro.gpu.affine)
        self.affine_ok = bdx % warp_size == 0
        self.runs_memo = RunsMemo()
        # block-qualified warp ids: distinct across the chunk's blocks so
        # (warp, segment) request keys never merge between blocks
        self.warpkey = (np.arange(nb, dtype=np.int64)[:, None]
                        * self.nwarps + warp_of[None, :])
        self.block_of = np.broadcast_to(
            block_ids.astype(np.int64)[:, None], (nb, n))
        self.rows = np.broadcast_to(np.arange(nb)[:, None], (nb, n))
        self.block_ids = block_ids
        self.gmem = gmem
        self.smem = None
        self.stats = stats
        self.params = params
        self.block_mask = np.ones((nb, n), dtype=bool)
        self.regs: dict[str, np.ndarray] = {}
        self.trace = trace
        self.seg_cache: dict = {}
        self.kernel_name = ""
        self.steps = 0
        self.watchdog_budget: float = float("inf")
        self.stuck = False
        #: per-buffer owner-block arrays for checked launches (or None)
        self.check: dict | None = None
        #: opt-in per-statement AttributionTable (shared with the launch
        #: stats; None = accounting off)
        self.attr = None


def _warps_per_block(env: BatchedBlockEnv, mask: np.ndarray) -> np.ndarray:
    """Active-warp count per block, as an int64 ``(blocks,)`` vector."""
    t = np.add.reduceat(mask, env.warp_starts, axis=1) > 0
    return t.sum(axis=1)


def _stride_fn(aff):
    """``fn(env) -> int`` evaluating a lane-affine verdict's stride for
    the running launch (None for a varying access)."""
    if aff is None:
        return None
    c = aff.stride
    if isinstance(c, int):
        return lambda env: c
    fc = _compile_expr(c)
    return lambda env: int(fc(env))


def _affine(env: BatchedBlockEnv, fs, idx: np.ndarray, mask: np.ndarray):
    """The :class:`~repro.gpu.memory.AffineAccess` of a lane-affine
    access on this launch, or None when it is counted per lane."""
    if fs is None or not env.affine_ok:
        return None
    return AffineAccess(idx, mask, env.block_ids, fs(env), False,
                        env.runs_memo)


def _uniform_runs(env: BatchedBlockEnv, aff):
    """Warp runs of a warp-uniform (stride-0) access for the cross-block
    hazard check — one representative index per active warp — or None
    when the check must look at every lane."""
    if aff is None or aff.stride != 0:
        return None
    return warp_runs(aff, env.warp_size)


def _sparse_rows(live: np.ndarray, lc: int) -> np.ndarray | None:
    """The rows to compact to, or None to stay at full width.

    ``live`` marks the env's rows with an active lane and ``lc`` is its
    count.  The one compaction rule of every control statement here and
    in the trace executor's generated code: slice once at most half the
    rows are live.  So a region handed to a statement is always more
    than half live rows.
    """
    if lc * 2 <= live.shape[0]:
        return np.flatnonzero(live)
    return None


def _compact_env(env: BatchedBlockEnv, idx: np.ndarray) -> BatchedBlockEnv:
    """Clone ``env`` with the block axis sliced to rows ``idx``.

    Used by the branch and loop statements once most blocks of a chunk
    have no active lane in the region (see :func:`_sparse_rows`): the
    per-statement NumPy cost then tracks the *live* block count instead
    of the chunk width.  Shared memory is NOT sliced — ``rows`` keeps the
    original chunk-row index per surviving block, so shared accesses land
    in the right rows of the full ``(chunk, size)`` arrays.  All
    id-carrying fields (``bx``, ``warpkey``, ``block_of``, ``block_ids``)
    hold absolute values, so counters, segment-reuse tags and fault RNG
    substreams are unaffected by the slice.
    """
    sub = BatchedBlockEnv.__new__(BatchedBlockEnv)
    sub.tid, sub.tx, sub.ty = env.tid, env.tx, env.ty
    sub.bdx, sub.bdy, sub.gdx, sub.ntid = env.bdx, env.bdy, env.gdx, env.ntid
    sub.warp_starts, sub.nwarps = env.warp_starts, env.nwarps
    sub.warp_size, sub.affine_ok = env.warp_size, env.affine_ok
    sub.runs_memo = env.runs_memo
    sub.bx = env.bx[idx]
    sub.warpkey = env.warpkey[idx]
    sub.block_of = env.block_of[idx]
    sub.rows = env.rows[idx]
    sub.block_ids = env.block_ids[idx]
    sub.gmem, sub.smem, sub.stats = env.gmem, env.smem, env.stats
    sub.params = env.params
    sub.block_mask = env.block_mask[idx]
    sub.regs = {name: reg[idx] for name, reg in env.regs.items()}
    sub.trace = env.trace
    sub.seg_cache = env.seg_cache
    sub.kernel_name = env.kernel_name
    sub.steps = env.steps
    sub.watchdog_budget = env.watchdog_budget
    sub.stuck = env.stuck
    sub.check = env.check
    sub.attr = env.attr
    return sub


def _expand_env(env: BatchedBlockEnv, sub: BatchedBlockEnv,
                idx: np.ndarray) -> None:
    """Scatter a compacted environment's registers back into ``env``.

    Rows outside ``idx`` had no active lanes while ``sub`` ran, so their
    register values are untouched — exactly what the reference executor
    leaves for a block that skipped the branch or already exited the
    loop.  Registers first assigned inside the region materialize at
    full width here, zero-filled where never written, matching
    ``_assign`` on an uncompacted chunk.
    """
    env.steps = sub.steps
    for name, sreg in sub.regs.items():
        full = env.regs.get(name)
        if full is None or full.dtype != sreg.dtype:
            base = np.zeros(env.block_mask.shape, dtype=sreg.dtype)
            if full is not None:
                np.copyto(base, full, casting="unsafe")
            env.regs[name] = base
            full = base
        full[idx] = sreg


def _run_branch(fbody, env: BatchedBlockEnv, m: np.ndarray,
                w: np.ndarray) -> None:
    """Run one side of a branch under mask ``m``.

    ``w`` is the side's ``(blocks, warps)`` active-warp matrix.  Blocks
    with no lane on this side are skipped as the reference executor
    skips them, and sliced away when they are most of the chunk (a
    last-block epilogue, a ``tid == 0`` handoff).
    """
    aw = w.sum(axis=1)
    live = aw > 0
    lc = int(np.count_nonzero(live))
    if not lc:
        return
    idx = _sparse_rows(live, lc)
    if idx is None:
        fbody(env, m, aw)
        return
    sub = _compact_env(env, idx)
    fbody(sub, m[idx], aw[idx])
    _expand_env(env, sub, idx)


def _loop_trip(env: BatchedBlockEnv, live: np.ndarray) -> None:
    """Raise the watchdog error naming the lowest block still in the
    loop (``live`` marks the env's rows that are)."""
    _watchdog_trip(env, int(env.block_ids[np.argmax(live)]))


# --------------------------------------------------------------------------
# statement compilation (block-axis variants of executor._compile_stmt)
# --------------------------------------------------------------------------

def _compile_stmt_batched(s: K.Stmt, device: DeviceProperties,
                          affine: dict | None = None,
                          slot_sids: dict | None = None):
    """Compile one statement to ``fn(env, mask, aw, aws)`` over a chunk.

    ``mask`` is ``(blocks, threads)`` bool; ``aw`` is the per-block
    active-warp vector of the enclosing region (0 for blocks that the
    reference executor would not run the statement for) and ``aws`` its
    precomputed total — the region runner sums ``aw`` once so straight-
    line statements don't each pay the reduction.  ``affine`` holds
    the :func:`~repro.gpu.affine.lane_affine_stmts` verdicts;
    ``slot_sids`` maps each global access's segment-reuse slot back to
    its stamped ``sid`` (for the launch-end reuse correction's
    per-statement attribution).

    Attribution parity with the reference executor: ``execs`` counts
    blocks with at least one active lane (the reference closure runs
    exactly once per such block), ``lanes``/``warp_slots`` are the lane
    and warp-slot sums the reference path accumulates block by block,
    and the counter deltas around each memory access distribute the same
    totals because the accounting calls are shared.
    """
    sid = s.sid
    if affine is None:
        affine = {}
    if isinstance(s, K.Comment):
        return lambda env, mask, aw, aws: None

    if isinstance(s, K.Assign):
        fv = _compile_expr(s.value)
        name = s.dst
        def do_assign(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            _assign(env, name, fv(env), mask)
        return do_assign

    if isinstance(s, K.GLoad):
        fi = _compile_expr(s.index)
        name, buf = s.dst, s.buf
        fs = _stride_fn(affine.get(id(s)))
        slot = next(_stmt_slots)
        if slot_sids is not None:
            slot_sids[slot] = sid
        def do_gload(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            a = env.attr
            if a is not None:
                st = env.stats
                g0, l0 = st.global_transactions, st.l2_transactions
                b0, d0 = st.global_bytes, st.dram_bytes
                fr = env.gmem.faults
                f0 = len(fr.records) if fr is not None else 0
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            act = blk = None
            aff = _affine(env, fs, idx, mask)
            if env.check is not None and (state := env.check.get(buf)) \
                    is not None:
                # reading a location a *later* block wrote breaks the
                # sequential block order — abort to the reference path.
                # Reads of locations owned by an earlier block are fine
                # one-sided: in reference block order the earlier block
                # has already stored, and the lockstep chunk replay
                # executes its store statement before this load; the
                # read is recorded in ``maxread`` below, so a subsequent
                # same-chunk *store* by any block ≤ the reader still
                # trips the store-side hazard check.  (This is what lets
                # the fused finish-kernel epilogue — last block reads
                # every gang's partials — stay on the batched path.)
                # Out-of-range indices are clamped here; the load itself
                # raises the real OutOfBoundsError just below.
                owners, maxread = state
                runs = _uniform_runs(env, aff)
                if runs is not None:
                    # one index per warp: its first active lane stands
                    # in for every lane of the warp
                    rep, rblk = runs.rep, runs.rblk
                else:
                    act = idx[mask]
                    blk = np.repeat(env.block_ids,
                                    np.count_nonzero(mask, axis=1))
                    rep, rblk = act, blk
                ci = np.minimum(rep, owners.size - 1)
                own = owners[ci]
                if ((own != -1) & (own > rblk)).any():
                    raise _BatchHazard(buf)
                # rblk is non-decreasing along the flattened (block,
                # thread) order, so last-write-wins fancy assignment
                # leaves the per-location max — much cheaper than
                # ``np.maximum.at``'s scalar inner loop
                maxread[ci] = np.maximum(rblk, maxread[ci])
            out = env.gmem.load_batched(
                buf, idx, mask, env.warpkey, env.block_of, env.block_ids,
                env.stats, reuse=(env.seg_cache, slot), act=act,
                act_block=blk, affine=aff)
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                _attr_global(r, st, g0, l0, b0, d0)
                if fr is not None:
                    r.fault_events += len(fr.records) - f0
            _assign(env, name, out, mask)
            if env.trace:
                trace = env.stats.trace
                for b in env.block_ids[mask.any(axis=1)]:
                    trace.append(TraceEvent("gload", int(b), buf))
        return do_gload

    if isinstance(s, K.GStore):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        buf = s.buf
        fs = _stride_fn(affine.get(id(s)))
        slot = next(_stmt_slots)
        if slot_sids is not None:
            slot_sids[slot] = sid
        def do_gstore(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            a = env.attr
            if a is not None:
                st = env.stats
                g0, l0 = st.global_transactions, st.l2_transactions
                b0, d0 = st.global_bytes, st.dram_bytes
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            val = np.asarray(fv(env))
            if val.shape != mask.shape:
                val = np.broadcast_to(val, mask.shape)
            act = blk = None
            aff = _affine(env, fs, idx, mask)
            if env.check is not None and (state := env.check.get(buf)) \
                    is not None:
                # claim locations for the writing block.  Hazards: the
                # location belongs to another block, or a higher block
                # already read it (sequentially that read runs *after*
                # this store and must see it).  Same-statement first-write
                # collisions need no flag: the highest block wins in both
                # executors.
                owners, maxread = state
                runs = _uniform_runs(env, aff)
                if runs is not None:
                    rep, rblk = runs.rep, runs.rblk
                else:
                    act = idx[mask]
                    blk = np.repeat(env.block_ids,
                                    np.count_nonzero(mask, axis=1))
                    rep, rblk = act, blk
                ci = np.minimum(rep, owners.size - 1)
                own = owners[ci]
                if ((own != -1) & (own != rblk)).any():
                    raise _BatchHazard(buf)
                if (maxread[ci] > rblk).any():
                    raise _BatchHazard(buf)
                owners[ci] = rblk
            env.gmem.store_batched(
                buf, idx, val, mask, env.warpkey, env.block_of, env.stats,
                reuse=(env.seg_cache, slot), act=act, act_block=blk,
                affine=aff)
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                _attr_global(r, st, g0, l0, b0, d0)
            if env.trace:
                trace = env.stats.trace
                for b in env.block_ids[mask.any(axis=1)]:
                    trace.append(TraceEvent("gstore", int(b), buf))
        return do_gstore

    if isinstance(s, K.SLoad):
        fi = _compile_expr(s.index)
        name, arr = s.dst, s.arr
        fs = _stride_fn(affine.get(id(s)))
        def do_sload(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            a = env.attr
            if a is not None:
                st = env.stats
                s0, c0 = st.shared_accesses, st.bank_conflict_extra
                fr = env.smem.faults
                f0 = len(fr.records) if fr is not None else 0
            out = env.smem.load(arr, idx, mask, env.warpkey, env.rows,
                                _affine(env, fs, idx, mask))
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                r.shared_accesses += st.shared_accesses - s0
                r.bank_conflict_extra += st.bank_conflict_extra - c0
                if fr is not None:
                    r.fault_events += len(fr.records) - f0
            _assign(env, name, out, mask)
        return do_sload

    if isinstance(s, K.SStore):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        arr = s.arr
        fs = _stride_fn(affine.get(id(s)))
        def do_sstore(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            val = np.asarray(fv(env))
            if val.shape != mask.shape:
                val = np.broadcast_to(val, mask.shape)
            a = env.attr
            if a is not None:
                st = env.stats
                s0, c0 = st.shared_accesses, st.bank_conflict_extra
            env.smem.store(arr, idx, val, mask, env.warpkey, env.rows,
                           _affine(env, fs, idx, mask))
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                r.shared_accesses += st.shared_accesses - s0
                r.bank_conflict_extra += st.bank_conflict_extra - c0
        return do_sstore

    if isinstance(s, K.If):
        fc = _compile_expr(s.cond)
        fthen = _compile_block_batched(s.then, device, affine,
                                       slot_sids)
        felse = _compile_block_batched(s.orelse, device, affine,
                                       slot_sids) if s.orelse else None
        def do_if(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            c = _truthy(np.asarray(fc(env)))
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            if c.all():
                # every lane takes the then side: it inherits the region
                # as is (too dense to slice, see _sparse_rows), and no
                # warp splits since no else-side warp exists
                fthen(env, mask, aw, aws)
                return
            if c.shape != mask.shape:
                c = np.broadcast_to(c, mask.shape)
            m_then = mask & c
            m_else = mask & ~c
            t = np.add.reduceat(m_then, env.warp_starts, axis=1) > 0
            e = np.add.reduceat(m_else, env.warp_starts, axis=1) > 0
            d = int((t & e).sum())
            env.stats.divergent_branches += d
            if env.attr is not None:
                r.divergence_splits += d
            _run_branch(fthen, env, m_then, t)
            if felse is not None:
                _run_branch(felse, env, m_else, e)
        return do_if

    if isinstance(s, K.While):
        fc = _compile_expr(s.cond)
        fbody = _compile_block_batched(s.body, device, affine,
                                       slot_sids)
        def do_while(env, mask, aw, aws):
            c = _truthy(np.asarray(fc(env)))
            if c.shape != mask.shape:
                c = np.broadcast_to(c, mask.shape)
            m = mask & c
            env.stats.warp_inst_slots += aws  # first check
            r = None
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            stack = []  # (parent env, kept rows) per compaction level
            live = m.any(axis=1)
            lc = int(live.sum())
            while lc:
                idx = _sparse_rows(live, lc)
                if idx is not None:
                    # most blocks have exited (m only ever shrinks):
                    # slice the working set to the live rows
                    stack.append((env, idx))
                    env = _compact_env(env, idx)
                    m = m[idx]
                env.steps += lc
                if env.steps > env.watchdog_budget:
                    _loop_trip(env, m.any(axis=1))
                maw = _warps_per_block(env, m)
                maws = int(maw.sum())
                fbody(env, m, maw, maws)
                c = _truthy(np.asarray(fc(env)))
                if c.shape != m.shape:
                    c = np.broadcast_to(c, m.shape)
                m2 = m & c
                if env.stuck:
                    # injected stuck warps: a block whose exit would fire
                    # keeps its previous mask — its loop never ends
                    dead = m.any(axis=1) & ~m2.any(axis=1)
                    if dead.any():
                        m2 = np.where(dead[:, None], m, m2)
                m = m2
                env.stats.warp_inst_slots += maws  # re-check
                if r is not None:
                    r.warp_slots += maws
                live = m.any(axis=1)
                lc = int(live.sum())
            for parent, idx in reversed(stack):
                _expand_env(parent, env, idx)
                env = parent
        return do_while

    if isinstance(s, K.UniformWhile):
        fc = _compile_expr(s.cond)
        fbody = _compile_block_batched(s.body, device, affine,
                                       slot_sids)
        def do_uwhile(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            live = mask.any(axis=1)
            r = None
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(live.sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            if not live.any():
                return
            stack = []  # (parent env, kept rows) per compaction level
            while True:
                env.steps += int(live.sum())
                if env.steps > env.watchdog_budget:
                    _loop_trip(env, live)
                c = _truthy(np.asarray(fc(env)))
                if c.shape != mask.shape:
                    c = np.broadcast_to(c, mask.shape)
                if not env.stuck:
                    live = live & (mask & c).any(axis=1)
                lc = int(live.sum())
                if not lc:
                    break
                idx = _sparse_rows(live, lc)
                if idx is not None:
                    # most blocks have left the loop (live only shrinks):
                    # slice the working set to the live rows
                    stack.append((env, idx))
                    env = _compact_env(env, idx)
                    mask, aw, live = mask[idx], aw[idx], live[idx]
                bmask = mask & live[:, None]
                baw = np.where(live, aw, 0)
                baws = int(baw.sum())
                fbody(env, bmask, baw, baws)
                env.stats.warp_inst_slots += baws
                if r is not None:
                    r.warp_slots += baws
            for parent, idx in reversed(stack):
                _expand_env(parent, env, idx)
                env = parent
        return do_uwhile

    if isinstance(s, K.Sync):
        def do_sync(env, mask, aw, aws):
            anyb = mask.any(axis=1)
            allb = mask.all(axis=1)
            partial = anyb & ~allb
            if partial.any():
                bad = int(np.flatnonzero(partial)[0])
                raise BarrierDivergenceError(
                    "__syncthreads() executed under divergent control flow "
                    f"({int(mask[bad].sum())}/{mask.shape[1]} threads active)"
                )
            env.stats.barriers += int(anyb.sum())
            env.stats.warp_inst_slots += aws
            if env.attr is not None:
                r = env.attr.row(sid)
                arrived = int(anyb.sum())
                r.execs += arrived
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                r.barrier_arrivals += arrived
                r.barrier_wait_slots += aws
            if env.trace:
                trace = env.stats.trace
                for b in env.block_ids[anyb]:
                    trace.append(TraceEvent("sync", int(b), ""))
        return do_sync

    if isinstance(s, K.ShflDown):
        dst, src, delta = s.dst, s.src, s.delta
        ws = device.warp_size
        def do_shfl(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            try:
                reg = env.regs[src]
            except KeyError:
                raise SimulationError(
                    f"register {src!r} read before assignment") from None
            n = reg.shape[-1]
            ar = np.arange(n)
            lane = ar % ws
            src_idx = np.where(lane + delta < ws,
                               np.minimum(ar + delta, n - 1), ar)
            _assign(env, dst, reg[:, src_idx], mask)
        return do_shfl

    if isinstance(s, K.AtomicUpdate):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        buf = s.buf
        try:
            combine = ATOMIC_OPS[s.op]
        except KeyError:
            raise SimulationError(
                f"no atomic support for operator {s.op!r}") from None
        def do_atomic(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            val = np.asarray(fv(env))
            if val.shape != mask.shape:
                val = np.broadcast_to(val, mask.shape)
            a = env.attr
            if a is not None:
                st = env.stats
                g0, l0 = st.global_transactions, st.l2_transactions
                b0, d0 = st.global_bytes, st.dram_bytes
            # ufunc.at applies duplicates in flattened (block, thread)
            # order — the same combine order as blocks run one at a time
            env.gmem.atomic_update(buf, idx, val, mask, env.warpkey,
                                   env.stats, combine)
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                _attr_global(r, st, g0, l0, b0, d0)
                r.atomic_rounds += st.global_transactions - g0
        return do_atomic

    raise SimulationError(f"unknown statement node {s!r}")


def _compile_block_batched(stmts: tuple, device: DeviceProperties,
                           affine: dict | None = None,
                           slot_sids: dict | None = None):
    fns = [_compile_stmt_batched(s, device, affine, slot_sids)
           for s in stmts]
    def run(env, mask, aw, aws=None):
        if aws is None:
            aws = int(aw.sum())
        for f in fns:
            f(env, mask, aw, aws)
    return run


# --------------------------------------------------------------------------
# launch driver
# --------------------------------------------------------------------------

def run_batched(ck, gmem: GlobalMemory, grid_dim: int,
                block_dim: tuple[int, int], stats: KernelStats,
                params: dict, trace: bool, faults, budget: float,
                stuck: bool, check: dict | None = None) -> KernelStats:
    """Execute a validated launch over chunks of
    :data:`DEFAULT_BLOCK_BATCH` blocks.

    Called by :meth:`~repro.gpu.executor.CompiledKernel.run` after launch
    validation, fault-arming, and stats construction.  Results and
    counters are invariant under the chunk size: per-launch state (loop
    ``steps``, the segment-reuse cache keyed by absolute block ids)
    carries across chunks, and the cross-block reuse correction runs once
    at launch end.
    """
    bdx, bdy = block_dim
    chunk = DEFAULT_BLOCK_BATCH
    body = ck._batched_body
    if body is None:
        body = ck._batched_body = _compile_block_batched(
            ck.kernel.body, ck.device, lane_affine_stmts(ck.kernel),
            ck._slot_sids)
    seg_cache: dict = {}
    steps = 0
    prev_faults = gmem.faults
    if faults is not None:
        gmem.faults = faults
    try:
        for start in range(0, grid_dim, chunk):
            ids = np.arange(start, min(start + chunk, grid_dim),
                            dtype=np.int64)
            env = BatchedBlockEnv(bdx, bdy, grid_dim, ids, gmem, stats,
                                  params, ck.device.warp_size, trace)
            env.smem = BatchedSharedMemory(
                ck.device, ck.kernel.shared, stats, len(ids),
                faults=faults, block_ids=ids)
            env.seg_cache = seg_cache
            env.kernel_name = ck.kernel.name
            env.steps = steps
            env.watchdog_budget = budget
            env.stuck = stuck
            env.check = check
            env.attr = stats.attribution
            body(env, env.block_mask,
                 np.full(len(ids), env.nwarps, dtype=np.int64))
            steps = env.steps
            if check is not None and start + chunk < grid_dim:
                # chunk boundary: earlier chunks are complete and every
                # later block outranks them, so cross-chunk sharing is
                # sequential-consistent — reset the hazard state
                for owners, maxread in check.values():
                    owners.fill(-1)
                    maxread.fill(-1)
    finally:
        gmem.faults = prev_faults
    finalize_segment_reuse(seg_cache, stats, ck.device.transaction_bytes,
                           attr=stats.attribution,
                           slot_sids=ck._slot_sids)
    return stats
