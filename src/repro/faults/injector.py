"""The runtime fault injector: consumes a plan's RNG stream, records hits.

One :class:`FaultInjector` is threaded through a run
(``Program.run(RunOptions(faults=...))`` or
``CompiledKernel.run(faults=...)``); the simulator and
runtime query it at well-defined *sites*:

* :meth:`on_gload` / :meth:`on_sload` — after a memory read gathers its
  values, maybe flip one bit of one active lane (the register sees the
  corrupted value; the buffer is untouched — a transient read upset);
* :meth:`on_transfer` — before a host↔device copy lands, maybe corrupt
  one element or raise :class:`~repro.errors.TransferFaultError`;
* :meth:`on_launch` — at kernel-launch entry, maybe raise
  :class:`~repro.errors.KernelLaunchError`;
* :meth:`on_stuck_query` — at kernel-launch entry, maybe put the whole
  launch in stuck-warp mode (loop exits never fire; the watchdog or a
  bounds check converts the spin into a typed error).

Sites that are disabled in the plan (probability 0) consume **no** RNG
draws, so enabling one kind never perturbs another kind's sites — and a
run with no injector attached does no fault work at all.

Stream structure: launch-level sites (:meth:`on_launch`,
:meth:`on_stuck_query`, :meth:`on_transfer`) draw from one *main* stream
seeded from the plan.  The per-access read sites (:meth:`on_gload` /
:meth:`on_sload`) draw from a **per-block substream** keyed
``(plan.seed, block)`` when the caller passes the executing block index.
A block performs the same sequence of reads whether the executor walks
blocks one at a time (``mode="reference"``) or advances them all together
(the batched default), so per-block substreams make the injected
(block, access, lane, bit) sites identical across executor modes and
block-chunk sizes.  Callers that pass no ``block`` (direct unit-test
drives) fall back to the main stream.  Caveat: the global ``max_faults``
cap disarms *all* streams once the record budget is spent, and the order
in which concurrent blocks reach their sites differs between executor
modes — cross-mode site identity therefore holds exactly when
``max_faults=None`` (or while the cap is not yet reached).

Every injection appends a :class:`FaultRecord`; ``records`` is the ground
truth the campaign classifier and the determinism tests read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import KernelLaunchError, TransferFaultError
from repro.obs import timeline as _timeline

__all__ = ["FaultInjector", "FaultRecord"]

_UINT_FOR_SIZE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: where, what, and the exact corruption applied."""

    index: int  # injection ordinal within this injector
    site: str   # e.g. "gload:a", "h2d:a", "launch:acc_region_main"
    kind: str   # "bitflip" | "transfer-corrupt" | "transfer-fail" | ...
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"index": self.index, "site": self.site, "kind": self.kind,
                "detail": dict(self.detail)}


class FaultInjector:
    """Mutable per-run state of one :class:`~repro.faults.plan.FaultPlan`."""

    def __init__(self, plan):
        self.plan = plan
        self._rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
        #: lazily created per-block substreams for the read sites; keyed by
        #: absolute block index so the draw sequence a block sees does not
        #: depend on which other blocks run, or in what order
        self._block_rngs: dict[int, np.random.Generator] = {}
        self.records: list[FaultRecord] = []

    # -- arming ----------------------------------------------------------

    @property
    def armed(self) -> bool:
        """True while this injector may still inject (``max_faults`` cap)."""
        return (self.plan.max_faults is None
                or len(self.records) < self.plan.max_faults)

    def _rng_for(self, block: int | None) -> np.random.Generator:
        if block is None:
            return self._rng
        rng = self._block_rngs.get(block)
        if rng is None:
            seed = self.plan.seed if self.plan.seed is not None else 0
            rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), int(block)]))
            self._block_rngs[block] = rng
        return rng

    def _fire(self, p: float, rng: np.random.Generator | None = None) -> bool:
        # disabled sites must not consume RNG draws (site independence)
        if p <= 0.0 or not self.armed:
            return False
        if rng is None:
            rng = self._rng
        return bool(rng.random() < p)

    def _record(self, site: str, kind: str, **detail) -> FaultRecord:
        rec = FaultRecord(len(self.records), site, kind, detail)
        self.records.append(rec)
        tl = _timeline.current()
        if tl is not None:
            tl.fault("faults", site, fault_kind=kind, index=rec.index,
                     **detail)
        return rec

    # -- bit flips -------------------------------------------------------

    def _flip_lane(self, out: np.ndarray, lane: int, site: str,
                   rng: np.random.Generator | None = None, **detail) -> None:
        utype = _UINT_FOR_SIZE.get(out.dtype.itemsize)
        if utype is None:
            return
        if rng is None:
            rng = self._rng
        bit = int(rng.integers(out.dtype.itemsize * 8))
        u = out.view(utype)
        u[lane] ^= utype(1) << utype(bit)
        self._record(site, "bitflip", lane=lane, bit=bit, **detail)

    def on_gload(self, buf: str, out: np.ndarray, mask: np.ndarray,
                 block: int | None = None) -> None:
        """Maybe corrupt one active lane of a gathered global read.

        ``block`` (the executing block's absolute index) selects the
        per-block substream; ``None`` uses the main stream.
        """
        rng = self._rng_for(block)
        if not self._fire(self.plan.p_gload_flip, rng):
            return
        lanes = np.flatnonzero(mask)
        if lanes.size == 0:
            return
        lane = int(lanes[rng.integers(lanes.size)])
        detail = {} if block is None else {"block": int(block)}
        self._flip_lane(out, lane, f"gload:{buf}", rng, **detail)

    def on_sload(self, arr: str, out: np.ndarray, mask: np.ndarray,
                 block: int | None = None) -> None:
        """Maybe corrupt one active lane of a gathered shared read."""
        rng = self._rng_for(block)
        if not self._fire(self.plan.p_sload_flip, rng):
            return
        lanes = np.flatnonzero(mask)
        if lanes.size == 0:
            return
        lane = int(lanes[rng.integers(lanes.size)])
        detail = {} if block is None else {"block": int(block)}
        self._flip_lane(out, lane, f"sload:{arr}", rng, **detail)

    # -- transfers -------------------------------------------------------

    def on_transfer(self, label: str, data: np.ndarray,
                    direction: str) -> np.ndarray:
        """Pass a host↔device copy through the fault model.

        Returns the (possibly corrupted, always fresh) array to land, or
        raises :class:`TransferFaultError` for a spurious in-flight
        failure.  The caller's array is never mutated.
        """
        if self._fire(self.plan.p_transfer_fail):
            self._record(label, "transfer-fail", direction=direction)
            raise TransferFaultError(
                f"injected {direction} transfer failure on {label}")
        if self._fire(self.plan.p_transfer_corrupt):
            data = np.array(data, copy=True)
            flat = data.reshape(-1)
            elem = int(self._rng.integers(flat.size)) if flat.size else 0
            if flat.size:
                utype = _UINT_FOR_SIZE.get(flat.dtype.itemsize)
                if utype is not None:
                    bit = int(self._rng.integers(flat.dtype.itemsize * 8))
                    u = flat.view(utype)
                    u[elem] ^= utype(1) << utype(bit)
                    self._record(label, "transfer-corrupt",
                                 direction=direction, elem=elem, bit=bit)
        return data

    # -- launches --------------------------------------------------------

    def on_launch(self, kernel: str) -> None:
        """Maybe fail this launch spuriously (transient, retryable)."""
        if self._fire(self.plan.p_launch_fail):
            self._record(f"launch:{kernel}", "launch-fail")
            raise KernelLaunchError(
                f"injected spurious launch failure for kernel {kernel!r}")

    def on_stuck_query(self, kernel: str) -> bool:
        """Maybe put this launch in stuck-warp mode (loops never exit)."""
        if self._fire(self.plan.p_stuck_warp):
            self._record(f"stuck:{kernel}", "stuck-warp")
            return True
        return False

    # -- introspection ---------------------------------------------------

    @property
    def sites(self) -> tuple[str, ...]:
        """Fault sites hit so far, in injection order."""
        return tuple(r.site for r in self.records)

    def to_dict(self) -> dict:
        return {"plan": self.plan.to_dict(),
                "records": [r.to_dict() for r in self.records]}
