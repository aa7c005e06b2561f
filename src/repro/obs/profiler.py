"""The profiler: one object the whole pipeline reports into.

A :class:`Profiler` is handed to ``acc.compile(..., profiler=...)`` and
``Program.run(RunOptions(profiler=...))`` (or to the raw
:func:`repro.gpu.launch.launch`); the compile pipeline, the data
environment, and the launch path then report into it:

* compile phases  → wall-time spans on the ``host`` track;
* h2d/d2h copies  → modeled-time ``transfer`` spans + byte counters;
* kernel launches → a :class:`~repro.obs.record.KernelRecord` (counters,
  time breakdown, launch config, strategy) + a ``kernel`` span;
* reduction finalization (finish kernel + result read-back) → an
  enclosing ``reduction`` span.

Profiling is strictly opt-in: every hook site is ``if profiler is not
None``-guarded, and with no profiler the run path allocates nothing —
the acceptance bar is *zero* overhead when disabled.  Per-access
:class:`~repro.gpu.events.TraceEvent` collection is a separate, also
opt-in knob (``trace=True`` on the same calls) because it records one
event per memory statement execution; when both are on, the profiler
folds the structured trace into per-kind counters instead of printing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.gpu.costmodel import TimeBreakdown
from repro.gpu.device import DeviceProperties
from repro.gpu.events import KernelStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import KernelRecord
from repro.obs.trace import TraceRecorder

__all__ = ["Profiler"]


@dataclass
class Profiler:
    """Collects kernel records, trace spans, and metrics for one session.

    One profiler may span many ``Program.run`` calls (iterative apps,
    bench sweeps); records and metrics accumulate.
    """

    trace: TraceRecorder = field(default_factory=TraceRecorder)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    kernels: list[KernelRecord] = field(default_factory=list)

    # -- hooks (called by the runtime / launch path) -----------------------

    def record_kernel(self, name: str, stats: KernelStats,
                      timing: TimeBreakdown, *, grid_dim: int,
                      block_dim: tuple[int, int],
                      device: DeviceProperties,
                      compiler: str | None = None,
                      strategy: dict | None = None,
                      executor: str = "batched",
                      kernel=None) -> KernelRecord:
        """Snapshot one kernel launch; returns the new record.

        ``kernel`` (the :class:`~repro.gpu.kernelir.Kernel` IR, when the
        launch site has it) enables the per-statement views: annotated
        listings and the roofline's dominant-statement naming."""
        rec = KernelRecord(
            name=name, stats=stats, timing=timing, grid_dim=grid_dim,
            block_dim=block_dim, device=device, compiler=compiler,
            strategy=dict(strategy or {}), launch_index=len(self.kernels),
            executor=executor, kernel=kernel,
        )
        self.kernels.append(rec)
        self.trace.add(name, "kernel", timing.total_us,
                       grid=grid_dim, block=list(block_dim),
                       gtx=stats.global_transactions,
                       barriers=stats.barriers)
        if stats.attribution is not None:
            rows = sorted(stats.attribution.rows.items())
            self.trace.counter(
                f"{name}.stmt_gtx",
                {f"s{sid}": r.global_transactions for sid, r in rows})
            self.trace.counter(
                f"{name}.stmt_slots",
                {f"s{sid}": r.warp_slots for sid, r in rows})
            self.metrics.counter("profiler.attributed_launches").inc()
        m = self.metrics
        m.counter("profiler.kernel_launches").inc()
        m.counter("profiler.warp_inst_slots").inc(stats.warp_inst_slots)
        m.counter("profiler.global_transactions").inc(
            stats.global_transactions)
        m.counter("profiler.dram_bytes").inc(stats.dram_bytes)
        m.counter("profiler.barriers").inc(stats.barriers)
        m.histogram("profiler.kernel_us").observe(timing.total_us)
        m.gauge("profiler.last_occupancy").set(rec.occupancy)
        # fold the opt-in structured trace into per-kind counters
        for ev in stats.trace:
            m.counter(f"profiler.trace_events.{ev.kind}").inc()
        return rec

    def record_transfer(self, label: str, us: float, nbytes: int,
                        direction: str) -> None:
        """One modeled host↔device copy (direction: ``h2d`` | ``d2h``)."""
        self.trace.add(label, "transfer", us,
                       bytes=nbytes, direction=direction)
        self.metrics.counter(f"profiler.{direction}_bytes").inc(nbytes)
        self.metrics.counter("profiler.transfers").inc()

    def record_fault(self, site: str, kind: str) -> None:
        """One injected fault (see :mod:`repro.faults`): a zero-duration
        trace marker plus per-kind counters, so campaigns show up in the
        same timeline as the kernels they perturb."""
        self.trace.add(f"fault:{site}", "fault", 0.0, kind=kind)
        self.metrics.counter("faults.injected").inc()
        self.metrics.counter(f"faults.injected.{kind}").inc()

    @contextmanager
    def phase(self, name: str, cat: str = "compile", **args):
        """Wall-time span on the host track (compile pipeline phases)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.trace.add(name, cat, (time.perf_counter() - t0) * 1e6,
                           track="host", **args)

    def region(self, name: str, cat: str = "region", **args):
        """Enclosing modeled-time span (e.g. one ``Program.run``)."""
        return self.trace.region(name, cat, **args)

    # -- export ------------------------------------------------------------

    @property
    def modeled_us(self) -> float:
        """Device-track time accumulated so far."""
        return self.trace.now("device")

    def kernels_named(self, name: str) -> list[KernelRecord]:
        return [k for k in self.kernels if k.name == name]

    def to_dict(self, truncated_by: BaseException | None = None) -> dict:
        """Chrome-trace-loadable document with the profile embedded.

        The ``traceEvents`` / ``displayTimeUnit`` keys make the file load
        in ``chrome://tracing``; the extra top-level keys (``kernels``,
        ``metrics``) are ignored by trace viewers and carry the full
        machine-readable profile for tooling.

        ``truncated_by`` marks a document flushed on the error path: the
        run died mid-flight, so the trace covers only what executed.  The
        partial profile still loads in ``chrome://tracing`` and shows how
        far execution got before the failure.
        """
        doc = self.trace.to_chrome()
        doc["kernels"] = [k.to_dict() for k in self.kernels]
        doc["metrics"] = self.metrics.to_dict()
        if truncated_by is not None:
            doc["truncated"] = True
            doc["truncated_by"] = {
                "error": type(truncated_by).__name__,
                "message": str(truncated_by),
            }
        return doc

    def to_json(self, indent: int | None = None,
                truncated_by: BaseException | None = None) -> str:
        return json.dumps(self.to_dict(truncated_by=truncated_by),
                          indent=indent)

    def format_report(self) -> str:
        """The plain-text per-kernel report (see :mod:`repro.obs.report`)."""
        from repro.obs.report import format_profile
        return format_profile(self)
