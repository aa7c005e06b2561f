"""Kernel launch convenience: compile, execute, time — and profile — a kernel."""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.costmodel import CostModel, TimeBreakdown
from repro.gpu.device import DeviceProperties, K20C
from repro.gpu.events import KernelStats
from repro.gpu.executor import CompiledKernel
from repro.gpu.kernelir import Kernel
from repro.gpu.memory import GlobalMemory
from repro.obs import timeline as _timeline

__all__ = ["LaunchReport", "launch"]


@dataclass
class LaunchReport:
    """Result of one kernel launch: counters plus modeled time."""

    kernel: Kernel
    stats: KernelStats
    timing: TimeBreakdown

    @property
    def modeled_us(self) -> float:
        return self.timing.total_us

    @property
    def modeled_ms(self) -> float:
        return self.timing.total_us / 1000.0


def launch(kernel: Kernel, gmem: GlobalMemory, *, grid_dim: int,
           block_dim: tuple[int, int], params: dict | None = None,
           device: DeviceProperties = K20C, trace: bool = False,
           profiler=None, faults=None,
           watchdog_budget: int | None = None,
           mode: str | None = None,
           attribution: bool = False) -> LaunchReport:
    """Compile ``kernel``, run it over the grid, and model its time.

    ``trace=True`` turns on per-access :class:`~repro.gpu.events.TraceEvent`
    collection for this launch (the same knob
    :meth:`~repro.gpu.executor.CompiledKernel.run` takes); it is off by
    default because it records one event per memory statement execution.
    ``profiler`` (a :class:`repro.obs.Profiler`) receives a
    :class:`~repro.obs.record.KernelRecord` for the launch.  ``faults``
    (a :class:`repro.faults.FaultInjector`) and ``watchdog_budget`` are
    forwarded to :meth:`~repro.gpu.executor.CompiledKernel.run` — the
    former arms fault injection for this launch, the latter overrides the
    per-launch loop-step budget.  ``mode`` selects the executor path
    (batched by default).

    ``attribution=True`` additionally fills a per-statement
    :class:`~repro.gpu.events.AttributionTable` on ``stats.attribution``
    (see :mod:`repro.obs.attribution` for rendering).

    Every call compiles afresh; callers that re-launch a kernel keep a
    :class:`~repro.gpu.executor.CompiledKernel` themselves, as
    ``Program`` does.
    """
    ck = CompiledKernel(kernel, device)
    stats = ck.run(gmem, grid_dim, block_dim, params=params, trace=trace,
                   faults=faults, watchdog_budget=watchdog_budget,
                   mode=mode, attribution=attribution)
    timing = CostModel(device).kernel_time(stats)
    tl = _timeline.current()
    if tl is None and profiler is None:
        return LaunchReport(kernel=kernel, stats=stats, timing=timing)
    executor = ck.effective_mode(mode, grid_dim, gmem, faults,
                                 trace_events=trace)
    if tl is not None:
        tl.span("gpu", f"kernel:{kernel.name}", timing.total_us,
                grid=grid_dim, block=list(block_dim), executor=executor)
    if profiler is not None:
        profiler.record_kernel(kernel.name, stats, timing,
                               grid_dim=grid_dim, block_dim=block_dim,
                               device=device, executor=executor,
                               kernel=kernel)
    return LaunchReport(kernel=kernel, stats=stats, timing=timing)
