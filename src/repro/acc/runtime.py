"""OpenACC data environment: host↔device data movement for one region.

Implements the OpenACC 1.0 memory model the paper assumes (§2.1): host and
accelerator have separate memories, data clauses describe the traffic:

* ``copyin``  — host → device at region entry;
* ``copyout`` — device → host at region exit (device buffer starts zeroed);
* ``copy``    — both;
* ``create``  — device-only scratch, no transfers;
* ``present`` — assumed resident; modeled as ``copy`` without transfer cost
  (this single-region runtime has no enclosing ``data`` construct to hold
  long-lived buffers).

Array shapes bind the region's symbolic extents (``float a[NK][NJ]`` +
a host array of shape ``(4, 8)`` binds ``NK=4, NJ=8``), with consistency
checking against every other binding source.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.dtypes import DType
from repro.errors import RuntimeDataError
from repro.gpu.costmodel import CostModel, TimingLedger
from repro.gpu.device import DeviceProperties
from repro.gpu.memory import GlobalMemory
from repro.ir.nodes import ArrayInfo, Region
from repro.obs import timeline as _timeline

__all__ = ["DataEnv"]


def _options_hint(name: str) -> str:
    """Error-message hint for a run option passed as a binding."""
    from repro.acc.compiler import RunOptions

    if name in {f.name for f in fields(RunOptions)}:
        return (f"; run options go in a RunOptions passed positionally: "
                f"run(RunOptions({name}=...), ...)")
    return ""


@dataclass
class DataEnv:
    """The per-run data environment.

    When ``data_region`` is set (an active
    :class:`~repro.acc.dataregion.DataRegion`), device memory is shared
    with the region: arrays the region holds follow *present* semantics
    (no per-run allocation or transfers), and everything this run
    allocates itself (other arrays, reduction scratch) is freed at
    cleanup so the program can run again in the same region.
    """

    region: Region
    device: DeviceProperties
    data_region: object | None = None  # DataRegion
    gmem: GlobalMemory = None  # type: ignore[assignment]
    ledger: TimingLedger = field(default_factory=TimingLedger)
    scalars: dict[str, np.generic] = field(default_factory=dict)
    host_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    profiler: object | None = None  # repro.obs.Profiler, opt-in
    faults: object | None = None  # repro.faults.FaultInjector, opt-in

    def __post_init__(self):
        if self.data_region is not None:
            self.data_region._check_active()
            self.gmem = self.data_region.gmem
        else:
            self.gmem = GlobalMemory(self.device)
        self._cost = CostModel(self.device)
        self._ephemeral: list[str] = []

    def _resident(self, name: str) -> bool:
        return (self.data_region is not None
                and self.data_region.holds(name))

    def _charge_transfer(self, label: str, us: float, nbytes: int,
                         direction: str) -> None:
        """Ledger a host↔device copy; mirror it into the profiler."""
        self.ledger.add(label, us)
        if self.profiler is not None:
            self.profiler.record_transfer(label, us, nbytes, direction)
        tl = _timeline.current()
        if tl is not None:
            tl.span("gpu", f"transfer:{label}", us, bytes=nbytes,
                    direction=direction)

    # ------------------------------------------------------------------

    def bind(self, kwargs: dict[str, object]) -> None:
        """Bind host arrays and scalars from ``run(**kwargs)``."""
        arrays: dict[str, np.ndarray] = {}
        scalars: dict[str, object] = {}
        known_arrays = {a.name for a in self.region.arrays}
        known_scalars = {s.name for s in self.region.scalars}
        for name, value in kwargs.items():
            if isinstance(value, np.ndarray):
                if name not in known_arrays:
                    raise RuntimeDataError(
                        f"{name!r} is not an array of this region "
                        f"(arrays: {sorted(known_arrays)})")
                arrays[name] = value
            else:
                if name not in known_scalars:
                    raise RuntimeDataError(
                        f"{name!r} is not a scalar of this region "
                        f"(scalars: {sorted(known_scalars)})"
                        + _options_hint(name))
                scalars[name] = value

        for arr in self.region.arrays:
            if arr.name not in arrays:
                if self._resident(arr.name):
                    # present in the surrounding data region
                    arrays[arr.name] = self.data_region.host_arrays[arr.name]
                else:
                    raise RuntimeDataError(
                        f"missing host array {arr.name!r} "
                        f"(transfer {arr.transfer!r}); pass it to run() or "
                        "hold it in a data region")
            host = arrays[arr.name]
            self._bind_array(arr, host)

        # explicit scalar arguments override shape bindings only if equal
        for name, value in scalars.items():
            info = self.region.scalar(name)
            v = info.dtype.np.type(value)
            if name in self.scalars and self.scalars[name] != v:
                raise RuntimeDataError(
                    f"scalar {name!r}={v} contradicts the value {self.scalars[name]} "
                    "bound from an array shape")
            self.scalars[name] = v

        # preamble initializers fill anything still missing
        for info in self.region.scalars:
            if info.name in self.scalars:
                continue
            if info.init is not None:
                self.scalars[info.name] = info.dtype.np.type(info.init.value)
            elif info.from_shape is not None:
                raise RuntimeDataError(
                    f"scalar {info.name!r} should have been bound from "
                    f"array {info.from_shape[0]!r} — internal error")
            else:
                raise RuntimeDataError(
                    f"scalar {info.name!r} has no value: pass "
                    f"{info.name}=<value> to run()")

    def _bind_array(self, arr: ArrayInfo, host: np.ndarray) -> None:
        if host.dtype != arr.dtype.np:
            raise RuntimeDataError(
                f"array {arr.name!r} must have dtype {arr.dtype.np} "
                f"(C type {arr.dtype.ctype!r}), got {host.dtype}")
        if arr.extents:
            if host.ndim != len(arr.extents):
                raise RuntimeDataError(
                    f"array {arr.name!r} is declared with "
                    f"{len(arr.extents)} dimension(s), got shape "
                    f"{host.shape}")
            for i, ext in enumerate(arr.extents):
                if isinstance(ext, int):
                    if host.shape[i] != ext:
                        raise RuntimeDataError(
                            f"array {arr.name!r} dimension {i} must be "
                            f"{ext}, got {host.shape[i]}")
                else:
                    v = np.int32(host.shape[i])
                    if ext in self.scalars and self.scalars[ext] != v:
                        raise RuntimeDataError(
                            f"extent {ext!r}: array {arr.name!r} gives "
                            f"{v}, but it is already {self.scalars[ext]}")
                    self.scalars[ext] = v
        self.host_arrays[arr.name] = host

    # ------------------------------------------------------------------

    def enter(self) -> None:
        """Allocate device buffers and perform entry transfers.

        Arrays held by a surrounding data region are already resident:
        neither allocated nor transferred here (present semantics).
        """
        for arr in self.region.arrays:
            if self._resident(arr.name):
                continue
            host = self.host_arrays[arr.name]
            flat = host.reshape(-1)
            init = flat if arr.transfer in ("copy", "copyin", "present") \
                else None
            if (init is not None and self.faults is not None
                    and arr.transfer in ("copy", "copyin")):
                # fault model: the PCIe copy may fail (transient, raises)
                # or land corrupted; the host array is never mutated
                init = self.faults.on_transfer(f"h2d:{arr.name}", init,
                                               "h2d")
            self.gmem.alloc(arr.name, flat.size, arr.dtype, init=init)
            self._ephemeral.append(arr.name)
            if arr.transfer in ("copy", "copyin"):
                self._charge_transfer(f"h2d:{arr.name}",
                                      self._cost.transfer_time(flat.nbytes),
                                      flat.nbytes, "h2d")

    def alloc_scratch(self, name: str, dtype: DType, size: int,
                      fill=None) -> None:
        init = None
        if fill is not None:
            init = np.full(size, fill, dtype=dtype.np)
        self.gmem.alloc(name, size, dtype, init=init)
        self._ephemeral.append(name)

    def exit_outputs(self) -> dict[str, np.ndarray]:
        """Perform exit transfers; return the host-visible arrays.

        Region-held arrays stay on the device (read them at data-region
        exit or via ``DataRegion.update_host``).
        """
        out: dict[str, np.ndarray] = {}
        for arr in self.region.arrays:
            if self._resident(arr.name):
                continue
            if arr.transfer in ("copy", "copyout", "present"):
                data = self.gmem[arr.name].data.copy()
                if (self.faults is not None
                        and arr.transfer in ("copy", "copyout")):
                    data = self.faults.on_transfer(f"d2h:{arr.name}", data,
                                                   "d2h")
                host = self.host_arrays[arr.name]
                out[arr.name] = data.reshape(host.shape)
                if arr.transfer in ("copy", "copyout"):
                    self._charge_transfer(
                        f"d2h:{arr.name}",
                        self._cost.transfer_time(data.nbytes),
                        data.nbytes, "d2h")
        return out

    def cleanup(self) -> None:
        """Free this run's allocations when sharing a data region's memory
        (so the same program can run again in the region)."""
        if self.data_region is None:
            return
        for name in self._ephemeral:
            if name in self.gmem:
                self.gmem.free(name)
        self._ephemeral.clear()

    def read_result(self, buf: str) -> np.generic:
        """Read a 1-element result buffer (gang-reduction output)."""
        value = self.gmem[buf].data[0]
        if self.faults is not None:
            value = self.faults.on_transfer(f"d2h:{buf}",
                                            np.array([value]), "d2h")[0]
        self._charge_transfer(f"d2h:{buf}",
                              self._cost.transfer_time(int(value.nbytes)),
                              int(value.nbytes), "d2h")
        return value
