"""Device data regions: the ``#pragma acc data`` lifetime construct.

The paper (§2.1) notes that OpenACC 1.0 expresses data movement per compute
construct and that 2.0 adds runtime control of data lifetimes.  Iterative
applications (the heat equation re-launches two kernels per sweep) waste
PCIe bandwidth without a surrounding data region.  This module provides
one::

    with DataRegion(copy={"temp1": t1, "temp2": t2}) as region:
        opts = RunOptions(data_region=region)
        for _ in range(iters):
            update.run(opts)             # no transfers: arrays are present
            err = errprog.run(opts)
    t1 = region.results["temp1"]         # copied out once, at region exit

Programs run with ``RunOptions(data_region=region)`` share the region's
device memory; any of their arrays already held by the region follow
*present* semantics (no per-run allocation or transfer — the OpenACC
``present_or_copy`` behaviour).  Arrays not held by the region keep
their per-run transfers.

``update_host`` / ``update_device`` model the OpenACC ``update`` directive
for mid-region synchronization (the heat convergence check needs nothing —
reduction results travel through scalar result buffers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dtypes import from_numpy
from repro.errors import RuntimeDataError
from repro.gpu.costmodel import CostModel, TimingLedger
from repro.gpu.device import DeviceProperties, K20C
from repro.gpu.memory import GlobalMemory

__all__ = ["DataRegion"]

_ENTRY_KINDS = ("copy", "copyin", "copyout", "create")


class DataRegion:
    """A device-resident data environment spanning multiple program runs."""

    def __init__(self, *, device: DeviceProperties = K20C,
                 copy: dict | None = None, copyin: dict | None = None,
                 copyout: dict | None = None, create: dict | None = None):
        self.device = device
        self.gmem = GlobalMemory(device)
        self.ledger = TimingLedger()
        self._cost = CostModel(device)
        self._clauses: dict[str, str] = {}
        self.host_arrays: dict[str, np.ndarray] = {}
        self.results: dict[str, np.ndarray] = {}
        self._entered = False
        self._closed = False
        for kind, mapping in (("copy", copy), ("copyin", copyin),
                              ("copyout", copyout), ("create", create)):
            for name, arr in (mapping or {}).items():
                if name in self._clauses:
                    raise RuntimeDataError(
                        f"array {name!r} appears in two data clauses")
                if not isinstance(arr, np.ndarray):
                    raise RuntimeDataError(
                        f"data region entry {name!r} must be a NumPy array")
                self._clauses[name] = kind
                self.host_arrays[name] = arr
        if not self._clauses:
            raise RuntimeDataError("a data region needs at least one array")

    # -- lifetime ----------------------------------------------------------

    def __enter__(self) -> "DataRegion":
        if self._entered:
            raise RuntimeDataError("data region already entered")
        self._entered = True
        for name, host in self.host_arrays.items():
            kind = self._clauses[name]
            flat = host.reshape(-1)
            init = flat if kind in ("copy", "copyin") else None
            self.gmem.alloc(name, flat.size, from_numpy(host.dtype),
                            init=init)
            if kind in ("copy", "copyin"):
                self.ledger.add(f"h2d:{name}",
                                self._cost.transfer_time(flat.nbytes))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._closed = True
        if exc_type is not None:
            return
        for name, host in self.host_arrays.items():
            if self._clauses[name] in ("copy", "copyout"):
                data = self.gmem[name].data.copy()
                self.results[name] = data.reshape(host.shape)
                self.ledger.add(f"d2h:{name}",
                                self._cost.transfer_time(data.nbytes))

    # -- introspection used by Program.run ----------------------------------

    def holds(self, name: str) -> bool:
        return name in self._clauses

    def host_shape_of(self, name: str) -> np.ndarray:
        return self.host_arrays[name]

    def _check_active(self) -> None:
        if not self._entered or self._closed:
            raise RuntimeDataError(
                "data region is not active (use it as a context manager)")

    # -- the `update` directive ---------------------------------------------

    def update_host(self, name: str) -> np.ndarray:
        """``#pragma acc update host(name)``: device → host, charged."""
        self._check_active()
        if not self.holds(name):
            raise RuntimeDataError(f"{name!r} is not held by this region")
        data = self.gmem[name].data.copy()
        self.ledger.add(f"update-host:{name}",
                        self._cost.transfer_time(data.nbytes))
        return data.reshape(self.host_arrays[name].shape)

    def update_device(self, name: str, values: np.ndarray) -> None:
        """``#pragma acc update device(name)``: host → device, charged."""
        self._check_active()
        if not self.holds(name):
            raise RuntimeDataError(f"{name!r} is not held by this region")
        buf = self.gmem[name]
        flat = np.asarray(values, dtype=buf.dtype.np).reshape(-1)
        if flat.size != buf.size:
            raise RuntimeDataError(
                f"update_device({name!r}): size mismatch")
        buf.data[:] = flat
        self.ledger.add(f"update-device:{name}",
                        self._cost.transfer_time(flat.nbytes))

    @property
    def transfer_ms(self) -> float:
        return self.ledger.total_ms
