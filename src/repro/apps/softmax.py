"""Numerically-stable softmax — the cascaded-reduction flagship.

Softmax is the canonical reduce→map→reduce→map cascade: a ``max``
reduction (for stability), a subtract-exp map, a ``+`` reduction, and a
divide map.  Lowered naively that is three region kernels plus a finish
kernel and a host round-trip per reduction; the ``cascade-fusion`` pass
(see :mod:`repro.passes.cascade` and docs/reduction-strategies.md) folds
each finish kernel into its consumer stage, so the whole cascade runs in
three kernels with no intermediate host reads — bit-identical to the
unfused pipeline, because the fused prologue replays the finish
kernel's exact combine tree.

``softmax(...)`` runs the fragment through ``acc.compile``;
``softmax_result`` additionally reports kernel counts and modeled time
so benchmarks (``repro.bench.smoke``'s ``cascade_fusion`` gate) and the
differential-pin suite can assert both the fusion win and the
bit-identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import acc

__all__ = ["SoftmaxResult", "softmax", "softmax_result", "SOFTMAX_SRC"]

SOFTMAX_SRC = """
float x[n];
float y[n];
float m = 0.0f;
float s = 0.0f;
#pragma acc parallel copyin(x) copyout(y)
{
#pragma acc loop gang worker vector reduction(max:m)
for (i = 0; i < n; i++) if (x[i] > m) m = x[i];
#pragma acc loop gang worker vector
for (i = 0; i < n; i++) y[i] = expf(x[i] - m);
#pragma acc loop gang worker vector reduction(+:s)
for (i = 0; i < n; i++) s = s + y[i];
#pragma acc loop gang worker vector
for (i = 0; i < n; i++) y[i] = y[i] / s;
}
"""


@dataclass
class SoftmaxResult:
    """Softmax output plus the cascade's compilation/timing telemetry."""

    y: np.ndarray
    max_value: float
    denom: float
    num_kernels: int
    kernel_names: tuple[str, ...]
    kernel_ms: float
    total_ms: float


def _compile(n_hint: int | None = None, *, compiler: str = "openuh",
             num_gangs: int = 16, num_workers: int = 1,
             vector_length: int = 64, pipeline=None, **options):
    return acc.compile(SOFTMAX_SRC, compiler=compiler, pipeline=pipeline,
                       num_gangs=num_gangs, num_workers=num_workers,
                       vector_length=vector_length, **options)


def softmax_result(x: np.ndarray, *, executor_mode: str | None = None,
                   **compile_kwargs) -> SoftmaxResult:
    """Stable softmax of ``x`` with full telemetry."""
    x = np.ascontiguousarray(x, dtype=np.float32).reshape(-1)
    prog = _compile(x.size, **compile_kwargs)
    res = prog.run(acc.RunOptions(executor_mode=executor_mode), x=x,
                   y=np.zeros_like(x), m=np.float32(-np.inf),
                   s=np.float32(0.0))
    names = tuple(k.name for k in prog.lowered.kernels)
    return SoftmaxResult(
        y=res.outputs["y"], max_value=float(res.scalars["m"]),
        denom=float(res.scalars["s"]), num_kernels=len(names),
        kernel_names=names, kernel_ms=res.kernel_ms,
        total_ms=res.modeled_ms)


def softmax(x: np.ndarray, **compile_kwargs) -> np.ndarray:
    """Numerically-stable softmax of ``x`` on the simulated device."""
    return softmax_result(x, **compile_kwargs).y
