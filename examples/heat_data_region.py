#!/usr/bin/env python
"""Heat equation with a device data region (`#pragma acc data` semantics).

The naive OpenACC version (examples/heat_equation.py, matching the paper's
era) re-transfers the temperature grids across PCIe on every launch.  A
surrounding data region keeps them device-resident; only the scalar
convergence error crosses per iteration.  This example runs both and
reports the modeled transfer savings.

Run:  python examples/heat_data_region.py
"""

import numpy as np

from repro import acc
from repro.apps.heat2d import ERROR_SRC, UPDATE_SRC, initial_grid, solve_heat


#: device-side grid copy (temp1 <- temp2), so the Jacobi ping-pong never
#: touches the host
COPY_SRC = """
float temp1[nj][ni];
float temp2[nj][ni];
#pragma acc parallel copyin(temp2) copyout(temp1)
{
  #pragma acc loop gang
  for (j = 0; j < nj; j++) {
    #pragma acc loop vector
    for (i = 0; i < ni; i++)
      temp1[j][i] = temp2[j][i];
  }
}
"""


def solve_with_data_region(n, tol, max_iters):
    geom = dict(num_gangs=max(4, n - 2), num_workers=1, vector_length=64)
    update = acc.compile(UPDATE_SRC, **geom)
    errprog = acc.compile(ERROR_SRC, **geom)
    devcopy = acc.compile(COPY_SRC, **geom)
    t = initial_grid(n)
    kernel_ms = total_ms = 0.0
    iters = 0
    converged = False
    with acc.DataRegion(copy={"temp1": t, "temp2": t.copy()}) as region:
        opts = acc.RunOptions(data_region=region)
        for it in range(1, max_iters + 1):
            upd = update.run(opts)   # temp2 <- stencil(temp1)
            err = errprog.run(opts)  # error = max|temp1 - temp2|
            cpy = devcopy.run(opts)  # temp1 <- temp2, device-side
            kernel_ms += upd.kernel_ms + err.kernel_ms + cpy.kernel_ms
            total_ms += upd.modeled_ms + err.modeled_ms + cpy.modeled_ms
            iters = it
            if float(err.scalars["error"]) < tol:
                converged = True
                break
    total_ms += region.transfer_ms
    return converged, iters, kernel_ms, total_ms


def main() -> None:
    n, tol, iters = 32, 0.25, 150
    naive = solve_heat(n=n, tol=tol, max_iters=iters)
    conv, its, kms, tms = solve_with_data_region(n, tol, iters)

    print(f"{n}x{n} grid, tolerance {tol}:")
    print(f"  naive per-launch transfers : {naive.iterations:3d} iters, "
          f"{naive.kernel_ms:7.2f} ms kernels, {naive.total_ms:8.2f} ms total")
    print(f"  with data region           : {its:3d} iters, "
          f"{kms:7.2f} ms kernels, {tms:8.2f} ms total")
    assert conv and naive.converged
    assert abs(its - naive.iterations) <= 1
    print(f"\n  -> same convergence; note how much of the naive total was "
          f"PCIe ({naive.total_ms - naive.kernel_ms:.2f} ms)")


if __name__ == "__main__":
    main()
