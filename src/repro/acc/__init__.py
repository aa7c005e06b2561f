"""User-facing OpenACC-style API.

Typical use::

    from repro import acc

    src = '''
    float a[n];
    int total = 0;
    #pragma acc parallel copyin(a)
    #pragma acc loop gang worker vector reduction(+:total)
    for (i = 0; i < n; i++)
        total += a[i];
    '''
    prog = acc.compile(src)
    result = prog.run(a=my_numpy_array)
    print(result.scalars["total"], result.modeled_ms)

    # run policy (executor, profiler, faults, voting...) is one object
    result = prog.run(acc.RunOptions(executor_mode="reference"),
                      a=my_numpy_array)

``acc.compile`` accepts a ``compiler=`` profile — ``"openuh"`` (the paper's
implementation, default), ``"vendor-a"`` (CAPS-3.4-like baseline) or
``"vendor-b"`` (PGI-13.10-like baseline) — plus launch-geometry overrides.
"""

from repro.acc.compiler import (  # noqa: A001
    compile, Program, RunOptions, RunResult,
)
from repro.acc.profiles import CompilerProfile, get_profile, PROFILES
from repro.acc.launchconfig import resolve_geometry
from repro.acc.dataregion import DataRegion
from repro.acc.openmp import compile_omp

__all__ = [
    "compile",
    "Program",
    "RunOptions",
    "RunResult",
    "CompilerProfile",
    "get_profile",
    "PROFILES",
    "resolve_geometry",
    "DataRegion",
    "compile_omp",
]
