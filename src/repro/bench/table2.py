"""Table 2 regenerator: the reduction testsuite across three compilers.

Usage::

    python -m repro.bench.table2 [--quick] [--ops + *] [--ctypes int float]

``--quick`` shrinks sizes/geometry for a fast sanity run.  The default uses
the paper's launch configuration (192 gangs × 8 workers × 128 vector) with
the scaled per-position sizes of
:data:`repro.testsuite.cases.BENCH_SIZES` — the simulator is interpreted
Python, so the paper's 1M-iteration loops are scaled down; ratios, not
absolute ms, are the reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.testsuite import run_testsuite
from repro.testsuite.cases import BENCH_SIZES, TABLE2_CTYPES, TABLE2_OPS

__all__ = ["generate_table2"]


def generate_table2(quick: bool = False, ops=TABLE2_OPS,
                    ctypes=TABLE2_CTYPES, progress=None, profiler=None):
    """Run the grid and return the report (Table 2)."""
    if quick:
        return run_testsuite(ops=ops, ctypes=ctypes, size=512,
                             num_gangs=8, num_workers=4, vector_length=32,
                             progress=progress, profiler=profiler)
    return run_testsuite(ops=ops, ctypes=ctypes, sizes=BENCH_SIZES,
                         progress=progress, profiler=profiler)


def main(argv=None) -> int:
    from repro.testsuite.cases import ALL_CTYPES, ALL_OPS

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small sizes/geometry for a fast run")
    ap.add_argument("--ops", nargs="+", default=list(TABLE2_OPS))
    ap.add_argument("--ctypes", nargs="+", default=list(TABLE2_CTYPES))
    ap.add_argument("--all-ops", action="store_true",
                    help="the full coverage grid: all 9 OpenACC operators "
                         "x all 4 data types (invalid combos skipped)")
    ap.add_argument("--profile-out", metavar="PATH",
                    help="write a machine-readable profile of the sweep "
                         "(Chrome-trace JSON, e.g. artifacts/profile.json)")
    args = ap.parse_args(argv)
    if args.all_ops:
        args.ops = list(ALL_OPS)
        args.ctypes = list(ALL_CTYPES)

    t0 = time.time()

    def progress(r):
        print(f"  {r.case.label:<45} {r.compiler:<10} {r.cell():>10}",
              file=sys.stderr, flush=True)

    sink = None
    if args.profile_out:
        from repro.bench.harness import ProfileSink
        sink = ProfileSink(args.profile_out)

    try:
        rep = generate_table2(quick=args.quick, ops=tuple(args.ops),
                              ctypes=tuple(args.ctypes), progress=progress,
                              profiler=sink.profiler if sink else None)
    except BaseException as exc:
        # a failed sweep is when the profile is most wanted: flush the
        # partial trace (stamped truncated) before the error surfaces
        if sink is not None and not isinstance(exc, KeyboardInterrupt):
            path = sink.write({"bench": "table2", "quick": args.quick,
                               "ops": list(args.ops),
                               "ctypes": list(args.ctypes)},
                              truncated_by=exc)
            print(f"[partial profile written to {path} (truncated)]",
                  file=sys.stderr)
        raise
    if sink is not None:
        path = sink.write({"bench": "table2", "quick": args.quick,
                           "ops": list(args.ops),
                           "ctypes": list(args.ctypes)})
        print(f"[profile written to {path}]", file=sys.stderr)
    print()
    print("Table 2 — Performance Results of OpenACC Compilers using the")
    print("reduction testsuite (modeled kernel ms; F = wrong result,")
    print("CE = compile error; vendor-a is CAPS-like, vendor-b PGI-like)")
    print()
    print(rep.to_table())
    print(f"\n[{time.time() - t0:.1f}s wall]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
